package sqldb

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/variant"
)

// Dump writes the database as a SQL script (CREATE TABLE + INSERT + CREATE
// INDEX statements): the snapshot format of a durable directory, and the
// export — a dump placed as <dir>/snapshot.sql opens as a database. Tables
// are emitted in name order; values are rendered as re-parseable literals;
// each table's secondary indexes follow its rows so a reload rebuilds them
// in one pass.
func (db *DB) Dump(w io.Writer) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.dumpCommitted(w)
}

// dumpCommitted writes the dump of one committed state while the caller
// holds either lock mode; the checkpoint path calls it under the exclusive
// lock (where taking the read lock again would self-deadlock). The
// catalogue and the clock are read together under commitMu, so the dump
// holds every transaction whole or not at all. In-flight writers keep their
// uncommitted versions and DDL out of it by construction.
func (db *DB) dumpCommitted(w io.Writer) error {
	db.commitMu.Lock()
	cat, snap := db.tables.Load(), snapshot{ts: db.clock.Load()}
	db.commitMu.Unlock()
	indexesByTable := make(map[string][]IndexInfo)
	for _, info := range cat.indexInfos() {
		indexesByTable[info.Table] = append(indexesByTable[info.Table], info)
	}
	for _, name := range cat.names {
		t := cat.tables[name]
		cols := make([]string, len(t.Columns))
		for i, c := range t.Columns {
			cols[i] = fmt.Sprintf("%s %s", quoteIdent(c.Name), c.Type)
		}
		if _, err := fmt.Fprintf(w, "CREATE TABLE %s (%s);\n", quoteIdent(t.Name), strings.Join(cols, ", ")); err != nil {
			return err
		}
		v := t.loadView()
		for pos, row := range v.rows {
			if !snap.visible(v.meta[pos]) {
				continue
			}
			vals := make([]string, len(row))
			for i, v := range row {
				vals[i] = v.SQLLiteral()
				// Timestamps in variant columns need an explicit cast so the
				// restored value keeps its kind (a bare literal would re-enter
				// as text).
				if t.Columns[i].Type == "variant" && v.Kind() == variant.Time {
					vals[i] += "::timestamp"
				}
			}
			if _, err := fmt.Fprintf(w, "INSERT INTO %s VALUES (%s);\n", quoteIdent(t.Name), strings.Join(vals, ", ")); err != nil {
				return err
			}
		}
		for _, info := range indexesByTable[t.Name] {
			if _, err := fmt.Fprintf(w, "CREATE INDEX %s ON %s (%s) USING %s;\n",
				quoteIdent(info.Name), quoteIdent(info.Table), quoteIdent(info.Column), info.Kind); err != nil {
				return err
			}
		}
	}
	return nil
}
