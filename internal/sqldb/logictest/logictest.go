// Package logictest is a sqllogictest-style differential harness for the
// sqldb engine: declarative .slt files pair SQL with expected results, and
// the runner executes every file through several passes — against a fresh
// in-memory database; against a durable database that is closed and
// reopened through WAL recovery after the script completes, with every
// query replayed against the recovered state; and against a durable
// database that is checkpointed at the end of the script, closed, and
// reopened from its snapshot (Dump's format) over an empty WAL, with the
// queries replayed against the restored image. A divergence in any pass
// fails with the offending file, line, and diff.
//
// # File format
//
// A file is a sequence of records separated by blank lines. Lines starting
// with '#' are comments.
//
//	statement ok
//	CREATE TABLE t (a integer, b text)
//
//	statement error duplicate column
//	CREATE TABLE u (x integer, x integer)
//
//	query
//	SELECT a, b FROM t ORDER BY a
//	----
//	1|one
//	2|NULL
//
// "statement ok" runs the SQL and requires success; "statement error SUBSTR"
// requires an error containing SUBSTR. "query" runs the SQL and compares the
// result row-by-row against the lines after "----": columns joined by '|',
// SQL NULL spelled NULL, values rendered in SQL result style (floats in Go
// %g form). An empty result is a query record with nothing after "----".
//
// # Recovery replay convention
//
// The recovery passes re-run every query after the whole script has
// executed and the database has been reopened from its WAL or snapshot.
// Corpus files must therefore issue queries only against state that is
// final at end-of-script (the idiomatic layout: DDL and DML first, then
// queries). A file that mutates a table after querying it will fail the
// recovery passes by design.
package logictest

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/sqldb"
)

// Record is one directive of an .slt file.
type Record struct {
	Line int // 1-based line of the directive
	// Kind is "statement" or "query".
	Kind string
	// ErrSubstr is the expected error substring ("statement error"); empty
	// means the statement must succeed.
	ErrSubstr string
	// WantError distinguishes "statement error" (any error when ErrSubstr
	// is empty would be ambiguous, so the substring is required).
	WantError bool
	SQL       string
	// Expected holds the formatted expected rows of a query.
	Expected []string
}

// ParseFile reads an .slt script.
func ParseFile(path string) ([]Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(string(data), "\n")
	var recs []Record
	i := 0
	for i < len(lines) {
		line := strings.TrimRight(lines[i], "\r")
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "#") {
			i++
			continue
		}
		rec := Record{Line: i + 1}
		switch {
		case trimmed == "statement ok":
			rec.Kind = "statement"
		case strings.HasPrefix(trimmed, "statement error"):
			rec.Kind = "statement"
			rec.WantError = true
			rec.ErrSubstr = strings.TrimSpace(strings.TrimPrefix(trimmed, "statement error"))
			if rec.ErrSubstr == "" {
				return nil, fmt.Errorf("%s:%d: statement error needs a substring", path, i+1)
			}
		case trimmed == "query":
			rec.Kind = "query"
		default:
			return nil, fmt.Errorf("%s:%d: unknown directive %q", path, i+1, trimmed)
		}
		i++
		// SQL body: lines until blank, "----", or EOF.
		var sqlLines []string
		for i < len(lines) {
			l := strings.TrimRight(lines[i], "\r")
			if strings.TrimSpace(l) == "" || strings.TrimSpace(l) == "----" {
				break
			}
			sqlLines = append(sqlLines, l)
			i++
		}
		rec.SQL = strings.TrimSpace(strings.Join(sqlLines, "\n"))
		if rec.SQL == "" {
			return nil, fmt.Errorf("%s:%d: directive without SQL", path, rec.Line)
		}
		if rec.Kind == "query" {
			if i >= len(lines) || strings.TrimSpace(lines[i]) != "----" {
				return nil, fmt.Errorf("%s:%d: query needs a ---- result block", path, rec.Line)
			}
			i++ // skip ----
			for i < len(lines) {
				l := strings.TrimRight(lines[i], "\r")
				if strings.TrimSpace(l) == "" {
					break
				}
				rec.Expected = append(rec.Expected, l)
				i++
			}
		}
		recs = append(recs, rec)
	}
	return recs, nil
}

// FormatRows renders a result set in the harness's row syntax.
func FormatRows(rs *sqldb.ResultSet) []string {
	out := make([]string, len(rs.Rows))
	for i, r := range rs.Rows {
		parts := make([]string, len(r))
		for j, v := range r {
			parts[j] = v.String() // NULL renders as "NULL"
		}
		out[i] = strings.Join(parts, "|")
	}
	return out
}

// Runner reports harness failures through any testing.T-compatible sink.
type Runner struct {
	Fatalf func(format string, args ...any)
}

// RunFile executes one script through every pass.
func (r *Runner) RunFile(path string, tmpDir string) {
	recs, err := ParseFile(path)
	if err != nil {
		r.Fatalf("%v", err)
		return
	}
	name := filepath.Base(path)

	// Pass 1: fresh in-memory database.
	mem := sqldb.New()
	r.runRecords(name+" (fresh)", mem, recs, false)

	// Pass 2: durable database — run the script, then close, reopen
	// through WAL recovery, and replay every query against the recovered
	// state.
	base := filepath.Join(tmpDir, strings.TrimSuffix(name, ".slt"))
	r.durablePass(name, base, recs, false)

	// Pass 3: the same, but the script's final state is checkpointed first,
	// so the reopen restores snapshot.sql (Dump's format) over an empty WAL.
	r.durablePass(name, base+"-checkpointed", recs, true)
}

// durablePass runs recs against a durable database in dir, optionally
// checkpoints it, closes it, reopens the directory, and replays every
// query against the recovered state. The recovered database must also
// Dump exactly what the original dumped before closing and list the same
// indexes, so state no query result shows is checked too.
func (r *Runner) durablePass(name, dir string, recs []Record, checkpoint bool) {
	label, recLabel := name+" (durable)", name+" (recovered)"
	if checkpoint {
		label, recLabel = name+" (checkpointed)", name+" (checkpoint recovered)"
	}
	db := sqldb.New()
	if err := db.EnableDurability(dir, sqldb.DurabilityOptions{}); err != nil {
		r.Fatalf("%s: enabling durability: %v", label, err)
		return
	}
	r.runRecords(label, db, recs, false)
	if checkpoint {
		if err := db.Checkpoint(); err != nil {
			r.Fatalf("%s: checkpoint: %v", label, err)
			return
		}
	}
	var before, after strings.Builder
	if err := db.Dump(&before); err != nil {
		r.Fatalf("%s: dump: %v", label, err)
		return
	}
	indexes := fmt.Sprint(db.Indexes())
	if err := db.Close(); err != nil {
		r.Fatalf("%s: closing durable db: %v", label, err)
		return
	}
	if checkpoint {
		wals, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
		if len(wals) != 1 {
			r.Fatalf("%s: want one wal after the checkpoint, found %v", label, wals)
			return
		}
		if fi, err := os.Stat(wals[0]); err != nil || fi.Size() != 0 {
			r.Fatalf("%s: wal after the checkpoint is not empty (%v, %v)", label, fi, err)
			return
		}
	}
	rec := sqldb.New()
	if err := rec.EnableDurability(dir, sqldb.DurabilityOptions{}); err != nil {
		r.Fatalf("%s: reopening through recovery: %v", recLabel, err)
		return
	}
	defer rec.Close()
	if err := rec.Dump(&after); err != nil {
		r.Fatalf("%s: dump: %v", recLabel, err)
		return
	}
	if diff := diffRows(strings.Split(before.String(), "\n"), strings.Split(after.String(), "\n")); diff != "" {
		r.Fatalf("%s: dump differs from the one taken before closing\n%s", recLabel, diff)
		return
	}
	if got := fmt.Sprint(rec.Indexes()); got != indexes {
		r.Fatalf("%s: indexes %s, want %s", recLabel, got, indexes)
		return
	}
	r.runRecords(recLabel, rec, recs, true)
}

// runRecords executes a script's records; queriesOnly replays only the query
// records (the recovery pass).
func (r *Runner) runRecords(label string, db *sqldb.DB, recs []Record, queriesOnly bool) {
	for _, rec := range recs {
		if queriesOnly && rec.Kind != "query" {
			continue
		}
		switch rec.Kind {
		case "statement":
			_, err := db.Query(rec.SQL)
			if rec.WantError {
				if err == nil {
					r.Fatalf("%s:%d: statement succeeded, want error containing %q\n%s", label, rec.Line, rec.ErrSubstr, rec.SQL)
					return
				}
				if !strings.Contains(err.Error(), rec.ErrSubstr) {
					r.Fatalf("%s:%d: error %q does not contain %q\n%s", label, rec.Line, err, rec.ErrSubstr, rec.SQL)
					return
				}
				continue
			}
			if err != nil {
				r.Fatalf("%s:%d: %v\n%s", label, rec.Line, err, rec.SQL)
				return
			}
		case "query":
			rs, err := db.Query(rec.SQL)
			if err != nil {
				r.Fatalf("%s:%d: %v\n%s", label, rec.Line, err, rec.SQL)
				return
			}
			got := FormatRows(rs)
			if diff := diffRows(rec.Expected, got); diff != "" {
				r.Fatalf("%s:%d: result mismatch\n%s\n%s", label, rec.Line, rec.SQL, diff)
				return
			}
		}
	}
}

// diffRows renders a want/got diff; empty when equal.
func diffRows(want, got []string) string {
	if len(want) == len(got) {
		equal := true
		for i := range want {
			if want[i] != got[i] {
				equal = false
				break
			}
		}
		if equal {
			return ""
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "--- want (%d rows)\n", len(want))
	for _, l := range want {
		sb.WriteString(l + "\n")
	}
	fmt.Fprintf(&sb, "--- got (%d rows)\n", len(got))
	for _, l := range got {
		sb.WriteString(l + "\n")
	}
	return sb.String()
}

// Files lists the corpus scripts under dir, sorted for determinism.
func Files(dir string) ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, "*.slt"))
	if err != nil {
		return nil, err
	}
	sort.Strings(matches)
	return matches, nil
}
