package sqldb

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// seedIndexed creates a small typed table used across the index tests.
func seedIndexed(t *testing.T, db *DB) {
	t.Helper()
	mustExec(t, db, `CREATE TABLE pts (id integer, name text, val float)`)
	for i := 0; i < 50; i++ {
		mustExec(t, db, `INSERT INTO pts VALUES ($1, $2, $3)`,
			i, fmt.Sprintf("p%02d", i), float64(i)/2)
	}
}

// queryIDs collects the id column of a result as a sorted-order slice.
func queryIDs(t *testing.T, db *DB, sql string, args ...any) []int64 {
	t.Helper()
	rs := mustQuery(t, db, sql, args...)
	idx := rs.ColumnIndex("id")
	if idx < 0 {
		t.Fatalf("result has no id column: %+v", rs.Columns)
	}
	out := make([]int64, len(rs.Rows))
	for i, r := range rs.Rows {
		v, err := r[idx].AsInt()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = v
	}
	return out
}

func TestParseCreateIndex(t *testing.T) {
	stmt, err := Parse(`CREATE INDEX idx_pts_id ON pts (id) USING hash`)
	if err != nil {
		t.Fatal(err)
	}
	ci, ok := stmt.(*CreateIndexStmt)
	if !ok {
		t.Fatalf("got %T", stmt)
	}
	if ci.Name != "idx_pts_id" || ci.Table != "pts" || ci.Column != "id" || ci.Using != IndexHash {
		t.Errorf("stmt = %+v", ci)
	}

	stmt, err = Parse(`CREATE INDEX IF NOT EXISTS i2 ON t (c)`)
	if err != nil {
		t.Fatal(err)
	}
	ci = stmt.(*CreateIndexStmt)
	if !ci.IfNotExists || ci.Using != IndexOrdered {
		t.Errorf("stmt = %+v", ci)
	}

	for _, bad := range []string{
		`CREATE INDEX i ON t (c) USING gin`,
		`CREATE INDEX i ON t`,
		`CREATE INDEX ON t (c)`,
		`CREATE INDEX i t (c)`,
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) should fail", bad)
		}
	}
}

func TestParseDropIndex(t *testing.T) {
	stmt, err := Parse(`DROP INDEX idx_pts_id`)
	if err != nil {
		t.Fatal(err)
	}
	di, ok := stmt.(*DropIndexStmt)
	if !ok || di.Name != "idx_pts_id" || di.IfExists {
		t.Fatalf("got %T %+v", stmt, stmt)
	}
	stmt, err = Parse(`DROP INDEX IF EXISTS nope`)
	if err != nil {
		t.Fatal(err)
	}
	if di := stmt.(*DropIndexStmt); !di.IfExists {
		t.Errorf("IfExists not set: %+v", di)
	}
}

func TestIndexedEqualityLookup(t *testing.T) {
	for _, kind := range []string{IndexHash, IndexOrdered} {
		t.Run(kind, func(t *testing.T) {
			db := New()
			seedIndexed(t, db)
			mustExec(t, db, fmt.Sprintf(`CREATE INDEX i ON pts (id) USING %s`, kind))

			ids := queryIDs(t, db, `SELECT id FROM pts WHERE id = 17`)
			if len(ids) != 1 || ids[0] != 17 {
				t.Errorf("ids = %v", ids)
			}
			// Parameterized probe.
			ids = queryIDs(t, db, `SELECT id FROM pts WHERE id = $1`, 33)
			if len(ids) != 1 || ids[0] != 33 {
				t.Errorf("ids = %v", ids)
			}
			// Miss.
			if ids := queryIDs(t, db, `SELECT id FROM pts WHERE id = 999`); len(ids) != 0 {
				t.Errorf("ids = %v", ids)
			}
			// Residual conjunct still applies on top of the index candidates.
			ids = queryIDs(t, db, `SELECT id FROM pts WHERE id = 17 AND val > 100`)
			if len(ids) != 0 {
				t.Errorf("ids = %v", ids)
			}
		})
	}
}

func TestIndexedRangeLookup(t *testing.T) {
	db := New()
	seedIndexed(t, db)
	mustExec(t, db, `CREATE INDEX i ON pts (id) USING btree`)

	ids := queryIDs(t, db, `SELECT id FROM pts WHERE id BETWEEN 10 AND 13`)
	if want := []int64{10, 11, 12, 13}; fmt.Sprint(ids) != fmt.Sprint(want) {
		t.Errorf("BETWEEN ids = %v, want %v", ids, want)
	}
	ids = queryIDs(t, db, `SELECT id FROM pts WHERE id > 46`)
	if want := []int64{47, 48, 49}; fmt.Sprint(ids) != fmt.Sprint(want) {
		t.Errorf("> ids = %v, want %v", ids, want)
	}
	ids = queryIDs(t, db, `SELECT id FROM pts WHERE id <= 1`)
	if want := []int64{0, 1}; fmt.Sprint(ids) != fmt.Sprint(want) {
		t.Errorf("<= ids = %v, want %v", ids, want)
	}
	// Reversed operand order: 47 <= id.
	ids = queryIDs(t, db, `SELECT id FROM pts WHERE 47 <= id`)
	if want := []int64{47, 48, 49}; fmt.Sprint(ids) != fmt.Sprint(want) {
		t.Errorf("reversed ids = %v, want %v", ids, want)
	}
	// Range over a text-typed ordered index.
	mustExec(t, db, `CREATE INDEX iname ON pts (name)`)
	rs := mustQuery(t, db, `SELECT name FROM pts WHERE name BETWEEN 'p10' AND 'p12'`)
	if len(rs.Rows) != 3 {
		t.Errorf("text range rows = %d", len(rs.Rows))
	}
}

// TestIndexMatchesScan cross-checks every indexed query shape against the
// same query with no index present.
func TestIndexMatchesScan(t *testing.T) {
	queries := []string{
		`SELECT id FROM pts WHERE id = 7`,
		`SELECT id FROM pts WHERE id = 7 OR id = 9`, // OR: not indexable, must scan
		`SELECT id FROM pts WHERE id BETWEEN 5 AND 9 AND val < 4`,
		`SELECT id FROM pts WHERE id >= 44 AND id < 48`,
		`SELECT id FROM pts WHERE val = 2.5`,
		`SELECT id FROM pts WHERE id = 3 ORDER BY id DESC`,
	}
	scan := New()
	seedIndexed(t, scan)
	indexed := New()
	seedIndexed(t, indexed)
	mustExec(t, indexed, `CREATE INDEX ih ON pts (id) USING hash`)
	mustExec(t, indexed, `CREATE INDEX ib ON pts (id) USING btree`)
	mustExec(t, indexed, `CREATE INDEX iv ON pts (val) USING btree`)
	for _, q := range queries {
		want := queryIDs(t, scan, q)
		got := queryIDs(t, indexed, q)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: indexed %v != scan %v", q, got, want)
		}
	}
}

func TestIndexMaintenance(t *testing.T) {
	db := New()
	seedIndexed(t, db)
	mustExec(t, db, `CREATE INDEX i ON pts (id) USING hash`)
	mustExec(t, db, `CREATE INDEX ib ON pts (val) USING btree`)

	// INSERT after CREATE INDEX.
	mustExec(t, db, `INSERT INTO pts VALUES (100, 'new', 50.0)`)
	if ids := queryIDs(t, db, `SELECT id FROM pts WHERE id = 100`); len(ids) != 1 {
		t.Fatalf("inserted row not found via index: %v", ids)
	}

	// UPDATE moves a row across keys: old key must stop matching.
	mustExec(t, db, `UPDATE pts SET id = 200 WHERE id = 17`)
	if ids := queryIDs(t, db, `SELECT id FROM pts WHERE id = 17`); len(ids) != 0 {
		t.Errorf("stale index entry after UPDATE: %v", ids)
	}
	if ids := queryIDs(t, db, `SELECT id FROM pts WHERE id = 200`); len(ids) != 1 {
		t.Errorf("moved row not found: %v", ids)
	}

	// DELETE compacts positions; remaining lookups must stay correct.
	mustExec(t, db, `DELETE FROM pts WHERE id < 10`)
	if ids := queryIDs(t, db, `SELECT id FROM pts WHERE id = 5`); len(ids) != 0 {
		t.Errorf("deleted row still indexed: %v", ids)
	}
	if ids := queryIDs(t, db, `SELECT id FROM pts WHERE id = 40`); len(ids) != 1 || ids[0] != 40 {
		t.Errorf("surviving row lost after DELETE: %v", ids)
	}
	rs := mustQuery(t, db, `SELECT id FROM pts WHERE val BETWEEN 20 AND 21`)
	if len(rs.Rows) != 3 { // val 20, 20.5, 21
		t.Errorf("range after DELETE: %d rows", len(rs.Rows))
	}

	// Bulk-load path (InsertRow) maintains indexes too.
	if err := db.InsertRow("pts", 300, "bulk", 1.25); err != nil {
		t.Fatal(err)
	}
	if ids := queryIDs(t, db, `SELECT id FROM pts WHERE id = 300`); len(ids) != 1 {
		t.Errorf("InsertRow row not indexed: %v", ids)
	}
}

func TestCreateIndexErrors(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE t (a int, v variant)`)
	mustExec(t, db, `CREATE INDEX i ON t (a)`)

	if _, err := db.Exec(`CREATE INDEX i ON t (a)`); err == nil {
		t.Error("duplicate index name should fail")
	}
	mustExec(t, db, `CREATE INDEX IF NOT EXISTS i ON t (a)`)
	if _, err := db.Exec(`CREATE INDEX i2 ON missing (a)`); err == nil {
		t.Error("missing table should fail")
	}
	if _, err := db.Exec(`CREATE INDEX i2 ON t (nope)`); err == nil {
		t.Error("missing column should fail")
	}
	if _, err := db.Exec(`CREATE INDEX i2 ON t (v)`); err == nil {
		t.Error("variant column should fail")
	}
	if _, err := db.Exec(`DROP INDEX nope`); err == nil {
		t.Error("dropping unknown index should fail")
	}
	mustExec(t, db, `DROP INDEX IF EXISTS nope`)
	mustExec(t, db, `DROP INDEX i`)
	// Name is free again.
	mustExec(t, db, `CREATE INDEX i ON t (a)`)
}

func TestDropTableDropsIndexes(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE t (a int)`)
	mustExec(t, db, `CREATE INDEX i ON t (a)`)
	mustExec(t, db, `DROP TABLE t`)
	if n := len(db.Indexes()); n != 0 {
		t.Fatalf("indexes after DROP TABLE = %d", n)
	}
	// The index name is released with its table.
	mustExec(t, db, `CREATE TABLE t (a int)`)
	mustExec(t, db, `CREATE INDEX i ON t (a)`)
}

func TestIndexIntrospection(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE t (a int, b text)`)
	mustExec(t, db, `CREATE INDEX ib ON t (b) USING hash`)
	if err := db.CreateIndex("ia", "t", "a", ""); err != nil {
		t.Fatal(err)
	}
	infos := db.Indexes()
	if len(infos) != 2 {
		t.Fatalf("infos = %+v", infos)
	}
	if infos[0].Name != "ia" || infos[0].Kind != IndexOrdered || infos[1].Name != "ib" || infos[1].Kind != IndexHash {
		t.Errorf("infos = %+v", infos)
	}
	if err := db.DropIndex("ia"); err != nil {
		t.Fatal(err)
	}
	if err := db.DropIndex("ia"); err == nil {
		t.Error("double drop should fail")
	}
}

func TestIndexDumpRestoreRoundTrip(t *testing.T) {
	db := New()
	seedIndexed(t, db)
	mustExec(t, db, `CREATE INDEX ih ON pts (id) USING hash`)
	mustExec(t, db, `CREATE INDEX ib ON pts (val) USING btree`)

	var buf bytes.Buffer
	if err := db.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	script := buf.String()
	if !strings.Contains(script, `CREATE INDEX "ih" ON "pts" ("id") USING hash;`) ||
		!strings.Contains(script, `CREATE INDEX "ib" ON "pts" ("val") USING btree;`) {
		t.Fatalf("dump missing index DDL:\n%s", script)
	}

	restored := mustOpenSnapshot(t, script)
	infos := restored.Indexes()
	if len(infos) != 2 || infos[0].Name != "ib" || infos[1].Name != "ih" {
		t.Fatalf("restored indexes = %+v", infos)
	}
	if ids := queryIDs(t, restored, `SELECT id FROM pts WHERE id = 21`); len(ids) != 1 || ids[0] != 21 {
		t.Errorf("restored index lookup = %v", ids)
	}
}

func TestIndexNullHandling(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE t (a int, b int)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 1), (NULL, 2), (3, 3)`)
	mustExec(t, db, `CREATE INDEX i ON t (a)`)

	rs := mustQuery(t, db, `SELECT b FROM t WHERE a = 1`)
	if len(rs.Rows) != 1 {
		t.Errorf("rows = %d", len(rs.Rows))
	}
	// NULL keys are not indexed and never match equality or range probes —
	// identical to scan semantics.
	rs = mustQuery(t, db, `SELECT b FROM t WHERE a BETWEEN 0 AND 10`)
	if len(rs.Rows) != 2 {
		t.Errorf("range rows = %d", len(rs.Rows))
	}
	// IS NULL is not an index probe; the scan path must still find the row.
	rs = mustQuery(t, db, `SELECT b FROM t WHERE a IS NULL`)
	if len(rs.Rows) != 1 {
		t.Errorf("IS NULL rows = %d", len(rs.Rows))
	}
}

// TestIndexAliasedTable ensures qualified column references against a table
// alias still hit the index.
func TestIndexAliasedTable(t *testing.T) {
	db := New()
	seedIndexed(t, db)
	mustExec(t, db, `CREATE INDEX i ON pts (id) USING hash`)
	ids := queryIDs(t, db, `SELECT p.id AS id FROM pts AS p WHERE p.id = 12`)
	if len(ids) != 1 || ids[0] != 12 {
		t.Errorf("ids = %v", ids)
	}
}

// TestIndexCoercionGuard pins that a probe whose coercion would change the
// comparison semantics falls back to the scan path, so index presence never
// changes a query's outcome (including its errors).
func TestIndexCoercionGuard(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE t (name text, id integer)`)
	mustExec(t, db, `INSERT INTO t VALUES ('5', 5)`)
	mustExec(t, db, `CREATE INDEX i ON t (name) USING hash`)
	mustExec(t, db, `CREATE INDEX j ON t (id) USING btree`)

	// text = int is a type error on the scan path; the index must not turn
	// it into an empty result.
	if _, err := db.Query(`SELECT * FROM t WHERE name = 5`); err == nil {
		t.Error("name = 5 should be a comparison error with an index, as without")
	}
	// Numeric widening is value-preserving and stays on the index path.
	rs := mustQuery(t, db, `SELECT * FROM t WHERE id = 5.0`)
	if len(rs.Rows) != 1 {
		t.Errorf("id = 5.0 rows = %d", len(rs.Rows))
	}
	// Non-integral probes on an integer column fall back and filter normally.
	rs = mustQuery(t, db, `SELECT * FROM t WHERE id BETWEEN 4.5 AND 5.5`)
	if len(rs.Rows) != 1 {
		t.Errorf("fractional BETWEEN rows = %d", len(rs.Rows))
	}
}

// TestIndexIgnoresColumnAliases pins that a FROM item with column aliases
// bypasses the index path: the aliased names must resolve (or fail)
// identically with and without an index present.
func TestIndexIgnoresColumnAliases(t *testing.T) {
	db := New()
	seedIndexed(t, db)
	mustExec(t, db, `CREATE INDEX i ON pts (id) USING hash`)

	// The original column name is out of scope once aliased; this must be
	// an unknown-column error even though an index on id exists.
	if _, err := db.Query(`SELECT * FROM pts AS p (a, b, c) WHERE id = 3`); err == nil {
		t.Error("aliased-away column must not resolve through the index")
	}
	rs := mustQuery(t, db, `SELECT a, b FROM pts AS p (a, b, c) WHERE a = 3`)
	if len(rs.Rows) != 1 || rs.Columns[0].Name != "a" {
		t.Errorf("aliased query = %+v", rs)
	}
}
