package sqldb

import (
	"context"
	"errors"
	"slices"
	"strings"
	"testing"

	"repro/internal/variant"
)

func countRows(t *testing.T, db *DB, table string) int64 {
	t.Helper()
	rs, err := db.Query("SELECT count(*) FROM " + table)
	if err != nil {
		t.Fatalf("count(%s): %v", table, err)
	}
	n, err := rs.Rows[0][0].AsInt()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestTxnCommitKeepsChanges(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE t (a integer, b text)`)
	mustExec(t, db, `BEGIN`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 'x'), (2, 'y')`)
	mustExec(t, db, `UPDATE t SET b = 'z' WHERE a = 2`)
	mustExec(t, db, `COMMIT`)
	if n := countRows(t, db, "t"); n != 2 {
		t.Fatalf("rows after commit = %d", n)
	}
	rs, _ := db.Query(`SELECT b FROM t WHERE a = 2`)
	if got := rs.Rows[0][0].AsText(); got != "z" {
		t.Fatalf("b = %q", got)
	}
}

func TestTxnRollbackUndoesDML(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE t (a integer)`)
	mustExec(t, db, `INSERT INTO t VALUES (1), (2), (3)`)
	mustExec(t, db, `BEGIN TRANSACTION`)
	mustExec(t, db, `INSERT INTO t VALUES (4)`)
	mustExec(t, db, `UPDATE t SET a = 99 WHERE a = 1`)
	mustExec(t, db, `DELETE FROM t WHERE a = 2`)
	mustExec(t, db, `ROLLBACK WORK`)
	if n := countRows(t, db, "t"); n != 3 {
		t.Fatalf("rows after rollback = %d", n)
	}
	rs, _ := db.Query(`SELECT sum(a) FROM t`)
	if got, _ := rs.Rows[0][0].AsInt(); got != 6 {
		t.Fatalf("sum after rollback = %d, want 6 (1+2+3)", got)
	}
}

func TestTxnRollbackUndoesDDLAndIndexes(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE keep (a integer)`)
	mustExec(t, db, `INSERT INTO keep VALUES (10), (20)`)
	mustExec(t, db, `CREATE INDEX keep_a ON keep (a)`)

	mustExec(t, db, `BEGIN`)
	mustExec(t, db, `CREATE TABLE temp (x integer)`)
	mustExec(t, db, `DROP TABLE keep`)
	mustExec(t, db, `ROLLBACK`)

	if db.HasTable("temp") {
		t.Error("temp should be rolled back")
	}
	if !db.HasTable("keep") {
		t.Fatal("keep should be restored")
	}
	if len(db.Indexes()) != 1 || db.Indexes()[0].Name != "keep_a" {
		t.Fatalf("indexes after rollback = %+v", db.Indexes())
	}
	// The restored index still answers queries correctly.
	rs, err := db.Query(`SELECT a FROM keep WHERE a = 20`)
	if err != nil || len(rs.Rows) != 1 {
		t.Fatalf("indexed lookup after rollback = %v, %v", rs, err)
	}

	// DROP INDEX rolls back too: the committed index stays, and rows
	// inserted earlier in the rolled-back transaction never surface
	// through it.
	mustExec(t, db, `BEGIN`)
	mustExec(t, db, `INSERT INTO keep VALUES (30)`)
	mustExec(t, db, `DROP INDEX keep_a`)
	mustExec(t, db, `ROLLBACK`)
	if len(db.Indexes()) != 1 {
		t.Fatalf("keep_a should be restored, have %+v", db.Indexes())
	}
	rs, err = db.Query(`SELECT a FROM keep WHERE a = 30`)
	if err != nil || len(rs.Rows) != 0 {
		t.Fatalf("rolled-back row visible through restored index: %v, %v", rs, err)
	}
}

func TestTxnControlErrors(t *testing.T) {
	db := New()
	if _, err := db.Query(`COMMIT`); err == nil || !strings.Contains(err.Error(), "without a transaction") {
		t.Errorf("COMMIT outside txn: %v", err)
	}
	if _, err := db.Query(`ROLLBACK`); err == nil || !strings.Contains(err.Error(), "without a transaction") {
		t.Errorf("ROLLBACK outside txn: %v", err)
	}
	mustExec(t, db, `BEGIN`)
	if _, err := db.Query(`BEGIN`); err == nil || !strings.Contains(err.Error(), "already in progress") {
		t.Errorf("nested BEGIN: %v", err)
	}
	mustExec(t, db, `ROLLBACK`)
}

// TestTxnControlClassification: TxnControl names transaction control by the
// grammar, so every spelling the parser accepts is classified — PostgreSQL's
// END and ABORT, noise words, comments, odd whitespace — and nothing else
// is; ABORT stays usable as an identifier.
func TestTxnControlClassification(t *testing.T) {
	db := New()
	for sql, want := range map[string]string{
		"BEGIN":                     "BEGIN",
		"begin\ttransaction;":       "BEGIN",
		"/* x */ BEGIN  WORK":       "BEGIN",
		"BEGIN -- open":             "BEGIN",
		"COMMIT WORK":               "COMMIT",
		"END":                       "COMMIT",
		"end transaction":           "COMMIT",
		"ROLLBACK -- undo":          "ROLLBACK",
		"ABORT":                     "ROLLBACK",
		"abort work;":               "ROLLBACK",
		"SELECT 1":                  "",
		"SELECT abort FROM t":       "",
		"BEGINNING":                 "",
		"not sql at all":            "",
		"INSERT INTO t VALUES (1)":  "",
		"SELECT 'BEGIN' AS keyword": "",
	} {
		if got := db.TxnControl(sql); got != want {
			t.Errorf("TxnControl(%q) = %q, want %q", sql, got, want)
		}
	}
	mustExec(t, db, `CREATE TABLE t (abort integer)`)
	mustExec(t, db, `BEGIN`)
	mustExec(t, db, `INSERT INTO t VALUES (1)`)
	mustExec(t, db, `ABORT`)
	mustExec(t, db, `BEGIN`)
	mustExec(t, db, `INSERT INTO t VALUES (2)`)
	mustExec(t, db, `END`)
	rs := mustQuery(t, db, `SELECT abort FROM t`)
	if len(rs.Rows) != 1 || rs.Rows[0][0].Int() != 2 {
		t.Fatalf("rows after ABORT then END = %v, want [[2]]", rs.Rows)
	}
}

func TestTxnStatementAtomicity(t *testing.T) {
	// A failing multi-row INSERT leaves no partial rows behind, inside and
	// outside explicit transactions.
	db := New()
	mustExec(t, db, `CREATE TABLE t (a integer)`)
	if _, err := db.Query(`INSERT INTO t VALUES (1), (2), ('boom')`); err == nil {
		t.Fatal("expected coercion failure")
	}
	if n := countRows(t, db, "t"); n != 0 {
		t.Fatalf("partial insert rows survived: %d", n)
	}
	mustExec(t, db, `BEGIN`)
	mustExec(t, db, `INSERT INTO t VALUES (7)`)
	if _, err := db.Query(`INSERT INTO t VALUES (8), ('boom')`); err == nil {
		t.Fatal("expected coercion failure")
	}
	mustExec(t, db, `COMMIT`)
	if n := countRows(t, db, "t"); n != 1 {
		t.Fatalf("rows after failed statement in txn = %d, want 1", n)
	}
}

func TestTxnScriptGrouping(t *testing.T) {
	db := New()
	if _, err := db.ExecScript(`
		CREATE TABLE t (a integer);
		BEGIN;
		INSERT INTO t VALUES (1);
		ROLLBACK;
		BEGIN;
		INSERT INTO t VALUES (2);
		COMMIT;
	`); err != nil {
		t.Fatal(err)
	}
	rs, err := db.Query(`SELECT a FROM t`)
	if err != nil || len(rs.Rows) != 1 {
		t.Fatalf("rows = %v, %v", rs, err)
	}
	if got, _ := rs.Rows[0][0].AsInt(); got != 2 {
		t.Fatalf("surviving row = %d, want 2", got)
	}
}

// TestTxOnCommit: a closure a function registers with OnCommit runs exactly
// once, in registration order, when the enclosing transaction commits —
// through Tx.Commit, SQL COMMIT on a Conn, or as an autocommit statement —
// and sees the committed row from a fresh read. A rollback, a failed commit
// and a failed statement drop it; a read-only statement's handle ignores it.
func TestTxOnCommit(t *testing.T) {
	db := newSuiteDB(t)
	mustExec(t, db, `CREATE TABLE t (a int)`)
	var fired []int64 // per run: the value, negated if the row was not visible
	calls := 0
	db.RegisterScalar("put", func(ctx context.Context, tx *Tx, args []variant.Value) (variant.Value, error) {
		calls++
		v := args[0].Int()
		tx.OnCommit(func() {
			rs, err := db.Query(`SELECT count(*) FROM t WHERE a = $1`, v)
			if err != nil || rs.Rows[0][0].Int() != 1 {
				v = -v
			}
			fired = append(fired, v)
		})
		_, err := tx.QueryContext(ctx, `INSERT INTO t VALUES ($1)`, v)
		return args[0], err
	}, false)
	db.RegisterScalar("peek", func(ctx context.Context, tx *Tx, _ []variant.Value) (variant.Value, error) {
		tx.OnCommit(func() { fired = append(fired, 0) })
		return variant.NewInt(0), nil
	}, true)
	want := func(step string, vals ...int64) {
		t.Helper()
		if !slices.Equal(fired, vals) {
			t.Fatalf("%s: closures ran %v, want %v", step, fired, vals)
		}
	}
	ctx := context.Background()

	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`SELECT put(1)`); err != nil {
		t.Fatal(err)
	}
	want("before Tx.Commit")
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	want("after Tx.Commit", 1)

	c := db.Conn()
	connExec(t, c, `BEGIN`, `SELECT put(2)`)
	want("before SQL COMMIT", 1)
	connExec(t, c, `COMMIT`)
	want("after SQL COMMIT", 1, 2)

	mustExec(t, db, `SELECT put(3), put(4)`)
	want("after an autocommit statement", 1, 2, 3, 4)

	tx, err = db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`SELECT put(5)`); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	want("after Rollback", 1, 2, 3, 4)

	a, b := db.Conn(), db.Conn()
	connExec(t, a, `BEGIN`, `CREATE TABLE s (v int)`)
	connExec(t, b, `BEGIN`, `CREATE TABLE s (v int)`, `SELECT put(6)`)
	connExec(t, a, `COMMIT`)
	if _, err := b.ExecContext(ctx, `COMMIT`); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("commit losing the name s: %v, want ErrWriteConflict", err)
	}
	want("after a failed commit", 1, 2, 3, 4)

	tx, err = db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	before := calls
	if _, err := tx.Exec(`SELECT put(7), 1/0`); err == nil {
		t.Fatal("SELECT put(7), 1/0 succeeded")
	}
	if calls != before+1 {
		t.Fatalf("put ran %d times in the failed statement, want 1", calls-before)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	want("after a failed statement's transaction commits", 1, 2, 3, 4)

	mustExec(t, db, `SELECT peek()`)
	want("after a read-only statement", 1, 2, 3, 4)
}
