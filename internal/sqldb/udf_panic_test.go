package sqldb

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/variant"
)

// TestUDFPanicIsContained: a UDF that panics — a scalar function called from
// a compiled expression, or a table function called in FROM, directly or
// laterally — fails only the statement that called it, with ErrInternal
// naming the function and the panic value. The explicit transaction around
// it stays open: ROLLBACK undoes its earlier insert, and the database keeps
// answering.
func TestUDFPanicIsContained(t *testing.T) {
	db := New()
	db.RegisterScalar("boom", func(context.Context, *DB, []variant.Value) (variant.Value, error) {
		panic("scalar kaboom")
	}, true)
	db.RegisterTable("boom_rows", func(context.Context, *DB, []variant.Value) (RowStream, error) {
		panic("table kaboom")
	}, true)
	mustExec(t, db, `CREATE TABLE t (a integer)`)
	for _, c := range []struct{ sql, want string }{
		{`SELECT boom(a) FROM t`, "boom() panicked: scalar kaboom"},
		{`SELECT a FROM t WHERE boom(a) = 1`, "boom() panicked: scalar kaboom"},
		{`SELECT sum(boom(a)) FROM t`, "boom() panicked: scalar kaboom"},
		{`UPDATE t SET a = boom(a)`, "boom() panicked: scalar kaboom"},
		{`SELECT * FROM boom_rows(1)`, "boom_rows() panicked: table kaboom"},
		{`SELECT t.a, r.x FROM t, boom_rows(t.a) AS r(x)`, "boom_rows() panicked: table kaboom"},
	} {
		mustExec(t, db, `BEGIN`)
		mustExec(t, db, `INSERT INTO t VALUES (1)`)
		_, err := db.Query(c.sql)
		if !errors.Is(err, ErrInternal) || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: err = %v, want ErrInternal naming %q", c.sql, err, c.want)
		}
		mustExec(t, db, `ROLLBACK`)
		if n := mustQuery(t, db, `SELECT count(*) FROM t`).Rows[0][0].Int(); n != 0 {
			t.Fatalf("%s: %d rows after ROLLBACK, want 0", c.sql, n)
		}
	}
	if got := mustQuery(t, db, `SELECT 1 + 1`).Rows[0][0].Int(); got != 2 {
		t.Fatalf("SELECT 1 + 1 = %d after the panics", got)
	}
}
