package sqldb

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/variant"
)

// TestUDFPanicIsContained: a UDF that panics — a scalar function called from
// a compiled expression, or a table function called in FROM, directly or
// laterally, or the stream such a function returned — fails only the
// statement that called it, with ErrInternal naming the function and the
// panic value. The explicit transaction around
// it stays open: ROLLBACK undoes its earlier insert, and the database keeps
// answering.
func TestUDFPanicIsContained(t *testing.T) {
	db := New()
	db.RegisterScalar("boom", func(context.Context, *Tx, []variant.Value) (variant.Value, error) {
		panic("scalar kaboom")
	}, true)
	db.RegisterTable("boom_rows", func(context.Context, *Tx, []variant.Value) (RowStream, error) {
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

	// A panic inside the stream a table UDF returned, on the read path: in
	// Next, read lazily after open or drained at open as a lateral item
	// under the database lock; in a BatchSource's NextBatch, which the batch
	// tail reads; or in Close. No lock stays held: a read and an exclusive
	// CREATE TABLE both finish afterwards.
	register := func(name string, st RowStream) {
		db.RegisterTable(name, func(context.Context, *Tx, []variant.Value) (RowStream, error) {
			return st, nil
		}, true)
	}
	register("boom_next", panicStream{msg: "next kaboom"})
	register("boom_batch", panicBatchStream{panicStream{msg: "batch kaboom"}})
	register("boom_close", panicStream{msg: "close kaboom", closeOnly: true})
	mustExec(t, db, `INSERT INTO t VALUES (1), (2)`)

	answers := func(after string, i int) {
		t.Helper()
		if got := mustQuery(t, db, `SELECT 1 + 1`).Rows[0][0].Int(); got != 2 {
			t.Fatalf("after %s: SELECT 1 + 1 = %d", after, got)
		}
		done := make(chan error, 1)
		go func() {
			_, err := db.Exec(fmt.Sprintf(`CREATE TABLE after%d (a integer)`, i))
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("after %s: CREATE TABLE: %v", after, err)
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("after %s: CREATE TABLE still waits for the database lock", after)
		}
	}
	for i, c := range []struct{ sql, want string }{
		{`SELECT * FROM boom_next(1)`, "boom_next() panicked: next kaboom"},
		{`SELECT t.a, r.x FROM t, boom_next(t.a) AS r(x)`, "boom_next() panicked: next kaboom"},
		{`SELECT x FROM boom_batch(1) WHERE x > 0`, "boom_batch() panicked: batch kaboom in NextBatch"},
	} {
		_, err := db.Query(c.sql)
		if !errors.Is(err, ErrInternal) || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: err = %v, want ErrInternal naming %q", c.sql, err, c.want)
		}
		answers(c.sql, i)
	}

	// Closed before the end of the stream, which would close it silently.
	it, err := db.QueryRows(`SELECT * FROM boom_close(1)`)
	if err != nil {
		t.Fatal(err)
	}
	if err := it.Close(); !errors.Is(err, ErrInternal) || !strings.Contains(err.Error(), "boom_close() panicked: close kaboom") {
		t.Fatalf("Close: err = %v, want ErrInternal naming boom_close", err)
	}
	answers("a panicking Close", 3)
}

// panicStream is a table UDF's stream that panics in Next, or, with
// closeOnly, returns no rows and panics in Close.
type panicStream struct {
	msg       string
	closeOnly bool
}

func (panicStream) Columns() []Column { return []Column{{Name: "x", Type: "integer"}} }

func (p panicStream) Next() (Row, error) {
	if p.closeOnly {
		return nil, io.EOF
	}
	panic(p.msg)
}

func (p panicStream) Close() error {
	if p.closeOnly {
		panic(p.msg)
	}
	return nil
}

// panicBatchStream is a columnar panicStream: NextBatch panics too.
type panicBatchStream struct{ panicStream }

func (p panicBatchStream) NextBatch(int) (*Batch, error) { panic(p.msg + " in NextBatch") }
