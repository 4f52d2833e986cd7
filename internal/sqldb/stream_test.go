package sqldb

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"repro/internal/variant"
)

func streamTestDB(t testing.TB, rows int) *DB {
	t.Helper()
	db := newSuiteDB(t)
	if _, err := db.Query(`CREATE TABLE big (id int, val float, name text)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if err := db.InsertRow("big", i, float64(i)/2, fmt.Sprintf("row%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestQueryRowsStreamsAndScans(t *testing.T) {
	db := streamTestDB(t, 10)
	it, err := db.QueryRows(`SELECT id, val, name FROM big WHERE id >= $1`, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var got []int
	for it.Next() {
		var id int
		var val float64
		var name string
		if err := it.Scan(&id, &val, &name); err != nil {
			t.Fatal(err)
		}
		if name != fmt.Sprintf("row%d", id) {
			t.Fatalf("row %d: name %q", id, name)
		}
		got = append(got, id)
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 6 || got[0] != 4 || got[5] != 9 {
		t.Fatalf("got ids %v", got)
	}
}

// TestQueryRowsMatchesQuery cross-checks the streaming and materializing
// paths over a mix of plan shapes (streamable and not).
func TestQueryRowsMatchesQuery(t *testing.T) {
	db := streamTestDB(t, 50)
	queries := []string{
		`SELECT * FROM big`,
		`SELECT id * 2, name FROM big WHERE val > 10 LIMIT 5`,
		`SELECT * FROM big LIMIT 7 OFFSET 11`,
		`SELECT count(*), avg(val) FROM big`,
		`SELECT name, id FROM big ORDER BY id DESC LIMIT 3`,
		`SELECT a.id FROM big a, big b WHERE a.id = b.id AND a.id < 4`,
		`SELECT gs FROM generate_series(1, 20) AS gs WHERE gs % 3 = 0`,
		`SELECT DISTINCT val FROM big WHERE id < 10`,
	}
	for _, q := range queries {
		want, err := db.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		it, err := db.QueryRows(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		got, err := it.Materialize()
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if len(got.Rows) != len(want.Rows) {
			t.Fatalf("%s: stream %d rows, materialized %d", q, len(got.Rows), len(want.Rows))
		}
		for i := range want.Rows {
			for j := range want.Rows[i] {
				if !want.Rows[i][j].Equal(got.Rows[i][j]) {
					t.Fatalf("%s: row %d col %d: %v != %v", q, i, j, want.Rows[i][j], got.Rows[i][j])
				}
			}
		}
	}
}

// TestStreamLimitEarlyExit verifies LIMIT over a lazily produced source
// does bounded work: a generate_series of a billion rows answers LIMIT 3
// immediately.
func TestStreamLimitEarlyExit(t *testing.T) {
	db := newSuiteDB(t)
	it, err := db.QueryRows(`SELECT gs FROM generate_series(1, 1000000000) AS gs LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := it.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 3 {
		t.Fatalf("got %d rows", len(rs.Rows))
	}
}

// TestStreamSnapshotIsolation: rows written after QueryRows returns are not
// observed by the in-flight iterator, and iterating does not block writers.
func TestStreamSnapshotIsolation(t *testing.T) {
	db := streamTestDB(t, 5)
	it, err := db.QueryRows(`SELECT id FROM big`)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if !it.Next() {
		t.Fatal("expected a first row")
	}
	// A write while the iterator is open must neither block nor appear.
	if _, err := db.Exec(`INSERT INTO big VALUES (99, 0, 'late')`); err != nil {
		t.Fatal(err)
	}
	n := 1
	for it.Next() {
		n++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("iterator saw %d rows, want the 5-row snapshot", n)
	}
	rs, err := db.Query(`SELECT count(*) FROM big`)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := rs.Rows[0][0].AsInt(); got != 6 {
		t.Fatalf("table has %d rows, want 6", got)
	}
}

func TestQueryContextCancelledMidStream(t *testing.T) {
	db := streamTestDB(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	it, err := db.QueryRowsContext(ctx, `SELECT id FROM big`)
	if err != nil {
		t.Fatal(err)
	}
	if !it.Next() {
		t.Fatal("expected first row")
	}
	cancel()
	if it.Next() {
		t.Fatal("Next succeeded after cancellation")
	}
	if !errors.Is(it.Err(), context.Canceled) {
		t.Fatalf("Err() = %v", it.Err())
	}
}

// TestCancelAggregateOverUnboundedSource: a cancelled context must also
// stop the materializing path — here the FROM-clause drain feeding an
// aggregate over a practically unbounded generate_series (regression: the
// drain used to ignore the context and spin for minutes).
func TestCancelAggregateOverUnboundedSource(t *testing.T) {
	db := newSuiteDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := db.QueryContext(ctx, `SELECT count(*) FROM generate_series(1, 2000000000)`)
		done <- err
	}()
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("got %v, want context.Canceled", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("aggregate did not stop after cancellation")
	}
}

func TestPreparedStmtSharedAcrossGoroutines(t *testing.T) {
	db := streamTestDB(t, 100)
	stmt, err := db.Prepare(`SELECT val FROM big WHERE id = $1`)
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				id := (g*50 + i) % 100
				rs, err := stmt.Query(id)
				if err != nil {
					errCh <- err
					return
				}
				if len(rs.Rows) != 1 {
					errCh <- fmt.Errorf("id %d: %d rows", id, len(rs.Rows))
					return
				}
				v, _ := rs.Rows[0][0].AsFloat()
				if v != float64(id)/2 {
					errCh <- fmt.Errorf("id %d: val %v", id, v)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}

func TestStmtClosedReturnsErrClosed(t *testing.T) {
	db := streamTestDB(t, 1)
	stmt, err := db.Prepare(`SELECT * FROM big`)
	if err != nil {
		t.Fatal(err)
	}
	if err := stmt.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := stmt.Query(); !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v, want ErrClosed", err)
	}
}

func TestDBClosedReturnsErrClosed(t *testing.T) {
	db := streamTestDB(t, 1)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(`SELECT 1`); !errors.Is(err, ErrClosed) {
		t.Fatalf("Query: got %v, want ErrClosed", err)
	}
	if _, err := db.Exec(`INSERT INTO big VALUES (1, 1, 'x')`); !errors.Is(err, ErrClosed) {
		t.Fatalf("Exec: got %v, want ErrClosed", err)
	}
	if _, err := db.Begin(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Begin: got %v, want ErrClosed", err)
	}
	if _, err := db.Prepare(`SELECT 1`); !errors.Is(err, ErrClosed) {
		t.Fatalf("Prepare: got %v, want ErrClosed", err)
	}
	if err := db.InsertRow("big", 1, 1.0, "x"); !errors.Is(err, ErrClosed) {
		t.Fatalf("InsertRow: got %v, want ErrClosed", err)
	}
}

func TestTxHandleCommitAndRollback(t *testing.T) {
	db := newSuiteDB(t)
	if _, err := db.Query(`CREATE TABLE t (a int)`); err != nil {
		t.Fatal(err)
	}

	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`INSERT INTO t VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	// MVCC transactions: a second Begin opens an independent concurrent
	// transaction instead of failing.
	txB, err := db.Begin()
	if err != nil {
		t.Fatalf("second Begin: %v", err)
	}
	if err := txB.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("double commit: got %v, want ErrTxDone", err)
	}
	if err := tx.Rollback(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("rollback after commit: got %v, want ErrTxDone", err)
	}
	if _, err := tx.Exec(`INSERT INTO t VALUES (2)`); !errors.Is(err, ErrTxDone) {
		t.Fatalf("exec after commit: got %v, want ErrTxDone", err)
	}

	tx2, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Exec(`INSERT INTO t VALUES (3)`); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Rollback(); err != nil {
		t.Fatal(err)
	}

	rs, err := db.Query(`SELECT count(*) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := rs.Rows[0][0].AsInt(); n != 1 {
		t.Fatalf("count = %d, want 1 (committed insert only)", n)
	}
}

// TestTxHandleUDFJoinsTransaction: a UDF invoked by a statement of a Tx
// handle receives the handle's transaction, so its nested writes and
// compensators commit and roll back with the handle.
func TestTxHandleUDFJoinsTransaction(t *testing.T) {
	db := newSuiteDB(t)
	if _, err := db.Query(`CREATE TABLE t (a int)`); err != nil {
		t.Fatal(err)
	}
	undone := 0
	db.RegisterScalar("put", func(ctx context.Context, tx *Tx, args []variant.Value) (variant.Value, error) {
		tx.OnRollback(func() { undone++ })
		_, err := tx.QueryContext(ctx, `INSERT INTO t VALUES ($1)`, args[0])
		return args[0], err
	}, false)
	count := func() int64 {
		rs, err := db.Query(`SELECT count(*) FROM t`)
		if err != nil {
			t.Fatal(err)
		}
		n, _ := rs.Rows[0][0].AsInt()
		return n
	}

	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`SELECT put(1)`); err != nil {
		t.Fatal(err)
	}
	if n := count(); n != 0 {
		t.Fatalf("uncommitted UDF insert visible outside the handle: count = %d", n)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if n := count(); n != 0 || undone != 1 {
		t.Fatalf("after rollback: count = %d, compensator runs = %d; want 0, 1", n, undone)
	}

	tx, err = db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`SELECT put(2)`); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := count(); n != 1 || undone != 1 {
		t.Fatalf("after commit: count = %d, compensator runs = %d; want 1, 1", n, undone)
	}
}

// TestTxHandleMemo: a function's handle builds a Memo value once per
// statement and forgets it after a write through the handle; a new
// statement, and a Tx that is not a function's, build afresh.
func TestTxHandleMemo(t *testing.T) {
	db := newSuiteDB(t)
	mustExec(t, db, `CREATE TABLE t (a int)`)
	mustExec(t, db, `INSERT INTO t VALUES (1), (2), (3)`)
	builds := 0
	count := func(ctx context.Context, tx *Tx) (any, error) {
		return tx.Memo("count t", func() (any, error) {
			builds++
			rs, err := tx.QueryContext(ctx, `SELECT count(*) FROM t`)
			if err != nil {
				return nil, err
			}
			return rs.Rows[0][0], nil
		})
	}
	db.RegisterScalar("memo_count", func(ctx context.Context, tx *Tx, _ []variant.Value) (variant.Value, error) {
		v, err := count(ctx, tx)
		if err != nil {
			return variant.Value{}, err
		}
		return v.(variant.Value), nil
	}, true)
	db.RegisterScalar("put", func(ctx context.Context, tx *Tx, args []variant.Value) (variant.Value, error) {
		_, err := tx.QueryContext(ctx, `INSERT INTO t VALUES ($1)`, args[0])
		return args[0], err
	}, false)

	for round := 1; round <= 2; round++ {
		rs := mustQuery(t, db, `SELECT memo_count() FROM t`)
		if len(rs.Rows) != 3 || rs.Rows[2][0].Int() != 3 || builds != round {
			t.Fatalf("round %d: rows %v after %d builds, want three 3s after %d", round, rs.Rows, builds, round)
		}
	}
	builds = 0
	rs := mustQuery(t, db, `SELECT memo_count(), put(9), memo_count()`)
	if got := rs.Rows[0]; got[0].Int() != 3 || got[2].Int() != 4 || builds != 2 {
		t.Fatalf("read, write, read in one statement = %v after %d builds, want 3 then 4 after 2", got, builds)
	}

	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	builds = 0
	for i := 0; i < 2; i++ {
		if _, err := count(context.Background(), tx); err != nil {
			t.Fatal(err)
		}
	}
	if builds != 2 {
		t.Errorf("a transaction handle built %d times for two calls, want 2", builds)
	}
}

// TestTxHandleInteropWithSQLText: Tx handles are independent of the
// transaction SQL-text BEGIN opens — a SQL COMMIT with no BEGIN is an
// error and never finishes a handle, and transaction control inside a
// handle is rejected (handles commit through the API).
func TestTxHandleInteropWithSQLText(t *testing.T) {
	db := newSuiteDB(t)
	if _, err := db.Query(`CREATE TABLE t (a int)`); err != nil {
		t.Fatal(err)
	}
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`INSERT INTO t VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	// No SQL BEGIN is open, so SQL COMMIT fails and leaves the handle
	// untouched.
	if _, err := db.Query(`COMMIT`); err == nil {
		t.Fatal("SQL COMMIT with no SQL BEGIN: want error, got nil")
	}
	if err := tx.Commit(); err != nil {
		t.Fatalf("handle commit after unrelated SQL COMMIT attempt: %v", err)
	}

	tx2, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Exec(`COMMIT`); err == nil {
		t.Fatal("COMMIT inside a handle: want error, got nil")
	}
	if _, err := tx2.Exec(`INSERT INTO t VALUES (99)`); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Rollback(); err != nil {
		t.Fatal(err)
	}
	rs, err := db.Query(`SELECT count(*) FROM t WHERE a = 99`)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := rs.Rows[0][0].AsInt(); n != 0 {
		t.Fatalf("rolled-back handle insert leaked: count = %d", n)
	}
}

// TestTxCommitAfterDBCloseFails: Close detaches the WAL; a commit that can
// no longer be made durable must fail loudly, not report success.
func TestTxCommitAfterDBCloseFails(t *testing.T) {
	db := newSuiteDB(t)
	if _, err := db.Query(`CREATE TABLE t (a int)`); err != nil {
		t.Fatal(err)
	}
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`INSERT INTO t VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, ErrClosed) {
		t.Fatalf("commit after Close: got %v, want ErrClosed", err)
	}
}

func TestTxRollbackUndoesDDLAndIndexes(t *testing.T) {
	db := newSuiteDB(t)
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`CREATE TABLE fresh (a int)`); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`CREATE INDEX fresh_a ON fresh (a)`); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if db.HasTable("fresh") {
		t.Fatal("rolled-back CREATE TABLE survived")
	}
	if len(db.Indexes()) != 0 {
		t.Fatal("rolled-back CREATE INDEX survived")
	}
}

func TestScanDestinations(t *testing.T) {
	db := newSuiteDB(t)
	if _, err := db.Query(`CREATE TABLE v (i int, f float, s text, b boolean)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO v VALUES (42, 2.5, 'hi', true)`); err != nil {
		t.Fatal(err)
	}
	it, err := db.QueryRows(`SELECT * FROM v`)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if !it.Next() {
		t.Fatal("no row")
	}
	var i64 int64
	var f float64
	var s string
	var b bool
	if err := it.Scan(&i64, &f, &s, &b); err != nil {
		t.Fatal(err)
	}
	if i64 != 42 || f != 2.5 || s != "hi" || !b {
		t.Fatalf("scanned %v %v %v %v", i64, f, s, b)
	}
	var anyI, anyF, anyS, anyB any
	if err := it.Scan(&anyI, &anyF, &anyS, &anyB); err != nil {
		t.Fatal(err)
	}
	if anyI != int64(42) || anyF != 2.5 || anyS != "hi" || anyB != true {
		t.Fatalf("scanned any %v %v %v %v", anyI, anyF, anyS, anyB)
	}
	var vv variant.Value
	if err := it.Scan(&vv, &anyF, &anyS, &anyB); err != nil {
		t.Fatal(err)
	}
	if got, _ := vv.AsInt(); got != 42 {
		t.Fatalf("variant scan %v", vv)
	}
}

// TestStreamingTableUDF: a RegisterTable UDF streams through SELECT,
// honours LIMIT without producing the tail, and still materializes
// correctly via Query.
func TestStreamingTableUDF(t *testing.T) {
	db := newSuiteDB(t)
	produced := 0
	db.RegisterTable("nat", func(_ context.Context, _ *Tx, args []variant.Value) (RowStream, error) {
		n, err := args[0].AsInt()
		if err != nil {
			return nil, err
		}
		return &countingStream{n: int(n), produced: &produced}, nil
	}, true)

	rs, err := db.Query(`SELECT i FROM nat(1000) AS x(i) LIMIT 4`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 4 {
		t.Fatalf("got %d rows", len(rs.Rows))
	}
	if produced > 8 {
		t.Fatalf("LIMIT 4 pulled %d rows from the UDF stream", produced)
	}
}

type countingStream struct {
	n        int
	i        int
	produced *int
}

func (c *countingStream) Columns() []Column { return []Column{{Name: "i", Type: "integer"}} }

func (c *countingStream) Next() (Row, error) {
	if c.i >= c.n {
		return nil, io.EOF
	}
	*c.produced++
	v := c.i
	c.i++
	return Row{variant.NewInt(int64(v))}, nil
}

func (c *countingStream) Close() error { return nil }
