package sqldb

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/variant"
)

// TestConcurrentReadsAndWrites hammers the database from many goroutines
// mixing shared-lock SELECTs with exclusive DML, index DDL, UDF
// registration, and plan-cache toggling. It exists to fail under -race if
// any path touches shared state outside the locking discipline.
func TestConcurrentReadsAndWrites(t *testing.T) {
	db := newSuiteDB(t)
	mustExec(t, db, `CREATE TABLE m (id integer, x float)`)
	mustExec(t, db, `CREATE INDEX mi ON m (id) USING hash`)
	for i := 0; i < 200; i++ {
		mustExec(t, db, `INSERT INTO m VALUES ($1, $2)`, i, float64(i))
	}

	const goroutines = 8
	const iters = 50
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*iters)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				switch g % 4 {
				case 0: // indexed reads
					if _, err := db.Query(`SELECT x FROM m WHERE id = $1`, (g*iters+i)%200); err != nil {
						errs <- err
						return
					}
				case 1: // scans and aggregates
					if _, err := db.Query(`SELECT count(*), avg(x) FROM m WHERE x >= 0`); err != nil {
						errs <- err
						return
					}
				case 2: // writes
					if _, err := db.Exec(`UPDATE m SET x = x + 1 WHERE id = $1`, i%200); err != nil {
						errs <- err
						return
					}
					if _, err := db.Exec(`INSERT INTO m VALUES ($1, 0)`, 1000+g*iters+i); err != nil {
						errs <- err
						return
					}
				case 3: // registration churn + plan-cache toggling
					db.RegisterScalar(fmt.Sprintf("f_%d_%d", g, i),
						func(context.Context, *Tx, []variant.Value) (variant.Value, error) {
							return variant.NewInt(1), nil
						}, true)
					db.EnablePlanCache(i%2 == 0)
					if _, err := db.Query(fmt.Sprintf(`SELECT f_%d_%d()`, g, i)); err != nil {
						errs <- err
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	db.EnablePlanCache(true)

	rs := mustQuery(t, db, `SELECT count(*) FROM m`)
	n, err := rs.Rows[0][0].AsInt()
	if err != nil || n != 200+2*iters {
		t.Fatalf("row count = %v (%v), want %d", n, err, 200+2*iters)
	}
}

// TestConcurrentIndexedReaders runs many purely read-only queries in
// parallel against an indexed table: all of them classify as shared-lock
// statements and must return consistent results.
func TestConcurrentIndexedReaders(t *testing.T) {
	db := newSuiteDB(t)
	mustExec(t, db, `CREATE TABLE m (id integer, x float)`)
	for i := 0; i < 500; i++ {
		mustExec(t, db, `INSERT INTO m VALUES ($1, $2)`, i, float64(i))
	}
	mustExec(t, db, `CREATE INDEX mi ON m (id) USING btree`)

	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				lo := (g * 17 % 450)
				rs, err := db.Query(`SELECT id FROM m WHERE id BETWEEN $1 AND $2`, lo, lo+9)
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				if len(rs.Rows) != 10 {
					t.Errorf("rows = %d, want 10", len(rs.Rows))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestWriteUDFUnderSelect verifies that a SELECT invoking a UDF with side
// effects classifies as exclusive and its nested writes land safely.
func TestWriteUDFUnderSelect(t *testing.T) {
	db := newSuiteDB(t)
	mustExec(t, db, `CREATE TABLE log (n integer)`)
	db.RegisterScalar("log_append", func(_ context.Context, tx *Tx, args []variant.Value) (variant.Value, error) {
		if _, err := tx.Exec(`INSERT INTO log VALUES ($1)`, args[0]); err != nil {
			return variant.Value{}, err
		}
		return args[0], nil
	}, false)
	if ro, _ := db.IsReadOnly(`SELECT log_append(1)`); ro {
		t.Fatal("write UDF classified read-only")
	}
	if ro, _ := db.IsReadOnly(`SELECT count(*) FROM log WHERE n > 0`); !ro {
		t.Fatal("pure SELECT classified exclusive")
	}

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				if _, err := db.Query(`SELECT log_append($1)`, g*25+i); err != nil {
					t.Errorf("log_append: %v", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	rs := mustQuery(t, db, `SELECT count(*) FROM log`)
	if n, _ := rs.Rows[0][0].AsInt(); n != 200 {
		t.Fatalf("log rows = %d, want 200", n)
	}
}

func mustParse(t *testing.T, sql string) Statement {
	t.Helper()
	stmt, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	return stmt
}

// TestReadOnlyClassification pins the classifier's behaviour for statement
// shapes the lock discipline depends on.
func TestReadOnlyClassification(t *testing.T) {
	db := newSuiteDB(t)
	db.RegisterScalar("pure_fn", func(context.Context, *Tx, []variant.Value) (variant.Value, error) {
		return variant.NewInt(1), nil
	}, true)
	db.RegisterTable("impure_src", func(context.Context, *Tx, []variant.Value) (RowStream, error) {
		return (&ResultSet{}).Stream(), nil
	}, false)
	cases := []struct {
		sql string
		ro  bool
	}{
		{`SELECT 1`, true},
		{`SELECT abs(-1), count(*) FROM generate_series(1, 3)`, true},
		{`SELECT pure_fn()`, true},
		{`SELECT * FROM impure_src()`, false},
		{`SELECT 1 WHERE pure_fn() = 1 OR abs(impure_src()) > 0`, false},
		{`INSERT INTO t VALUES (1)`, false},
		{`CREATE INDEX i ON t (a)`, false},
		{`SELECT unknown_fn()`, false},
	}
	for _, c := range cases {
		if got, err := db.IsReadOnly(c.sql); err != nil || got != c.ro {
			t.Errorf("IsReadOnly(%q) = %v, %v; want %v", c.sql, got, err, c.ro)
		}
	}
	if _, err := db.IsReadOnly(`SELEKT 1`); err == nil {
		t.Error("IsReadOnly accepted unparsable SQL")
	}
}

// TestConcurrentLookupAfterUpdate reproduces the unsorted-bucket scenario:
// UPDATEs append out-of-order positions to an existing hash bucket, and
// concurrent equality SELECTs on that key must not mutate index state while
// putting their candidate sets in table order (caught by -race if the scan
// sorts the index's backing slice in place). A writer keeps re-creating the
// unsorted bucket so concurrent readers repeatedly hit the racy window.
func TestConcurrentLookupAfterUpdate(t *testing.T) {
	db := newSuiteDB(t)
	mustExec(t, db, `CREATE TABLE r (id integer, v integer)`)
	mustExec(t, db, `INSERT INTO r VALUES (3, 0), (1, 1), (2, 2)`)
	mustExec(t, db, `CREATE INDEX ri ON r (id) USING hash`)
	// Bucket for id=3 becomes [0, 2]: position 2 appended after 0.
	mustExec(t, db, `UPDATE r SET id = 3 WHERE v = 2`)

	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() { // writer: toggling v=1 between keys re-appends position 1
		defer wg.Done()
		defer close(done)
		for i := 0; i < 100; i++ {
			// Entering the id=3 bucket appends position 1 after [0, 2],
			// leaving it unsorted until a reader orders its candidate copy.
			if _, err := db.Exec(`UPDATE r SET id = 3 WHERE v = 1`); err != nil {
				t.Errorf("update: %v", err)
				return
			}
			if _, err := db.Exec(`UPDATE r SET id = 1 WHERE v = 1`); err != nil {
				t.Errorf("update: %v", err)
				return
			}
		}
	}()
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				rs, err := db.Query(`SELECT v FROM r WHERE id = 3`)
				if err != nil || len(rs.Rows) < 2 {
					t.Errorf("rows = %d, err = %v", len(rs.Rows), err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestSetLockWaitTimeout(t *testing.T) {
	db := New()
	if got := db.lockWaitTimeout(); got != defaultLockWaitTimeout {
		t.Fatalf("default lock wait = %v", got)
	}
	db.SetLockWaitTimeout(5 * defaultLockWaitTimeout)
	if got := db.lockWaitTimeout(); got != 5*defaultLockWaitTimeout {
		t.Fatalf("configured lock wait = %v", got)
	}
	db.SetLockWaitTimeout(0)
	if got := db.lockWaitTimeout(); got != defaultLockWaitTimeout {
		t.Fatalf("reset lock wait = %v", got)
	}
}

// TestNestedWriteFromReadOnlyUDFFails: a UDF registered read-only runs its
// statements through a handle that refuses to write, so the INSERT fails
// its statement and leaves the table empty, live and after a crash.
func TestNestedWriteFromReadOnlyUDFFails(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, DurabilityOptions{})
	mustExec(t, db, `CREATE TABLE log (n integer)`)
	db.RegisterScalar("sneaky", func(ctx context.Context, tx *Tx, args []variant.Value) (variant.Value, error) {
		_, err := tx.ExecContext(ctx, `INSERT INTO log VALUES ($1)`, args[0])
		return args[0], err
	}, true)
	_, err := db.Query(`SELECT sneaky(1)`)
	if err == nil || !strings.Contains(err.Error(), "read-only statement") {
		t.Fatalf("nested INSERT from a read-only UDF: err = %v, want a read-only statement error", err)
	}
	if n := countRows(t, db, "log"); n != 0 {
		t.Fatalf("live rows = %d, want 0", n)
	}
	db.SimulateCrash()
	if n := countRows(t, openDurable(t, dir, DurabilityOptions{}), "log"); n != 0 {
		t.Fatalf("recovered rows = %d, want 0", n)
	}
}

// TestTxConcurrentStatements: one Tx — a handle, or the one SQL BEGIN
// opens on a shared DB — takes statements from many goroutines at once;
// they serialize on the transaction, and all of them commit.
func TestTxConcurrentStatements(t *testing.T) {
	const goroutines, each = 4, 200
	run := func(t *testing.T, db *DB, exec func(string, ...any) (int, error), commit func() error) {
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < each; i++ {
					if _, err := exec(`INSERT INTO t VALUES ($1)`, g*each+i); err != nil {
						t.Error(err)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		if err := commit(); err != nil {
			t.Fatal(err)
		}
		if n := countRows(t, db, "t"); n != goroutines*each {
			t.Fatalf("rows = %d, want %d", n, goroutines*each)
		}
	}
	t.Run("Handle", func(t *testing.T) {
		db := newSuiteDB(t)
		mustExec(t, db, `CREATE TABLE t (a integer)`)
		tx, err := db.Begin()
		if err != nil {
			t.Fatal(err)
		}
		run(t, db, tx.Exec, tx.Commit)
	})
	t.Run("SQLBegin", func(t *testing.T) {
		db := newSuiteDB(t)
		mustExec(t, db, `CREATE TABLE t (a integer)`)
		mustExec(t, db, `BEGIN`)
		run(t, db, db.Exec, func() error { _, err := db.Exec(`COMMIT`); return err })
	})
}

// TestLockOrderViolationIsCaught: in a test binary, waiting for a lock
// that ranks below one already held panics instead of risking a deadlock —
// here a transaction holding commitMu that would wait for a table latch.
func TestLockOrderViolationIsCaught(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE t (a integer)`)
	tb, _ := db.tables.Load().get("t")
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	tx.state.locks.acquire(rankCommit, true) // as commitTxn records commitMu
	defer func() {
		r := recover()
		if msg, _ := r.(string); !strings.Contains(msg, "lock order violated: waiting for a table latch while holding commitMu") {
			t.Fatalf("recovered %v, want a lock order violation", r)
		}
	}()
	_ = db.locks.acquire(context.Background(), tb, tx.state, 0)
	t.Fatal("an unbounded latch wait under commitMu was not caught")
}
