package sqldb

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/variant"
)

// Transactional catalogue tests: DDL is invisible to other connections until
// its transaction commits, writers of a table under open DDL wait for its
// latch, and commits publish catalogue edits in WAL order.

// connExec runs each statement on c, failing the test on the first error.
func connExec(t *testing.T, c *Conn, stmts ...string) {
	t.Helper()
	for _, q := range stmts {
		if _, err := c.ExecContext(context.Background(), q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
}

// TestMVCCDDLInvisibleUntilCommit: a table created in an open transaction
// does not exist for another connection — its writes fail, nothing it
// commits can be lost — and appears, with the creator's rows, at commit.
func TestMVCCDDLInvisibleUntilCommit(t *testing.T) {
	db := newSuiteDB(t)
	a := db.Conn()
	defer a.Close()
	connExec(t, a, `BEGIN`, `CREATE TABLE x (v integer)`)

	if _, err := db.Exec(`INSERT INTO x VALUES (2)`); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("insert into another connection's uncommitted table: %v, want ErrNoSuchTable", err)
	}
	if _, err := db.Query(`SELECT count(*) FROM x`); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("read of another connection's uncommitted table: %v, want ErrNoSuchTable", err)
	}
	if db.HasTable("x") || slices.Contains(db.TableNames(), "x") {
		t.Fatalf("uncommitted table listed: %v", db.TableNames())
	}
	other, err := db.Prepare(`SELECT v FROM x`)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.Plan(); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("another connection's Plan of the uncommitted table: %v, want ErrNoSuchTable", err)
	}
	own, err := a.PrepareContext(context.Background(), `SELECT v FROM x`)
	if err != nil {
		t.Fatal(err)
	}
	if kind, err := own.ExecutorKind(); err != nil || kind == "" {
		t.Fatalf("creator's ExecutorKind: %q %v", kind, err)
	}
	connExec(t, a, `INSERT INTO x VALUES (1)`)
	rs, err := a.QueryContext(context.Background(), `SELECT count(*) FROM x`)
	if err != nil || rs.Rows[0][0].Int() != 1 {
		t.Fatalf("creator's own read: %v %v", rs, err)
	}

	connExec(t, a, `COMMIT`)
	mustExec(t, db, `INSERT INTO x VALUES (2)`)
	if n := countRows(t, db, "x"); n != 2 {
		t.Fatalf("rows after commit = %d, want 2", n)
	}

	connExec(t, a, `BEGIN`, `CREATE TABLE gone (v integer)`, `ROLLBACK`)
	if db.HasTable("gone") {
		t.Fatal("table created by a rolled-back transaction exists")
	}
}

// TestMVCCDDLDropHidesNothingUntilCommit: an open transaction's DROP INDEX
// and DROP TABLE change nothing another connection sees — its plans still
// probe the index, its reads still find the table — while its writes wait
// for the dropper's latch and fail with ErrWriteConflict. A plan made over
// the dropper's own catalogue never reaches the shared plan cache.
func TestMVCCDDLDropHidesNothingUntilCommit(t *testing.T) {
	db := newSuiteDB(t)
	db.SetLockWaitTimeout(50 * time.Millisecond)
	mustExec(t, db, `CREATE TABLE y (k integer)`)
	for i := 0; i < 40; i++ {
		mustExec(t, db, `INSERT INTO y VALUES ($1)`, i)
	}
	mustExec(t, db, `CREATE INDEX y_k ON y (k)`)
	const probe = `SELECT k FROM y WHERE k = 5`
	if n := len(mustQuery(t, db, probe).Rows); n != 1 {
		t.Fatalf("warm-up rows = %d", n)
	}
	cp, err := db.parse(probe, nil)
	if err != nil {
		t.Fatal(err)
	}
	cached := cp.phys.Load()

	a := db.Conn()
	defer a.Close()
	connExec(t, a, `BEGIN`, `DROP INDEX y_k`)
	if _, err := a.QueryContext(context.Background(), probe); err != nil {
		t.Fatal(err)
	}
	if cp.phys.Load() != cached {
		t.Fatal("a plan over uncommitted DDL replaced the shared cached plan")
	}
	if out := explainText(t, db, `EXPLAIN `+probe); !strings.Contains(out, "Index Scan using y_k") {
		t.Fatalf("another connection's uncommitted DROP INDEX changed this plan:\n%s", out)
	}
	if got := fmt.Sprint(db.Indexes()); !strings.Contains(got, "y_k") {
		t.Fatalf("uncommitted DROP INDEX hid the index: %s", got)
	}

	connExec(t, a, `DROP TABLE y`)
	if n := countRows(t, db, "y"); n != 40 {
		t.Fatalf("rows of a table another connection is dropping = %d, want 40", n)
	}
	if _, err := db.Exec(`INSERT INTO y VALUES (99)`); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("write to a table under open DDL: %v, want ErrWriteConflict", err)
	}

	connExec(t, a, `ROLLBACK`)
	if n := countRows(t, db, "y"); n != 40 {
		t.Fatalf("rows after the rolled-back DROP = %d, want 40", n)
	}
	mustExec(t, db, `INSERT INTO y VALUES (5)`)
	if n := len(mustQuery(t, db, probe).Rows); n != 2 {
		t.Fatalf("index probe after rollback rows = %d, want 2", n)
	}

	connExec(t, a, `BEGIN`, `DROP TABLE y`, `COMMIT`)
	if db.HasTable("y") || len(db.Indexes()) != 0 {
		t.Fatalf("committed DROP TABLE left %v %v", db.TableNames(), db.Indexes())
	}
}

// TestRecoveryDDLCommitAfterConcurrentInsert: another connection's insert
// into a table whose CREATE is still open cannot reach the WAL ahead of the
// CREATE, so the directory reopens after the creator commits and the
// process dies, with every acknowledged row.
func TestRecoveryDDLCommitAfterConcurrentInsert(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, DurabilityOptions{})
	a := db.Conn()
	connExec(t, a, `BEGIN`, `CREATE TABLE x (v integer)`)
	want := int64(1)
	if _, err := db.Exec(`INSERT INTO x VALUES (1)`); err == nil {
		want++
	} else if !errors.Is(err, ErrNoSuchTable) && !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("insert beside the open CREATE: %v", err)
	}
	connExec(t, a, `INSERT INTO x VALUES (2)`, `COMMIT`)
	db.SimulateCrash()

	re := New()
	if err := re.EnableDurability(dir, DurabilityOptions{}); err != nil {
		t.Fatalf("reopen after a crash: %v", err)
	}
	defer re.Close()
	if n := countRows(t, re, "x"); n != want {
		t.Fatalf("recovered rows = %d, want %d", n, want)
	}
}

// TestRecoveryDDLConcurrentCreatesBothSurvive: two open transactions create
// different tables; each commit publishes its own edit onto the catalogue
// the other published, and both tables survive a crash.
func TestRecoveryDDLConcurrentCreatesBothSurvive(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, DurabilityOptions{})
	a, b := db.Conn(), db.Conn()
	connExec(t, a, `BEGIN`, `CREATE TABLE ta (v integer)`, `INSERT INTO ta VALUES (1)`)
	connExec(t, b, `BEGIN`, `CREATE TABLE tb (v integer)`, `INSERT INTO tb VALUES (1), (2)`)
	connExec(t, a, `COMMIT`)
	connExec(t, b, `COMMIT`)
	if got := db.TableNames(); !slices.Equal(got, []string{"ta", "tb"}) {
		t.Fatalf("tables = %v", got)
	}
	db.SimulateCrash()

	re := openDurable(t, dir, DurabilityOptions{})
	defer re.Close()
	for table, want := range map[string]int64{"ta": 1, "tb": 2} {
		if n := countRows(t, re, table); n != want {
			t.Fatalf("recovered %s rows = %d, want %d", table, n, want)
		}
	}
}

// TestMVCCDDLSameNameCreateOneCommits: transactions creating the same table
// each see only their own; exactly one commits, the others fail with
// ErrWriteConflict and leave nothing behind.
func TestMVCCDDLSameNameCreateOneCommits(t *testing.T) {
	db := newSuiteDB(t)
	a, b := db.Conn(), db.Conn()
	connExec(t, a, `BEGIN`, `CREATE TABLE s (v integer)`, `INSERT INTO s VALUES (1)`)
	connExec(t, b, `BEGIN`, `CREATE TABLE s (v integer)`, `INSERT INTO s VALUES (2)`)
	connExec(t, a, `COMMIT`)
	if _, err := b.ExecContext(context.Background(), `INSERT INTO s VALUES (3)`); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("statement after losing the name: %v, want ErrWriteConflict", err)
	}
	if _, err := b.ExecContext(context.Background(), `COMMIT`); !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("second commit of the name: %v, want ErrWriteConflict", err)
	}
	if got := queryInts(t, db, `SELECT v FROM s`); !slices.Equal(got, []int64{1}) {
		t.Fatalf("rows = %v, want the first committer's [1]", got)
	}

	// Racing goroutines: exactly one of them commits.
	const racers = 4
	var wg sync.WaitGroup
	commits := make(chan int, racers)
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tx, err := db.Begin()
			if err != nil {
				return
			}
			defer tx.Rollback()
			if _, err := tx.Exec(`CREATE TABLE r (v integer)`); err != nil {
				return
			}
			if _, err := tx.Exec(`INSERT INTO r VALUES ($1)`, i); err != nil {
				return
			}
			if tx.Commit() == nil {
				commits <- i
			}
		}(i)
	}
	wg.Wait()
	close(commits)
	var won []int64
	for i := range commits {
		won = append(won, int64(i))
	}
	if len(won) != 1 {
		t.Fatalf("%d of %d racing CREATEs committed, want 1", len(won), racers)
	}
	if got := queryInts(t, db, `SELECT v FROM r`); !slices.Equal(got, won) {
		t.Fatalf("rows = %v, want the winner's %v", got, won)
	}
}

// TestMVCCDDLCreateIndexThenInsertInTx: an index created inside a
// transaction is maintained by the transaction's later writes, so after
// commit its probes return what a forced full scan returns.
func TestMVCCDDLCreateIndexThenInsertInTx(t *testing.T) {
	db := newSuiteDB(t)
	mustExec(t, db, `CREATE TABLE t (k integer, v text)`)
	for i := 0; i < 50; i++ {
		mustExec(t, db, `INSERT INTO t VALUES ($1, 'old')`, i%10)
	}
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		`CREATE INDEX t_k ON t (k)`,
		`INSERT INTO t VALUES (3, 'new'), (42, 'new')`,
		`UPDATE t SET k = 7 WHERE k = 4`,
		`DELETE FROM t WHERE k = 1`,
	} {
		if _, err := tx.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`SELECT k, v FROM t WHERE k = 3`,
		`SELECT k, v FROM t WHERE k = 42`,
		`SELECT k, v FROM t WHERE k = 7`,
		`SELECT k, v FROM t WHERE k = 4`,
		`SELECT k, v FROM t WHERE k = 1`,
		`SELECT k, v FROM t WHERE k >= 3 AND k < 8`,
	}
	if out := explainText(t, db, `EXPLAIN `+queries[0]); !strings.Contains(out, "Index Scan using t_k") {
		t.Fatalf("committed index not probed:\n%s", out)
	}
	probed := make([]string, len(queries))
	for i, q := range queries {
		probed[i] = fmt.Sprint(mustQuery(t, db, q).Rows)
	}
	db.setPlanner(plannerOptions{disableIndexScan: true})
	for i, q := range queries {
		if full := fmt.Sprint(mustQuery(t, db, q).Rows); full != probed[i] {
			t.Errorf("%s: index probe %s, full scan %s", q, probed[i], full)
		}
	}
}

// TestMVCCDDLFailedStatementForgetsItsEdits: a statement that fails after
// its function ran DDL leaves none of it in the transaction, and the
// transaction's next DDL is the only one its statements see.
func TestMVCCDDLFailedStatementForgetsItsEdits(t *testing.T) {
	db := newSuiteDB(t)
	db.RegisterScalar("make_then_fail", func(ctx context.Context, tx *Tx, args []variant.Value) (variant.Value, error) {
		if _, err := tx.QueryContext(ctx, `CREATE TABLE made (v integer)`); err != nil {
			return variant.Value{}, err
		}
		if _, err := tx.QueryContext(ctx, `SELECT count(*) FROM made`); err != nil {
			return variant.Value{}, err
		}
		return variant.Value{}, errors.New("fail after DDL")
	}, false)
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	if _, err := tx.Exec(`SELECT make_then_fail()`); err == nil {
		t.Fatal("statement did not fail")
	}
	if _, err := tx.Exec(`CREATE TABLE kept (v integer)`); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`INSERT INTO kept VALUES (1)`); err != nil {
		t.Fatalf("insert into the transaction's own table: %v", err)
	}
	if _, err := tx.Query(`SELECT count(*) FROM made`); !errors.Is(err, ErrNoSuchTable) {
		t.Fatalf("table of the failed statement: %v, want ErrNoSuchTable", err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := db.TableNames(); !slices.Equal(got, []string{"kept"}) {
		t.Fatalf("tables = %v, want [kept]", got)
	}
}

// TestConcurrentDumpIsOneSnapshot: a Dump beside a writer whose every
// transaction inserts one row into each of two tables holds whole
// transactions only — equal row counts in both tables.
func TestConcurrentDumpIsOneSnapshot(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE a (v integer)`)
	mustExec(t, db, `CREATE TABLE b (v integer)`)
	const commits = 3000
	done := make(chan error, 1)
	go func() {
		done <- func() error {
			for i := 0; i < commits; i++ {
				tx, err := db.Begin()
				if err != nil {
					return err
				}
				if _, err := tx.Exec(`INSERT INTO a VALUES ($1)`, i); err != nil {
					tx.Rollback()
					return err
				}
				if _, err := tx.Exec(`INSERT INTO b VALUES ($1)`, i); err != nil {
					tx.Rollback()
					return err
				}
				if err := tx.Commit(); err != nil {
					return err
				}
			}
			return nil
		}()
	}()
	dumps, torn := 0, 0
	for writing := true; writing; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			writing = false
		default:
		}
		var buf bytes.Buffer
		if err := db.Dump(&buf); err != nil {
			t.Fatal(err)
		}
		dump := buf.String()
		na := strings.Count(dump, `INSERT INTO "a"`)
		nb := strings.Count(dump, `INSERT INTO "b"`)
		dumps++
		if na != nb {
			torn++
		}
	}
	if torn > 0 {
		t.Fatalf("%d of %d dumps held half a transaction", torn, dumps)
	}
}

// TestConcurrentDDLBesideCheckpointsRecovers: transactions creating,
// indexing, filling and dropping tables run beside dumps, vacuums, ANALYZE
// and checkpoints (explicit and automatic). Every failure is a conflict or
// a table another transaction dropped, and the directory reopens after a
// crash to exactly the committed state.
func TestConcurrentDDLBesideCheckpointsRecovers(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, DurabilityOptions{CheckpointEvery: 50})
	mustExec(t, db, `CREATE TABLE base (k integer)`)
	const workers, txns = 3, 150
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < txns; i++ {
				name := fmt.Sprintf("t%d_%d", w, r.Intn(2))
				if r.Intn(4) == 0 {
					name = fmt.Sprintf("s%d", r.Intn(2)) // shared with the other workers
				}
				stmts := []string{
					`CREATE TABLE IF NOT EXISTS ` + name + ` (k integer)`,
					`INSERT INTO ` + name + ` VALUES (1)`,
					`CREATE INDEX IF NOT EXISTS ` + name + `_k ON ` + name + ` (k)`,
					`SELECT count(*) FROM ` + name + ` WHERE k = 1`,
				}
				if r.Intn(5) == 0 {
					stmts = append(stmts, `INSERT INTO base VALUES (1)`)
				}
				if r.Intn(3) == 0 {
					stmts = append(stmts, `DROP TABLE IF EXISTS `+name)
				}
				tx, err := db.Begin()
				if err != nil {
					t.Error(err)
					return
				}
				for _, q := range stmts {
					if _, err = tx.Exec(q); err != nil {
						break
					}
				}
				if err == nil && r.Intn(4) > 0 {
					err = tx.Commit()
				} else {
					tx.Rollback()
				}
				if err != nil && !errors.Is(err, ErrWriteConflict) && !errors.Is(err, ErrNoSuchTable) {
					t.Errorf("worker %d: %v", w, err)
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	defer func() { <-done }() // a failure below still waits for the workers
	for running := true; running; {
		select {
		case <-done:
			running = false
		case <-time.After(10 * time.Millisecond):
		}
		if err := db.Dump(new(bytes.Buffer)); err != nil {
			t.Fatal(err)
		}
		if err := db.Vacuum(); err != nil {
			t.Fatal(err)
		}
		if err := db.Analyze(""); err != nil {
			t.Fatal(err)
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	var before, after bytes.Buffer
	if err := db.Dump(&before); err != nil {
		t.Fatal(err)
	}
	db.SimulateCrash()
	re := openDurable(t, dir, DurabilityOptions{})
	defer re.Close()
	if err := re.Dump(&after); err != nil {
		t.Fatal(err)
	}
	if before.String() != after.String() {
		t.Fatalf("recovered state differs from the committed one:\n%s\nwant:\n%s", after.String(), before.String())
	}
}
