package sqldb

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestTxnPrepareRollsBackWithTx: a statement prepared on a Tx runs inside
// it — its INSERT is invisible outside the transaction and rolls back with
// it — and returns ErrTxDone once the transaction has ended.
func TestTxnPrepareRollsBackWithTx(t *testing.T) {
	db := newSuiteDB(t)
	mustExec(t, db, `CREATE TABLE t (a integer)`)
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	st, err := tx.Prepare(`INSERT INTO t VALUES ($1)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Exec(1); err != nil {
		t.Fatal(err)
	}
	if n := countRows(t, db, "t"); n != 0 {
		t.Fatalf("rows outside the open transaction = %d, want 0", n)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if n := countRows(t, db, "t"); n != 0 {
		t.Fatalf("rows after rollback = %d, want 0", n)
	}
	if _, err := st.Exec(2); !errors.Is(err, ErrTxDone) {
		t.Fatalf("Exec after rollback: %v, want ErrTxDone", err)
	}
}

// TestRecoveryCheckpointBesideSQLBegin: a checkpoint runs while SQL BEGIN
// has a transaction open, and the transaction's commit after it survives a
// crash.
func TestRecoveryCheckpointBesideSQLBegin(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, DurabilityOptions{})
	mustExec(t, db, `CREATE TABLE t (a integer)`)
	mustExec(t, db, `BEGIN`)
	mustExec(t, db, `INSERT INTO t VALUES (1)`)
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint beside an open transaction: %v", err)
	}
	mustExec(t, db, `COMMIT`)
	db.SimulateCrash()
	re := openDurable(t, dir, DurabilityOptions{})
	defer re.Close()
	if n := countRows(t, re, "t"); n != 1 {
		t.Fatalf("recovered rows = %d, want 1", n)
	}
}

// TestRecoveryCheckpointBesideOpenDDL: a transaction's DDL is published and
// WAL-logged only at commit, so a checkpoint — explicit, or the automatic
// one another connection's commit starts — runs beside it and snapshots the
// committed catalogue. Whether the DDL then commits or rolls back, the
// database reopens after a crash with the DDL's outcome.
func TestRecoveryCheckpointBesideOpenDDL(t *testing.T) {
	cases := []struct {
		name     string
		ddl, end string
		every    int  // CheckpointEvery; 0 checkpoints by hand
		x        bool // table x exists after recovery
	}{
		{"CreateCommit", `CREATE TABLE x (a integer)`, `COMMIT`, 0, true},
		{"DropRollback", `DROP TABLE y`, `ROLLBACK`, 0, false},
		{"AutoDropRollback", `DROP TABLE y`, `ROLLBACK`, 1, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			o := DurabilityOptions{CheckpointEvery: tc.every}
			db := openDurable(t, dir, o)
			mustExec(t, db, `CREATE TABLE y (a integer)`)
			mustExec(t, db, `CREATE TABLE z (a integer)`)
			mustExec(t, db, `INSERT INTO y VALUES (1), (2)`)
			c := db.Conn()
			ctx := context.Background()
			for _, q := range []string{`BEGIN`, tc.ddl} {
				if _, err := c.ExecContext(ctx, q); err != nil {
					t.Fatalf("%s: %v", q, err)
				}
			}
			if tc.every == 0 {
				if err := db.Checkpoint(); err != nil {
					t.Errorf("checkpoint beside an open transaction's DDL: %v", err)
				}
			} else {
				mustExec(t, db, `INSERT INTO z VALUES (1)`) // its commit finds a checkpoint due
			}
			if _, err := c.ExecContext(ctx, tc.end); err != nil {
				t.Fatalf("%s: %v", tc.end, err)
			}
			db.SimulateCrash()
			re := New()
			if err := re.EnableDurability(dir, o); err != nil {
				t.Fatalf("reopen after a crash: %v", err)
			}
			defer re.Close()
			for table, want := range map[string]int64{"y": 2, "z": int64(tc.every)} {
				if n := countRows(t, re, table); n != want {
					t.Fatalf("recovered %s rows = %d, want %d", table, n, want)
				}
			}
			if _, ok := re.tables.Load().get("x"); ok != tc.x {
				t.Fatalf("recovered table x present = %v after %s", ok, tc.end)
			}
		})
	}
}

// TestMVCCAutocommitLatchWaitIsBounded: an autocommit write waits for the
// latch an idle open transaction holds at most the lock-wait timeout, then
// fails with ErrWriteConflict — it does not stall until its context ends.
func TestMVCCAutocommitLatchWaitIsBounded(t *testing.T) {
	db := newSuiteDB(t)
	db.SetLockWaitTimeout(50 * time.Millisecond)
	mustExec(t, db, `CREATE TABLE s (a integer)`)
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	if _, err := tx.Exec(`INSERT INTO s VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	start := time.Now()
	_, err = db.ExecContext(ctx, `INSERT INTO s VALUES (2)`)
	if !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("autocommit INSERT beside an idle writer: %v after %v, want ErrWriteConflict", err, time.Since(start))
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("waited %v for a 50ms lock-wait timeout", waited)
	}
}

// TestConnIsolatesBegin: SQL BEGIN opens a transaction on the Conn it was
// sent to. Another Conn — or the DB, through its default Conn — neither
// joins it nor ends it, and a transaction begun through Conn.BeginTx is the
// Conn's until its handle ends it.
func TestConnIsolatesBegin(t *testing.T) {
	db := newSuiteDB(t)
	mustExec(t, db, `CREATE TABLE a (n integer)`)
	mustExec(t, db, `CREATE TABLE b (n integer)`)
	ctx := context.Background()
	exec := func(c *Conn, sql string) {
		t.Helper()
		if _, err := c.ExecContext(ctx, sql); err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
	}
	c1, c2 := db.Conn(), db.Conn()
	exec(c1, `BEGIN`)
	exec(c1, `INSERT INTO a VALUES (1)`)
	exec(c2, `BEGIN`)
	exec(c2, `INSERT INTO b VALUES (1)`)
	exec(c2, `COMMIT`)
	if !c1.InTx() || c2.InTx() {
		t.Fatalf("InTx after c2's COMMIT: c1 %v, c2 %v; want true, false", c1.InTx(), c2.InTx())
	}
	if n := countRows(t, db, "a"); n != 0 {
		t.Fatalf("c1's uncommitted row visible through the DB: %d", n)
	}
	if _, err := c1.ExecContext(ctx, `BEGIN`); !errors.Is(err, ErrTxInProgress) {
		t.Fatalf("second BEGIN on c1: %v, want ErrTxInProgress", err)
	}
	exec(c1, `ROLLBACK`)
	if _, err := c1.ExecContext(ctx, `COMMIT`); !errors.Is(err, ErrNoTx) {
		t.Fatalf("COMMIT with none open: %v, want ErrNoTx", err)
	}

	// The DB's BEGIN stays the DB's: c2's write commits on its own.
	mustExec(t, db, `BEGIN`)
	exec(c2, `INSERT INTO b VALUES (2)`)
	mustExec(t, db, `ROLLBACK`)
	if na, nb := countRows(t, db, "a"), countRows(t, db, "b"); na != 0 || nb != 2 {
		t.Fatalf("rows a=%d b=%d, want 0 and 2", na, nb)
	}

	// A handle from BeginTx ends the Conn's transaction; Close rolls back.
	tx, err := c1.BeginTx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	exec(c1, `INSERT INTO a VALUES (3)`)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	exec(c1, `INSERT INTO a VALUES (4)`) // autocommits
	exec(c1, `BEGIN`)
	exec(c1, `INSERT INTO a VALUES (5)`)
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c1.ExecContext(ctx, `SELECT 1`); !errors.Is(err, ErrClosed) {
		t.Fatalf("statement on a closed Conn: %v, want ErrClosed", err)
	}
	if n := countRows(t, db, "a"); n != 2 {
		t.Fatalf("rows in a = %d, want 2 (3 and 4)", n)
	}
}

// TestConnCloseBesideBegin: a transaction begun while the Conn closes is
// rolled back — by Close or by the begin — and never left open on it.
func TestConnCloseBesideBegin(t *testing.T) {
	db := newSuiteDB(t)
	for i := 0; i < 1000; i++ {
		c := db.Conn()
		started, done := make(chan struct{}), make(chan struct{})
		go func() {
			defer close(done)
			close(started)
			_, _ = c.BeginTx(context.Background())
		}()
		<-started
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		<-done
		if n := db.snaps.count(); n != 0 {
			t.Fatalf("round %d: %d transactions left open after Close", i, n)
		}
	}
}
