package sqldb

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"repro/internal/variant"
)

// Tx is a transaction handle, and the only kind of transaction there is:
// Begin/BeginTx return one, SQL BEGIN sent to a Conn (or to the DB, through
// its default Conn) opens one the Conn holds, a statement outside any
// transaction runs as a one-statement one, and every UDF receives one for
// its statement (see ScalarFunc).
//
// A transaction pins a snapshot at begin (repeatable reads), latches the
// tables it writes until Commit or Rollback, and commits or rolls back
// independently of every other. Writes to one table serialize on its
// latch; a statement that waits for a latch longer than the lock-wait
// timeout, or wants to change a row modified after its snapshot, fails with
// ErrWriteConflict — roll back and retry the transaction.
//
// A Tx is safe for concurrent use: its statements serialize on the handle,
// and Commit and Rollback wait for the running one. SQL transaction control
// sent through a Tx is rejected. After Commit or Rollback every method, and
// every Stmt prepared on the Tx, returns ErrTxDone.
type Tx struct {
	db    *DB
	state *txnState // nil in a read-only statement's function handle
	snap  snapshot
	// fn marks the handle a statement passes to the functions it calls: it
	// runs inside that statement, cannot end the transaction, and is
	// retired when the statement's open is over.
	fn bool
	// readOnly marks a read-only statement's function handle, which refuses
	// every statement that writes; cat is the catalogue that statement
	// resolved, which the handle's reads share with its snapshot.
	readOnly bool
	cat      *catalogValue
	// memo holds a function's handle's Memo values until a write through
	// the handle or the statement's end.
	memo map[string]any
	// mu serializes the transaction's statements; it is first in the lock
	// order (see lockorder.go).
	mu   sync.Mutex
	done atomic.Bool
}

// Begin opens a transaction and returns its handle.
func (db *DB) Begin() (*Tx, error) {
	return db.BeginTx(context.Background())
}

// BeginTx is Begin honouring ctx. A cancelled context rejects the begin; it
// does not roll back later (call Rollback, e.g. via defer).
func (db *DB) BeginTx(ctx context.Context) (*Tx, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if db.closed.Load() {
		return nil, ErrClosed
	}
	t := db.newTxn()
	t.snap = snapshot{ts: db.snaps.pin(&db.clock, true), self: t.stamp()}
	return &Tx{db: db, state: t, snap: t.snap}, nil
}

// Commit makes the transaction's changes durable and visible: its WAL
// records are written and fsynced (per the group-commit policy), then its
// versions flip to a fresh commit timestamp — atomically with respect to
// every snapshot reader — and its OnCommit closures run. A failed commit
// rolls back. ErrTxDone if the transaction already finished.
func (tx *Tx) Commit() error { return tx.end(true, nil) }

// Rollback undoes every change made inside the transaction — its row
// versions vanish atomically, its DDL is never published, its OnCommit
// closures are dropped, and OnRollback compensators run. ErrTxDone if the
// transaction already finished, so `defer tx.Rollback()` after a successful
// Commit is harmless.
func (tx *Tx) Rollback() error { return tx.end(false, nil) }

var errFnTxEnd = errors.New("sql: a function cannot commit or roll back its statement's transaction")

// end commits or rolls back the transaction; tr, if not nil, records the
// commit's phases.
func (tx *Tx) end(commit bool, tr *Trace) error {
	if tx.fn {
		return errFnTxEnd
	}
	tx.mu.Lock()
	defer tx.mu.Unlock()
	if !tx.done.CompareAndSwap(false, true) {
		return ErrTxDone
	}
	db, t := tx.db, tx.state
	var err error
	if commit {
		var ckptDue bool
		if ckptDue, err = db.commitTxn(t, tr); err == nil {
			db.autoAnalyzeTouched(t)
		}
		if err == nil {
			tx.release()
			t.committed()
			if ckptDue {
				// Best effort, with no lock held; the WAL stays valid if it
				// fails.
				_ = db.Checkpoint()
			}
			return nil
		}
	}
	// Rollback flips stamps and forgets the catalogue edits, which nothing
	// else sees: it needs no lock.
	t.unwind(txnMarks{})
	tx.release()
	return err
}

// release frees what the finished transaction holds: its latches and its
// snapshot's claim on Vacuum.
func (tx *Tx) release() {
	tx.db.releaseLatches(tx.state)
	tx.db.snaps.unpin(tx.snap.ts, true)
}

// OnRollback registers a compensating closure, run (in reverse
// registration order) if and only if the transaction's work is undone — by
// Rollback, by a failed statement's unwind, or by a failed commit. Callers
// use it to keep state the SQL journal cannot see (e.g. the pgFMU job
// scheduler's set of running jobs) consistent with the tables. A read-only statement's handle
// ignores it: nothing there rolls back.
func (tx *Tx) OnRollback(fn func()) {
	if tx.state != nil {
		tx.state.recordUndo(fn)
	}
}

// OnCommit registers a closure run once (in registration order) after the
// transaction's commit is published, with no latch held; a rollback,
// a failed commit, or the failure of the statement that registered it drops
// it. A function's handle registers on its statement's transaction, so the
// closure runs when the enclosing transaction commits. Callers use it to act
// on what the commit made visible (e.g. the pgFMU job scheduler starts a
// submitted job). A read-only statement's handle ignores it.
func (tx *Tx) OnCommit(fn func()) {
	if tx.state != nil {
		tx.state.commit = append(tx.state.commit, fn)
	}
}

// Memo returns the value build makes for key, building it at most once per
// statement: a function's handle keeps it until any write through the handle
// (so a statement that changes what build read sees the change) or the
// statement's end. Any other Tx runs build every time. Keys are shared by
// every function the statement calls, and a failed build is not kept.
func (tx *Tx) Memo(key string, build func() (any, error)) (any, error) {
	if v, ok := tx.memo[key]; ok {
		return v, nil
	}
	v, err := build()
	if err == nil && tx.fn {
		if tx.memo == nil {
			tx.memo = make(map[string]any)
		}
		tx.memo[key] = v
	}
	return v, err
}

// Exec runs a statement inside the transaction.
func (tx *Tx) Exec(sql string, args ...any) (int, error) {
	return tx.ExecContext(context.Background(), sql, args...)
}

// ExecContext is Exec honouring ctx.
func (tx *Tx) ExecContext(ctx context.Context, sql string, args ...any) (int, error) {
	return rowCount(tx.QueryContext(ctx, sql, args...))
}

// Query runs a statement inside the transaction, materialized.
func (tx *Tx) Query(sql string, args ...any) (*ResultSet, error) {
	return tx.QueryContext(context.Background(), sql, args...)
}

// QueryContext is Query honouring ctx.
func (tx *Tx) QueryContext(ctx context.Context, sql string, args ...any) (*ResultSet, error) {
	return materialize(tx.QueryRowsContext(ctx, sql, args...))
}

// QueryRows runs a statement inside the transaction as a streaming
// iterator. The stream reads the transaction's snapshot (plus its own
// writes) taken at execution, so it remains valid across — and observes
// nothing from — concurrent commits, and stays readable after Commit or
// Rollback of this transaction.
func (tx *Tx) QueryRows(sql string, args ...any) (*RowIter, error) {
	return tx.QueryRowsContext(context.Background(), sql, args...)
}

// QueryRowsContext is QueryRows honouring ctx.
func (tx *Tx) QueryRowsContext(ctx context.Context, sql string, args ...any) (*RowIter, error) {
	return tx.db.query(ctx, tx, sql, args)
}

// queryRows runs one parsed statement in the transaction, one at a time
// unless the handle is a function's (which runs on its statement's
// goroutine, inside its statement).
func (tx *Tx) queryRows(ctx context.Context, tr *Trace, text string, cp *cachedPlan, params []variant.Value) (*RowIter, error) {
	if !tx.fn {
		tx.mu.Lock()
		defer tx.mu.Unlock()
	}
	if tx.done.Load() {
		return nil, ErrTxDone
	}
	if isTxnControlStmt(cp.stmt) {
		return nil, errors.New("sql: transaction control is not valid inside a transaction handle")
	}
	return tx.db.exec(ctx, tr, tx, text, cp, params)
}

// Prepare returns a prepared statement that runs inside the transaction;
// once the transaction ends, executing it returns ErrTxDone.
func (tx *Tx) Prepare(sql string) (*Stmt, error) {
	return tx.PrepareContext(context.Background(), sql)
}

// PrepareContext is Prepare honouring ctx.
func (tx *Tx) PrepareContext(ctx context.Context, sql string) (*Stmt, error) {
	if tx.done.Load() {
		return nil, ErrTxDone
	}
	return tx.db.prepare(ctx, sql, tx)
}
