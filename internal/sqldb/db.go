package sqldb

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/variant"
)

// DB is an embedded, in-memory SQL database with a UDF registry — the
// PostgreSQL stand-in the pgFMU core extends. It is safe for concurrent use.
//
// Concurrency is multi-version (see mvcc.go): readers run against a
// snapshot with no lock held on the row-iteration hot path, and writers
// serialize per table through write latches, so transactions writing
// disjoint tables execute and commit in parallel. The database-wide
// reader/writer lock remains, but in a weaker role: plain DML shares it
// (db.mu.RLock) and only DDL, UDF-bearing statements, and the ambient SQL
// transaction take it exclusively.
//
// The execution API follows the standard Go contract: Exec/Query/QueryRows
// with Context variants, Prepare for reusable statements (see stmt.go),
// Begin for transaction handles (see tx.go), and streaming row iteration
// (see rows.go). No lock is ever held past a method's return: streaming
// results iterate over snapshot-filtered row sets.
type DB struct {
	mu     sync.RWMutex
	tables *catalog
	funcs  *registry
	// planCache caches plan entries keyed by SQL text (the paper's "prepared
	// SQL queries avoid repeated reevaluation"): the parsed statement plus
	// its compiled physical plan, revalidated against the catalogue epoch on
	// every execution (see plan.go). Prepare holds the same entry directly,
	// skipping even the cache lookup. It is toggled by EnablePlanCache.
	planCache   map[string]*cachedPlan
	cachePlans  bool
	planCacheMu sync.Mutex

	// planner holds the tests' planner overrides (plannerOptions), zero in
	// production; written only under the exclusive lock.
	planner plannerOptions

	// txn is the ambient transaction: the explicit database-wide one between
	// SQL BEGIN and COMMIT/ROLLBACK, or the implicit transaction wrapped
	// around each exclusive-path write. Written only under the exclusive
	// lock; readable under either lock mode. Concurrent transactions (Tx
	// handles, latched DML, RunConcurrent) never appear here.
	txn *txnState
	// wal is the attached write-ahead log; nil for an in-memory database
	// (see wal.go / EnableDurability).
	wal *wal
	// closed marks a DB shut down by Close; all statement entry points
	// return ErrClosed afterwards. Guarded by mu.
	closed bool

	// clock is the commit-timestamp clock: the stamp of the newest committed
	// transaction. Reading it IS taking a snapshot. Advanced only inside
	// commitTxn, under commitMu.
	clock atomic.Uint64
	// txnID allocates transaction identities (their in-flight stamps).
	txnID atomic.Uint64
	// commitMu serializes commits: the WAL write, the stamp flips, and the
	// clock publication happen as one unit per transaction, so WAL order
	// always matches visibility order and frames from two committing
	// sessions never interleave.
	commitMu sync.Mutex
	// locks hands out the per-table write latches.
	locks *lockMgr
	// snaps tracks open explicit concurrent transactions for Vacuum's
	// oldest-active-snapshot watermark.
	snaps *snapTracker

	// commitCount / checkpointCount / walRecordCount are monitoring
	// counters surfaced by EngineStats (see counters.go); they never affect
	// execution.
	commitCount     atomic.Uint64
	checkpointCount atomic.Uint64
	walRecordCount  atomic.Uint64

	// lockWaitNanos bounds how long a transaction that already holds latches
	// (or the shared lock) waits for another table's latch; expiry surfaces
	// as ErrWriteConflict, converting potential latch-order deadlocks into a
	// retryable error. Configurable because slow CI machines can hold
	// latches past the default (see SetLockWaitTimeout).
	lockWaitNanos atomic.Int64
}

// defaultLockWaitTimeout is the default latch-wait bound (see
// DB.lockWaitNanos); override per database with SetLockWaitTimeout or
// process-wide with the PGFMU_LOCK_WAIT_TIMEOUT environment variable (a Go
// duration, e.g. "5s").
const defaultLockWaitTimeout = time.Second

// New creates an empty database with the plan cache enabled.
func New() *DB {
	db := &DB{
		tables:     newCatalog(),
		funcs:      newRegistry(),
		planCache:  make(map[string]*cachedPlan),
		cachePlans: true,
		locks:      newLockMgr(),
		snaps:      newSnapTracker(),
	}
	// Recovery replay stamps rows with timestamp 1; starting the clock there
	// makes them visible to the first snapshot.
	db.clock.Store(1)
	wait := defaultLockWaitTimeout
	if env := os.Getenv("PGFMU_LOCK_WAIT_TIMEOUT"); env != "" {
		if d, err := time.ParseDuration(env); err == nil && d > 0 {
			wait = d
		}
	}
	db.lockWaitNanos.Store(int64(wait))
	return db
}

// SetLockWaitTimeout adjusts how long writers wait for a busy table latch
// before giving up with ErrWriteConflict. Zero or negative restores the
// default. Safe to call at any time; in-flight waits keep their old bound.
func (db *DB) SetLockWaitTimeout(d time.Duration) {
	if d <= 0 {
		d = defaultLockWaitTimeout
	}
	db.lockWaitNanos.Store(int64(d))
}

// lockWaitTimeout reads the configured latch-wait bound.
func (db *DB) lockWaitTimeout() time.Duration {
	return time.Duration(db.lockWaitNanos.Load())
}

// EnablePlanCache toggles the parsed-statement cache (on by default). The
// pgFMU- configuration in the experiments disables it. Statements prepared
// with Prepare keep their plan regardless.
func (db *DB) EnablePlanCache(on bool) {
	db.planCacheMu.Lock()
	defer db.planCacheMu.Unlock()
	db.cachePlans = on
	if !on {
		db.planCache = make(map[string]*cachedPlan)
	}
}

// RegisterScalar registers a scalar UDF callable from any expression.
// readOnly is the function's promise not to modify the database (directly or
// through nested statements): SELECTs calling only read-only functions run
// concurrently under the shared lock, with no transaction; any other
// statement takes the database lock exclusively.
func (db *DB) RegisterScalar(name string, fn ScalarFunc, readOnly bool) {
	db.funcs.registerScalar(name, fn, readOnly)
}

// RegisterTable registers a set-returning UDF callable in FROM; readOnly as
// for RegisterScalar. The function body runs while the database lock is
// held; the returned stream may be consumed after the lock is released and
// therefore must only read data private to the stream (see TableFunc).
func (db *DB) RegisterTable(name string, fn TableFunc, readOnly bool) {
	db.funcs.registerTable(name, fn, readOnly)
}

// IsReadOnly parses sql and reports whether the engine classifies it
// read-only — a SELECT (or EXPLAIN) whose every function is an aggregate, a
// builtin or a UDF registered read-only — which is what decides the shared
// statement path. UDFs that execute caller-supplied SQL use it to keep their
// own read-only promise.
func (db *DB) IsReadOnly(sql string) (bool, error) {
	cp, err := db.parse(sql)
	if err != nil {
		return false, err
	}
	return db.isReadOnly(cp.stmt), nil
}

// TableNames lists the catalogued tables (lowercased).
func (db *DB) TableNames() []string { return db.tables.names() }

// HasTable reports whether a table exists.
func (db *DB) HasTable(name string) bool {
	_, ok := db.tables.get(name)
	return ok
}

// parse resolves SQL text to its plan-cache entry: the parsed statement
// plus the slot where the compiled physical plan accumulates.
func (db *DB) parse(sql string) (*cachedPlan, error) {
	db.planCacheMu.Lock()
	if db.cachePlans {
		if cp, ok := db.planCache[sql]; ok {
			db.planCacheMu.Unlock()
			return cp, nil
		}
	}
	db.planCacheMu.Unlock()
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	cp := &cachedPlan{stmt: stmt}
	db.planCacheMu.Lock()
	if db.cachePlans {
		if existing, ok := db.planCache[sql]; ok {
			// A racer won: keep its entry (and any physical plan it holds).
			cp = existing
		} else {
			db.planCache[sql] = cp
		}
	}
	db.planCacheMu.Unlock()
	return cp, nil
}

// Query runs a statement and returns its fully materialized result set.
// Non-SELECT statements return an empty result with a "rows affected" count
// encoded in Rows: use Exec for those. args bind $1, $2, ... placeholders.
// For large results prefer QueryRows, which streams.
func (db *DB) Query(sql string, args ...any) (*ResultSet, error) {
	return db.QueryContext(context.Background(), sql, args...)
}

// QueryContext is Query honouring ctx: cancellation is observed between
// rows, inside long-running UDFs (which receive ctx), and while draining
// the result.
func (db *DB) QueryContext(ctx context.Context, sql string, args ...any) (*ResultSet, error) {
	it, err := db.QueryRowsContext(ctx, sql, args...)
	if err != nil {
		return nil, err
	}
	return it.Materialize()
}

// Exec runs a statement for its side effects and returns the number of rows
// affected (0 for DDL, row count for SELECT).
func (db *DB) Exec(sql string, args ...any) (int, error) {
	return db.ExecContext(context.Background(), sql, args...)
}

// ExecContext is Exec honouring ctx.
func (db *DB) ExecContext(ctx context.Context, sql string, args ...any) (int, error) {
	rs, err := db.QueryContext(ctx, sql, args...)
	if err != nil {
		return 0, err
	}
	return len(rs.Rows), nil
}

// QueryRows runs a statement and returns a streaming row iterator: rows are
// produced on demand, so LIMIT does bounded work and large results never
// materialize. The iterator holds no database lock — it reads a snapshot-
// filtered row set — and must be closed (or exhausted).
func (db *DB) QueryRows(sql string, args ...any) (*RowIter, error) {
	return db.QueryRowsContext(context.Background(), sql, args...)
}

// QueryRowsContext is QueryRows honouring ctx: iteration stops with the
// context's error once it is cancelled.
func (db *DB) QueryRowsContext(ctx context.Context, sql string, args ...any) (*RowIter, error) {
	cp, err := db.parse(sql)
	if err != nil {
		return nil, err
	}
	params, err := bindArgs(args)
	if err != nil {
		return nil, err
	}
	return db.queryStmt(ctx, sql, cp, params)
}

// txnCtxKey carries a concurrent transaction through a context (see
// RunConcurrent); nestedCtxKey marks a context handed to a UDF while the
// engine already holds a database lock, so nested statements know not to
// re-acquire it.
type txnCtxKey struct{}
type nestedCtxKey struct{}

func txnFromContext(ctx context.Context) *txnState {
	if ctx == nil {
		return nil
	}
	t, _ := ctx.Value(txnCtxKey{}).(*txnState)
	return t
}

func nestedFromContext(ctx context.Context) bool {
	if ctx == nil {
		return false
	}
	b, _ := ctx.Value(nestedCtxKey{}).(bool)
	return b
}

// readSnap is the snapshot for a statement outside any explicit
// transaction: the latest committed timestamp, plus the ambient
// transaction's own writes when one is open (preserving the historical
// database-wide transaction semantics where every statement joins it).
// Caller holds db.mu in either mode.
func (db *DB) readSnap() snapshot {
	if t := db.txn; t != nil {
		return snapshot{ts: db.clock.Load(), self: t.stamp()}
	}
	return snapshot{ts: db.clock.Load()}
}

// queryStmt is the single executor entry point shared by QueryRowsContext
// and prepared statements (stmt.go). Transaction handles and RunConcurrent
// bodies route through execTxStmt instead. Statements dispatch three ways:
// read-only SELECTs share the lock, builtin-only DML takes the concurrent
// write path (per-table latch + shared lock), and everything else — DDL,
// UDF-bearing statements, transaction control — takes the exclusive path.
func (db *DB) queryStmt(ctx context.Context, text string, cp *cachedPlan, params []variant.Value) (*RowIter, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if tx := txnFromContext(ctx); tx != nil && !nestedFromContext(ctx) {
		// Query/Exec called from inside a RunConcurrent body: the statement
		// belongs to that transaction.
		return db.execTxStmt(ctx, text, cp, params, tx)
	}
	cx := &evalCtx{db: db, params: params, ctx: ctx}
	if db.isReadOnly(cp.stmt) {
		db.mu.RLock()
		if db.closed {
			db.mu.RUnlock()
			return nil, ErrClosed
		}
		cx.snap = db.readSnap()
		var st RowStream
		var err error
		if ex, ok := cp.stmt.(*ExplainStmt); ok {
			// EXPLAIN plans without executing; rendering needs only the
			// shared lock.
			var rs *ResultSet
			if rs, err = db.explainLocked(ex); err == nil {
				st = rs.Stream()
			}
		} else {
			st, err = db.openSelect(cx, cp.stmt.(*SelectStmt), cp)
		}
		db.mu.RUnlock()
		if err != nil {
			return nil, err
		}
		return newRowIter(ctx, st), nil
	}
	if isDMLStmt(cp.stmt) && stmtUsesOnlyBuiltins(cp.stmt) {
		st, handled, err := db.runConcurrentWrite(ctx, dmlTable(cp.stmt), params, func(cx *evalCtx, _ *Table) (RowStream, error) {
			return db.execStatement(cx, text, cp)
		})
		if handled {
			if err != nil {
				return nil, err
			}
			return newRowIter(ctx, st), nil
		}
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, ErrClosed
	}
	return db.execTop(cx, text, cp)
}

// dmlTable names the table a DML statement writes.
func dmlTable(s Statement) string {
	switch t := s.(type) {
	case *InsertStmt:
		return t.Table
	case *UpdateStmt:
		return t.Table
	case *DeleteStmt:
		return t.Table
	}
	return ""
}

// runConcurrentWrite executes body as one implicit concurrent transaction
// against table name: latch first (holding nothing, so waiting is
// deadlock-free), then the shared lock, then a snapshot — pinned after the
// latch, so the transaction can never lose a write-write race. handled is
// false when the statement must fall back to the exclusive path: the table
// is missing (let the canonical path produce the error) or the ambient
// database-wide transaction is open (the write must join it).
func (db *DB) runConcurrentWrite(ctx context.Context, name string, params []variant.Value, body func(cx *evalCtx, t *Table) (RowStream, error)) (RowStream, bool, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	for {
		t, ok := db.tables.get(name)
		if !ok {
			return nil, false, nil
		}
		tx := db.newTxn(false, true)
		if !db.locks.tryAcquire(t, tx) {
			// The latch is busy. If the holder is the ambient database-wide
			// transaction (statements joining it latch through it), waiting
			// here would self-deadlock — fall back to the exclusive path,
			// which joins the ambient transaction and finds the latch
			// already held. Otherwise the holder is an independent
			// concurrent transaction that finishes on its own; wait for it
			// while holding nothing.
			db.mu.RLock()
			ambient := db.txn != nil
			db.mu.RUnlock()
			if ambient {
				return nil, false, nil
			}
			if err := db.latchTable(ctx, t, tx, 0); err != nil {
				return nil, true, err
			}
		} else {
			tx.latches = append(tx.latches, t)
		}
		db.mu.RLock()
		if db.closed {
			db.mu.RUnlock()
			db.releaseLatches(tx)
			return nil, true, ErrClosed
		}
		if db.txn != nil {
			db.mu.RUnlock()
			db.releaseLatches(tx)
			return nil, false, nil
		}
		if cur, ok2 := db.tables.get(name); !ok2 || cur != t {
			// The table was dropped or replaced while we waited for the
			// latch; resolve again.
			db.mu.RUnlock()
			db.releaseLatches(tx)
			continue
		}
		// Snapshot after the latch: every earlier writer of this table has
		// fully committed or aborted, so the write set is conflict-free by
		// construction — waiting writers serialize, they don't fail.
		tx.snap = snapshot{ts: db.clock.Load(), self: tx.stamp()}
		cx := &evalCtx{db: db, params: params, ctx: ctx, txn: tx, snap: tx.snap}
		if db.wal != nil {
			// Concurrent transactions always log physical row records:
			// logical statement replay cannot reproduce snapshot-dependent
			// results under interleaved commits.
			cx.physLog = true
		}
		st, err := body(cx, t)
		var ckptDue bool
		if err == nil {
			ckptDue, err = db.commitTxn(tx)
			if err == nil {
				db.autoAnalyzeTouched(tx)
				db.mu.RUnlock()
				db.releaseLatches(tx)
				if ckptDue {
					// Best effort, outside the shared lock (Checkpoint takes
					// the exclusive one); the WAL stays valid if it fails.
					_ = db.Checkpoint()
				}
				return st, true, nil
			}
		}
		if uerr := tx.unwind(db, txnMarks{}); uerr != nil {
			err = errors.Join(err, uerr)
		}
		db.mu.RUnlock()
		db.releaseLatches(tx)
		return nil, true, err
	}
}

// execTxStmt runs one statement inside a concurrent transaction (a Tx
// handle or a RunConcurrent body). Reads share the lock against the
// transaction's pinned snapshot (repeatable read); DML latches its table
// with a bounded wait, then shares the lock; DDL and UDF-bearing statements
// take the exclusive lock. The transaction stays open across statements —
// nothing commits here.
//
// Every lock acquisition is bounded: the transaction may already hold table
// latches (and its caller locks of its own), so a statement that waited
// forever could close a deadlock cycle with a lock holder waiting on those.
// Timing out surfaces ErrWriteConflict — the transaction rolls back and the
// caller retries.
func (db *DB) execTxStmt(ctx context.Context, text string, cp *cachedPlan, params []variant.Value, tx *txnState) (*RowIter, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if isTxnControlStmt(cp.stmt) {
		return nil, fmt.Errorf("sql: transaction control is not valid inside a transaction handle")
	}
	// UDFs invoked by this statement receive a context that carries the
	// transaction (a Tx handle's caller context does not, a RunConcurrent
	// body's already does) and is marked nested, so their QueryNestedContext
	// calls and OnRollbackContext compensators join it without re-taking the
	// database lock.
	// cx.physLog (whether writes must be physically WAL-logged) depends on
	// db.wal, which Close nils under db.mu — so it is resolved below, after
	// each branch acquires the lock, not here.
	udfCtx := context.WithValue(context.WithValue(ctx, txnCtxKey{}, tx), nestedCtxKey{}, true)
	cx := &evalCtx{db: db, params: params, ctx: udfCtx, txn: tx, snap: tx.snap}
	if db.isReadOnly(cp.stmt) {
		if err := db.rlockBounded(); err != nil {
			return nil, err
		}
		if db.closed {
			db.mu.RUnlock()
			return nil, ErrClosed
		}
		var st RowStream
		var err error
		if ex, ok := cp.stmt.(*ExplainStmt); ok {
			var rs *ResultSet
			if rs, err = db.explainLocked(ex); err == nil {
				st = rs.Stream()
			}
		} else {
			st, err = db.openSelect(cx, cp.stmt.(*SelectStmt), cp)
		}
		db.mu.RUnlock()
		if err != nil {
			return nil, err
		}
		return newRowIter(ctx, st), nil
	}
	if isDMLStmt(cp.stmt) && stmtUsesOnlyBuiltins(cp.stmt) {
		name := dmlTable(cp.stmt)
		for {
			t, ok := db.tables.get(name)
			if !ok {
				return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, name)
			}
			// Bounded wait: this transaction may already hold other latches,
			// and another transaction could be waiting on them — timing out
			// with ErrWriteConflict breaks the cycle.
			if err := db.latchTable(ctx, t, tx, db.lockWaitTimeout()); err != nil {
				return nil, err
			}
			if err := db.rlockBounded(); err != nil {
				return nil, err
			}
			if db.closed {
				db.mu.RUnlock()
				return nil, ErrClosed
			}
			if cur, ok2 := db.tables.get(name); !ok2 || cur != t {
				db.mu.RUnlock()
				continue
			}
			cx.physLog = db.wal != nil
			st, err := db.execStatement(cx, text, cp)
			db.mu.RUnlock()
			if err != nil {
				return nil, err
			}
			return newRowIter(ctx, st), nil
		}
	}
	// DDL, ANALYZE, and UDF-bearing statements: exclusive lock. Table
	// latches are probed, never waited for, under it (see tryLatchTable).
	if err := db.lockBounded(); err != nil {
		return nil, err
	}
	defer db.mu.Unlock()
	if db.closed {
		return nil, ErrClosed
	}
	if db.txn != nil {
		return nil, fmt.Errorf("%w (exclusive statement inside a concurrent transaction)", ErrTxInProgress)
	}
	cx.physLog = db.wal != nil
	st, err := db.execStatement(cx, text, cp)
	if err != nil {
		return nil, err
	}
	return newRowIter(ctx, st), nil
}

// openSelect executes a SELECT under the held lock and returns its rows as a
// stream, routed through the physical planner: both executors resolve their
// sources now and return a tail that is safe to iterate after the lock is
// released (a statement calling a UDF outside FROM is evaluated completely
// here). cp carries the physical plan: cached (and epoch-revalidated)
// when the statement came through the plan cache, or a throwaway entry for
// script/ad-hoc execution.
func (db *DB) openSelect(cx *evalCtx, s *SelectStmt, cp *cachedPlan) (RowStream, error) {
	plan, err := cp.physFor(db, s)
	if err != nil {
		return nil, err
	}
	if plan.kind == physVectorized {
		return plan.vec.open(cx)
	}
	return plan.ops.open(cx, nil)
}

// execTop runs one top-level statement under the exclusive lock: it handles
// transaction control, wraps standalone writes in an implicit transaction,
// and commits to the WAL. The returned iterator's remaining work (if any)
// is pure, so it is handed out after the transaction has committed.
func (db *DB) execTop(cx *evalCtx, text string, cp *cachedPlan) (*RowIter, error) {
	empty := func() *RowIter { return newRowIter(cx.ctx, NewSliceStream(nil, nil)) }
	switch cp.stmt.(type) {
	case *BeginStmt:
		if _, err := db.beginLocked(); err != nil {
			return nil, err
		}
		return empty(), nil
	case *CommitStmt:
		if db.txn == nil || !db.txn.explicit {
			return nil, fmt.Errorf("sql: COMMIT without a transaction in progress")
		}
		if err := db.commitLocked(db.txn); err != nil {
			return nil, err
		}
		return empty(), nil
	case *RollbackStmt:
		if db.txn == nil || !db.txn.explicit {
			return nil, fmt.Errorf("sql: ROLLBACK without a transaction in progress")
		}
		if err := db.rollbackLocked(db.txn); err != nil {
			return nil, err
		}
		return empty(), nil
	}

	var st RowStream
	err := db.runInTxn(func() error {
		t := db.txn
		// Refresh the ambient snapshot per statement (read-committed style):
		// commits by concurrent transactions between this transaction's
		// statements become visible, as they always were on this path.
		t.snap = snapshot{ts: db.clock.Load(), self: t.stamp()}
		cx.txn, cx.snap = t, t.snap
		var serr error
		st, serr = db.execStatement(cx, text, cp)
		return serr
	})
	if err != nil {
		return nil, err
	}
	return newRowIter(cx.ctx, st), nil
}

// beginLocked opens the explicit ambient (database-wide) transaction;
// ErrTxInProgress if one is already open. Caller holds the exclusive lock.
func (db *DB) beginLocked() (*txnState, error) {
	if db.txn != nil && db.txn.explicit {
		return nil, ErrTxInProgress
	}
	t := db.newTxn(true, false)
	t.snap = snapshot{ts: db.clock.Load(), self: t.stamp()}
	db.txn = t
	return t, nil
}

// commitTxn makes a finished transaction durable and visible: its WAL
// records are written (and fsynced per the group-commit policy), then its
// version stamps flip to the next commit timestamp, and the clock publishes
// it. Serialized by commitMu, so stamp order always matches WAL order and
// two committing sessions never interleave WAL frames. Safe under either
// db.mu mode (an exclusive holder cannot contend with concurrent
// committers, which hold the shared lock). Reports whether an automatic
// checkpoint is due; shared-lock callers run it after unlocking.
func (db *DB) commitTxn(t *txnState) (ckptDue bool, err error) {
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	if err := db.walCommit(t); err != nil {
		return false, err
	}
	ts := db.clock.Load() + 1
	for _, m := range t.created {
		m.begin.Store(ts)
	}
	for _, m := range t.ended {
		m.end.Store(ts)
	}
	db.clock.Store(ts)
	db.snaps.drop(t)
	db.commitCount.Add(1)
	return db.walCheckpointDue(), nil
}

// commitLocked commits the ambient transaction t if it is still open: WAL
// records are made durable (unwinding memory state if the log fails, so
// memory never diverges from what recovery would rebuild) and an automatic
// checkpoint runs when due. ErrTxDone if t was already finished (e.g. by a
// SQL COMMIT racing another statement); ErrClosed if the database was shut
// down. Caller holds the exclusive lock.
func (db *DB) commitLocked(t *txnState) error {
	if db.closed {
		return ErrClosed
	}
	if db.txn != t {
		return ErrTxDone
	}
	db.txn = nil
	_, err := db.commitTxn(t)
	if err != nil {
		uerr := t.unwind(db, txnMarks{})
		db.releaseLatches(t)
		if uerr != nil {
			return errors.Join(err, uerr)
		}
		return err
	}
	db.releaseLatches(t)
	db.maybeAutoCheckpointLocked()
	db.autoAnalyzeTouched(t)
	return nil
}

// rollbackLocked rolls t back if it is still the open ambient transaction;
// ErrTxDone otherwise, ErrClosed after shutdown. Caller holds the exclusive
// lock.
func (db *DB) rollbackLocked(t *txnState) error {
	if db.closed {
		return ErrClosed
	}
	if db.txn != t {
		return ErrTxDone
	}
	db.txn = nil
	err := t.unwind(db, txnMarks{})
	db.releaseLatches(t)
	db.snaps.drop(t)
	return err
}

// txLive reports whether t is still the open ambient transaction — false
// once it was finished by SQL COMMIT/ROLLBACK text.
func (db *DB) txLive(t *txnState) bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.txn == t
}

// runInTxn runs fn as one atomic unit of the ambient transaction — or of an
// implicit single-shot transaction when none is open. On error, every
// mutation fn journalled is unwound; on success of an implicit transaction,
// its WAL records are committed (unwinding again if the log cannot be made
// durable) and an automatic checkpoint runs when due. This is the
// commit/rollback protocol of the exclusive path, shared by SQL statements
// (execTop) and the typed mutating APIs (RunExclusive).
func (db *DB) runInTxn(fn func() error) error {
	if t := db.txn; t != nil {
		m := t.marks()
		err := fn()
		if err != nil && t.dirtySince(m) {
			if uerr := t.unwind(db, m); uerr != nil {
				return errors.Join(err, uerr)
			}
		}
		return err
	}
	t := db.newTxn(false, false)
	t.snap = snapshot{ts: db.clock.Load(), self: t.stamp()}
	db.txn = t
	err := fn()
	db.txn = nil
	if err == nil {
		var werr error
		_, werr = db.commitTxn(t)
		if werr == nil {
			db.releaseLatches(t)
			db.maybeAutoCheckpointLocked()
			db.autoAnalyzeTouched(t)
			return nil
		}
		err = werr
	}
	if uerr := t.unwind(db, txnMarks{}); uerr != nil {
		err = errors.Join(err, uerr)
	}
	db.releaseLatches(t)
	return err
}

// execStatement runs one statement with statement-level atomicity inside
// cx's transaction (unwind to the statement's marks on error) and captures
// its WAL records: the statement text when every referenced function is a
// builtin and the transaction runs exclusively, otherwise the physical row
// changes (see txn.go).
func (db *DB) execStatement(cx *evalCtx, text string, cp *cachedPlan) (RowStream, error) {
	stmt := cp.stmt
	if isTxnControlStmt(stmt) {
		return nil, fmt.Errorf("sql: transaction control is only valid as a top-level statement")
	}
	t := cx.txn
	if t == nil {
		// Read path or recovery replay: nothing to journal.
		return db.execStream(cx, cp)
	}
	m := t.marks()
	logStmt := false
	if isMutatingStmt(stmt) && db.wal != nil && !cx.physLog {
		if stmtUsesOnlyBuiltins(stmt) && !t.concurrent {
			logStmt = true
		} else {
			cx.physLog = true
		}
	}
	st, err := db.execStream(cx, cp)
	if err != nil {
		if t.dirtySince(m) {
			if uerr := t.unwind(db, m); uerr != nil {
				return nil, errors.Join(err, uerr)
			}
		}
		return nil, err
	}
	if logStmt {
		t.pending = append(t.pending, stmtWALRecord(text, cx.params))
	}
	return st, nil
}

// execStream dispatches one parsed statement to its executor, as a stream.
func (db *DB) execStream(cx *evalCtx, cp *cachedPlan) (RowStream, error) {
	if s, ok := cp.stmt.(*SelectStmt); ok {
		return db.openSelect(cx, s, cp)
	}
	rs, err := db.execLocked(cx, cp.stmt)
	if err != nil {
		return nil, err
	}
	return rs.Stream(), nil
}

// isReadOnly reports whether a statement can run under the shared lock: an
// EXPLAIN (planning never executes), or a SELECT whose every function
// reference is an aggregate, a builtin, or a UDF registered as read-only.
// Anything else — DML, DDL, ANALYZE, or a SELECT invoking a UDF with
// possible side effects — requires a write path.
func (db *DB) isReadOnly(stmt Statement) bool {
	if _, ok := stmt.(*ExplainStmt); ok {
		return true
	}
	s, ok := stmt.(*SelectStmt)
	if !ok {
		return false
	}
	readOnly := true
	walkSelectFuncs(s, func(name string) {
		if readOnly && !db.funcIsReadOnly(name) {
			readOnly = false
		}
	})
	return readOnly
}

func (db *DB) funcIsReadOnly(name string) bool {
	name = strings.ToLower(name)
	if isAggregateName(name) {
		return true
	}
	if _, ok := builtinScalars[name]; ok {
		return true
	}
	if _, ok := builtinTableFunc(name); ok {
		return true
	}
	return db.funcs.isReadOnly(name)
}

// walkSelectFuncs visits every function name referenced anywhere in a
// SELECT, including subqueries in FROM.
func walkSelectFuncs(s *SelectStmt, fn func(string)) {
	for _, it := range s.Items {
		walkExprFuncs(it.Expr, fn)
	}
	for _, f := range s.From {
		if f.Func != nil {
			walkExprFuncs(f.Func, fn)
		}
		if f.Sub != nil {
			walkSelectFuncs(f.Sub, fn)
		}
		walkExprFuncs(f.On, fn)
	}
	walkExprFuncs(s.Where, fn)
	for _, e := range s.GroupBy {
		walkExprFuncs(e, fn)
	}
	walkExprFuncs(s.Having, fn)
	for _, o := range s.OrderBy {
		walkExprFuncs(o.Expr, fn)
	}
	walkExprFuncs(s.Limit, fn)
	walkExprFuncs(s.Offset, fn)
}

func walkExprFuncs(e Expr, fn func(string)) {
	walkExpr(e, func(x Expr) bool {
		if f, ok := x.(*FuncExpr); ok {
			fn(f.Name)
		}
		return true
	})
}

// QueryNested runs a query from inside a UDF that is already executing under
// the database lock. pgFMU's fmu_parest uses this to evaluate input_sql.
// Mutations performed here join the enclosing statement's transaction: they
// are journalled for rollback and captured in its WAL commit.
func (db *DB) QueryNested(sql string, args ...any) (*ResultSet, error) {
	return db.QueryNestedContext(context.Background(), sql, args...)
}

// QueryNestedContext is QueryNested honouring ctx — context-aware UDFs pass
// their statement context through so nested reads stop promptly on
// cancellation. A context from a RunConcurrent body routes the statement
// into that concurrent transaction (acquiring the locks it needs); a
// context handed to a UDF mid-statement joins the enclosing execution
// directly, since the engine already holds the lock.
func (db *DB) QueryNestedContext(ctx context.Context, sql string, args ...any) (*ResultSet, error) {
	cp, err := db.parse(sql)
	if err != nil {
		return nil, err
	}
	params, err := bindArgs(args)
	if err != nil {
		return nil, err
	}
	tx := txnFromContext(ctx)
	if tx != nil && !nestedFromContext(ctx) {
		it, err := db.execTxStmt(ctx, sql, cp, params, tx)
		if err != nil {
			return nil, err
		}
		return it.Materialize()
	}
	cx := &evalCtx{db: db, params: params, ctx: ctx}
	switch {
	case tx != nil:
		// Nested inside a concurrent transaction's statement.
		cx.txn, cx.snap = tx, tx.snap
		if db.wal != nil {
			cx.physLog = true
		}
	case db.txn != nil:
		cx.txn = db.txn
		cx.snap = snapshot{ts: db.clock.Load(), self: db.txn.stamp()}
	default:
		cx.snap = snapshot{ts: db.clock.Load()}
	}
	st, err := db.execStatement(cx, sql, cp)
	if err != nil {
		return nil, err
	}
	return drainStream(st)
}

// RunExclusive runs fn under the exclusive database lock as one atomic
// transactional unit: every QueryNested mutation fn performs is journalled
// and committed (WAL-logged on durable databases) when fn returns nil, and
// rolled back when it returns an error — joining the ambient explicit
// transaction if one is open, else in an implicit one. It is the entry
// point for typed Go APIs that mutate the catalogue or need full isolation;
// table-level work should prefer RunConcurrent. fn must use QueryNested,
// never Query/Exec (which would self-deadlock).
func (db *DB) RunExclusive(fn func() error) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	return db.runInTxn(fn)
}

// RunShared runs fn under the shared database lock, for typed Go APIs
// whose nested queries only read: fn's QueryNested calls may run
// concurrently with other readers (and with concurrent writers, whose
// uncommitted versions stay invisible).
func (db *DB) RunShared(fn func() error) error {
	db.mu.RLock()
	defer db.mu.RUnlock()
	if db.closed {
		return ErrClosed
	}
	return fn()
}

// RunConcurrent runs fn as one concurrent transaction. The context passed
// to fn carries the transaction: statements issued through
// QueryNestedContext (or Query/Exec with that context) join it, reading the
// transaction's snapshot and writing under its table latches — so a long
// calibration transaction only blocks writers of the tables it writes,
// never the rest of the database. fn returning nil commits; an error (or a
// write conflict inside fn) rolls back. While the ambient database-wide
// transaction is open, fn joins it under the exclusive lock instead,
// preserving the historical semantics.
func (db *DB) RunConcurrent(ctx context.Context, fn func(ctx context.Context) error) error {
	if ctx == nil {
		ctx = context.Background()
	}
	db.mu.RLock()
	if db.closed {
		db.mu.RUnlock()
		return ErrClosed
	}
	ambient := db.txn != nil
	var tx *txnState
	if !ambient {
		tx = db.newTxn(true, true)
		tx.snap = snapshot{ts: db.clock.Load(), self: tx.stamp()}
		db.snaps.register(tx, tx.snap.ts)
	}
	db.mu.RUnlock()
	if ambient {
		return db.RunExclusive(func() error { return fn(ctx) })
	}
	finish := func(err error) error {
		uerr := db.unwindConcurrent(tx)
		db.releaseLatches(tx)
		db.snaps.drop(tx)
		if uerr != nil {
			return errors.Join(err, uerr)
		}
		return err
	}
	if err := fn(context.WithValue(ctx, txnCtxKey{}, tx)); err != nil {
		return finish(err)
	}
	db.mu.RLock()
	if db.closed {
		db.mu.RUnlock()
		db.releaseLatches(tx)
		db.snaps.drop(tx)
		return ErrClosed
	}
	ckptDue, err := db.commitTxn(tx)
	if err != nil {
		db.mu.RUnlock()
		return finish(err)
	}
	db.autoAnalyzeTouched(tx)
	db.mu.RUnlock()
	db.releaseLatches(tx)
	db.snaps.drop(tx)
	if ckptDue {
		_ = db.Checkpoint()
	}
	return nil
}

// unwindConcurrent rolls back a concurrent transaction from outside the
// database lock. Pure DML rollback is just atomic stamp flips and needs no
// lock; a transaction that journalled DDL undos or compensators takes the
// exclusive lock so catalogue mutations and index rebuilds cannot race
// readers. Caller still holds the transaction's latches (released after).
func (db *DB) unwindConcurrent(t *txnState) error {
	if t.ddl || len(t.undo) > 0 {
		db.mu.Lock()
		defer db.mu.Unlock()
	}
	return t.unwind(db, txnMarks{})
}

// OnRollback registers a compensating closure with the ambient open
// transaction, run (in reverse registration order) if and only if the
// enclosing work is rolled back — by ROLLBACK, by a failed statement's
// unwind, or by a WAL commit failure. Side-effecting UDFs and RunExclusive
// bodies use it to keep state the SQL journal cannot see (e.g. the pgFMU
// session's live instances) consistent with the journalled tables. No-op
// when no transaction is open (e.g. recovery replay). Inside a
// RunConcurrent body, use OnRollbackContext instead.
func (db *DB) OnRollback(fn func()) {
	if db.txn != nil {
		db.txn.recordUndo(fn)
	}
}

// OnRollbackContext is OnRollback for code that may run inside a concurrent
// transaction: if ctx carries one (see RunConcurrent), the compensator
// registers there; otherwise it falls back to the ambient transaction.
func (db *DB) OnRollbackContext(ctx context.Context, fn func()) {
	if t := txnFromContext(ctx); t != nil {
		t.recordUndo(fn)
		return
	}
	db.OnRollback(fn)
}

// ExecScript runs a semicolon-separated statement sequence, returning the
// result of the last statement. BEGIN/COMMIT/ROLLBACK inside the script
// group statements into transactions exactly as they do through Query.
func (db *DB) ExecScript(sql string) (*ResultSet, error) {
	stmts, texts, err := parseScriptWithText(sql)
	if err != nil {
		return nil, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil, ErrClosed
	}
	var last *ResultSet
	for i, stmt := range stmts {
		it, err := db.execTop(&evalCtx{db: db}, texts[i], &cachedPlan{stmt: stmt})
		if err != nil {
			return nil, err
		}
		// Draining under the held lock is safe: any lazy tail is pure.
		last, err = it.Materialize()
		if err != nil {
			return nil, err
		}
	}
	if last == nil {
		last = &ResultSet{}
	}
	return last, nil
}

func bindArgs(args []any) ([]variant.Value, error) {
	params := make([]variant.Value, len(args))
	for i, a := range args {
		v, err := variant.FromAny(a)
		if err != nil {
			return nil, fmt.Errorf("sql: binding $%d: %w", i+1, err)
		}
		params[i] = v
	}
	return params, nil
}

// latchForWrite takes t's write latch for cx's transaction at execution
// time. Callers hold db.mu in some mode, so waiting is never safe here —
// the latch is probed, and a holder surfaces as ErrWriteConflict. The
// concurrent DML path pre-acquires its target latch (with waiting) before
// taking the shared lock, making this a no-op there. Recovery replay
// (txn == nil) runs single-threaded under the exclusive lock and needs no
// latch.
func (db *DB) latchForWrite(cx *evalCtx, t *Table) error {
	if cx.txn == nil {
		return nil
	}
	return db.tryLatchTable(t, cx.txn)
}

// rlockBounded acquires db.mu.RLock with a bounded wait; lockBounded does
// the same for the exclusive mode. Concurrent transactions use them for
// per-statement acquisitions (see execTxStmt) so a statement issued while
// holding caller-side locks cannot wait forever on a lock holder that is
// itself waiting on the caller.
func (db *DB) rlockBounded() error {
	deadline := time.Now().Add(db.lockWaitTimeout())
	for !db.mu.TryRLock() {
		if time.Now().After(deadline) {
			return fmt.Errorf("%w: database is exclusively locked by another statement", ErrWriteConflict)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

func (db *DB) lockBounded() error {
	deadline := time.Now().Add(db.lockWaitTimeout())
	for !db.mu.TryLock() {
		if time.Now().After(deadline) {
			return fmt.Errorf("%w: database is locked by another statement", ErrWriteConflict)
		}
		time.Sleep(100 * time.Microsecond)
	}
	return nil
}

// execLocked executes one parsed statement other than SELECT (execStream
// routes those to openSelect) and materializes its result.
// cx.physLog asks DML executors to emit physical WAL records for each row
// change (used when the statement text itself cannot be replayed because it
// references UDFs, and always on the concurrent path).
func (db *DB) execLocked(cx *evalCtx, stmt Statement) (*ResultSet, error) {
	switch s := stmt.(type) {
	case *ExplainStmt:
		return db.explainLocked(s)
	case *AnalyzeStmt:
		return db.execAnalyze(s)
	case *CreateTableStmt:
		return db.execCreate(cx, s)
	case *DropTableStmt:
		return db.execDrop(cx, s)
	case *CreateIndexStmt:
		if t, ok := db.tables.get(s.Table); ok {
			if err := db.latchForWrite(cx, t); err != nil {
				return nil, err
			}
		}
		created, err := db.tables.createIndex(IndexInfo{
			Name:   s.Name,
			Table:  s.Table,
			Column: s.Column,
			Kind:   s.Using,
		}, s.IfNotExists)
		if err != nil {
			return nil, err
		}
		if created {
			name := s.Name
			cx.recordUndo(func() { db.tables.dropIndex(name, true) })
			cx.markDDL()
		}
		return &ResultSet{}, nil
	case *DropIndexStmt:
		t, ix, err := db.tables.dropIndex(s.Name, s.IfExists)
		if err != nil {
			return nil, err
		}
		if ix != nil {
			if lerr := db.latchForWrite(cx, t); lerr != nil {
				db.tables.attachIndex(t, ix)
				return nil, lerr
			}
			cx.recordUndo(func() { db.tables.attachIndex(t, ix) })
			// Re-attachment restores the index as of the drop; a rollback
			// rebuild brings it back in line with the restored rows.
			cx.touch(t)
			cx.markDDL()
		}
		return &ResultSet{}, nil
	case *InsertStmt:
		return db.execInsert(cx, s)
	case *UpdateStmt:
		return db.execUpdate(cx, s)
	case *DeleteStmt:
		return db.execDelete(cx, s)
	default:
		return nil, fmt.Errorf("sql: unsupported statement %T", stmt)
	}
}

func (db *DB) execCreate(cx *evalCtx, s *CreateTableStmt) (*ResultSet, error) {
	seen := make(map[string]bool, len(s.Columns))
	cols := make([]Column, len(s.Columns))
	for i, c := range s.Columns {
		key := strings.ToLower(c.Name)
		if seen[key] {
			return nil, fmt.Errorf("sql: duplicate column %q", c.Name)
		}
		seen[key] = true
		cols[i] = Column{Name: c.Name, Type: c.Type}
	}
	t := &Table{Name: strings.ToLower(s.Name), Columns: cols}
	t.view.Store(&tableView{})
	created, err := db.tables.create(t, s.IfNotExists)
	if err != nil {
		return nil, err
	}
	if created {
		cx.recordUndo(func() { db.tables.drop(t.Name, true) })
		cx.markDDL()
	}
	return &ResultSet{}, nil
}

func (db *DB) execDrop(cx *evalCtx, s *DropTableStmt) (*ResultSet, error) {
	if t, ok := db.tables.get(s.Name); ok {
		// A concurrent transaction with in-flight writes on the table would
		// commit value-based WAL records after our logged DROP — refusing
		// keeps log order consistent with visibility order.
		if err := db.latchForWrite(cx, t); err != nil {
			return nil, err
		}
	}
	dropped, err := db.tables.drop(s.Name, s.IfExists)
	if err != nil {
		return nil, err
	}
	if dropped != nil {
		cx.recordUndo(func() { db.tables.restoreTable(dropped) })
		cx.markDDL()
	}
	return &ResultSet{}, nil
}

// insertVersion appends one row version for cx's transaction (or an
// already-committed version during recovery replay) and maintains indexes.
// The view is published before the index entries, so a concurrent index
// probe can never surface a position beyond its own view header.
func (db *DB) insertVersion(cx *evalCtx, t *Table, row Row) error {
	m := &rowMeta{}
	if tx := cx.txn; tx != nil {
		m.begin.Store(tx.stamp())
		tx.created = append(tx.created, m)
	} else {
		// Recovery replay rebuilds committed state directly.
		m.begin.Store(1)
	}
	pos := t.appendVersion(row, m)
	return t.insertIntoIndexes(pos, row)
}

// endVersion stamps one visible version as deleted/superseded by cx's
// transaction, enforcing first-updater-wins: an end stamp already placed by
// anyone else means a concurrent writer got to the row first, and the
// statement fails with ErrWriteConflict. (For a version still visible to
// this snapshot, such a stamp can only be a commit newer than the snapshot:
// in-flight stamps are impossible under the table latch.)
func (db *DB) endVersion(cx *evalCtx, t *Table, m *rowMeta) error {
	tx := cx.txn
	if tx == nil {
		m.end.Store(1)
		return nil
	}
	self := tx.stamp()
	if e := m.end.Load(); e != 0 && e != self {
		return fmt.Errorf("%w: row in table %q was modified after this transaction's snapshot", ErrWriteConflict, t.Name)
	}
	m.end.Store(self)
	tx.ended = append(tx.ended, m)
	return nil
}

func (db *DB) execInsert(cx *evalCtx, s *InsertStmt) (*ResultSet, error) {
	t, ok := db.tables.get(s.Table)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, s.Table)
	}
	if err := db.latchForWrite(cx, t); err != nil {
		return nil, err
	}
	// Column mapping: target index per provided value position.
	targets := make([]int, 0, len(t.Columns))
	if len(s.Columns) == 0 {
		for i := range t.Columns {
			targets = append(targets, i)
		}
	} else {
		for _, name := range s.Columns {
			idx := t.columnIndex(name)
			if idx < 0 {
				return nil, fmt.Errorf("sql: table %q has no column %q", s.Table, name)
			}
			targets = append(targets, idx)
		}
	}

	cx.touch(t)

	appendRow := func(vals []variant.Value) error {
		if len(vals) != len(targets) {
			return fmt.Errorf("sql: INSERT has %d values for %d columns", len(vals), len(targets))
		}
		row := make(Row, len(t.Columns))
		for i := range row {
			row[i] = variant.NewNull()
		}
		for i, idx := range targets {
			v, err := coerceToColumn(vals[i], t.Columns[idx].Type)
			if err != nil {
				return fmt.Errorf("sql: column %q: %w", t.Columns[idx].Name, err)
			}
			row[idx] = v
		}
		if err := db.insertVersion(cx, t, row); err != nil {
			return err
		}
		if cx.physLog {
			cx.logWAL(db, walRecord{Op: "ins", Table: t.Name, Row: encodeWALValues(row)})
		}
		return nil
	}

	count := 0
	if s.Query != nil {
		// Draining the source before the first write makes INSERT ... SELECT
		// over the target table read a fixed snapshot (no Halloween
		// re-reads). Every plan yields a deterministic row order, so replay
		// of the logged statement appends the rows in the same order.
		st, err := db.openSelect(cx, s.Query, &cachedPlan{stmt: s.Query})
		if err != nil {
			return nil, err
		}
		rs, err := drainStreamCtx(cx, st)
		if err != nil {
			return nil, err
		}
		for _, r := range rs.Rows {
			if err := appendRow(r); err != nil {
				return nil, err
			}
			count++
		}
	} else {
		for ri, exprRow := range s.Rows {
			if err := cx.checkCancel(ri); err != nil {
				return nil, err
			}
			// VALUES see no row: each expression compiles for a context
			// without one, once, as its row is reached.
			exprs := make([]compiledExpr, len(exprRow))
			for i, e := range exprRow {
				exprs[i] = compileConst(e)
			}
			vals, err := evalList(cx, nil, exprs)
			if err != nil {
				return nil, err
			}
			if err := appendRow(vals); err != nil {
				return nil, err
			}
			count++
		}
	}
	t.noteMutations(count)
	return affectedRows("inserted", count), nil
}

// applyToTargets calls apply for every version of t that cx's snapshot sees
// and where accepts, and returns how many there were; where compiles
// against t's rows once per execution (compileDML). The candidates come
// from the planner's access path (chooseAccessPath): an index probe when one
// is cheaper, else every position of the view header. Either way they are
// fixed, in ascending version order, before the first apply runs, so
// versions the statement appends are never revisited (no Halloween problem,
// also when SET changes the indexed column) and WAL record order, duplicate-
// row replay matching and first-updater-wins are those of the table walk: a
// stale index entry — deleted, superseded, aborted — is dropped by the
// visibility check or, when a newer commit ended it, fails in endVersion.
func (db *DB) applyToTargets(cx *evalCtx, t *Table, where Expr, apply func(row Row, m *rowMeta) error) (int, error) {
	pred := compileDML(t, where)
	ap := chooseAccessPath(db, t, strings.ToLower(t.Name), where)
	var buf [16]int
	v, positions, probed := ap.lookupPositions(cx, t, buf[:0])
	n := len(v.rows)
	if probed {
		n = len(positions)
	}
	count := 0
	for i := 0; i < n; i++ {
		if err := cx.checkCancel(i); err != nil {
			return 0, err
		}
		pos := i
		if probed {
			pos = positions[i]
		}
		if !cx.snap.visible(v.meta[pos]) {
			continue
		}
		row := v.rows[pos]
		if pred != nil {
			// The probe yields a candidate superset: the full WHERE decides.
			ok, err := truth(pred(cx, row))
			if err != nil {
				return 0, err
			}
			if !ok {
				continue
			}
		}
		if err := apply(row, v.meta[pos]); err != nil {
			return 0, err
		}
		count++
	}
	t.noteMutations(count)
	return count, nil
}

// compileDML compiles an UPDATE or DELETE expression against the target
// table's rows; nil for a nil e.
func compileDML(t *Table, e Expr) compiledExpr {
	src := sourceInfo{alias: strings.ToLower(t.Name), columns: t.Columns, width: len(t.Columns)}
	return compileOver(e, []sourceInfo{src}, nil)
}

// affectedRows reports a DML count as one marker row per affected row.
func affectedRows(column string, count int) *ResultSet {
	out := &ResultSet{Columns: []Column{{Name: column, Type: "integer"}}}
	for i := 0; i < count; i++ {
		out.Rows = append(out.Rows, Row{variant.NewInt(1)})
	}
	return out
}

func (db *DB) execUpdate(cx *evalCtx, s *UpdateStmt) (*ResultSet, error) {
	t, ok := db.tables.get(s.Table)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, s.Table)
	}
	if err := db.latchForWrite(cx, t); err != nil {
		return nil, err
	}
	setIdx := make([]int, len(s.Set))
	for i, sc := range s.Set {
		idx := t.columnIndex(sc.Column)
		if idx < 0 {
			return nil, fmt.Errorf("sql: table %q has no column %q", s.Table, sc.Column)
		}
		setIdx[i] = idx
	}
	sets := make([]compiledExpr, len(s.Set))
	for i, sc := range s.Set {
		sets[i] = compileDML(t, sc.Value)
	}
	cx.touch(t)
	count, err := db.applyToTargets(cx, t, s.Where, func(row Row, m *rowMeta) error {
		newRow := append(Row(nil), row...)
		for i, clause := range s.Set {
			val, err := sets[i](cx, row)
			if err != nil {
				return err
			}
			cv, err := coerceToColumn(val, t.Columns[setIdx[i]].Type)
			if err != nil {
				return fmt.Errorf("sql: column %q: %w", clause.Column, err)
			}
			newRow[setIdx[i]] = cv
		}
		if err := db.endVersion(cx, t, m); err != nil {
			return err
		}
		if err := db.insertVersion(cx, t, newRow); err != nil {
			return err
		}
		if cx.physLog {
			cx.logWAL(db, walRecord{Op: "upd", Table: t.Name,
				Old: encodeWALValues(row), Row: encodeWALValues(newRow)})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return affectedRows("updated", count), nil
}

func (db *DB) execDelete(cx *evalCtx, s *DeleteStmt) (*ResultSet, error) {
	t, ok := db.tables.get(s.Table)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, s.Table)
	}
	if err := db.latchForWrite(cx, t); err != nil {
		return nil, err
	}
	cx.touch(t)
	count, err := db.applyToTargets(cx, t, s.Where, func(row Row, m *rowMeta) error {
		// DELETE is an end stamp: versions stay in place (vacuum reclaims
		// them) and indexes need no maintenance — probes filter visibility.
		if err := db.endVersion(cx, t, m); err != nil {
			return err
		}
		if cx.physLog {
			cx.logWAL(db, walRecord{Op: "del", Table: t.Name, Old: encodeWALValues(row)})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return affectedRows("deleted", count), nil
}

// InsertRow appends a row of Go values to a table directly (bulk-load path
// used by dataset loaders; bypasses SQL parsing). It runs on the concurrent
// write path — loaders on disjoint tables proceed in parallel — unless the
// ambient transaction is open, in which case it joins it exclusively. Like
// any write it is WAL-logged as a physical row record on a durable
// database.
func (db *DB) InsertRow(table string, values ...any) error {
	buildRow := func(t *Table) (Row, error) {
		if len(values) != len(t.Columns) {
			return nil, fmt.Errorf("sql: table %q has %d columns, got %d values", table, len(t.Columns), len(values))
		}
		row := make(Row, len(values))
		for i, v := range values {
			vv, err := variant.FromAny(v)
			if err != nil {
				return nil, err
			}
			cv, err := coerceToColumn(vv, t.Columns[i].Type)
			if err != nil {
				return nil, fmt.Errorf("sql: column %q: %w", t.Columns[i].Name, err)
			}
			row[i] = cv
		}
		return row, nil
	}
	insert := func(cx *evalCtx, t *Table) error {
		row, err := buildRow(t)
		if err != nil {
			return err
		}
		cx.touch(t)
		if err := db.insertVersion(cx, t, row); err != nil {
			return err
		}
		t.noteMutations(1)
		cx.logWAL(db, walRecord{Op: "ins", Table: t.Name, Row: encodeWALValues(row)})
		return nil
	}

	_, handled, err := db.runConcurrentWrite(context.Background(), table, nil, func(cx *evalCtx, t *Table) (RowStream, error) {
		return nil, insert(cx, t)
	})
	if handled {
		return err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return ErrClosed
	}
	t, ok := db.tables.get(table)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchTable, table)
	}
	return db.runInTxn(func() error {
		cx := &evalCtx{db: db, ctx: context.Background(), txn: db.txn, snap: db.txn.snap}
		if err := db.latchForWrite(cx, t); err != nil {
			return err
		}
		return insert(cx, t)
	})
}

// quoteIdent renders an identifier as a SQL quoted identifier, doubling
// embedded quotes (the lexer's escape; Go's %q escaping is not SQL).
func quoteIdent(name string) string {
	return `"` + strings.ReplaceAll(name, `"`, `""`) + `"`
}

// CreateIndex creates a secondary index on table(column) through the typed
// API; kind is IndexHash, IndexOrdered, or "" for the default (ordered).
// It routes through the SQL path so the DDL is transactional and WAL-logged
// exactly like CREATE INDEX.
func (db *DB) CreateIndex(name, table, column, kind string) error {
	if kind == "" {
		kind = IndexOrdered
	}
	if kind != IndexHash && kind != IndexOrdered {
		return fmt.Errorf("sql: unsupported index access method %q (want hash or btree)", kind)
	}
	_, err := db.Query(fmt.Sprintf("CREATE INDEX %s ON %s (%s) USING %s",
		quoteIdent(name), quoteIdent(table), quoteIdent(column), kind))
	return err
}

// DropIndex removes a secondary index by name.
func (db *DB) DropIndex(name string) error {
	_, err := db.Query("DROP INDEX " + quoteIdent(name))
	return err
}

// Indexes lists every secondary index, ordered by (table, name).
func (db *DB) Indexes() []IndexInfo {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.tables.indexInfos()
}
