package sqldb

import (
	"context"
	"fmt"
	"slices"
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
// (db.mu.RLock) and only DDL, UDF-bearing statements and Exclusive
// transactions take it exclusively. DB.exec is the one place a statement
// takes it.
//
// The execution API follows the standard Go contract: Exec/Query/QueryRows
// with Context variants, Prepare for reusable statements (see stmt.go),
// Begin for transaction handles (see tx.go), and streaming row iteration
// (see rows.go). No lock is ever held past a method's return: streaming
// results iterate over snapshot-filtered row sets.
type DB struct {
	mu sync.RWMutex
	// tables is the committed catalogue (catalog.go).
	tables atomic.Pointer[catalogValue]
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

	// conn is the DB's default connection: every statement sent to the DB
	// runs through it, so the transaction SQL BEGIN sent to the DB opens is
	// joined by every statement sent to the DB, from any goroutine.
	conn Conn
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
	// commitMu serializes commits: the WAL write, the catalogue publish, the
	// stamp flips, and the clock publication happen as one unit per
	// transaction, so WAL order always matches visibility order and frames
	// from two committing sessions never interleave. Every store of the
	// committed catalogue holds it.
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
// DB.lockWaitNanos); override it per database with SetLockWaitTimeout.
const defaultLockWaitTimeout = time.Second

// New creates an empty database with the plan cache enabled.
func New() *DB {
	db := &DB{
		funcs:      newRegistry(),
		planCache:  make(map[string]*cachedPlan),
		cachePlans: true,
		locks:      newLockMgr(),
		snaps:      newSnapTracker(),
	}
	// Recovery replay stamps rows with timestamp 1; starting the clock there
	// makes them visible to the first snapshot.
	db.clock.Store(1)
	db.tables.Store(&catalogValue{tables: map[string]*Table{}, indexes: map[string]string{}, epoch: 1})
	db.lockWaitNanos.Store(int64(defaultLockWaitTimeout))
	db.conn.db = db
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
// readOnly is the function's promise not to modify the database: SELECTs
// calling only read-only functions run concurrently under the shared lock,
// and the handle their functions receive refuses any statement that writes;
// any other statement takes the database lock exclusively.
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
	_, writes := db.funcUse(cp.stmt)
	return isReadOnlyStmt(cp.stmt, writes), nil
}

// TxnControl classifies sql by the engine's grammar: "BEGIN", "COMMIT" or
// "ROLLBACK" for a transaction-control statement in any spelling the parser
// accepts, "" for any other statement and for text that does not parse.
// Like IsReadOnly it goes through the plan cache, so a repeated statement
// costs a lookup, not a parse.
func (db *DB) TxnControl(sql string) string {
	cp, err := db.parse(sql)
	if err != nil {
		return ""
	}
	switch cp.stmt.(type) {
	case *BeginStmt:
		return "BEGIN"
	case *CommitStmt:
		return "COMMIT"
	case *RollbackStmt:
		return "ROLLBACK"
	}
	return ""
}

// TableNames lists the committed tables (lowercased), sorted by name.
func (db *DB) TableNames() []string { return slices.Clone(db.tables.Load().names) }

// HasTable reports whether a committed table exists.
func (db *DB) HasTable(name string) bool {
	_, ok := db.tables.Load().get(name)
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
	return db.conn.QueryContext(ctx, sql, args...)
}

// Exec runs a statement for its side effects and returns the number of rows
// affected (0 for DDL, row count for SELECT).
func (db *DB) Exec(sql string, args ...any) (int, error) {
	return db.ExecContext(context.Background(), sql, args...)
}

// ExecContext is Exec honouring ctx.
func (db *DB) ExecContext(ctx context.Context, sql string, args ...any) (int, error) {
	return db.conn.ExecContext(ctx, sql, args...)
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
	return db.conn.QueryRowsContext(ctx, sql, args...)
}

// exec runs one statement other than transaction control (a Conn handles
// those), and is the one place a statement takes db.mu. tx is the
// transaction it runs in: nil for a transaction of its own; a Tx, whose
// statements take db.mu one at a time; an Exclusive Tx, which holds db.mu
// already; or a function's handle, which runs under its statement's lock.
//
// A read-only SELECT shares db.mu. DML calling only builtins waits for its
// table's latch first, holding nothing, then shares db.mu; a statement of
// its own pins its snapshot after the latch, so writers of one table queue
// instead of conflicting. Everything else — DDL, ANALYZE, statements
// calling a function that may write — takes db.mu exclusively. Every latch
// wait is bounded by the lock-wait timeout and then fails with
// ErrWriteConflict; a statement of its own waits for db.mu as long as it
// must, a Tx's statement, whose transaction may hold latches from earlier
// statements, at most the lock-wait timeout.
func (db *DB) exec(ctx context.Context, tx *Tx, text string, cp *cachedPlan, params []variant.Value) (*RowIter, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	udf, writes := db.funcUse(cp.stmt)
	readOnly := isReadOnlyStmt(cp.stmt, writes)
	if tx != nil && tx.fn && tx.held == lockShared && !readOnly {
		return nil, fmt.Errorf("sql: a function called by a read-only statement cannot run %q", text)
	}
	dml := !readOnly && !udf && isDMLStmt(cp.stmt)
	mode := lockShared
	if !readOnly && !dml {
		mode = lockExclusive
	}
	take := tx == nil || tx.held == lockNone // else db.mu is held in tx.held
	own := tx == nil && !readOnly            // the statement is its own transaction
	var t *txnState
	var held heldLocks // a read-only statement's own locks
	locks := &held
	switch {
	case own:
		t = db.newTxn()
		locks = &t.locks
	case tx != nil:
		t = tx.state
		if t != nil {
			locks = &t.locks
		}
		if !take {
			mode = tx.held
		}
	}
	bounded := tx != nil
	fail := func(err error) (*RowIter, error) {
		if own {
			db.releaseLatches(t)
		}
		return nil, err
	}
	for take {
		var latched *Table
		if dml {
			cat, err := db.catalogFor(t)
			if err != nil {
				return fail(err)
			}
			name := dmlTable(cp.stmt)
			tb, ok := cat.get(name)
			if !ok {
				return fail(fmt.Errorf("%w: %q", ErrNoSuchTable, name))
			}
			if err := db.latchTable(ctx, tb, t); err != nil {
				return fail(err)
			}
			latched = tb
		}
		locks.acquire(rankDB, !bounded)
		var err error
		switch {
		case mode == lockExclusive && bounded:
			err = db.lockBounded()
		case mode == lockExclusive:
			db.mu.Lock()
		case bounded:
			err = db.rlockBounded()
		default:
			db.mu.RLock()
		}
		if err != nil {
			locks.release(rankDB)
			return fail(err)
		}
		if latched == nil {
			break
		}
		if cat, err := db.catalogFor(t); err == nil && cat.tables[latched.Name] == latched {
			break
		}
		// The table was dropped or replaced while we waited for the latch.
		db.unlock(mode, locks)
		if own {
			db.releaseLatches(t)
		}
	}
	cat, err := db.catalogFor(t)
	if err == nil && db.closed {
		err = ErrClosed
	}
	if err != nil {
		if take {
			db.unlock(mode, locks)
		}
		return fail(err)
	}
	var snap snapshot
	switch {
	case own:
		t.snap = snapshot{ts: db.clock.Load(), self: t.stamp()}
		snap = t.snap
	case tx == nil:
		snap = snapshot{ts: db.clock.Load()}
	default:
		snap = tx.snap
	}
	exclusive := (own && mode == lockExclusive) || (tx != nil && tx.exclusive)
	cx := &evalCtx{db: db, params: params, ctx: ctx, txn: t, snap: snap, cat: cat,
		physLog: db.wal != nil && !exclusive && isDMLStmt(cp.stmt)}
	if udf {
		cx.tx = tx
		if tx == nil || !tx.fn {
			cx.tx = &Tx{db: db, state: t, snap: snap, held: mode, fn: true, exclusive: exclusive}
		}
	}
	st, err := db.execStatement(cx, text, cp)
	if cx.tx != nil && cx.tx != tx {
		cx.tx.done.Store(true)
	}
	if tx != nil && tx.fn && !readOnly {
		tx.memo = nil
	}
	ckptDue := false
	if own {
		if err == nil {
			if ckptDue, err = db.commitTxn(t); err == nil {
				db.autoAnalyzeTouched(t)
			}
		}
		if err != nil {
			t.unwind(txnMarks{})
		}
		// Before db.mu: the next exclusive statement probes these latches.
		db.releaseLatches(t)
	}
	if take {
		db.unlock(mode, locks)
	}
	if ckptDue {
		// Best effort, with no lock held; the WAL stays valid if it fails.
		_ = db.Checkpoint()
	}
	if err != nil {
		return nil, err
	}
	return newRowIter(ctx, st), nil
}

// catalogFor returns the catalogue a statement of transaction t resolves
// names in: the committed one, with t's uncommitted DDL laid over it (kept
// in t.view until either changes). It fails with ErrWriteConflict when a
// transaction committed DDL of a name t also changed.
func (db *DB) catalogFor(t *txnState) (*catalogValue, error) {
	cur := db.tables.Load()
	if t == nil || len(t.edits) == 0 {
		return cur, nil
	}
	if t.viewOf != cur || t.viewEdits != len(t.edits) {
		v, err := cur.with(t.edits)
		if err != nil {
			return nil, err
		}
		t.view, t.viewOf, t.viewEdits = v, cur, len(t.edits)
	}
	return t.view, nil
}

// nextCatalogLocked returns the catalogue edits make of the committed one,
// under the next epoch. Caller holds commitMu.
func (db *DB) nextCatalogLocked(edits []catEdit) (*catalogValue, error) {
	cur := db.tables.Load()
	next, err := cur.with(edits)
	if err != nil {
		return nil, err
	}
	next.epoch = cur.epoch + 1
	return next, nil
}

// bumpEpoch invalidates every cached physical plan: it republishes the
// committed catalogue under the next epoch.
func (db *DB) bumpEpoch() {
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	next := *db.tables.Load()
	next.epoch++
	db.tables.Store(&next)
}

// unlock releases db.mu taken in mode by exec.
func (db *DB) unlock(mode lockMode, locks *heldLocks) {
	if mode == lockExclusive {
		db.mu.Unlock()
	} else {
		db.mu.RUnlock()
	}
	locks.release(rankDB)
}

// lockMode is a mode of db.mu.
type lockMode uint8

const (
	lockNone lockMode = iota
	lockShared
	lockExclusive
)

// dmlTable names the table a DML statement writes.
func dmlTable(s Statement) string {
	switch t := s.(type) {
	case *InsertStmt:
		return t.Table
	case *UpdateStmt:
		return t.Table
	case *DeleteStmt:
		return t.Table
	case *rowInsert:
		return t.Table
	}
	return ""
}

// openSelect executes a SELECT under the held lock and returns its rows as a
// stream, routed through the physical planner: both executors resolve their
// sources now and return a tail that is safe to iterate after the lock is
// released (a statement calling a UDF outside FROM is evaluated completely
// here). cp carries the physical plan: cached (and epoch-revalidated)
// when the statement came through the plan cache, or a throwaway entry for
// script/ad-hoc execution.
func (db *DB) openSelect(cx *evalCtx, s *SelectStmt, cp *cachedPlan) (RowStream, error) {
	plan, err := cp.physFor(db, cx.cat, s)
	if err != nil {
		return nil, err
	}
	if plan.kind == physVectorized {
		return plan.vec.open(cx)
	}
	return plan.ops.open(cx, nil)
}

// commitTxn makes a finished transaction durable and visible: its WAL
// records are written (and fsynced per the group-commit policy), then the
// catalogue its DDL makes of the committed one is published, its version
// stamps flip to the next commit timestamp, and the clock publishes it.
// Serialized by commitMu, so publish and stamp order always match WAL order
// and two committing sessions never interleave WAL frames. DDL that lost a
// race for a name fails the commit with ErrWriteConflict before anything is
// logged. Safe under either db.mu mode (an exclusive holder cannot contend
// with concurrent committers, which hold the shared lock). Reports whether
// an automatic checkpoint is due; callers run it after unlocking.
func (db *DB) commitTxn(t *txnState) (ckptDue bool, err error) {
	t.locks.acquire(rankCommit, true)
	defer t.locks.release(rankCommit)
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	var cat *catalogValue
	if len(t.edits) > 0 {
		if cat, err = db.nextCatalogLocked(t.edits); err != nil {
			return false, err
		}
	}
	if err := db.walCommit(t); err != nil {
		return false, err
	}
	if cat != nil {
		db.tables.Store(cat)
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

// execStatement runs one statement with statement-level atomicity inside
// cx's transaction (unwind to the statement's marks on error) and captures
// its WAL records: the physical row changes when exec asked for them
// (cx.physLog) or the statement calls a UDF, else the statement text (see
// txn.go).
func (db *DB) execStatement(cx *evalCtx, text string, cp *cachedPlan) (RowStream, error) {
	stmt := cp.stmt
	t := cx.txn
	if t == nil {
		// Read path or recovery replay: nothing to journal.
		return db.execStream(cx, cp)
	}
	m := t.marks()
	logStmt := false
	if isMutatingStmt(stmt) && db.wal != nil && !cx.physLog {
		if cx.tx == nil {
			logStmt = true
		} else {
			cx.physLog = true
		}
	}
	st, err := db.execStream(cx, cp)
	if err != nil {
		if t.marks() != m {
			t.unwind(m)
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

// funcUse reports whether a statement calls a function that is not an
// aggregate or engine builtin (udf), and one not registered read-only
// (writes). A statement calling a UDF is WAL-logged as row records, never
// as text: UDFs may be volatile (fmu_create loads files, trainers search
// stochastically) and are not registered when the log replays on open.
func (db *DB) funcUse(stmt Statement) (udf, writes bool) {
	walkStmtFuncs(stmt, func(name string) {
		name = strings.ToLower(name)
		if _, ok := builtinScalars[name]; ok || isAggregateName(name) {
			return
		}
		if _, ok := builtinTableFunc(name); ok {
			return
		}
		udf = true
		writes = writes || !db.funcs.isReadOnly(name)
	})
	return udf, writes
}

// isReadOnlyStmt reports whether a statement can run under the shared
// lock: an EXPLAIN (planning never executes), or a SELECT calling no
// function that writes. Anything else — DML, DDL, ANALYZE — needs a
// write path.
func isReadOnlyStmt(stmt Statement, writes bool) bool {
	switch stmt.(type) {
	case *ExplainStmt:
		return true
	case *SelectStmt:
		return !writes
	}
	return false
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

// ExecScript runs a semicolon-separated statement sequence on the DB's
// default connection, returning the result of the last statement.
// BEGIN/COMMIT/ROLLBACK inside the script group statements into
// transactions exactly as they do through Query.
func (db *DB) ExecScript(sql string) (*ResultSet, error) {
	stmts, texts, err := parseScriptWithText(sql)
	if err != nil {
		return nil, err
	}
	var last *ResultSet
	for i, stmt := range stmts {
		it, err := db.conn.queryRows(context.Background(), texts[i], &cachedPlan{stmt: stmt}, nil)
		if err != nil {
			return nil, err
		}
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
// the same for the exclusive mode. A Tx's statements use them (see exec)
// so a statement issued while holding caller-side locks cannot wait forever
// on a lock holder that is itself waiting on the caller.
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
		return db.explainLocked(cx.cat, s)
	case *AnalyzeStmt:
		return db.execAnalyze(cx.cat, s)
	case *CreateTableStmt:
		return db.execCreate(cx, s)
	case *DropTableStmt:
		return db.execDrop(cx, s)
	case *CreateIndexStmt:
		if t, ok := cx.cat.get(s.Table); ok {
			if err := db.latchForWrite(cx, t); err != nil {
				return nil, err
			}
		}
		edits, err := cx.cat.createIndex(IndexInfo{
			Name:   s.Name,
			Table:  s.Table,
			Column: s.Column,
			Kind:   s.Using,
		}, s.IfNotExists)
		if err != nil {
			return nil, err
		}
		return db.editCatalog(cx, edits)
	case *DropIndexStmt:
		edits, err := cx.cat.dropIndex(s.Name, s.IfExists)
		if err != nil {
			return nil, err
		}
		for _, e := range edits {
			if err := db.latchForWrite(cx, e.base); err != nil {
				return nil, err
			}
		}
		return db.editCatalog(cx, edits)
	case *InsertStmt:
		return db.execInsert(cx, s)
	case *UpdateStmt:
		return db.execUpdate(cx, s)
	case *DeleteStmt:
		return db.execDelete(cx, s)
	case *rowInsert:
		return &ResultSet{}, db.execRowInsert(cx, s)
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
	name := strings.ToLower(s.Name)
	if _, exists := cx.cat.tables[name]; exists {
		if s.IfNotExists {
			return &ResultSet{}, nil
		}
		return nil, fmt.Errorf("sql: table %q already exists", name)
	}
	return db.editCatalog(cx, []catEdit{{name: name, t: newTable(name, cols)}})
}

func (db *DB) execDrop(cx *evalCtx, s *DropTableStmt) (*ResultSet, error) {
	t, ok := cx.cat.get(s.Name)
	if !ok {
		if s.IfExists {
			return &ResultSet{}, nil
		}
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, s.Name)
	}
	// A concurrent transaction with in-flight writes on the table would
	// commit value-based WAL records after our logged DROP — refusing keeps
	// log order consistent with visibility order. Held to the end of the
	// transaction, the latch also makes writers wait for the DROP's outcome.
	if err := db.latchForWrite(cx, t); err != nil {
		return nil, err
	}
	return db.editCatalog(cx, []catEdit{{name: t.Name, base: t}})
}

// editCatalog records a DDL statement's catalogue edits in its transaction,
// which publishes them at commit; recovery replay, which runs in no
// transaction, publishes them at once.
func (db *DB) editCatalog(cx *evalCtx, edits []catEdit) (*ResultSet, error) {
	if cx.txn != nil {
		cx.txn.edits = append(cx.txn.edits, edits...)
		return &ResultSet{}, nil
	}
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	next, err := db.nextCatalogLocked(edits)
	if err != nil {
		return nil, err
	}
	db.tables.Store(next)
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
	t, ok := cx.cat.get(s.Table)
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
	t, ok := cx.cat.get(s.Table)
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
	t, ok := cx.cat.get(s.Table)
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
// used by dataset loaders; bypasses SQL parsing). It is DML like INSERT:
// it joins the transaction SQL BEGIN sent to the DB opened, or else commits
// on its own on the latched write path, so loaders of different tables run
// in parallel.
// A durable database WAL-logs it as a physical row record.
func (db *DB) InsertRow(table string, values ...any) error {
	_, err := db.conn.queryRows(context.Background(), "", &cachedPlan{stmt: &rowInsert{Table: table, Values: values}}, nil)
	return err
}

// rowInsert is InsertRow's statement: one row of Go values, with no SQL
// text to parse or to replay.
type rowInsert struct {
	Table  string
	Values []any
}

func (*rowInsert) stmt() {}

func (db *DB) execRowInsert(cx *evalCtx, s *rowInsert) error {
	t, ok := cx.cat.get(s.Table)
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchTable, s.Table)
	}
	if err := db.latchForWrite(cx, t); err != nil {
		return err
	}
	if len(s.Values) != len(t.Columns) {
		return fmt.Errorf("sql: table %q has %d columns, got %d values", s.Table, len(t.Columns), len(s.Values))
	}
	row := make(Row, len(s.Values))
	for i, v := range s.Values {
		vv, err := variant.FromAny(v)
		if err != nil {
			return err
		}
		if row[i], err = coerceToColumn(vv, t.Columns[i].Type); err != nil {
			return fmt.Errorf("sql: column %q: %w", t.Columns[i].Name, err)
		}
	}
	cx.touch(t)
	if err := db.insertVersion(cx, t, row); err != nil {
		return err
	}
	t.noteMutations(1)
	cx.logWAL(db, walRecord{Op: "ins", Table: t.Name, Row: encodeWALValues(row)})
	return nil
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

// Indexes lists every committed secondary index, ordered by (table, name).
func (db *DB) Indexes() []IndexInfo { return db.tables.Load().indexInfos() }
