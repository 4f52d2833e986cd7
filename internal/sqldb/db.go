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
// Concurrency is multi-version (see mvcc.go): a read runs against a
// snapshot and takes no lock, and writers serialize per table through write
// latches, so transactions writing disjoint tables execute and commit in
// parallel. There is no database-wide lock: commits serialize on commitMu,
// and the lock order is the one lockorder.go states.
//
// The execution API follows the standard Go contract: Exec/Query/QueryRows
// with Context variants, Prepare for reusable statements (see stmt.go),
// Begin for transaction handles (see tx.go), and streaming row iteration
// (see rows.go). No lock is ever held past a method's return: streaming
// results iterate over snapshot-filtered row sets.
type DB struct {
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
	// production; tests set it between statements.
	planner plannerOptions

	// conn is the DB's default connection: every statement sent to the DB
	// runs through it, so the transaction SQL BEGIN sent to the DB opens is
	// joined by every statement sent to the DB, from any goroutine.
	conn Conn
	// wal is the attached write-ahead log; nil for an in-memory database
	// (see wal.go / EnableDurability). Stored under commitMu.
	wal atomic.Pointer[wal]
	// closed marks a DB shut down by Close or SimulateCrash; all statement
	// entry points return ErrClosed afterwards, and so does a commit.
	// Stored under commitMu.
	closed atomic.Bool

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
	// committed catalogue holds it, and so do the WAL's attachment changes
	// (EnableDurability, a checkpoint's snapshot and new generation, Close,
	// SimulateCrash).
	commitMu sync.Mutex
	// locks hands out the per-table write latches.
	locks *lockMgr
	// snaps tracks the snapshots readers hold, for Vacuum's
	// oldest-active-snapshot watermark.
	snaps *snapTracker

	// commitCount / checkpointCount / walRecordCount are monitoring
	// counters surfaced by EngineStats (see counters.go); they never affect
	// execution.
	commitCount     atomic.Uint64
	checkpointCount atomic.Uint64
	walRecordCount  atomic.Uint64

	// lockWaitNanos bounds how long a statement or transaction waits for a
	// table's latch to be released (each release restarts it); expiry
	// surfaces as ErrWriteConflict, converting potential latch-order
	// deadlocks into a retryable error. Configurable because slow CI
	// machines can hold latches past the default (see SetLockWaitTimeout).
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
// to be released before giving up with ErrWriteConflict. Zero or negative restores the
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
// calling only read-only functions are reads, which take no lock, and the
// handle their functions receive refuses any statement that writes.
// latch names the tables a writing function checks before it writes them
// (a count, then an insert): a statement calling it latches them, waiting,
// before it pins its snapshot, so two such statements run one after the
// other and the second sees the first's commit. The tables it writes
// without checking are latched as it writes them.
func (db *DB) RegisterScalar(name string, fn ScalarFunc, readOnly bool, latch ...string) {
	db.funcs.register(name, fn, nil, readOnly, latch)
}

// RegisterTable registers a set-returning UDF callable in FROM; readOnly and
// latch as for RegisterScalar. The function body runs while its statement
// opens; the returned stream may be consumed after the statement returns
// and therefore must only read data private to the stream (see TableFunc).
func (db *DB) RegisterTable(name string, fn TableFunc, readOnly bool, latch ...string) {
	db.funcs.register(name, nil, fn, readOnly, latch)
}

// IsReadOnly parses sql and reports whether the engine classifies it
// read-only — a SELECT (or EXPLAIN) whose every function is an aggregate, a
// builtin or a UDF registered read-only — which is what decides the
// lock-free read path. UDFs that execute caller-supplied SQL use it to keep their
// own read-only promise.
func (db *DB) IsReadOnly(sql string) (bool, error) {
	cp, err := db.parse(sql, nil)
	if err != nil {
		return false, err
	}
	return isReadOnlyStmt(cp.stmt, db.funcUse(cp.stmt).writes), nil
}

// TxnControl classifies sql by the engine's grammar: "BEGIN", "COMMIT" or
// "ROLLBACK" for a transaction-control statement in any spelling the parser
// accepts, "" for any other statement and for text that does not parse.
// Like IsReadOnly it goes through the plan cache, so a repeated statement
// costs a lookup, not a parse.
func (db *DB) TxnControl(sql string) string {
	cp, err := db.parse(sql, nil)
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
// plus the slot where the compiled physical plan accumulates. tr, if not
// nil, records the time and whether the cache hit.
func (db *DB) parse(sql string, tr *Trace) (*cachedPlan, error) {
	if tr != nil {
		defer func(t0 time.Time) { tr.Parse += time.Since(t0) }(time.Now())
	}
	db.planCacheMu.Lock()
	if db.cachePlans {
		if cp, ok := db.planCache[sql]; ok {
			db.planCacheMu.Unlock()
			if tr != nil {
				tr.Cached = true
			}
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
// materialize. The iterator holds no lock — it reads a snapshot-
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
// those). tx is the transaction it runs in: nil for a transaction of its
// own, a Tx, or a function's handle, which runs inside its statement.
//
// A read-only statement takes no lock (see read). A writing statement
// latches the tables whose rows it checks or writes — DML its target, a
// statement calling a writing function the tables the function registered
// — and only then pins its snapshot (a statement of its own; a Tx's was
// pinned at begin), so writers of one table queue instead of conflicting,
// and a check before a write sees every commit before it. Any other table a
// statement writes (DDL's, a function's other writes) it latches when it
// reaches it. Every latch wait is bounded by the lock-wait timeout per
// holder (see lockMgr.acquire). tr, if not nil, records the statement's
// latch wait, its open and its commit.
func (db *DB) exec(ctx context.Context, tr *Trace, tx *Tx, text string, cp *cachedPlan, params []variant.Value) (*RowIter, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	use := db.funcUse(cp.stmt)
	if isReadOnlyStmt(cp.stmt, use.writes) {
		return db.read(ctx, tr, tx, text, cp, params, use.udf)
	}
	if tx != nil && tx.readOnly {
		return nil, fmt.Errorf("sql: a function called by a read-only statement cannot run %q", text)
	}
	if db.closed.Load() {
		return nil, ErrClosed
	}
	latch := use.latch
	if name := dmlTable(cp.stmt); name != "" {
		latch = append(latch, name)
	}
	own := tx == nil // the statement is its own transaction
	var t *txnState
	if own {
		t = db.newTxn()
	} else {
		t = tx.state
	}
	cat, snap, err := db.latchWrites(ctx, tr, t, latch, own)
	if err != nil {
		if own {
			db.releaseLatches(t)
		}
		return nil, err
	}
	if own {
		t.snap = snap
	} else {
		snap = t.snap
	}
	cx := &evalCtx{db: db, params: params, ctx: ctx, txn: t, snap: snap, cat: cat}
	if use.udf {
		cx.tx = tx
		if tx == nil || !tx.fn {
			cx.tx = &Tx{db: db, state: t, snap: snap, fn: true}
		}
	}
	st, err := db.open(cx, tr, tx, text, cp)
	if tx != nil && tx.fn {
		tx.memo = nil
	}
	if !own {
		if err != nil {
			return nil, err
		}
		return newRowIter(ctx, st), nil
	}
	ckptDue := false
	if err == nil {
		if ckptDue, err = db.commitTxn(t, tr); err == nil {
			db.autoAnalyzeTouched(t)
		}
	}
	if err != nil {
		t.unwind(txnMarks{})
	}
	db.releaseLatches(t)
	db.snaps.unpin(snap.ts, false)
	if err != nil {
		return nil, err
	}
	t.committed()
	if ckptDue {
		// Best effort, with no lock held; the WAL stays valid if it fails.
		_ = db.Checkpoint()
	}
	return newRowIter(ctx, st), nil
}

// latchWrites latches the tables named for t, waiting at most the lock-wait
// timeout for each, then resolves the catalogue t's statement runs in and,
// for a statement of its own (own), pins a snapshot of the same commit,
// registered with Vacuum, which the caller unpins. A name that resolves to
// no table is left to the executor to report. While it waited, a DROP or
// index DDL may have committed a new table under a latched name: it then
// latches and resolves again, so every table the statement writes is one
// the returned catalogue holds.
func (db *DB) latchWrites(ctx context.Context, tr *Trace, t *txnState, names []string, own bool) (*catalogValue, snapshot, error) {
	for {
		cat, err := db.catalogFor(t)
		if err != nil {
			return nil, snapshot{}, err
		}
		var buf [4]*Table
		latched := buf[:0]
		w := tr.now()
		for _, name := range names {
			tb, ok := cat.get(name)
			if !ok {
				continue
			}
			if err = db.latchTable(ctx, tb, t); err != nil {
				break
			}
			latched = append(latched, tb)
		}
		if tr != nil {
			tr.LatchWait += time.Since(w)
		}
		if err != nil {
			return nil, snapshot{}, err
		}
		var snap snapshot
		if own {
			cat, snap.ts = db.pinRead()
			snap.self = t.stamp()
		} else if cat, err = db.catalogFor(t); err != nil {
			return nil, snapshot{}, err
		}
		if !slices.ContainsFunc(latched, func(tb *Table) bool { return cat.tables[tb.Name] != tb }) {
			return cat, snap, nil
		}
		if own {
			db.snaps.unpin(snap.ts, false)
		}
	}
}

// read runs a read-only statement in tx (nil: on a snapshot of its own),
// taking no lock. A statement of its own pins the committed catalogue and a
// snapshot of one commit (pinRead), registered with Vacuum until its open is
// over: every view it reads is loaded by then. A transaction's statement
// reads on the transaction's snapshot, registered from begin to end. The
// functions the statement calls get a handle that refuses to write, whose
// reads share the statement's catalogue and snapshot.
func (db *DB) read(ctx context.Context, tr *Trace, tx *Tx, text string, cp *cachedPlan, params []variant.Value, udf bool) (*RowIter, error) {
	if db.closed.Load() {
		return nil, ErrClosed
	}
	var t *txnState
	var cat *catalogValue
	var snap snapshot
	if tx == nil {
		cat, snap.ts = db.pinRead()
		defer db.snaps.unpin(snap.ts, false)
	} else {
		t, cat, snap = tx.state, tx.cat, tx.snap // cat: a read's function handle
		if cat == nil {
			var err error
			if cat, err = db.catalogFor(t); err != nil {
				return nil, err
			}
		}
	}
	cx := &evalCtx{db: db, params: params, ctx: ctx, txn: t, snap: snap, cat: cat}
	if udf {
		cx.tx = tx
		if tx == nil || !tx.fn {
			cx.tx = &Tx{db: db, state: t, snap: snap, fn: true, readOnly: true, cat: cat}
		}
	}
	st, err := db.open(cx, tr, tx, text, cp)
	if err != nil {
		return nil, err
	}
	return newRowIter(ctx, st), nil
}

// open runs the statement's open in cx, then retires the function handle
// exec made for it, if any.
func (db *DB) open(cx *evalCtx, tr *Trace, tx *Tx, text string, cp *cachedPlan) (RowStream, error) {
	o := tr.now()
	st, err := db.execStatement(cx, text, cp)
	if tr != nil {
		tr.Open += time.Since(o)
	}
	if cx.tx != nil && cx.tx != tx {
		cx.tx.done.Store(true)
	}
	return st, err
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
	db.bumpEpochLocked()
}

// bumpEpochLocked is bumpEpoch for a caller holding commitMu.
func (db *DB) bumpEpochLocked() {
	next := *db.tables.Load()
	next.epoch++
	db.tables.Store(&next)
}

// dmlTable names the table a DML statement writes; "" for any other
// statement.
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

// openSelect executes a SELECT and returns its rows as a stream, routed
// through the physical planner: both executors resolve their sources now
// and return a tail that is safe to iterate after the statement returns,
// with its snapshot unregistered and its lock, if any, released (a
// statement calling a UDF outside FROM is evaluated completely here). cp
// carries the physical plan: cached (and epoch-revalidated) when the
// statement came through the plan cache, or a throwaway entry for
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
// logged. A closed (or crashed) database refuses the commit: its log is
// detached. Reports whether
// an automatic checkpoint is due; callers run it after releasing their
// latches. tr, if not nil, records the WAL append, the fsync and the rest as
// Commit.
func (db *DB) commitTxn(t *txnState, tr *Trace) (ckptDue bool, err error) {
	if tr != nil {
		defer func(t0 time.Time, wal, fsync time.Duration) {
			tr.Commit += time.Since(t0) - (tr.WALAppend - wal) - (tr.Fsync - fsync)
		}(time.Now(), tr.WALAppend, tr.Fsync)
	}
	t.locks.acquire(rankCommit, true)
	defer t.locks.release(rankCommit)
	db.commitMu.Lock()
	defer db.commitMu.Unlock()
	if db.closed.Load() {
		return false, ErrClosed
	}
	var cat *catalogValue
	if len(t.edits) > 0 {
		if cat, err = db.nextCatalogLocked(t.edits); err != nil {
			return false, err
		}
	}
	if err := db.walCommit(t, tr); err != nil {
		return false, err
	}
	ts := db.clock.Load() + 1
	if cat != nil {
		cat.ts = ts
		db.tables.Store(cat)
	}
	for _, m := range t.created {
		m.begin.Store(ts)
	}
	for _, m := range t.ended {
		m.end.Store(ts)
	}
	db.clock.Store(ts)
	db.commitCount.Add(1)
	return db.walCheckpointDue(), nil
}

// execStatement runs one statement with statement-level atomicity inside
// cx's transaction (unwind to the statement's marks on error). DML logs its
// row changes as it makes them; DDL is logged here, as its text (see
// txn.go).
func (db *DB) execStatement(cx *evalCtx, text string, cp *cachedPlan) (RowStream, error) {
	t := cx.txn
	if t == nil {
		// Read path or recovery replay: nothing to journal.
		return db.execStream(cx, cp)
	}
	m := t.marks()
	st, err := db.execStream(cx, cp)
	if err != nil {
		if t.marks() != m {
			t.unwind(m)
		}
		return nil, err
	}
	if isDDLStmt(cp.stmt) && cx.logging() {
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

// funcUse is what a statement's functions ask of it: udf, that it calls a
// function that is not an aggregate or engine builtin; writes, that one is
// not registered read-only; latch, the tables its writing functions
// registered, sorted, each once.
type funcUse struct {
	udf, writes bool
	latch       []string
}

// funcUse reports the statement's funcUse.
func (db *DB) funcUse(stmt Statement) funcUse {
	var u funcUse
	walkStmtFuncs(stmt, func(name string) {
		name = strings.ToLower(name)
		if _, ok := builtinScalars[name]; ok || isAggregateName(name) {
			return
		}
		if _, ok := builtinTableFunc(name); ok {
			return
		}
		u.udf = true
		ro, latch := db.funcs.writeSet(name)
		u.writes = u.writes || !ro
		u.latch = append(u.latch, latch...)
	})
	if len(u.latch) > 1 {
		slices.Sort(u.latch)
		u.latch = slices.Compact(u.latch)
	}
	return u
}

// isReadOnlyStmt reports whether a statement is a read, which takes no
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
		it, err := db.conn.queryRows(context.Background(), nil, texts[i], &cachedPlan{stmt: stmt}, nil)
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

// latchForWrite takes t's write latch for cx's transaction when a statement
// reaches a table it did not latch before its snapshot (DDL, a function's
// nested write), waiting at most the lock-wait timeout. If a DDL commit
// replaced the table while it waited, the statement, which resolved the old
// one, fails with ErrWriteConflict. Recovery replay (txn == nil) runs
// single-threaded and needs no latch.
func (db *DB) latchForWrite(cx *evalCtx, t *Table) error {
	if cx.txn == nil || cx.txn.holdsLatch(t) {
		return nil
	}
	if err := db.latchTable(cx.ctxOrBackground(), t, cx.txn); err != nil {
		return err
	}
	if cat, err := db.catalogFor(cx.txn); err != nil || cat.tables[t.Name] != t {
		return fmt.Errorf("%w: table %q changed while this statement waited for it", ErrWriteConflict, t.Name)
	}
	return nil
}

// execLocked executes one parsed statement other than SELECT (execStream
// routes those to openSelect) and materializes its result.
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
// transaction, under commitMu, publishes them at once.
func (db *DB) editCatalog(cx *evalCtx, edits []catEdit) (*ResultSet, error) {
	if cx.txn != nil {
		cx.txn.edits = append(cx.txn.edits, edits...)
		return &ResultSet{}, nil
	}
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
		if cx.logging() {
			cx.logWAL(walRecord{Op: "ins", Table: t.Name, Row: encodeWALValues(row)})
		}
		return nil
	}

	count := 0
	if s.Query != nil {
		// Draining the source before the first write makes INSERT ... SELECT
		// over the target table read a fixed snapshot (no Halloween
		// re-reads). Its row records are logged, and replay, in that order.
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
		if cx.logging() {
			cx.logWAL(walRecord{Op: "upd", Table: t.Name,
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
		if cx.logging() {
			cx.logWAL(walRecord{Op: "del", Table: t.Name, Old: encodeWALValues(row)})
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
// in parallel. A durable database WAL-logs it as a row record.
func (db *DB) InsertRow(table string, values ...any) error {
	_, err := db.conn.queryRows(context.Background(), nil, "", &cachedPlan{stmt: &rowInsert{Table: table, Values: values}}, nil)
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
	if cx.logging() {
		cx.logWAL(walRecord{Op: "ins", Table: t.Name, Row: encodeWALValues(row)})
	}
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
