package sqldb

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Multi-version concurrency control.
//
// Row storage is append-only: every INSERT appends a version, every UPDATE
// ends the old version and appends a new one, every DELETE ends a version.
// Versions are never moved or overwritten on the hot path (only Vacuum,
// under the exclusive lock, compacts them away), so readers need no lock at
// all once they hold a view header — visibility is decided per version from
// two atomic stamps:
//
//   - begin: the commit timestamp of the creating transaction, or
//     txnBit|id while that transaction is in flight, or stampAborted if it
//     rolled back;
//   - end: 0 while the version is live, txnBit|id while a deleting or
//     updating transaction is in flight, or that transaction's commit
//     timestamp once it commits.
//
// Commit timestamps come from a global logical clock (db.clock). A snapshot
// is just a clock reading: version visible ⇔ begin ≤ ts < end (with the
// in-flight cases resolved against the reader's own stamp). Commit flips a
// transaction's stamps from txnBit|id to the commit timestamp; rollback
// flips begin to stampAborted and end back to 0 — both O(writes), no data
// movement, no index unwinding.
//
// Writers serialize per table through lockMgr latches, so two transactions
// writing disjoint tables commit in parallel; two writers of the same table
// queue. Write-write conflicts (a committed end stamp newer than the
// writer's snapshot) surface as ErrWriteConflict — first updater wins.

const (
	// txnBit tags a stamp as an in-flight transaction ID rather than a
	// commit timestamp.
	txnBit = uint64(1) << 63

	// stampAborted marks a version created by a rolled-back transaction.
	// It has txnBit set, so visibility checks test it first.
	stampAborted = ^uint64(0)
)

// rowMeta carries the visibility stamps of one row version. It is shared by
// every view that includes the version, so commit/abort stamp flips are
// visible to all readers at once.
type rowMeta struct {
	begin atomic.Uint64
	end   atomic.Uint64
}

// tableView is one published generation of a table's version arrays. The
// slices use append semantics over a shared backing array: appending
// publishes a new header with a longer length, and existing readers — bound
// by their own header's length — never observe the new element. All
// appenders are mutually excluded (table latch + shared DB lock, or the
// exclusive DB lock), so concurrent append-append races cannot occur.
//
// gen is the layout generation: every view with the same gen agrees on the
// version at each position both hold (appends copy it; only vacuumTable,
// which publishes a reordered array, bumps it). The column mirror
// (colmirror.go) is keyed on it.
type tableView struct {
	rows []Row
	meta []*rowMeta
	gen  uint64
}

// snapshot fixes what one statement or transaction can see.
//
// ts is the highest visible commit timestamp; ts == 0 means "latest
// committed" (used under the exclusive lock, where the clock cannot move
// concurrently). self is the reader's own in-flight stamp (txnBit|id) so a
// transaction sees its own uncommitted writes; 0 outside a transaction.
type snapshot struct {
	ts   uint64
	self uint64
}

// visible reports whether the version described by m is visible to s.
func (s snapshot) visible(m *rowMeta) bool {
	b := m.begin.Load()
	if b == stampAborted {
		return false
	}
	if b&txnBit != 0 {
		// In-flight creator: visible only to itself.
		if b != s.self {
			return false
		}
	} else if s.ts != 0 && b > s.ts {
		// Committed after the snapshot was taken.
		return false
	}
	e := m.end.Load()
	if e == 0 {
		return true // live
	}
	if e == s.self {
		return false // we deleted/updated it ourselves
	}
	if e&txnBit != 0 {
		return true // another in-flight transaction's pending delete
	}
	if s.ts != 0 && e > s.ts {
		return true // deleted after our snapshot
	}
	return false
}

// loadView returns the table's current view header.
func (t *Table) loadView() *tableView { return t.view.Load() }

// appendVersion appends one row version and publishes the longer view,
// returning the version's position. Callers must hold the right to append:
// the table's write latch plus the DB's shared lock, or the DB's exclusive
// lock.
func (t *Table) appendVersion(row Row, m *rowMeta) int {
	v := t.loadView()
	nv := &tableView{rows: append(v.rows, row), meta: append(v.meta, m), gen: v.gen}
	t.view.Store(nv)
	return len(v.rows)
}

// versionCount is the planner's raw row-count estimate (includes dead
// versions; ANALYZE refines it).
func (t *Table) versionCount() int { return len(t.loadView().rows) }

// visibleRows materializes the rows of view v visible under cx's snapshot.
// The result is an immutable private slice: downstream operators, lazy
// stream tails, and open RowIters can consume it without locks or
// visibility re-checks, which is what keeps an open iterator pinned to its
// snapshot while writers commit underneath it.
func visibleRows(cx *evalCtx, v *tableView) []Row {
	out := make([]Row, 0, len(v.rows))
	for i, m := range v.meta {
		if cx.snap.visible(m) {
			out = append(out, v.rows[i])
		}
	}
	return out
}

// visiblePositions lists, ascending, the positions of v's versions visible
// under snap — visibleRows without copying a row header per version, for
// readers that address the view (and its column mirror) by position.
func visiblePositions(snap snapshot, v *tableView) []int32 {
	out := make([]int32, 0, len(v.meta))
	for i, m := range v.meta {
		if snap.visible(m) {
			out = append(out, int32(i))
		}
	}
	return out
}

// lockMgr hands out per-table write latches, keyed by the table's store so
// every Table value of a table shares one. A latch covers the whole write
// lifetime of a transaction on that table (acquired before the first write
// or DDL, released after commit/rollback), so at most one transaction has
// in-flight versions or catalogue edits per table at any moment.
type lockMgr struct {
	mu     sync.Mutex
	owners map[*tableStore]*txnState
	queues map[*tableStore][]chan struct{}
}

func newLockMgr() *lockMgr {
	return &lockMgr{
		owners: make(map[*tableStore]*txnState),
		queues: make(map[*tableStore][]chan struct{}),
	}
}

// tryAcquire takes the latch if it is free (or already held by tx) and
// reports whether it did. Used under the DB's exclusive lock, where waiting
// could deadlock against a latch owner blocked on the lock.
func (lm *lockMgr) tryAcquire(t *Table, tx *txnState) bool {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	if cur, held := lm.owners[t.tableStore]; held && cur != tx {
		return false
	}
	lm.owners[t.tableStore] = tx
	tx.locks.acquire(rankLatch, false)
	return true
}

// acquire blocks until the latch is granted, ctx is done, or timeout
// elapses — the latter surfaces as ErrWriteConflict, so a writer fails fast
// instead of deadlocking on crossed latch orders or stalling behind an idle
// open transaction. The waiter may hold other latches, never db.mu: every
// statement would stall behind it for the timeout.
func (lm *lockMgr) acquire(ctx context.Context, t *Table, tx *txnState, timeout time.Duration) error {
	tx.locks.acquire(rankLatch, true)
	var deadline *time.Timer
	for {
		lm.mu.Lock()
		if cur, held := lm.owners[t.tableStore]; !held || cur == tx {
			lm.owners[t.tableStore] = tx
			lm.mu.Unlock()
			return nil
		}
		ch := make(chan struct{})
		lm.queues[t.tableStore] = append(lm.queues[t.tableStore], ch)
		lm.mu.Unlock()
		if deadline == nil {
			deadline = time.NewTimer(timeout)
			defer deadline.Stop()
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return ctx.Err()
		case <-deadline.C:
			return fmt.Errorf("%w: table %q is write-locked by a concurrent transaction", ErrWriteConflict, t.Name)
		}
	}
}

// release frees the latch and wakes every waiter (they re-contend; the
// queue is not a fairness guarantee, just a parking lot).
func (lm *lockMgr) release(t *Table, tx *txnState) {
	lm.mu.Lock()
	if lm.owners[t.tableStore] == tx {
		delete(lm.owners, t.tableStore)
		for _, ch := range lm.queues[t.tableStore] {
			close(ch)
		}
		delete(lm.queues, t.tableStore)
	}
	lm.mu.Unlock()
}

// owner returns the latch holder, nil if free. Vacuum uses it to skip
// tables with in-flight writes.
func (lm *lockMgr) owner(t *Table) *txnState {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	return lm.owners[t.tableStore]
}

// latchTable acquires t's write latch for tx (idempotently), waiting at
// most the lock-wait timeout, and records it for release at transaction end.
func (db *DB) latchTable(ctx context.Context, t *Table, tx *txnState) error {
	if tx.holdsLatch(t) {
		return nil
	}
	if err := db.locks.acquire(ctx, t, tx, db.lockWaitTimeout()); err != nil {
		return err
	}
	tx.latches = append(tx.latches, t)
	return nil
}

// tryLatchTable is latchTable without waiting: callers hold db.mu, and a
// latch owner may be blocked acquiring it, so waiting here could deadlock.
// Surfaces ErrWriteConflict instead.
func (db *DB) tryLatchTable(t *Table, tx *txnState) error {
	if tx.holdsLatch(t) {
		return nil
	}
	if !db.locks.tryAcquire(t, tx) {
		return fmt.Errorf("%w: table %q is write-locked by a concurrent transaction", ErrWriteConflict, t.Name)
	}
	tx.latches = append(tx.latches, t)
	return nil
}

// holdsLatch reports whether tx holds t's write latch.
func (tx *txnState) holdsLatch(t *Table) bool {
	for _, held := range tx.latches {
		if held.tableStore == t.tableStore {
			return true
		}
	}
	return false
}

// releaseLatches frees every latch tx holds, in reverse acquisition order.
func (db *DB) releaseLatches(tx *txnState) {
	for i := len(tx.latches) - 1; i >= 0; i-- {
		db.locks.release(tx.latches[i], tx)
	}
	tx.latches = nil
	tx.locks.release(rankLatch)
}

// snapTracker records every snapshot a reader may still resolve views
// under — an open transaction's, a lone statement's while it opens, a
// dump's — giving Vacuum its oldest-active watermark. A snapshot is read
// from the clock under the tracker's mutex as it is registered, and oldest
// reads the clock under the same mutex, so a snapshot is either counted by
// Vacuum or no older than its watermark.
type snapTracker struct {
	mu     sync.Mutex
	active map[uint64]int // snapshot timestamp -> readers pinned at it
	txns   int            // how many of the readers are transactions
}

func newSnapTracker() *snapTracker {
	return &snapTracker{active: make(map[uint64]int)}
}

// pin reads a snapshot timestamp from clock and registers it; txn marks an
// open transaction's. Every pin is undone by one unpin.
func (st *snapTracker) pin(clock *atomic.Uint64, txn bool) uint64 {
	st.mu.Lock()
	ts := clock.Load()
	st.active[ts]++
	if txn {
		st.txns++
	}
	st.mu.Unlock()
	return ts
}

func (st *snapTracker) unpin(ts uint64, txn bool) {
	st.mu.Lock()
	if st.active[ts]--; st.active[ts] == 0 {
		delete(st.active, ts)
	}
	if txn {
		st.txns--
	}
	st.mu.Unlock()
}

// count returns the number of open transactions.
func (st *snapTracker) count() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.txns
}

// oldest returns the smallest registered snapshot timestamp, or the clock's
// reading when none is registered.
func (st *snapTracker) oldest(clock *atomic.Uint64) uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	min := clock.Load()
	for ts := range st.active {
		if ts < min {
			min = ts
		}
	}
	return min
}

// pinRead returns the committed catalogue and a registered snapshot of one
// commit: a catalogue is published (commitTxn) before the clock reaches the
// timestamp it is stamped with, so the pair is retaken until the catalogue
// is no newer than the snapshot and did not change while the clock was
// read. The caller unpins the timestamp once its views are resolved.
func (db *DB) pinRead() (*catalogValue, uint64) {
	for {
		cat := db.tables.Load()
		ts := db.snaps.pin(&db.clock, false)
		if cat.ts <= ts && db.tables.Load() == cat {
			return cat, ts
		}
		db.snaps.unpin(ts, false)
		runtime.Gosched() // a commit is between its publish and its clock
	}
}

// Vacuum compacts every table: versions invisible to the oldest registered
// snapshot (aborted inserts, superseded updates, committed deletes) are
// dropped and indexes rebuilt over the surviving versions. It runs under
// the exclusive lock, beside readers, which hold the views they loaded
// (see index.gen); it piggybacks on Checkpoint, and long-running databases
// can also call it directly.
func (db *DB) Vacuum() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed.Load() {
		return ErrClosed
	}
	return db.vacuumLocked()
}

// vacuumLocked compacts under db.mu.Lock. Tables with a latch owner (an
// in-flight writer) are skipped: their in-flight stamps must survive.
func (db *DB) vacuumLocked() error {
	watermark := db.snaps.oldest(&db.clock)
	cat := db.tables.Load()
	var firstErr error
	for _, name := range cat.names {
		t := cat.tables[name]
		if db.locks.owner(t) != nil {
			continue
		}
		if err := db.vacuumTable(t, watermark); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// vacuumTable drops the dead versions of one table. A version is dead when
// its creator aborted or when it was ended at or before the watermark — no
// current or future snapshot can see it.
func (db *DB) vacuumTable(t *Table, watermark uint64) error {
	v := t.loadView()
	kept := 0
	for _, m := range v.meta {
		if versionDeadAt(m, watermark) {
			continue
		}
		kept++
	}
	if kept == len(v.meta) {
		return nil
	}
	nv := &tableView{
		rows: make([]Row, 0, kept),
		meta: make([]*rowMeta, 0, kept),
		gen:  v.gen + 1,
	}
	for i, m := range v.meta {
		if versionDeadAt(m, watermark) {
			continue
		}
		nv.rows = append(nv.rows, v.rows[i])
		nv.meta = append(nv.meta, m)
	}
	t.view.Store(nv)
	var firstErr error
	for _, ix := range t.indexes {
		if err := ix.build(nv); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	// Positions moved: cached physical plans that pinned access paths must
	// replan.
	db.bumpEpoch()
	return firstErr
}

func versionDeadAt(m *rowMeta, watermark uint64) bool {
	b := m.begin.Load()
	if b == stampAborted {
		return true
	}
	if b&txnBit != 0 {
		// In-flight creator (defensive: its table should be latched).
		return false
	}
	e := m.end.Load()
	return e != 0 && e&txnBit == 0 && e <= watermark
}

// TableVersions reports how many row versions a table stores and how many
// are visible to a fresh snapshot — observability for version-GC tests and
// monitoring.
func (db *DB) TableVersions(name string) (versions, live int, err error) {
	t, ok := db.tables.Load().get(name)
	if !ok {
		return 0, 0, fmt.Errorf("%w: %q", ErrNoSuchTable, name)
	}
	v := t.loadView()
	snap := snapshot{ts: db.clock.Load()}
	for _, m := range v.meta {
		if snap.visible(m) {
			live++
		}
	}
	return len(v.meta), live, nil
}
