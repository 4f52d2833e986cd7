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
// holding the table's latch, compacts them away), so readers need no lock
// at all once they hold a view header — visibility is decided per version
// from two atomic stamps:
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
// by their own header's length — never observe the new element. Every
// appender, and Vacuum, holds the table's latch (recovery replay runs
// alone), so concurrent append-append races cannot occur.
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
// committed" (recovery replay, where the clock cannot move concurrently).
// self is the reader's own in-flight stamp (txnBit|id) so a
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
// returning the version's position. Callers must hold the table's write
// latch, or be recovery replay.
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
	mu      sync.Mutex
	owners  map[*tableStore]*txnState
	queues  map[*tableStore][]chan struct{}
	waiting map[*tableStore]int // writers in acquire that found the latch held
}

func newLockMgr() *lockMgr {
	return &lockMgr{
		owners:  make(map[*tableStore]*txnState),
		queues:  make(map[*tableStore][]chan struct{}),
		waiting: make(map[*tableStore]int),
	}
}

// tryAcquire takes the latch if it is free (or already held by tx) and no
// writer waits for it, and reports whether it did. Vacuum probes latches
// with it: a table an open transaction writes is not one to compact, and a
// Vacuum loop must not take the latch again ahead of a writer it woke.
func (lm *lockMgr) tryAcquire(t *Table, tx *txnState) bool {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	if cur, held := lm.owners[t.tableStore]; held && cur != tx || lm.waiting[t.tableStore] > 0 {
		return false
	}
	lm.owners[t.tableStore] = tx
	tx.locks.acquire(rankLatch, false)
	return true
}

// acquire blocks until the latch is granted, ctx is done, or one holder
// keeps it for timeout — the latter surfaces as ErrWriteConflict, so a
// writer fails fast instead of deadlocking on crossed latch orders or
// stalling behind an idle open transaction. Each release restarts the
// bound: a waiter behind a queue of short writers waits its turn however
// long the queue. The waiter may hold other latches, never commitMu: every
// commit would stall behind it for the timeout.
func (lm *lockMgr) acquire(ctx context.Context, t *Table, tx *txnState, timeout time.Duration) error {
	tx.locks.acquire(rankLatch, true)
	waited := false
	defer func() {
		if waited {
			lm.mu.Lock()
			if lm.waiting[t.tableStore]--; lm.waiting[t.tableStore] == 0 {
				delete(lm.waiting, t.tableStore)
			}
			lm.mu.Unlock()
		}
	}()
	for {
		lm.mu.Lock()
		if cur, held := lm.owners[t.tableStore]; !held || cur == tx {
			lm.owners[t.tableStore] = tx
			lm.mu.Unlock()
			return nil
		}
		if !waited {
			lm.waiting[t.tableStore]++
			waited = true
		}
		ch := make(chan struct{})
		lm.queues[t.tableStore] = append(lm.queues[t.tableStore], ch)
		lm.mu.Unlock()
		deadline := time.NewTimer(timeout)
		select {
		case <-ch:
			deadline.Stop()
		case <-ctx.Done():
			deadline.Stop()
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

// latchTable acquires t's write latch for tx (idempotently), waiting as
// acquire does, and records it for release at transaction end.
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
// dropped and indexes rebuilt over the surviving versions. It holds each
// table's latch while it compacts it, and skips a table whose latch is
// taken: an open transaction writes it, and its in-flight stamps must
// survive. Readers run beside it on the views they loaded (see index.gen).
// It piggybacks on Checkpoint, and long-running databases can also call it
// directly.
func (db *DB) Vacuum() error {
	if db.closed.Load() {
		return ErrClosed
	}
	compacted, err := db.vacuum()
	if compacted {
		// Positions moved: cached physical plans that pinned access paths
		// must replan.
		db.bumpEpoch()
	}
	return err
}

// vacuum compacts every table whose latch is free and reports whether it
// compacted any; the caller moves the catalogue epoch if so.
func (db *DB) vacuum() (compacted bool, firstErr error) {
	watermark := db.snaps.oldest(&db.clock)
	owner := db.newTxn()
	cat := db.tables.Load()
	for _, name := range cat.names {
		t := cat.tables[name]
		if !db.locks.tryAcquire(t, owner) {
			continue
		}
		// Under the latch no DDL of t commits: resolve the Table again, so
		// an index created since the first load is rebuilt too.
		if cur, ok := db.tables.Load().get(name); ok && cur.tableStore == t.tableStore {
			c, err := db.vacuumTable(cur, watermark)
			compacted = compacted || c
			if err != nil && firstErr == nil {
				firstErr = err
			}
		}
		db.locks.release(t, owner)
	}
	return compacted, firstErr
}

// vacuumTable drops the dead versions of one table and reports whether
// there were any. A version is dead when its creator aborted or when it was
// ended at or before the watermark — no current or future snapshot can see
// it.
func (db *DB) vacuumTable(t *Table, watermark uint64) (bool, error) {
	v := t.loadView()
	kept := 0
	for _, m := range v.meta {
		if versionDeadAt(m, watermark) {
			continue
		}
		kept++
	}
	if kept == len(v.meta) {
		return false, nil
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
	return true, firstErr
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
