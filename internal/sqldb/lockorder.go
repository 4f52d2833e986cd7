package sqldb

import (
	"fmt"
	"testing"
)

// The lock order. A goroutine acting for a transaction holds Tx.mu (one
// statement of a transaction at a time) before anything else; the
// transaction then acquires, in this order:
//
//	table write latches → db.mu → commitMu
//
// A latch is waited for holding no db.mu, and at most the lock-wait
// timeout, then fails with ErrWriteConflict: its holder may be an open
// transaction gone idle, and the waiter's own transaction may hold latches
// from earlier statements. A latch wanted under db.mu is only probed, and
// fails with ErrWriteConflict when taken. A Tx's statements bound their
// wait for db.mu by the same timeout, since the Tx may hold latches.
// core.Session.mu, jobManager.mu, simCache.mu and colMirror.mu are leaves:
// nothing is acquired under them.
//
// heldLocks checks this order wherever a statement or transaction
// acquires one of these locks — the statement entry (DB.exec), BeginTx and
// Tx's end, lockMgr, commitTxn — in test binaries only.
type lockRank uint8

const (
	rankLatch lockRank = 1 << iota
	rankDB
	rankCommit
)

func (r lockRank) String() string {
	switch r {
	case rankLatch:
		return "a table latch"
	case rankDB:
		return "db.mu"
	}
	return "commitMu"
}

// checkLockOrder turns the assertion on in test binaries.
var checkLockOrder = testing.Testing()

// heldLocks is the set of ranks a transaction (or a read-only statement)
// holds; the goroutine holding its Tx.mu is the only one touching it.
type heldLocks uint8

// acquire records r. A blocking acquire must rank above every lock held,
// save that a latch wait, bounded by the lock-wait timeout, may nest under
// other latches. A probe or a bounded wait for db.mu may come in any order.
func (h *heldLocks) acquire(r lockRank, blocking bool) {
	above := *h &^ (heldLocks(r) - 1) // held ranks at or above r
	if r == rankLatch {
		above &^= heldLocks(rankLatch)
	}
	if checkLockOrder && blocking && above != 0 {
		held := rankCommit
		for heldLocks(held)&*h == 0 {
			held >>= 1
		}
		panic(fmt.Sprintf("sqldb: lock order violated: waiting for %v while holding %v", r, held))
	}
	*h |= heldLocks(r)
}

func (h *heldLocks) release(r lockRank) { *h &^= heldLocks(r) }
