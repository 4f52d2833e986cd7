package sqldb

import (
	"fmt"
	"testing"
)

// The lock order. There is no database-wide lock. A goroutine acting for a
// transaction holds Tx.mu (one statement of a transaction at a time) before
// anything else; the transaction then acquires, in this order:
//
//	table write latches → commitMu
//
// A latch wait fails with ErrWriteConflict once one holder has kept the
// latch for the lock-wait timeout: that holder may be an open transaction
// gone idle, or wait in a cycle for latches the waiter's transaction holds.
// Nothing waits for a latch holding commitMu; Vacuum only probes latches.
// commitMu is held for a commit, a checkpoint's snapshot write, and
// the WAL's attachment changes. core.Session.mu, jobManager.mu,
// simCache.mu and colMirror.mu are leaves: nothing is acquired under them.
//
// heldLocks checks this order wherever a statement or transaction
// acquires one of these locks — lockMgr and commitTxn — in test binaries
// only.
type lockRank uint8

const (
	rankLatch lockRank = 1 << iota
	rankCommit
)

func (r lockRank) String() string {
	if r == rankLatch {
		return "a table latch"
	}
	return "commitMu"
}

// checkLockOrder turns the assertion on in test binaries.
var checkLockOrder = testing.Testing()

// heldLocks is the set of ranks a transaction holds; the goroutine holding
// its Tx.mu is the only one touching it. A read takes none of these locks.
type heldLocks uint8

// acquire records r. A blocking acquire must rank above every lock held,
// save that a latch wait, bounded by the lock-wait timeout, may nest under
// other latches. A probe may come in any order.
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
