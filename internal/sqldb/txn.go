package sqldb

// Transaction support. Every write statement runs inside a transaction —
// a Tx handle (see tx.go), or a one-statement transaction of its own.
// Writes are multi-versioned (see mvcc.go): each mutation appends or
// end-stamps row versions under the transaction's in-flight stamp and
// buffers a WAL record on a durable database; DDL records catalogue edits
// (see catalog.go). COMMIT writes the pending WAL records plus a commit
// marker, publishes the edits, then flips the transaction's stamps to its
// commit timestamp; ROLLBACK flips the stamps to aborted/live, forgets the
// edits and runs the OnRollback compensators in reverse.

// txnState is one open transaction: its identity and snapshot, the row
// versions it created and ended (the write set whose stamps commit/abort
// flips), its catalogue edits, the OnRollback compensators, the OnCommit
// closures, the WAL records to write at commit, and the table latches it holds.
type txnState struct {
	id      uint64
	snap    snapshot
	edits   []catEdit
	undo    []func()
	commit  []func()
	touched map[*Table]struct{}
	created []*rowMeta
	ended   []*rowMeta
	pending []walRecord
	latches []*Table
	locks   heldLocks

	// view caches catalogFor's result: edits[:viewEdits] laid over viewOf.
	view, viewOf *catalogValue
	viewEdits    int
}

// newTxn allocates a transaction with a fresh ID; the caller pins its
// snapshot.
func (db *DB) newTxn() *txnState {
	return &txnState{id: db.txnID.Add(1)}
}

// stamp is the transaction's in-flight version stamp.
func (t *txnState) stamp() uint64 { return txnBit | t.id }

// recordUndo registers a rollback closure.
func (t *txnState) recordUndo(fn func()) { t.undo = append(t.undo, fn) }

// committed runs the OnCommit closures of a transaction whose commit is
// published, in registration order, with no latch held.
func (t *txnState) committed() {
	for _, fn := range t.commit {
		fn()
	}
	t.commit = nil
}

// touch marks a table as mutated, for the auto-ANALYZE refresh at commit.
func (t *txnState) touch(tb *Table) {
	if t.touched == nil {
		t.touched = make(map[*Table]struct{})
	}
	t.touched[tb] = struct{}{}
}

// txnMarks is a point in a transaction's journals, for statement-level
// atomicity: a failed statement unwinds to the marks taken before it ran.
type txnMarks struct {
	edits, undo, commit, pending, created, ended int
}

func (t *txnState) marks() txnMarks {
	return txnMarks{
		edits:   len(t.edits),
		undo:    len(t.undo),
		commit:  len(t.commit),
		pending: len(t.pending),
		created: len(t.created),
		ended:   len(t.ended),
	}
}

// unwind rolls the transaction back to a prior point: versions created past
// the mark are stamped aborted, end stamps placed past the mark are cleared
// back to live, catalogue edits, OnCommit closures and pending WAL records
// past the mark are discarded, and compensators past the mark run in reverse.
// unwind(txnMarks{}) is full rollback; execStatement uses non-zero marks for
// statement-level atomicity. Stamp flips are atomic, so concurrent snapshot
// readers see a consistent before-or-after state for every version.
func (t *txnState) unwind(m txnMarks) {
	for _, rm := range t.created[m.created:] {
		rm.begin.Store(stampAborted)
	}
	t.created = t.created[:m.created]
	for _, rm := range t.ended[m.ended:] {
		rm.end.Store(0)
	}
	t.ended = t.ended[:m.ended]
	for i := len(t.undo) - 1; i >= m.undo; i-- {
		t.undo[i]()
	}
	t.undo = t.undo[:m.undo]
	t.commit = t.commit[:m.commit]
	t.edits = t.edits[:m.edits]
	t.viewOf = nil // edits past the mark may be replaced by others
	t.pending = t.pending[:m.pending]
	for tb := range t.touched {
		// Unwound churn must not count toward the auto-ANALYZE threshold:
		// the visible rows are back to their prior state, and a spurious
		// refresh is an O(rows) scan inside a later commit.
		tb.statMutations.Store(0)
	}
}

// isDDLStmt reports whether a statement changes the catalogue; the WAL logs
// such a statement as its text (a "stmt" record).
func isDDLStmt(s Statement) bool {
	switch s.(type) {
	case *CreateTableStmt, *DropTableStmt, *CreateIndexStmt, *DropIndexStmt:
		return true
	}
	return false
}

func isTxnControlStmt(s Statement) bool {
	switch s.(type) {
	case *BeginStmt, *CommitStmt, *RollbackStmt:
		return true
	}
	return false
}

// walkStmtFuncs visits every function name referenced by a statement.
func walkStmtFuncs(stmt Statement, fn func(string)) {
	switch s := stmt.(type) {
	case *SelectStmt:
		walkSelectFuncs(s, fn)
	case *InsertStmt:
		for _, r := range s.Rows {
			for _, e := range r {
				walkExprFuncs(e, fn)
			}
		}
		if s.Query != nil {
			walkSelectFuncs(s.Query, fn)
		}
	case *UpdateStmt:
		for _, sc := range s.Set {
			walkExprFuncs(sc.Value, fn)
		}
		walkExprFuncs(s.Where, fn)
	case *DeleteStmt:
		walkExprFuncs(s.Where, fn)
	}
}
