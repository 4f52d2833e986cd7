package sqldb

// Transaction support. Every write statement runs inside a transaction —
// a Tx handle (see tx.go), or a one-statement transaction of its own.
// Writes are multi-versioned (see mvcc.go): each mutation appends or
// end-stamps row versions under the transaction's in-flight stamp, buffers a
// WAL record on a durable database, and — for DDL and API compensators —
// pushes an undo closure. COMMIT writes the pending WAL records plus a
// commit marker, then flips the transaction's stamps to its commit
// timestamp; ROLLBACK flips the stamps to aborted/live and replays the undo
// journal in reverse.

// txnState is one open transaction: its identity and snapshot, the row
// versions it created and ended (the write set whose stamps commit/abort
// flips), the undo journal for DDL and compensators, the WAL records to
// write at commit, and the table latches it holds.
type txnState struct {
	id      uint64
	snap    snapshot
	undo    []func()
	touched map[*Table]struct{}
	created []*rowMeta
	ended   []*rowMeta
	pending []walRecord
	latches []*Table
	locks   heldLocks
	// ddl records that a DDL undo closure was journalled; rollback then
	// rebuilds the indexes of touched tables (pure DML rollback needs no
	// rebuild — aborted versions are filtered by visibility).
	ddl bool
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

// touch marks a table as mutated, for rollback index rebuilds (DDL only)
// and the auto-ANALYZE refresh at commit.
func (t *txnState) touch(tb *Table) {
	if t.touched == nil {
		t.touched = make(map[*Table]struct{})
	}
	t.touched[tb] = struct{}{}
}

// logWAL buffers a WAL record for commit on a durable database; it is a
// no-op in memory-only mode.
func (t *txnState) logWAL(db *DB, rec walRecord) {
	if db.wal != nil {
		t.pending = append(t.pending, rec)
	}
}

// txnMarks is a point in a transaction's journals, for statement-level
// atomicity: a failed statement unwinds to the marks taken before it ran.
type txnMarks struct {
	undo, pending, created, ended int
}

func (t *txnState) marks() txnMarks {
	return txnMarks{
		undo:    len(t.undo),
		pending: len(t.pending),
		created: len(t.created),
		ended:   len(t.ended),
	}
}

// dirtySince reports whether the transaction journalled anything past m —
// i.e. whether a failed statement left state to unwind.
func (t *txnState) dirtySince(m txnMarks) bool {
	return len(t.undo) > m.undo || len(t.pending) > m.pending ||
		len(t.created) > m.created || len(t.ended) > m.ended
}

// unwind rolls the transaction back to a prior point: versions created past
// the mark are stamped aborted, end stamps placed past the mark are cleared
// back to live, undo closures past the mark run in reverse, and pending WAL
// records are discarded. unwind(db, txnMarks{}) is full rollback;
// execStatement uses non-zero marks for statement-level atomicity. Stamp
// flips are atomic, so concurrent snapshot readers see a consistent before-
// or-after state for every version.
func (t *txnState) unwind(db *DB, m txnMarks) error {
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
	t.pending = t.pending[:m.pending]
	var firstErr error
	for tb := range t.touched {
		if t.ddl {
			// A DDL undo may have re-attached an index that went stale while
			// detached; rebuild from the current view.
			if err := tb.rebuildIndexes(); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		// Unwound churn must not count toward the auto-ANALYZE threshold:
		// the visible rows are back to their prior state, and a spurious
		// refresh is an O(rows) scan inside a later commit.
		tb.statMutations.Store(0)
	}
	return firstErr
}

// isMutatingStmt reports whether a statement can change the database (DML
// or DDL). SELECT is excluded: its side effects, if any, come from UDFs
// whose nested statements are captured individually.
func isMutatingStmt(s Statement) bool {
	switch s.(type) {
	case *InsertStmt, *UpdateStmt, *DeleteStmt,
		*CreateTableStmt, *DropTableStmt, *CreateIndexStmt, *DropIndexStmt:
		return true
	}
	return false
}

// isDMLStmt reports whether a statement is row-level DML — the statement
// class eligible for the concurrent (latched, shared-lock) write path.
func isDMLStmt(s Statement) bool {
	switch s.(type) {
	case *InsertStmt, *UpdateStmt, *DeleteStmt, *rowInsert:
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
