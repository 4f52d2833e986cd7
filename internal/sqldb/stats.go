package sqldb

import "fmt"

// Planner statistics. ANALYZE (or the automatic refresh that fires once a
// table has churned past a mutation threshold) walks a table once and
// records its row count and the number of distinct non-NULL values per
// column. The cost-based access-path chooser (plan.go) reads the snapshot to
// estimate how many rows an index probe would return; a table that has never
// been analyzed falls back to its live row count and default selectivities.
//
// Statistics are advisory, not transactional: they are not journalled, not
// WAL-logged, and survive a rollback unchanged — a stale estimate can only
// produce a slower plan, never a wrong result, because every access path
// re-verifies the full WHERE clause. Both Table fields involved (stats,
// statMutations) are atomic, so the refresh takes no lock at all, and
// never a table latch — a latch-waiting ANALYZE inside a commit path
// could deadlock against the latch holder (and, symmetrically, a latch
// holder's commit must be able to refresh statistics without waiting).

// tableStats is one ANALYZE snapshot. The struct is immutable once
// published on Table.stats (writers replace the pointer wholesale), so
// plans may keep reading a snapshot they captured without synchronization.
type tableStats struct {
	// rowCount is the table's visible row count at ANALYZE time.
	rowCount int
	// distinct maps column position to the number of distinct non-NULL
	// values observed at ANALYZE time.
	distinct []int
}

// distinctFor returns the analyzed cardinality of column col, or 0 when
// unknown.
func (st *tableStats) distinctFor(col int) int {
	if st == nil || col < 0 || col >= len(st.distinct) {
		return 0
	}
	return st.distinct[col]
}

// autoAnalyzeMinMutations is the minimum row churn (inserts + updates +
// deletes since the last snapshot) before the automatic refresh considers a
// table, and autoAnalyzeFraction is the churn fraction of the analyzed row
// count that triggers it — mirroring autovacuum's threshold + scale factor.
const (
	autoAnalyzeMinMutations = 512
	autoAnalyzeFraction     = 5 // refresh when churn ≥ rowCount/5 (20%)
)

// computeTableStats scans the latest committed versions of t once and
// builds a fresh snapshot. It needs no lock: the view it loads never
// changes.
func computeTableStats(db *DB, t *Table) *tableStats {
	v := t.loadView()
	snap := snapshot{ts: db.clock.Load()}
	st := &tableStats{distinct: make([]int, len(t.Columns))}
	visible := make([]Row, 0, len(v.rows))
	for i, row := range v.rows {
		if snap.visible(v.meta[i]) {
			visible = append(visible, row)
		}
	}
	st.rowCount = len(visible)
	seen := make(map[string]struct{})
	for ci := range t.Columns {
		clear(seen)
		for _, row := range visible {
			val := row[ci]
			if val.IsNull() {
				continue
			}
			seen[hashKey(val)] = struct{}{}
		}
		st.distinct[ci] = len(seen)
	}
	return st
}

// analyzeTable refreshes t's statistics and invalidates cached plans
// (their cost estimates are now stale).
func (db *DB) analyzeTable(t *Table) {
	t.stats.Store(computeTableStats(db, t))
	t.statMutations.Store(0)
	db.bumpEpoch()
}

// execAnalyze runs ANALYZE [table] over cat.
func (db *DB) execAnalyze(cat *catalogValue, s *AnalyzeStmt) (*ResultSet, error) {
	if s.Table != "" {
		t, ok := cat.get(s.Table)
		if !ok {
			return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, s.Table)
		}
		db.analyzeTable(t)
		return &ResultSet{}, nil
	}
	for _, name := range cat.names {
		db.analyzeTable(cat.tables[name])
	}
	return &ResultSet{}, nil
}

// noteMutations records row churn against t's statistics.
func (t *Table) noteMutations(n int) {
	if n > 0 {
		t.statMutations.Add(int64(n))
	}
}

// maybeAutoAnalyze refreshes t's statistics when its churn since the last
// snapshot crosses the threshold. Called for each touched table after a
// transaction commits, with no lock held, so bulk
// loads pick up statistics without an explicit ANALYZE, at amortized
// O(rows) cost. Two concurrent refreshes are benign: each publishes a
// complete snapshot.
func (db *DB) maybeAutoAnalyze(t *Table) {
	churn := int(t.statMutations.Load())
	if churn < autoAnalyzeMinMutations {
		return
	}
	if st := t.stats.Load(); st != nil && churn*autoAnalyzeFraction < st.rowCount {
		return
	}
	db.analyzeTable(t)
}

// autoAnalyzeTouched runs the automatic refresh over every table a
// just-committed transaction touched.
func (db *DB) autoAnalyzeTouched(t *txnState) {
	for tb := range t.touched {
		db.maybeAutoAnalyze(tb)
	}
}

// Analyze refreshes planner statistics through the typed API: one table, or
// every table when name is empty. Like the automatic refresh, it takes no
// lock and runs beside writers.
func (db *DB) Analyze(name string) error {
	if db.closed.Load() {
		return ErrClosed
	}
	_, err := db.execAnalyze(db.tables.Load(), &AnalyzeStmt{Table: name})
	return err
}

// TableStats reports the analyzed statistics for a table: its row count at
// ANALYZE time and each column's distinct-value count. ok is false when the
// table does not exist or has never been analyzed.
func (db *DB) TableStats(name string) (rowCount int, distinct map[string]int, ok bool) {
	t, found := db.tables.Load().get(name)
	if !found {
		return 0, nil, false
	}
	st := t.stats.Load()
	if st == nil {
		return 0, nil, false
	}
	distinct = make(map[string]int, len(t.Columns))
	for i, c := range t.Columns {
		distinct[c.Name] = st.distinctFor(i)
	}
	return st.rowCount, distinct, true
}
