package sqldb

import (
	"math"
	"slices"
	"sync/atomic"
)

// Query planning. Statement execution is split into two layers:
//
//  1. A cost-based physical planner (planSelect + chooseAccessPath) deciding
//     HOW: full scan vs. hash or btree index probe vs. index range, driven
//     by the catalogue's per-table row counts and per-column cardinalities
//     (stats.go).
//  2. One of two physical executors: the vectorized batch executor for
//     single-table analytical scans, aggregates and windows (vecexec.go),
//     and the operator pipeline (operator.go) for every other SELECT,
//     compiling scan filters, projections and the expressions above joins
//     once into closures (compile.go). Both share the access-path chooser.
//
// Physical plans are cached per statement (cachedPlan) and revalidated
// against the catalogue epoch, so committed DDL — CREATE/DROP TABLE or
// INDEX — and ANALYZE force a replan before the next execution. A statement
// of a transaction with uncommitted DDL plans against its own catalogue and
// neither reads nor fills the cache.

// --- Planner configuration ---

// plannerOptions override planner choices so that the differential suites
// can compare the shipped plans against their alternatives. Only the
// package's tests set them; the zero value is the shipped planner.
type plannerOptions struct {
	// disableIndexScan forces full scans (and no index lookup join).
	disableIndexScan bool
	// disableHashJoin keeps equi-joins on the streaming nested loop.
	disableHashJoin bool
	// disableVectorized keeps the analytical class on the operator pipeline.
	disableVectorized bool
	// forceLookupJoin makes every eligible join take the index lookup
	// whatever the outer input's size (see openIndexedJoin); it is read at
	// open, not at plan time.
	forceLookupJoin bool
}

const (
	// defaultEqSelectivity estimates an equality probe on a never-analyzed
	// column; defaultBoundSelectivity one inequality bound; a closed range
	// multiplies two bounds.
	defaultEqSelectivity    = 0.01
	defaultBoundSelectivity = 1.0 / 3.0
)

// --- Access-path choice ---

type accessKind int

const (
	accessSeq accessKind = iota
	accessIndexEq
	accessIndexRange
)

// accessPath is the planner's decision for reading one base table: how rows
// are located, through which index, and what it expects that to cost.
type accessPath struct {
	kind  accessKind
	ix    *index
	probe *indexProbe
	// estRows is the estimated row count the path produces; tableRows the
	// (possibly analyzed) table row count the estimate was derived from.
	estRows   float64
	tableRows int
	analyzed  bool
}

// chooseAccessPath picks the cheapest way to locate rows satisfying `where`
// on t, using analyzed statistics when available and conservative defaults
// otherwise. Every path returns a candidate superset — the executor always
// re-verifies the full WHERE — so the choice affects speed, never results.
func chooseAccessPath(db *DB, t *Table, alias string, where Expr) accessPath {
	n := t.versionCount()
	st := t.stats.Load()
	analyzed := st != nil
	if analyzed {
		n = st.rowCount
	}
	seq := accessPath{kind: accessSeq, estRows: float64(n), tableRows: n, analyzed: analyzed}
	if where == nil || db.planner.disableIndexScan || len(t.indexes) == 0 {
		return seq
	}

	best := seq
	// A sequential scan visits every row.
	bestCost := float64(n)
	for _, conj := range splitConjuncts(where, nil) {
		p := matchProbe(conj, alias)
		if p == nil {
			continue
		}
		ix := t.findIndex(p.column, p.eq == nil)
		if ix == nil {
			continue
		}
		var est float64
		probeCost := math.Log2(float64(n) + 2) // btree descent
		if ix.kind == IndexHash {
			probeCost = 1
		}
		if p.eq != nil {
			if d := st.distinctFor(ix.col); d > 0 {
				est = float64(n) / float64(d)
			} else {
				est = float64(n) * defaultEqSelectivity
			}
		} else {
			sel := 1.0
			if p.lo != nil {
				sel *= defaultBoundSelectivity
			}
			if p.hi != nil {
				sel *= defaultBoundSelectivity
			}
			est = float64(n) * sel
		}
		if est < 1 && n > 0 {
			est = 1
		}
		cost := probeCost + est
		if cost < bestCost {
			kind := accessIndexRange
			if p.eq != nil {
				kind = accessIndexEq
			}
			best = accessPath{kind: kind, ix: ix, probe: p, estRows: est, tableRows: n, analyzed: analyzed}
			bestCost = cost
		}
	}
	return best
}

// lookupPositions resolves an index path to its candidate version positions,
// ascending (table order) and bounded by the view header it returns. An
// equality probe appends into buf. ok=false means there is no probe to use
// (a sequential path, a type mismatch, a NULL bound…) and the caller must
// take every position of the header — behaviour stays identical because the
// full WHERE is applied either way.
func (ap *accessPath) lookupPositions(cx *evalCtx, t *Table, buf []int) (v *tableView, positions []int, ok bool) {
	// Resolve the view BEFORE probing: any position the index can surface
	// beyond this header belongs to a version committed after the probe
	// began, which our snapshot could not see anyway.
	v = t.loadView()
	if ap.kind == accessSeq {
		return v, nil, false
	}
	positions, ok = probeIndex(cx, t, ap.ix, ap.probe, buf)
	if !ok {
		return v, nil, false
	}
	slices.Sort(positions)
	for len(positions) > 0 && positions[len(positions)-1] >= len(v.rows) {
		positions = positions[:len(positions)-1]
	}
	return v, positions, true
}

// lookupRows resolves an index path to its candidate rows (in table order);
// ok is lookupPositions'.
func (ap *accessPath) lookupRows(cx *evalCtx, t *Table) ([]Row, bool) {
	var buf [16]int // a point probe's positions stay on the stack
	v, positions, ok := ap.lookupPositions(cx, t, buf[:0])
	if !ok {
		return nil, false
	}
	rows := make([]Row, 0, len(positions))
	for _, pos := range positions {
		// Index entries are insert-only: deleted, superseded, and aborted
		// versions keep theirs, so each candidate re-checks visibility.
		if cx.snap.visible(v.meta[pos]) {
			rows = append(rows, v.rows[pos])
		}
	}
	return rows, true
}

// --- Physical plans ---

type physKind int

const (
	// physOps: every SELECT the vectorized executor does not take runs on
	// the operator pipeline (operator.go) behind the pull-based RowStream
	// contract.
	physOps physKind = iota
	// physVectorized: single-table analytical statements (filtered scans,
	// hash aggregation, window functions) running over columnar batches with
	// compiled per-type kernels (vecexec.go).
	physVectorized
)

// physPlan is one physical plan. It pins the table and index pointers and
// the compiled closures of its executor; the recorded catalogue epoch gates
// reuse (see cachedPlan.physFor).
type physPlan struct {
	epoch uint64
	kind  physKind
	sel   *SelectStmt

	// physOps field: the streaming operator pipeline (operator.go).
	ops *opPlan

	// physVectorized field: the columnar batch plan (vecexec.go).
	vec *vecPlan
}

// planSelect builds the physical plan for s over cat under the held
// database lock.
func (db *DB) planSelect(cat *catalogValue, s *SelectStmt) (*physPlan, error) {
	if vp := db.planVectorized(cat, s); vp != nil {
		return &physPlan{kind: physVectorized, sel: s, vec: vp}, nil
	}
	ops, err := db.planOperators(cat, s)
	if err != nil {
		return nil, err
	}
	return &physPlan{kind: physOps, sel: s, ops: ops}, nil
}

// cachedPlan is one plan-cache entry: the parsed AST plus the compiled
// physical plan, which is revalidated against the catalogue epoch on every
// execution. Concurrent executions may race to replan; both results are
// equivalent and the atomic store keeps the entry consistent.
type cachedPlan struct {
	stmt Statement
	phys atomic.Pointer[physPlan]
}

// physFor returns a physical plan for s over cat, replanning if DDL,
// ANALYZE, or planner options moved the epoch since the cached one was
// built. A plan over a transaction's uncommitted DDL (epoch 0) is never
// cached.
func (cp *cachedPlan) physFor(db *DB, cat *catalogValue, s *SelectStmt) (*physPlan, error) {
	if p := cp.phys.Load(); p != nil && p.epoch == cat.epoch && cat.epoch != 0 {
		return p, nil
	}
	p, err := db.planSelect(cat, s)
	if err != nil {
		return nil, err
	}
	p.epoch = cat.epoch
	if cat.epoch != 0 {
		cp.phys.Store(p)
	}
	return p, nil
}
