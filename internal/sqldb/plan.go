package sqldb

import (
	"math"
	"runtime"
	"slices"
	"sync/atomic"
)

// Query planning. Statement execution is split into three layers:
//
//  1. A logical plan (buildLogical) describing WHAT a SELECT computes:
//     scan / function-call / subquery / join / filter / aggregate / project /
//     sort / distinct / limit nodes derived from the AST.
//  2. A cost-based physical planner (planSelect + chooseAccessPath) deciding
//     HOW: full scan vs. hash or btree index probe vs. index range, driven
//     by the catalogue's per-table row counts and per-column cardinalities
//     (stats.go), plus whether the scan runs serially or partitioned across
//     a worker pool (parallel.go).
//  3. One of three physical executors: the vectorized batch executor for
//     single-table analytical scans, aggregates and windows (vecexec.go);
//     the streaming operator pipeline (operator.go) for every other SELECT
//     whose expressions outside FROM are pure builtins, compiling scan
//     filters and single-table projections once into closures (compile.go);
//     and the reference materializing executor (exec.go) for the rest. All
//     three share the same access-path chooser.
//
// Physical plans are cached per statement (cachedPlan) and revalidated
// against the catalogue epoch, so any DDL — CREATE/DROP TABLE or INDEX,
// ANALYZE, planner-option changes, including those rolled back by a
// transaction — forces a replan before the next execution.

// --- Logical plan ---

// logicalNode is one operator of the logical plan tree.
type logicalNode interface{ logical() }

// lScan reads a base table.
type lScan struct {
	item  FromItem
	alias string
}

// lFuncScan evaluates a set-returning function (UDF call) in FROM.
type lFuncScan struct {
	item  FromItem
	alias string
}

// lSubquery runs a derived table.
type lSubquery struct {
	item  FromItem
	alias string
	plan  logicalNode
}

// lValues is the FROM-less single empty row.
type lValues struct{}

// lJoin combines two inputs with the executor's nested-loop strategy.
type lJoin struct {
	kind    JoinKind
	on      Expr
	lateral bool
	left    logicalNode
	right   logicalNode
}

// lFilter applies a WHERE predicate.
type lFilter struct {
	pred  Expr
	child logicalNode
}

// lAggregate groups and folds aggregate functions (HAVING included).
type lAggregate struct {
	groupBy []Expr
	having  Expr
	child   logicalNode
}

// lProject computes the SELECT list.
type lProject struct {
	items []SelectItem
	child logicalNode
}

// lSort orders by the ORDER BY keys.
type lSort struct {
	keys  []OrderItem
	child logicalNode
}

// lDistinct deduplicates result rows.
type lDistinct struct{ child logicalNode }

// lLimit applies LIMIT/OFFSET.
type lLimit struct {
	limit, offset Expr
	child         logicalNode
}

func (*lScan) logical()      {}
func (*lFuncScan) logical()  {}
func (*lSubquery) logical()  {}
func (*lValues) logical()    {}
func (*lJoin) logical()      {}
func (*lFilter) logical()    {}
func (*lAggregate) logical() {}
func (*lProject) logical()   {}
func (*lSort) logical()      {}
func (*lDistinct) logical()  {}
func (*lLimit) logical()     {}

// buildLogical lowers a SELECT AST to its logical plan. The operator order
// mirrors the executor: scan/join → filter → aggregate-or-project → sort →
// distinct → limit.
func buildLogical(s *SelectStmt) logicalNode {
	var root logicalNode
	if len(s.From) == 0 {
		root = &lValues{}
	} else {
		root = fromItemLogical(s.From[0])
		for _, item := range s.From[1:] {
			root = &lJoin{
				kind:    item.Join,
				on:      item.On,
				lateral: item.Lateral || item.Func != nil,
				left:    root,
				right:   fromItemLogical(item),
			}
		}
	}
	if s.Where != nil {
		root = &lFilter{pred: s.Where, child: root}
	}
	if len(s.GroupBy) > 0 || selectHasAggregates(s) {
		root = &lAggregate{groupBy: s.GroupBy, having: s.Having, child: root}
		root = &lProject{items: s.Items, child: root}
	} else {
		root = &lProject{items: s.Items, child: root}
	}
	if len(s.OrderBy) > 0 {
		root = &lSort{keys: s.OrderBy, child: root}
	}
	if s.Distinct {
		root = &lDistinct{child: root}
	}
	if s.Limit != nil || s.Offset != nil {
		root = &lLimit{limit: s.Limit, offset: s.Offset, child: root}
	}
	return root
}

func fromItemLogical(item FromItem) logicalNode {
	alias := item.Alias
	switch {
	case item.Table != "":
		if alias == "" {
			alias = item.Table
		}
		return &lScan{item: item, alias: alias}
	case item.Func != nil:
		if alias == "" {
			alias = item.Func.Name
		}
		return &lFuncScan{item: item, alias: alias}
	case item.Sub != nil:
		return &lSubquery{item: item, alias: alias, plan: buildLogical(item.Sub)}
	default:
		return &lValues{}
	}
}

// --- Planner configuration ---

// PlannerOptions tune physical planning. The zero value means defaults.
type PlannerOptions struct {
	// DisableIndexScan forces full scans — the debugging/testing knob the
	// property suite uses to cross-check planner-chosen access paths.
	DisableIndexScan bool
	// DisableStreamingExec forces every SELECT the streaming operators
	// (operator.go) would run — single-source reads, joins, aggregates,
	// ORDER BY and DISTINCT — onto the reference materializing executor: the
	// differential-testing knob that cross-checks the pipeline against it.
	DisableStreamingExec bool
	// DisableHashJoin keeps equi-joins on the streaming nested-loop
	// strategy, for testing and for working around pathological key
	// distributions.
	DisableHashJoin bool
	// MaxScanWorkers caps parallel partitioned scans: 1 disables them,
	// 0 means min(GOMAXPROCS, 8).
	MaxScanWorkers int
	// ParallelMinRows is the table size below which scans stay serial;
	// 0 means the default (50000).
	ParallelMinRows int
	// DisableVectorized keeps the analytical class on the row-at-a-time
	// executors — the differential-testing knob that cross-checks the
	// vectorized batch executor (vecexec.go) against them.
	DisableVectorized bool
}

const (
	defaultParallelMinRows = 50000
	maxDefaultScanWorkers  = 8
	// parallelMinChunk bounds the per-worker slice so tiny partitions don't
	// pay more in coordination than they save.
	parallelMinChunk = 8192
	// defaultEqSelectivity estimates an equality probe on a never-analyzed
	// column; defaultBoundSelectivity one inequality bound; a closed range
	// multiplies two bounds.
	defaultEqSelectivity    = 0.01
	defaultBoundSelectivity = 1.0 / 3.0
	// seqPageCost and randPageCost weight the disk I/O of a paged table
	// (zero pages for in-memory tables, leaving the row-count model intact):
	// a sequential scan reads every heap page in order, an index probe
	// read-backs scattered pages — priced at the conventional 4× of
	// readahead-friendly sequential I/O.
	seqPageCost  = 1.0
	randPageCost = 4.0
)

// SetPlannerOptions installs planner tuning and invalidates cached plans.
func (db *DB) SetPlannerOptions(o PlannerOptions) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.planner = o
	db.tables.bumpEpoch()
}

// scanWorkers resolves the effective worker-pool size.
func (o PlannerOptions) scanWorkers() int {
	w := o.MaxScanWorkers
	if w == 0 {
		w = runtime.GOMAXPROCS(0)
		if w > maxDefaultScanWorkers {
			w = maxDefaultScanWorkers
		}
	}
	if w < 1 {
		w = 1
	}
	return w
}

func (o PlannerOptions) parallelMinRows() int {
	if o.ParallelMinRows > 0 {
		return o.ParallelMinRows
	}
	return defaultParallelMinRows
}

// parallelScanWorkers resolves the worker count for a parallel partitioned
// scan over tableRows rows, or 0 when the scan should stay serial: below the
// row threshold, with a single-worker pool, or when the partitions would
// drop under the per-worker chunk floor (a lowered ParallelMinRows — tests,
// benchmarks — lowers the floor with it). Shared by the vectorized planner,
// which leaves such scans to the operator pipeline, and that pipeline's
// single-source and join probe-side leaves.
func (o PlannerOptions) parallelScanWorkers(tableRows int) int {
	workers := o.scanWorkers()
	minRows := o.parallelMinRows()
	if tableRows < minRows || workers < 2 {
		return 0
	}
	chunkFloor := parallelMinChunk
	if minRows < chunkFloor {
		chunkFloor = minRows
	}
	if chunkFloor < 1 {
		chunkFloor = 1
	}
	if byChunk := tableRows / chunkFloor; byChunk < workers {
		workers = byChunk
	}
	if workers < 2 {
		return 0
	}
	return workers
}

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
	if where == nil || db.planner.DisableIndexScan || len(t.indexes) == 0 {
		return seq
	}

	pages := float64(db.storedTablePages(t.Name))
	best := seq
	// A sequential scan visits every row, plus — when the table is paged —
	// every heap page in sequential order.
	bestCost := float64(n) + seqPageCost*pages
	for _, conj := range splitConjuncts(where, nil) {
		p := matchProbe(conj, alias)
		if p == nil {
			continue
		}
		ix := t.findIndex(p.column, p.eq == nil)
		if ix == nil {
			continue
		}
		var est, cost float64
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
		// An index path touches at most one heap page per produced row
		// (clamped to the table's page count), but in random order.
		cost = probeCost + est + randPageCost*math.Min(est, pages)
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
	// physOps: every SELECT whose expressions outside FROM are pure
	// builtins — single-source reads (base table, function scan, subquery,
	// or FROM-less) as well as joins, aggregation, ORDER BY and DISTINCT —
	// runs on the streaming operator pipeline (operator.go) behind the
	// pull-based RowStream contract.
	physOps physKind = iota
	// physMaterialize: everything else (UDF-bearing expressions, LATERAL,
	// stddev, …) — the reference materializing executor (exec.go).
	physMaterialize
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

// planSelect builds the physical plan for s under the held database lock.
func (db *DB) planSelect(s *SelectStmt) (*physPlan, error) {
	if vp := db.planVectorized(s); vp != nil {
		return &physPlan{kind: physVectorized, sel: s, vec: vp}, nil
	}
	if ops := db.planOperators(s); ops != nil {
		return &physPlan{kind: physOps, sel: s, ops: ops}, nil
	}
	return &physPlan{kind: physMaterialize, sel: s}, nil
}

// cachedPlan is one plan-cache entry: the parsed AST plus the compiled
// physical plan, which is revalidated against the catalogue epoch on every
// execution. Concurrent executions may race to replan; both results are
// equivalent and the atomic store keeps the entry consistent.
type cachedPlan struct {
	stmt Statement
	phys atomic.Pointer[physPlan]
}

// physFor returns a physical plan for s valid at the current catalogue
// epoch, replanning if DDL, ANALYZE, or planner options moved it.
func (cp *cachedPlan) physFor(db *DB, s *SelectStmt) (*physPlan, error) {
	epoch := db.tables.epoch.Load()
	if p := cp.phys.Load(); p != nil && p.epoch == epoch {
		return p, nil
	}
	p, err := db.planSelect(s)
	if err != nil {
		return nil, err
	}
	p.epoch = epoch
	cp.phys.Store(p)
	return p, nil
}
