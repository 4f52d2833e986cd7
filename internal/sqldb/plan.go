package sqldb

import (
	"fmt"
	"io"
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
//  3. A physical executor: for the streamable single-table class the plan's
//     WHERE predicate and projections are compiled once into closures
//     (compile.go) and run through pull-based streams; everything else
//     lowers to the legacy streaming or materializing executors, which share
//     the same access-path chooser.
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
	// DisableStreamingExec forces joins, aggregates, ORDER BY and DISTINCT
	// back onto the legacy materializing executor — the differential-testing
	// knob that cross-checks the streaming operators (operator.go) against
	// the reference implementation.
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
// benchmarks — lowers the floor with it). Shared by the compiled
// single-table path and the operator pipeline's probe-side feed.
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
	// physCompiled: single base-table streamable SELECT with fully compiled
	// predicates/projections — the fast path.
	physCompiled physKind = iota
	// physStream: streamable, but source or expressions aren't compilable
	// (function scans, subqueries, FROM-less) — legacy two-phase stream.
	physStream
	// physOps: joins, aggregation, ORDER BY, DISTINCT over pure-builtin
	// expressions — the streaming operator pipeline (operator.go): hash or
	// nested-loop joins, incremental hash aggregation, and sort, all behind
	// the pull-based RowStream contract.
	physOps
	// physMaterialize: everything else (UDF-bearing expressions, LATERAL,
	// stddev, …) — the materializing executor.
	physMaterialize
	// physVectorized: single-table analytical statements (filtered scans,
	// hash aggregation, window functions) running over columnar batches with
	// compiled per-type kernels (vecexec.go).
	physVectorized
)

// physPlan is one compiled physical plan. It pins the table and index
// pointers and the compiled closures; the recorded catalogue epoch gates
// reuse (see cachedPlan.physFor).
type physPlan struct {
	epoch uint64
	kind  physKind
	sel   *SelectStmt

	// physCompiled fields:
	table    *Table
	alias    string
	access   accessPath
	filter   compiledExpr // full WHERE; nil when absent
	cols     []Column
	projs    []compiledExpr
	limitC   compiledExpr // nil when absent
	offsetC  compiledExpr
	parallel bool
	workers  int

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
	if !streamableSelect(s) {
		// The join/aggregate/sort class streams through the operator
		// pipeline when it qualifies; otherwise it materializes.
		if ops := db.planOperators(s); ops != nil {
			return &physPlan{kind: physOps, sel: s, ops: ops}, nil
		}
		return &physPlan{kind: physMaterialize, sel: s}, nil
	}
	if len(s.From) != 1 || s.From[0].Table == "" {
		return &physPlan{kind: physStream, sel: s}, nil
	}
	item := s.From[0]
	t, ok := db.tables.get(item.Table)
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, item.Table)
	}
	info, err := fromItemInfo(item, t.Columns)
	if err != nil {
		// Shape errors surface identically through the legacy stream.
		return &physPlan{kind: physStream, sel: s}, nil
	}
	fallback := &physPlan{kind: physStream, sel: s}
	comp := &compiler{alias: info.alias, cols: info.columns}
	plan := &physPlan{kind: physCompiled, sel: s, table: t, alias: info.alias}

	if s.Where != nil {
		f, ok := comp.compile(s.Where)
		if !ok {
			return fallback, nil
		}
		plan.filter = f
	}
	cols, exprs, err := expandItems(s.Items, []sourceInfo{info})
	if err != nil {
		return fallback, nil
	}
	plan.cols = cols
	plan.projs = make([]compiledExpr, len(exprs))
	for i, e := range exprs {
		ce, ok := comp.compile(e)
		if !ok {
			return fallback, nil
		}
		plan.projs[i] = ce
	}
	constComp := &compiler{}
	if s.Limit != nil {
		ce, ok := constComp.compile(s.Limit)
		if !ok {
			return fallback, nil
		}
		plan.limitC = ce
	}
	if s.Offset != nil {
		ce, ok := constComp.compile(s.Offset)
		if !ok {
			return fallback, nil
		}
		plan.offsetC = ce
	}

	// Access path: column aliases would rename WHERE references away from
	// the physical column names the indexes know, so alias'd scans stay
	// sequential.
	if s.Where != nil && len(item.ColAliases) == 0 {
		plan.access = chooseAccessPath(db, t, info.alias, s.Where)
	} else {
		plan.access = chooseAccessPath(db, t, info.alias, nil)
	}

	// Parallel partitioned scan: a large sequential scan with a filter and
	// no LIMIT/OFFSET (the merge is order-insensitive, so early-exit
	// accounting doesn't partition).
	if plan.access.kind == accessSeq && plan.filter != nil &&
		s.Limit == nil && s.Offset == nil {
		if workers := db.planner.parallelScanWorkers(plan.access.tableRows); workers > 0 {
			plan.parallel = true
			plan.workers = workers
		}
	}
	return plan, nil
}

// run executes a compiled plan: source resolution (snapshot or index probe)
// happens now, under the caller-held database lock; the returned stream's
// Next does only pure work over private data.
func (p *physPlan) run(cx *evalCtx) (RowStream, error) {
	env := &compEnv{params: cx.params, ctx: cx.ctx}
	offset, limit := -1, -1
	if p.offsetC != nil {
		v, err := p.offsetC(env, nil)
		if err != nil {
			return nil, err
		}
		n, err := v.AsInt()
		if err != nil {
			return nil, fmt.Errorf("sql: OFFSET: %w", err)
		}
		if n > 0 {
			offset = int(n)
		}
	}
	if p.limitC != nil {
		v, err := p.limitC(env, nil)
		if err != nil {
			return nil, err
		}
		n, err := v.AsInt()
		if err != nil {
			return nil, fmt.Errorf("sql: LIMIT: %w", err)
		}
		if n >= 0 {
			limit = int(n)
		}
	}

	var rows []Row
	if r, ok := p.access.lookupRows(cx, p.table); ok {
		rows = r
	} else {
		// Materialize the versions visible to this statement's snapshot; the
		// slice is private, so the stream needs no locks and stays pinned to
		// the snapshot while writers commit underneath it.
		rows = visibleRows(cx, p.table)
	}

	// parallel is only planned for LIMIT/OFFSET-free statements, so the
	// serial accounting below never applies to a partitioned scan.
	if p.parallel {
		ps := newParallelScanStream(env, rows, p.filter, p.projs, p.cols, p.workers)
		ps.align = pageAlignRows(cx.db, p.table.Name, len(rows))
		return ps, nil
	}
	return &compiledStream{
		env:    env,
		rows:   rows,
		filter: p.filter,
		projs:  p.projs,
		cols:   p.cols,
		offset: offset,
		limit:  limit,
	}, nil
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

// --- Compiled serial stream ---

// compiledStream is the pull-based tail of a compiled plan: per Next it
// filters with the compiled predicate, skips OFFSET, projects with the
// compiled expressions, and counts down LIMIT.
type compiledStream struct {
	env    *compEnv
	rows   []Row
	pos    int
	filter compiledExpr
	projs  []compiledExpr
	cols   []Column
	offset int // rows still to skip; <= 0 none
	limit  int // rows still to emit; < 0 unlimited
	n      int // rows pulled, for cancellation polling
}

func (cs *compiledStream) Columns() []Column { return cs.cols }

func (cs *compiledStream) Next() (Row, error) {
	if cs.limit == 0 {
		return nil, io.EOF
	}
	for {
		if cs.env.ctx != nil && cs.n&255 == 0 {
			if err := cs.env.ctx.Err(); err != nil {
				return nil, err
			}
		}
		cs.n++
		if cs.pos >= len(cs.rows) {
			return nil, io.EOF
		}
		in := cs.rows[cs.pos]
		cs.pos++
		if cs.filter != nil {
			v, err := cs.filter(cs.env, in)
			if err != nil {
				return nil, err
			}
			if v.IsNull() {
				continue
			}
			b, err := v.AsBool()
			if err != nil {
				return nil, err
			}
			if !b {
				continue
			}
		}
		if cs.offset > 0 {
			cs.offset--
			continue
		}
		out := make(Row, len(cs.projs))
		for i, proj := range cs.projs {
			v, err := proj(cs.env, in)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		if cs.limit > 0 {
			cs.limit--
		}
		return out, nil
	}
}

func (cs *compiledStream) Close() error {
	cs.pos = len(cs.rows)
	cs.limit = 0
	return nil
}
