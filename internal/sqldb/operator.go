package sqldb

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"

	"repro/internal/variant"
)

// Operator plans. Every SELECT the vectorized executor does not take lowers
// here to a pipeline of pull-based operators behind the RowStream contract:
//
//   scan leaves (with WHERE conjuncts pushed below joins and access paths
//   from the shared cost model; subqueries run their own plan)
//     → build/probe hash joins for equi-join conjuncts (the bottom join
//       probes the inner table's index instead when it has one on a key
//       column and the outer input turns out small; see joinLookup),
//       lateral items (function calls and LATERAL subqueries after the
//       first item: run once per left row at open, see openLateral),
//       streaming nested-loop joins otherwise (chosen by cost from stats.go
//       estimates)
//       → residual WHERE filter
//         → window stage (windowStream) when the SELECT list has windows
//           → incremental hash aggregation (COUNT/SUM/AVG/MIN/MAX/STDDEV
//             fed row-at-a-time) or streaming projection
//             → sort (skipped when a btree index already proves the order)
//               → distinct → limit/offset
//
// Expressions evaluated above the scans — residual WHERE, join conditions
// and keys, group keys, aggregate arguments, window inputs, projections,
// ORDER BY keys, HAVING and grouped SELECT lists — compile against the joined
// row layout (compile.go): once per plan when every source's shape is known
// at plan time, at open when a function scan or subquery fixes it there, or
// when the plan runs inside a lateral item's enclosing row. Lateral function
// arguments compile against the left layout; a LATERAL subquery's
// expressions see it as an enclosing level.
//
// Locking: open() resolves every source under the caller-held database lock
// (table snapshots, index probes, FROM-clause UDF calls — lateral ones
// included — and subqueries); the returned stream's Next does only pure work
// over private data, so LIMIT early-exits, context cancellation applies
// between rows, and no lock is held while the caller iterates. A plan whose
// expressions outside FROM call a UDF (opPlan.udf) is drained by open
// instead, so no UDF is ever called from Next. Evaluation follows the order
// docs/sql-reference.md states, which the reference executor
// (reference_test.go) implements and the differential suites hold the
// pipeline to.

// opPlan is the compiled streaming pipeline for one SELECT.
type opPlan struct {
	sel    *SelectStmt
	leaves []*opSource   // one per FROM item, in order
	steps  []*opJoinStep // left-deep join chain; len(leaves)-1 entries
	// where is the residual WHERE after pushdown (nil when fully pushed).
	where Expr
	// grouped marks an aggregation stage; specs are the collected aggregate
	// calls its incremental state feeds.
	grouped bool
	specs   []*aggSpec
	// window is the window stage, for a SELECT with window calls.
	window *windowStage
	// udf marks a statement whose expressions outside FROM call a UDF: open
	// drains it, and nothing may change how often or in which order those
	// calls happen — no ordered scan, no prefilter past a UDF
	// conjunct, no UDF-bearing join key.
	udf bool
	// interp marks a plan over duplicate source aliases: side attribution
	// cannot be trusted, so nothing is pushed down or hashed.
	interp bool
	// ordered is set when ORDER BY is satisfied by walking a btree index in
	// key order instead of sorting (single-table plans only).
	ordered *orderedScanInfo
	// known marks a plan whose every source shape was fixed at plan time:
	// tail, the leaves' pushedC and the steps' residualC were compiled then.
	// Otherwise — or when the plan runs inside an enclosing row — open
	// compiles them against the shapes its sources report (reuses).
	known bool
	tail  tailExprs
	// limitC and offsetC are LIMIT and OFFSET, which see no row.
	limitC, offsetC compiledExpr
}

// tailExprs are the expressions the pipeline evaluates above its scans,
// compiled against the joined row layout.
type tailExprs struct {
	where   compiledExpr
	groupBy []compiledExpr
	aggArgs []compiledExpr // per spec; nil for the calls never fed
	// cols and projs are the SELECT list after the window stage; a grouped
	// plan's evaluate over finished groups (compiler.group), as does having.
	// sortKeys are an ungrouped plan's ORDER BY items as expressions over
	// the input row (see applyOrderBy). projs is nil when the list does not
	// expand, which open reports.
	cols     []Column
	projs    []compiledExpr
	having   compiledExpr
	sortKeys []compiledExpr
}

// compileTail compiles the plan's tail against the joined layout sources
// within the enclosing levels.
func (p *opPlan) compileTail(sources []sourceInfo, levels [][]sourceInfo) tailExprs {
	s := p.sel
	t := tailExprs{where: compileOver(p.where, sources, levels), groupBy: compileList(s.GroupBy, sources, levels),
		aggArgs: make([]compiledExpr, len(p.specs))}
	for i, sp := range p.specs {
		if sp.err == nil && !sp.fn.Star {
			t.aggArgs[i] = compileOver(sp.fn.Args[0], sources, levels)
		}
	}
	items, layout := s.Items, sources
	if w := p.window; w != nil && len(w.calls) > 0 {
		items, layout = w.items, append(sources[:len(sources):len(sources)], w.source())
	}
	cols, exprs, err := expandItems(items, layout)
	if err != nil {
		return t
	}
	t.cols = cols
	if p.grouped {
		t.having, t.projs = compileGroupProj(s, p.specs, exprs, sources, levels)
		return t
	}
	t.projs = compileList(exprs, layout, levels)
	for _, o := range s.OrderBy {
		t.sortKeys = append(t.sortKeys, compileOver(o.Expr, layout, levels))
	}
	return t
}

// reuses reports whether open may use what planOperators compiled: every
// shape was known then and no row encloses this run.
func (p *opPlan) reuses(tailCx *evalCtx) bool {
	return p.known && len(tailCx.levels) == 0
}

// compiled returns e's compiled form over sources: the one made at plan time
// when the plan reuses it, compiled now otherwise.
func (p *opPlan) compiled(tailCx *evalCtx, planned compiledExpr, e Expr, sources []sourceInfo) compiledExpr {
	if p.reuses(tailCx) {
		return planned
	}
	return compileOver(e, sources, tailCx.levels)
}

// opSource is one FROM item leaf.
type opSource struct {
	item  FromItem
	alias string
	// table is resolved at plan time for base tables; nil for function
	// scans and subqueries, whose shape is only known at open time. sub is a
	// subquery's own plan, held here so the epoch check covers it.
	table  *Table
	sub    *opPlan
	access accessPath
	// pushed is the AND of WHERE conjuncts that reference only this source
	// and sit on a non-nullable side of every LEFT join; pushedC is its
	// compiled form when the source is a base table. lenient
	// marks it as a prefilter under a join: rows are dropped only when the
	// predicate cleanly evaluates to not-true, and evaluation errors keep
	// the row — the full WHERE above the join surfaces the error if and
	// only if the row survives the join, exactly as the executor would.
	pushed  Expr
	pushedC compiledExpr
	lenient bool
	// batchTail marks a single function-scan leaf whose statement tail may
	// drain the source's columnar batches (newVecFuncScanStream): open then
	// leaves a BatchSource unfiltered for the tail to take over.
	batchTail bool
	// lateral marks a function item after the first, or a LATERAL subquery
	// there: it runs once per left row, with that row in scope (openLateral).
	lateral bool
	// est is the planner's output-cardinality estimate after the pushed
	// filter, feeding the join-strategy cost model.
	est float64
}

// opJoinStep joins the accumulated left pipeline with one more leaf.
type opJoinStep struct {
	kind JoinKind
	// hash selects the build/probe strategy over keysL/keysR (equi-key
	// pairs, left and right expressions aligned); false means streaming
	// nested loop. residual is the remainder of the ON condition (the whole
	// ON for nested loop), nil when none.
	hash         bool
	keysL, keysR []Expr
	residual     Expr
	residualC    compiledExpr // over the step's joined layout, when opPlan.known
	// lookup is set on a hash step whose inner table can also be reached
	// through an index; open picks between the two (see joinLookup).
	lookup *joinLookup
	est    float64 // estimated output rows, for the next step's costing
}

// joinLookup is the plan-time half of an index lookup join: the bottom
// step's third way, beside hash buckets and the nested loop's full slice, to
// find an outer row's join candidates — read them from an ordered index the
// inner table already has on one equi-key column, instead of hash-building
// the whole inner table on every execution. It only accompanies a hash plan
// (which stays the fallback, see openIndexedJoin) and needs:
//
//   - both leaves plain base tables without column aliases;
//   - every key pair two plain column references whose declared types share
//     a non-variant hashTypeGroup: no key evaluation or comparison can error,
//     so none of the hash join's cross-kind machinery is needed;
//   - an ORDERED index on one inner key column. Its search is
//     variant.Compare — the nested loop's own equality, lossy integers
//     included; hash indexes are left to the hash join.
//
// The plan pins the *index like accessPath does; the catalogue epoch gates
// reuse.
type joinLookup struct {
	ix       *index
	outerCol int // position of the probing key in the outer table's rows
	pair     int // which keysL/keysR pair the index serves
	// residual is the ON condition without the served conjunct, in its
	// original order: the other key pairs, then the hash plan's residual.
	residual  Expr
	residualC compiledExpr // when opPlan.known
}

// orderedScanInfo records an ORDER BY satisfied by index order.
type orderedScanInfo struct {
	ix   *index
	col  int // table column position
	desc bool
}

const (
	// hashJoinBuildCost is the fixed overhead charged to a hash join so
	// tiny inputs keep the allocation-free nested loop.
	hashJoinBuildCost = 8
	// lookupJoinRatio decides, at open, between probing the inner table's
	// index once per outer row and hash-building the inner table: lookup
	// when outer rows × ratio ≤ inner row versions — the outer's real count,
	// which open has in hand, not the planner's default selectivities (an
	// order of magnitude off for a range-filtered outer). Measured on the
	// traj_analytics join (674 outer rows onto 16 176): 740 ns per hash-built
	// inner row, ~0.35 µs per probe with its visibility check — parity near
	// 2; 8 leaves a margin for duplicate keys and keeps the probing under
	// the shared lock below the inner-table copy it replaces.
	lookupJoinRatio = 8
	// defaultRelationRows estimates sources whose cardinality the planner
	// cannot see (function scans, subqueries).
	defaultRelationRows = 1000
)

// sourceMeta is the plan-time shape of one FROM item: the alias it binds
// and, for base tables, the table and its column list (post column-alias
// renames). known=false (function scans, subqueries) limits what the planner
// may attribute to the source, never what executes.
type sourceMeta struct {
	alias string
	cols  []Column
	known bool
	table *Table
}

// info is the shape a known source binds at open (fromItemInfo's result).
func (m sourceMeta) info() sourceInfo {
	return sourceInfo{alias: m.alias, columns: m.cols, width: len(m.cols)}
}

// isLateral reports whether FROM item i runs once per left row: a function
// after the first item, or a LATERAL subquery there. A LATERAL table reads
// the same rows for every left row, so it joins like any table.
func isLateral(i int, item FromItem) bool {
	return i > 0 && (item.Func != nil || (item.Sub != nil && item.Lateral))
}

// planOperators builds the operator pipeline for s. Caller holds the
// database lock (either mode).
func (db *DB) planOperators(cat *catalogValue, s *SelectStmt) (*opPlan, error) {
	metas := make([]sourceMeta, len(s.From))
	for i, item := range s.From {
		m, err := db.sourceMetaFor(cat, item)
		if err != nil {
			return nil, err
		}
		metas[i] = m
	}
	grouped := len(s.GroupBy) > 0 || selectHasAggregates(s)
	plan := &opPlan{sel: s, grouped: grouped, udf: !selectPureBuiltin(s),
		limitC: compileConst(s.Limit), offsetC: compileConst(s.Offset)}
	if grouped {
		plan.specs = collectAggSpecs(s)
	}
	if selectHasWindows(s) {
		plan.window = newWindowStage(s, grouped)
	}
	// Duplicate aliases make qualified references ambiguous at runtime, so
	// side attribution cannot be trusted.
	if len(metas) > 1 {
		seen := make(map[string]bool, len(metas))
		for _, m := range metas {
			key := strings.ToLower(m.alias)
			plan.interp = plan.interp || m.alias == "" || seen[key]
			seen[key] = true
		}
	}
	if len(s.From) == 0 {
		plan.where = s.Where // FROM-less: one empty row, filtered above
		plan.known, plan.tail = true, plan.compileTail(nil, nil)
		return plan, nil
	}

	// WHERE handling. A single-source plan evaluates the full WHERE at the
	// scan — every scanned row is a result candidate, so the semantics
	// (including per-row evaluation errors) are exactly the executor's. A
	// join plan keeps the FULL original WHERE as the residual filter above
	// the join chain and pushes attributable conjuncts down only as
	// lenient prefilters (see opSource.lenient): the executor never
	// evaluates WHERE on source rows the join eliminates, so a pushed
	// conjunct must not surface an error — or drop a row — the residual
	// evaluation wouldn't. Conjuncts never push below the nullable side of
	// a LEFT join, nor onto an item left of a lateral one: the executor runs
	// the lateral item for every left row before WHERE, and a prefilter
	// would skip those calls — and their errors. For the same reason no
	// conjunct after one that calls a UDF is pushed, and none at all when an
	// ON calls one: a dropped row would skip calls the executor makes.
	lastLateral := 0
	onUDF := false
	for i, item := range s.From {
		if isLateral(i, item) {
			lastLateral = i
		}
		onUDF = onUDF || exprCallsUDF(item.On)
	}
	pushed := make([][]Expr, len(s.From))
	if s.Where != nil {
		if len(s.From) == 1 {
			pushed[0] = []Expr{s.Where}
		} else {
			plan.where = s.Where
			for _, conj := range splitConjuncts(s.Where, nil) {
				if plan.interp || onUDF || exprCallsUDF(conj) {
					break
				}
				si := exprSource(conj, metas)
				if si >= lastLateral && !(si > 0 && s.From[si].Join == JoinLeft) {
					pushed[si] = append(pushed[si], conj)
				}
			}
		}
	}

	// Leaves: access paths from the shared cost model over the pushed
	// predicate, compiled filters for base tables, subquery plans.
	plan.leaves = make([]*opSource, len(s.From))
	plan.known = true
	for i, item := range s.From {
		leaf := &opSource{item: item, alias: metas[i].alias, est: defaultRelationRows, lenient: len(s.From) > 1,
			lateral: isLateral(i, item)}
		leaf.pushed = conjAnd(pushed[i])
		plan.known = plan.known && metas[i].known
		switch {
		case item.Table != "":
			t := metas[i].table
			leaf.table = t
			// Column aliases rename WHERE references away from the names
			// the indexes know (same rule as the vectorized planner).
			if leaf.pushed != nil && len(item.ColAliases) == 0 {
				leaf.access = chooseAccessPath(db, t, metas[i].alias, leaf.pushed)
			} else {
				leaf.access = chooseAccessPath(db, t, metas[i].alias, nil)
			}
			leaf.est = leaf.access.estRows
			leaf.pushedC = compileOver(leaf.pushed, []sourceInfo{metas[i].info()}, nil)
		case item.Sub != nil:
			sub, err := db.planOperators(cat, item.Sub)
			if err != nil {
				return nil, err
			}
			leaf.sub = sub
		}
		plan.leaves[i] = leaf
	}

	// Join strategy per step, costed left-deep. A lateral item's candidates
	// come from its own runs, never from a hash build.
	leftEst := plan.leaves[0].est
	plan.steps = make([]*opJoinStep, 0, len(s.From)-1)
	for i := 1; i < len(s.From); i++ {
		item := s.From[i]
		step := &opJoinStep{kind: item.Join, residual: item.On}
		rightEst := plan.leaves[i].est
		if keysL, keysR, rest := extractEquiKeys(item.On, metas, i); len(keysL) > 0 &&
			!plan.interp && !plan.leaves[i].lateral && !db.planner.disableHashJoin {
			nlCost := leftEst * rightEst
			hashCost := leftEst + rightEst + hashJoinBuildCost
			if hashCost < nlCost {
				step.hash = true
				step.keysL, step.keysR = keysL, keysR
				step.residual = rest
			}
		}
		step.est = joinEstimate(leftEst, rightEst, step, plan.leaves[i])
		plan.steps = append(plan.steps, step)
		leftEst = step.est
	}

	// disableIndexScan turns the lookup off like any other index access.
	if len(plan.steps) > 0 && plan.steps[0].hash && !db.planner.disableIndexScan {
		plan.steps[0].lookup = planJoinLookup(plan, metas)
	}

	// ORDER BY satisfied from a btree index: single-table, non-aggregated,
	// window- and UDF-free plans whose single sort key is provably the scan
	// column's value.
	if len(plan.leaves) == 1 && !grouped && plan.window == nil && !plan.udf && len(s.OrderBy) == 1 {
		plan.ordered = db.chooseOrderedScan(s, plan.leaves[0], metas[0])
	}

	// Every shape known: compile what runs above the scans once, here.
	if plan.known {
		layout := make([]sourceInfo, len(metas))
		for i, m := range metas {
			layout[i] = m.info()
		}
		plan.tail = plan.compileTail(layout, nil)
		for i, step := range plan.steps {
			step.residualC = compileOver(step.residual, layout[:i+2], nil)
			if lk := step.lookup; lk != nil {
				lk.residualC = compileOver(lk.residual, layout[:2], nil)
			}
		}
	} else if leaf := plan.leaves[0]; !grouped && (len(s.OrderBy) == 0 || plan.ordered != nil) &&
		len(plan.leaves) == 1 && leaf.item.Func != nil && s.Where != nil && !s.Distinct &&
		plan.window == nil && !plan.udf {
		leaf.batchTail = !db.planner.disableVectorized
	}
	return plan, nil
}

// sourceMetaFor computes the plan-time shape of one FROM item; a missing
// table is a planning error.
func (db *DB) sourceMetaFor(cat *catalogValue, item FromItem) (sourceMeta, error) {
	alias := item.Alias
	switch {
	case item.Table != "":
		if alias == "" {
			alias = strings.ToLower(item.Table)
		}
		t, ok := cat.get(item.Table)
		if !ok {
			return sourceMeta{}, fmt.Errorf("%w: %q", ErrNoSuchTable, item.Table)
		}
		cols := t.Columns
		if len(item.ColAliases) > 0 {
			if len(item.ColAliases) > len(cols) {
				return sourceMeta{alias: alias, table: t}, nil // open surfaces the alias error
			}
			cols = append([]Column(nil), cols...)
			for i, a := range item.ColAliases {
				cols[i].Name = a
			}
		}
		return sourceMeta{alias: alias, cols: cols, known: true, table: t}, nil
	case item.Func != nil:
		if alias == "" {
			alias = strings.ToLower(item.Func.Name)
		}
		return sourceMeta{alias: alias}, nil
	default:
		return sourceMeta{alias: alias}, nil
	}
}

// selectPureBuiltin reports whether no expression of s outside the FROM
// sources calls a UDF (exprCallsUDF). FROM-clause UDFs and subquery
// internals are exempt: every plan runs them under the lock at open.
func selectPureBuiltin(s *SelectStmt) bool {
	exprs := []Expr{s.Where, s.Having, s.Limit, s.Offset}
	for _, it := range s.Items {
		exprs = append(exprs, it.Expr)
	}
	for _, f := range s.From {
		exprs = append(exprs, f.On)
	}
	exprs = append(exprs, s.GroupBy...)
	for _, o := range s.OrderBy {
		exprs = append(exprs, o.Expr)
	}
	for _, e := range exprs {
		if exprCallsUDF(e) {
			return false
		}
	}
	return true
}

// exprCallsUDF reports whether e calls a function that is neither a builtin
// scalar, an aggregate, nor a window function under OVER: a registered UDF
// (or an unknown name, which fails when called).
func exprCallsUDF(e Expr) bool {
	calls := false
	walkExpr(e, func(x Expr) bool {
		if f, ok := x.(*FuncExpr); ok && !calls {
			name := strings.ToLower(f.Name)
			_, builtin := builtinScalars[name]
			calls = !builtin && !isAggregateName(name) && !(f.Over != nil && isWindowOnlyName(name))
		}
		return !calls
	})
	return calls
}

// walkColumnRefs visits every column reference in e.
func walkColumnRefs(e Expr, fn func(*ColumnRef)) {
	walkExpr(e, func(x Expr) bool {
		if ref, ok := x.(*ColumnRef); ok {
			fn(ref)
		}
		return true
	})
}

// exprSource attributes e to the single FROM item all its column references
// resolve to: -1 when it references no columns, spans items, or cannot be
// attributed safely (unknown-shape sources make unqualified names
// unresolvable; unattributed conjuncts simply stay above the join, where
// evaluation against the joined row reproduces resolution errors and
// ambiguity).
func exprSource(e Expr, metas []sourceMeta) int {
	allKnown := true
	for _, m := range metas {
		if !m.known {
			allKnown = false
		}
	}
	src := -1
	ok := true
	walkColumnRefs(e, func(ref *ColumnRef) {
		if !ok {
			return
		}
		idx := -1
		if ref.Table != "" {
			for i, m := range metas {
				if strings.EqualFold(m.alias, ref.Table) {
					idx = i
					break
				}
			}
		} else {
			if !allKnown {
				ok = false
				return
			}
			matches := 0
			for i, m := range metas {
				for _, c := range m.cols {
					if strings.EqualFold(c.Name, ref.Name) {
						idx = i
						matches++
					}
				}
			}
			if matches != 1 {
				ok = false
				return
			}
		}
		if idx < 0 || (src >= 0 && src != idx) {
			ok = false
			return
		}
		src = idx
	})
	if !ok {
		return -1
	}
	return src
}

// hashTypeGroup buckets declared column types by hash-key compatibility:
// values from two columns in the same group match under hashKey exactly when
// variant.Compare calls them equal.
func hashTypeGroup(typ string) string {
	switch typ {
	case "integer", "float":
		return "num"
	case "text", "boolean", "timestamp":
		return typ
	default:
		return "" // variant: value kinds unknown until runtime
	}
}

// refTypeGroup resolves a key expression's hash-type group: plain column
// references carry their declared type, anything else is unknown.
func refTypeGroup(e Expr, metas []sourceMeta) string {
	ref, ok := e.(*ColumnRef)
	if !ok {
		return ""
	}
	for _, m := range metas {
		if !m.known {
			continue
		}
		if ref.Table != "" && !strings.EqualFold(m.alias, ref.Table) {
			continue
		}
		for _, c := range m.cols {
			if strings.EqualFold(c.Name, ref.Name) {
				return hashTypeGroup(c.Type)
			}
		}
	}
	return ""
}

// extractEquiKeys splits an ON condition into hash-join key pairs (left
// expression, right expression) and the residual condition. rightIdx is the
// FROM position of the join's right input; the left input is everything
// before it. Only the LEADING run of hashable equi-conjuncts becomes keys —
// extraction stops at the first conjunct that is non-equi, unattributable,
// calls a UDF, or has provably incompatible declared types. That prefix rule
// is what makes hashing observationally identical to the nested loop: the
// executor evaluates the ON with AND short-circuiting, so for a pair whose
// leading keys don't all match it never reaches the later conjuncts — and
// neither does the hash join, which evaluates the residual only on
// key-matched candidates. A residual conjunct placed BEFORE an equality
// (including an integer = text comparison that must error on every pair)
// therefore keeps nested-loop evaluation, and a UDF in a key would be called
// once per input row instead of once per pair.
func extractEquiKeys(on Expr, metas []sourceMeta, rightIdx int) (keysL, keysR []Expr, residual Expr) {
	if on == nil {
		return nil, nil, nil
	}
	conjs := splitConjuncts(on, nil)
	split := 0
	for _, conj := range conjs {
		b, isEq := conj.(*BinaryExpr)
		if !isEq || b.Op != "=" || exprCallsUDF(conj) {
			break
		}
		ls, rs := exprSource(b.L, metas), exprSource(b.R, metas)
		var le, re Expr
		switch {
		case ls >= 0 && ls < rightIdx && rs == rightIdx:
			le, re = b.L, b.R
		case rs >= 0 && rs < rightIdx && ls == rightIdx:
			le, re = b.R, b.L
		default:
			le = nil
		}
		if le == nil {
			break
		}
		lg, rg := refTypeGroup(le, metas), refTypeGroup(re, metas)
		if lg != "" && rg != "" && lg != rg {
			break
		}
		keysL = append(keysL, le)
		keysR = append(keysR, re)
		split++
	}
	if split == 0 {
		return nil, nil, on
	}
	return keysL, keysR, conjAnd(conjs[split:])
}

// planJoinLookup checks the bottom hash step against joinLookup's conditions
// and picks the first key pair the inner table has an ordered index for.
func planJoinLookup(plan *opPlan, metas []sourceMeta) *joinLookup {
	step, outer, inner := plan.steps[0], plan.leaves[0], plan.leaves[1]
	if outer.table == nil || len(outer.item.ColAliases) > 0 ||
		inner.table == nil || len(inner.item.ColAliases) > 0 {
		return nil
	}
	var lk *joinLookup
	for i := range step.keysL {
		g := refTypeGroup(step.keysL[i], metas)
		if g == "" || g != refTypeGroup(step.keysR[i], metas) {
			return nil
		}
		if lk != nil {
			continue
		}
		// A typed group means both sides are existing columns.
		l, r := step.keysL[i].(*ColumnRef), step.keysR[i].(*ColumnRef)
		if ix := inner.table.findIndex(strings.ToLower(r.Name), true); ix != nil {
			lk = &joinLookup{ix: ix, outerCol: outer.table.columnIndex(l.Name), pair: i}
		}
	}
	if lk != nil {
		// The keys are the ON's leading conjuncts, one each, in order.
		conjs := splitConjuncts(inner.item.On, nil)
		lk.residual = conjAnd(append(conjs[:lk.pair:lk.pair], conjs[lk.pair+1:]...))
	}
	return lk
}

// conjAnd rebuilds a left-associated AND chain from conjuncts (nil for an
// empty list), preserving their original evaluation order.
func conjAnd(conjs []Expr) Expr {
	if len(conjs) == 0 {
		return nil
	}
	e := conjs[0]
	for _, c := range conjs[1:] {
		e = &BinaryExpr{Op: "and", L: e, R: c}
	}
	return e
}

// joinEstimate guesses a join step's output cardinality: equi-joins divide
// the cross product by the larger key cardinality when statistics know it,
// non-equi joins keep the cross product.
func joinEstimate(leftEst, rightEst float64, step *opJoinStep, right *opSource) float64 {
	if !step.hash && len(step.keysL) == 0 {
		if step.residual == nil {
			return leftEst * rightEst
		}
		return math.Max(leftEst*rightEst/3, 1)
	}
	d := math.Max(math.Min(leftEst, rightEst), 1)
	if t := right.table; t != nil {
		st := t.stats.Load()
		for _, re := range step.keysR {
			if st == nil {
				break
			}
			if ref, isRef := re.(*ColumnRef); isRef {
				if ci := t.columnIndex(ref.Name); ci >= 0 {
					if dd := st.distinctFor(ci); dd > 0 {
						d = math.Max(d, float64(dd))
					}
				}
			}
		}
	}
	return math.Max(leftEst*rightEst/d, 1)
}

// chooseOrderedScan decides whether the single ORDER BY key is provably the
// scanned table column a btree index already orders; if so the sort
// disappears and the scan walks the index (NULLs first ascending, last
// descending, table order within equal keys — exactly the stable sort's
// output).
func (db *DB) chooseOrderedScan(s *SelectStmt, leaf *opSource, meta sourceMeta) *orderedScanInfo {
	t := leaf.table
	if t == nil || len(leaf.item.ColAliases) > 0 {
		return nil
	}
	cols, exprs, err := expandItems(s.Items, []sourceInfo{meta.info()})
	if err != nil {
		return nil
	}
	key := s.OrderBy[0]
	// Mirror applyOrderBy's resolution: ordinal → output column → input
	// expression; the key qualifies when the value sequence it produces is
	// exactly the table column's values.
	target := key.Expr
	if lit, ok := key.Expr.(*Literal); ok {
		if lit.Value.Kind() != variant.Int {
			return nil
		}
		idx := int(lit.Value.Int())
		if idx < 1 || idx > len(exprs) {
			return nil
		}
		target = exprs[idx-1]
	} else if ref, ok := key.Expr.(*ColumnRef); ok && ref.Table == "" {
		for i, c := range cols {
			if strings.EqualFold(c.Name, ref.Name) {
				target = exprs[i]
				break
			}
		}
	}
	ref, ok := target.(*ColumnRef)
	if !ok {
		return nil
	}
	if ref.Table != "" && !strings.EqualFold(ref.Table, meta.alias) {
		return nil
	}
	ci := -1
	for i, c := range meta.cols {
		if strings.EqualFold(c.Name, ref.Name) {
			ci = i
			break
		}
	}
	if ci < 0 {
		return nil
	}
	ix := t.findIndex(strings.ToLower(t.Columns[ci].Name), true)
	if ix == nil {
		return nil
	}
	// Cost: a selective index probe plus an in-memory sort can beat the
	// full in-order walk — unless a LIMIT rewards early exit.
	if leaf.access.kind != accessSeq && s.Limit == nil {
		probeSort := leaf.access.estRows * (1 + math.Log2(leaf.access.estRows+2))
		if probeSort+hashJoinBuildCost < float64(leaf.access.tableRows) {
			return nil
		}
	}
	return &orderedScanInfo{ix: ix, col: ci, desc: key.Desc}
}

// --- Opening: plan → streams, under the caller-held lock ---

// open resolves every source and assembles the operator pipeline, whose
// tail evaluates in tailCx: the context of a subquery's run, which carries
// the rows enclosing it (opSource.openItem), or nil at top level. It must
// run under the database lock; the returned stream's Next is pure.
func (p *opPlan) open(cx, tailCx *evalCtx) (RowStream, error) {
	if tailCx == nil {
		// The tail must not inherit transaction bookkeeping; the UDF calls it
		// makes run below, under the held lock.
		tailCx = &evalCtx{db: cx.db, params: cx.params, ctx: cx.ctx, tx: cx.tx}
	}
	st, err := p.openPipeline(cx, tailCx)
	if err != nil || !p.udf {
		return st, err
	}
	// Every UDF call outside FROM happens now, under the held lock.
	rs, err := drainStreamCtx(cx, st)
	if err != nil {
		return nil, err
	}
	return rs.Stream(), nil
}

func (p *opPlan) openPipeline(cx, tailCx *evalCtx) (RowStream, error) {
	s := p.sel

	// Leaves open in FROM order, each joined onto the chain as it opens;
	// closing the chain's head closes everything opened so far.
	var cur RowStream
	var curSources []sourceInfo
	next := 1
	var err error
	switch {
	case len(p.leaves) == 0:
		cur = &sliceStream{rows: []Row{{}}}
	case len(p.steps) > 0 && p.steps[0].lookup != nil:
		cur, curSources, err = p.openIndexedJoin(cx, tailCx)
		next = 2
	default:
		var info sourceInfo
		cur, info, err = p.leaves[0].open(cx, tailCx, p.ordered)
		curSources = []sourceInfo{info}
	}
	if err != nil {
		return nil, err
	}
	for i := next; i < len(p.leaves); i++ {
		step := p.steps[i-1]
		if p.leaves[i].lateral {
			if cur, curSources, err = p.leaves[i].openLateral(cx, tailCx, step, cur, curSources); err != nil {
				return nil, err
			}
			continue
		}
		right, rightInfo, err := p.leaves[i].open(cx, tailCx, nil)
		if err != nil {
			cur.Close()
			return nil, err
		}
		all := append(curSources[:len(curSources):len(curSources)], rightInfo)
		cur = newJoinStream(tailCx, step, cur, right, curSources, rightInfo, all,
			p.compiled(tailCx, step.residualC, step.residual, all))
		curSources = all
	}

	tail := p.tail
	if !p.reuses(tailCx) {
		tail = p.compileTail(curSources, tailCx.levels)
	}
	if p.where != nil {
		cur = &opFilterStream{rowPred: newRowPred(tailCx, tail.where, false), src: cur}
	}
	// LIMIT/OFFSET, then the SELECT list's expansion, before any row is
	// evaluated.
	offset, limit, err := evalLimits(cx, p.offsetC, p.limitC)
	if err != nil {
		cur.Close()
		return nil, err
	}
	items := s.Items
	if w := p.window; w != nil {
		cur = &windowStream{cx: tailCx, src: cur, sources: curSources, stage: w}
		if len(w.calls) > 0 {
			curSources = append(curSources[:len(curSources):len(curSources)], w.source())
			items = w.items
		}
	}
	if tail.projs == nil {
		_, _, err := expandItems(items, curSources)
		cur.Close()
		return nil, err
	}
	if _, ok := cur.(BatchSource); ok && len(p.leaves) == 1 && p.leaves[0].batchTail {
		// The function scan's batches feed the vectorized tail when its
		// filter and projections vec-compile, skipping per-cell boxing of
		// dropped lanes; otherwise the leaf's filter goes on now.
		_, exprs, _ := expandItems(items, curSources)
		if vs := newVecFuncScanStream(tailCx, cur, curSources[0], s, tail.cols, exprs, offset, limit); vs != nil {
			return vs, nil
		}
		cur = &opFilterStream{rowPred: p.leaves[0].filter(tailCx, curSources[0]), src: cur}
	}
	// The rows OFFSET skips never reach the result: a plain SELECT drops
	// them before projecting, as the vectorized scan does.
	if offset > 0 && !p.grouped && !s.Distinct && (len(s.OrderBy) == 0 || p.ordered != nil) {
		cur = &limitStream{src: cur, offset: offset, limit: -1}
		offset = 0
	}
	if p.grouped {
		cur = newHashAggStream(tailCx, cur, p.specs, tail)
		if len(s.OrderBy) > 0 {
			cur = &sortStream{cx: tailCx, src: cur, sel: s, cols: tail.cols}
		}
	} else if len(s.OrderBy) > 0 && p.ordered == nil {
		cur = &projectSortStream{cx: tailCx, src: cur, sel: s, cols: tail.cols, projs: tail.projs, keys: tail.sortKeys}
	} else {
		cur = &projectStream{cx: tailCx, src: cur, cols: tail.cols, projs: tail.projs}
	}

	if s.Distinct {
		cur = &distinctStream{src: cur, seen: make(map[string]bool)}
	}

	if s.Limit != nil || s.Offset != nil {
		cur = &limitStream{src: cur, offset: offset, limit: limit}
	}
	return cur, nil
}

// open resolves one leaf under the held lock: snapshot / index probe /
// ordered index walk for tables, UDF call for function scans, the drained
// plan for subqueries. The pushed filter wraps the source.
func (src *opSource) open(cx *evalCtx, tailCx *evalCtx, ordered *orderedScanInfo) (RowStream, sourceInfo, error) {
	item := src.item
	var base RowStream
	var info sourceInfo
	switch {
	case src.table != nil:
		t := src.table
		var err error
		info, err = fromItemInfo(item, t.Columns)
		if err != nil {
			return nil, sourceInfo{}, err
		}
		var rows []Row
		if ordered != nil {
			rows = orderedSnapshot(cx, t, ordered)
		} else {
			rows = src.tableRows(cx)
		}
		base = &sliceStream{cols: info.columns, rows: rows}
	case item.Func != nil:
		// The first FROM item sees no sibling columns: only the enclosing
		// levels, as in the executor.
		st, err := src.openItem(cx, tailCx, nil, nil, nil)
		if err != nil {
			return nil, sourceInfo{}, err
		}
		info, err = fromItemInfo(item, st.Columns())
		if err != nil {
			st.Close()
			return nil, sourceInfo{}, err
		}
		if _, ok := st.(BatchSource); ok && src.batchTail {
			return st, info, nil // opPlan.open decides how to filter it
		}
		base = st
	default: // subquery, drained once under the lock
		st, err := src.openItem(cx, tailCx, nil, nil, nil)
		if err != nil {
			return nil, sourceInfo{}, err
		}
		rs, err := drainStreamCtx(cx, st)
		if err != nil {
			return nil, sourceInfo{}, err
		}
		if info, err = fromItemInfo(item, rs.Columns); err != nil {
			return nil, sourceInfo{}, err
		}
		base = rs.Stream()
	}
	if src.pushed != nil {
		base = &opFilterStream{rowPred: src.filter(tailCx, info), src: base}
	}
	return base, info, nil
}

// openItem runs a function or subquery leaf for one left row l of layout
// left (both nil for a first or non-lateral item) within tailCx's enclosing
// levels: the function called with its arguments (args, compiled against
// left; compiled now when nil) evaluated on l, or the subquery's plan opened
// with l as its nearest enclosing row.
func (src *opSource) openItem(cx, tailCx *evalCtx, left []sourceInfo, l Row, args []compiledExpr) (RowStream, error) {
	if src.sub != nil {
		if left != nil {
			tailCx = &evalCtx{db: tailCx.db, params: tailCx.params, ctx: tailCx.ctx, tx: tailCx.tx,
				outer: append([]Row{l}, tailCx.outer...), levels: append([][]sourceInfo{left}, tailCx.levels...)}
		}
		return src.sub.open(cx, tailCx)
	}
	if args == nil {
		args = compileList(src.item.Func.Args, left, tailCx.levels)
	}
	vals, err := evalList(tailCx, l, args)
	if err != nil {
		return nil, err
	}
	return cx.db.callTableFunc(cx, src.item.Func.Name, vals)
}

// tableRows resolves a base-table leaf's access path to a private slice.
func (src *opSource) tableRows(cx *evalCtx) []Row {
	if rows, ok := src.access.lookupRows(cx, src.table); ok {
		return rows
	}
	// Materialize the versions visible to this statement's snapshot; the
	// private slice is a consistent point-in-time view.
	return visibleRows(cx, src.table)
}

// filter builds the leaf's pushed predicate (src.pushed != nil) over rows of
// shape info: compiled at plan time for a base table at top level, now
// otherwise.
func (src *opSource) filter(tailCx *evalCtx, info sourceInfo) *rowPred {
	pc := src.pushedC
	if pc == nil || len(tailCx.levels) > 0 {
		pc = compileOver(src.pushed, []sourceInfo{info}, tailCx.levels)
	}
	return newRowPred(tailCx, pc, src.lenient)
}

// openLateral joins a lateral leaf onto the pipeline opened so far (left, of
// shape leftSources). Under the held lock it drains left and, for each left
// row in order, runs the item on that row (openItem) and drains it;
// the rows that pass ON — evaluated once the item drained — join that left
// row, a LEFT JOIN null-pads a left row none passed, and the leaf's lenient
// prefilter drops the rest. These are the executor's calls and evaluations
// in its order, so UDF side effects and errors come in the same order and
// all have happened before open returns; the joined rows stream from a
// slice. With no left rows, the one run the executor makes to learn the
// shape — against the enclosing levels alone — is made too, errors
// included. A function's arguments compile once against the left layout.
func (src *opSource) openLateral(cx, tailCx *evalCtx, step *opJoinStep, left RowStream, leftSources []sourceInfo) (RowStream, []sourceInfo, error) {
	outer, err := drainStreamCtx(cx, left)
	if err != nil {
		return nil, nil, err
	}
	var all []sourceInfo
	var pred, on *rowPred
	var out []Row
	var args []compiledExpr
	if src.item.Func != nil {
		args = compileList(src.item.Func.Args, leftSources, tailCx.levels)
	}
	run := func(l Row, shapeOnly bool) error {
		var st RowStream
		var err error
		if shapeOnly {
			st, err = src.openItem(cx, tailCx, nil, nil, nil)
		} else {
			st, err = src.openItem(cx, tailCx, leftSources, l, args)
		}
		if err != nil {
			return err
		}
		defer st.Close()
		// The first run fixes the shape. Like the executor, a column-alias
		// error is reported only once the run drained cleanly.
		var infoErr error
		if all == nil {
			var info sourceInfo
			if info, infoErr = fromItemInfo(src.item, st.Columns()); infoErr == nil {
				all = append(leftSources[:len(leftSources):len(leftSources)], info)
				if src.pushed != nil {
					pred = src.filter(tailCx, info)
				}
				if step.residual != nil {
					on = newRowPred(tailCx, compileOver(step.residual, all, tailCx.levels), false)
				}
			}
		}
		var rows []Row // kept for ON only; otherwise rows join as they come
		for i := 0; ; i++ {
			if err := cx.checkCancel(i); err != nil {
				return err
			}
			row, err := st.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				return err
			}
			switch {
			case shapeOnly:
			case on != nil:
				rows = append(rows, row)
			default:
				if pred != nil {
					if keep, _ := pred.keep(row); !keep { // lenient: never errors
						continue
					}
				}
				out = append(out, concatRow(l, row))
			}
		}
		if infoErr != nil || on == nil || shapeOnly {
			return infoErr
		}
		matched := false
		for _, r := range rows {
			joined := concatRow(l, r)
			if ok, err := on.keep(joined); err != nil {
				return err
			} else if !ok {
				continue
			}
			matched = true
			if pred != nil {
				if keep, _ := pred.keep(r); !keep {
					continue
				}
			}
			out = append(out, joined)
		}
		if step.kind == JoinLeft && !matched {
			out = append(out, concatRow(l, nullRow(all[len(all)-1].width)))
		}
		return nil
	}
	for _, l := range outer.Rows {
		if err := run(l, false); err != nil {
			return nil, nil, err
		}
	}
	if len(outer.Rows) == 0 {
		if err := run(nil, true); err != nil {
			return nil, nil, err
		}
	}
	return &sliceStream{rows: out}, all, nil
}

// openIndexedJoin opens join step 0 when its inner table is reachable through
// an index (step.lookup), choosing between the lookup and the hash join from
// the outer input's real size. Everything that touches the index happens
// here, under the caller-held lock, never in the stream's Next: Vacuum
// rebuilds indexes and moves positions under the exclusive lock, and a
// stream is drained with no lock held.
//
// The lookup reproduces the hash join's candidate lists exactly: per outer
// row that survives its (lenient, so error-free) prefilter, the inner
// versions whose key Compare-equals the outer key — none for a NULL key —
// that lie within the view loaded BEFORE probing (see accessPath.lookupRows),
// are visible to the statement's snapshot and pass the inner leaf's own
// prefilter, in ascending position: visibleRows' order, so output order,
// group first-row resolution and float summation order are unchanged.
func (p *opPlan) openIndexedJoin(cx *evalCtx, tailCx *evalCtx) (RowStream, []sourceInfo, error) {
	step, outerLeaf, innerLeaf := p.steps[0], p.leaves[0], p.leaves[1]
	outerInfo, err := fromItemInfo(outerLeaf.item, outerLeaf.table.Columns)
	if err != nil {
		return nil, nil, err
	}
	innerInfo, err := fromItemInfo(innerLeaf.item, innerLeaf.table.Columns)
	if err != nil {
		return nil, nil, err
	}
	sources := []sourceInfo{outerInfo, innerInfo}

	outer := outerLeaf.tableRows(cx)
	if outerLeaf.pushed != nil {
		pred := outerLeaf.filter(tailCx, outerInfo)
		kept := outer[:0] // outer is private: filter in place
		for i, row := range outer {
			if err := cx.checkCancel(i); err != nil {
				return nil, nil, err
			}
			if ok, err := pred.keep(row); err != nil {
				return nil, nil, err
			} else if ok {
				kept = append(kept, row)
			}
		}
		outer = kept
	}
	left := &sliceStream{cols: outerInfo.columns, rows: outer}

	// limit is the inner table's own size: an outer input above a ratio'th
	// of it hash-joins, and so does one whose duplicate keys would make the
	// lookup materialize more candidates under the lock than the hash build
	// it replaces copies.
	v := innerLeaf.table.loadView()
	limit := len(v.rows)
	if cx.db.planner.forceLookupJoin {
		limit = math.MaxInt
	}
	var cands *lookupCands
	if len(outer)*lookupJoinRatio <= limit {
		var innerPred *rowPred
		if innerLeaf.pushed != nil {
			innerPred = innerLeaf.filter(tailCx, innerInfo)
		}
		if cands, err = step.lookup.probe(cx, outer, v, innerPred, limit); err != nil {
			return nil, nil, err
		}
	}
	if cands == nil {
		// Today's hash join, fed from the already-filtered outer slice.
		right, _, err := innerLeaf.open(cx, tailCx, nil)
		if err != nil {
			return nil, nil, err
		}
		return newJoinStream(tailCx, step, left, right, sources[:1], innerInfo, sources,
			p.compiled(tailCx, step.residualC, step.residual, sources)), sources, nil
	}
	lk := step.lookup
	js := newJoinStream(tailCx, step, left, nil, sources[:1], innerInfo, sources,
		p.compiled(tailCx, lk.residualC, lk.residual, sources))
	js.lk, js.built = cands, true
	return js, sources, nil
}

// orderedSnapshot materializes t's visible versions in index-key order:
// NULLs first ascending (variant.Compare sorts NULL before everything), last
// descending, ascending table positions within equal keys — the stable
// sort's exact output. The view is resolved before the index walk so every
// entry position is bounded by the view, and each position passes through
// the statement's snapshot-visibility filter; concurrent inserts published
// after the view header was loaded are invisible by construction.
func orderedSnapshot(cx *evalCtx, t *Table, o *orderedScanInfo) []Row {
	v := t.loadView()
	n := len(v.rows)
	order := make([]int, 0, n)
	present := make([]bool, n)
	appendEntry := func(rows []int) {
		ps := append([]int(nil), rows...)
		sort.Ints(ps)
		for _, p := range ps {
			if p < n && !present[p] {
				present[p] = true
				if cx.snap.visible(v.meta[p]) {
					order = append(order, p)
				}
			}
		}
	}
	o.ix.mu.RLock()
	if o.desc {
		for i := len(o.ix.entries) - 1; i >= 0; i-- {
			appendEntry(o.ix.entries[i].rows)
		}
	} else {
		for i := range o.ix.entries {
			appendEntry(o.ix.entries[i].rows)
		}
	}
	o.ix.mu.RUnlock()
	var nulls []int
	for p := 0; p < n; p++ {
		if !present[p] && cx.snap.visible(v.meta[p]) {
			nulls = append(nulls, p)
		}
	}
	out := make([]Row, 0, n)
	emit := func(ps []int) {
		for _, p := range ps {
			out = append(out, v.rows[p])
		}
	}
	if o.desc {
		emit(order)
		emit(nulls)
	} else {
		emit(nulls)
		emit(order)
	}
	return out
}

// evalLimits evaluates compiled LIMIT/OFFSET at open time: offset ≤ 0
// skips nothing (-1), a negative limit means unlimited.
func evalLimits(cx *evalCtx, offsetC, limitC compiledExpr) (offset, limit int, err error) {
	offset, limit = -1, -1
	if offsetC != nil {
		v, err := offsetC(cx, nil)
		if err != nil {
			return 0, 0, err
		}
		n, err := v.AsInt()
		if err != nil {
			return 0, 0, fmt.Errorf("sql: OFFSET: %w", err)
		}
		if n > 0 {
			offset = int(n)
		}
	}
	if limitC != nil {
		v, err := limitC(cx, nil)
		if err != nil {
			return 0, 0, err
		}
		n, err := v.AsInt()
		if err != nil {
			return 0, 0, fmt.Errorf("sql: LIMIT: %w", err)
		}
		if n >= 0 {
			limit = int(n)
		}
	}
	return offset, limit, nil
}
