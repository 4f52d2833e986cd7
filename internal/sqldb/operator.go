package sqldb

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/variant"
)

// Streaming operator plans. Every SELECT the vectorized executor does not take
// and whose expressions outside FROM are pure builtins — single-source reads
// (base table, function scan, subquery, or the FROM-less single row) as well
// as joins, aggregation, ORDER BY and DISTINCT — lowers here to a pipeline of
// pull-based operators behind the RowStream contract:
//
//   scan leaves (with WHERE conjuncts pushed below joins, access paths from
//   the shared cost model, and optionally a parallel partitioned scan feeding
//   a single-source projection or the bottom hash join's probe side)
//     → build/probe hash joins for equi-join conjuncts (the bottom join
//       probes the inner table's index instead when it has one on a key
//       column and the outer input turns out small; see joinLookup),
//       streaming nested-loop joins otherwise (chosen by cost from stats.go
//       estimates)
//       → residual WHERE filter
//         → incremental hash aggregation (COUNT/SUM/AVG/MIN/MAX fed
//           row-at-a-time) or streaming projection (compiled closures over a
//           single base table, interpreted otherwise)
//           → sort (skipped when a btree index already proves the order)
//             → distinct → limit/offset
//
// Operator plans follow the PR-3 locking split: open() resolves every source
// under the caller-held database lock (table snapshots, index probes,
// FROM-clause UDF calls, subquery materialization); the returned stream's
// Next does only pure work over private data, so LIMIT early-exits, context
// cancellation applies between rows, and no lock is held while the caller
// iterates. Eligibility therefore requires every expression outside the FROM
// sources to use only builtin functions — statements referencing UDFs in
// WHERE/projections, LATERAL items, or unsupported aggregates (stddev) keep
// the materializing executor, whose semantics the operators must reproduce
// observationally (the differential suite enforces this).

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
	// ordered is set when ORDER BY is satisfied by walking a btree index in
	// key order instead of sorting (single-table plans only).
	ordered *orderedScanInfo
	// projs is the SELECT list compiled against a single base-table source
	// (cols its output columns); nil means projectStream interprets.
	cols  []Column
	projs []compiledExpr
}

// opSource is one FROM item leaf.
type opSource struct {
	item  FromItem
	alias string
	// table is resolved at plan time for base tables; nil for function
	// scans and subqueries, whose shape is only known at open time.
	table  *Table
	access accessPath
	// pushed is the AND of WHERE conjuncts that reference only this source
	// and sit on a non-nullable side of every LEFT join; pushedC is its
	// compiled form when the source is a base table and the predicate
	// compiles (best effort — interpreted evaluation otherwise). lenient
	// marks it as a prefilter under a join: rows are dropped only when the
	// predicate cleanly evaluates to not-true, and evaluation errors keep
	// the row — the full WHERE above the join surfaces the error if and
	// only if the row survives the join, exactly as the executor would.
	pushed  Expr
	pushedC compiledExpr
	lenient bool
	// parallel partitions the scan across workers (a single-source scan or
	// the probe side of a hash join; see planOperators).
	parallel bool
	workers  int
	// batchTail marks a single function-scan leaf whose statement tail may
	// drain the source's columnar batches (newVecFuncScanStream): open then
	// leaves a BatchSource unfiltered for the tail to take over.
	batchTail bool
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
//   - both leaves plain base tables without column aliases, the outer one
//     not scanned in parallel;
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
	residual Expr
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
// and, for base tables, its column list (post column-alias renames).
// known=false (function scans, subqueries) limits what the planner may
// attribute to the source, never what executes.
type sourceMeta struct {
	alias string
	cols  []Column
	known bool
}

// planOperators decides whether s runs on the streaming operator pipeline
// and builds its plan; nil falls back to the materializing executor. Caller
// holds the database lock (either mode).
func (db *DB) planOperators(s *SelectStmt) *opPlan {
	// Window functions run on the materializing executor (the reference
	// path) or the vectorized pipeline, never the row operators.
	if db.planner.DisableStreamingExec || selectHasWindows(s) {
		return nil
	}
	for i, item := range s.From {
		// LATERAL re-evaluates per outer row; function scans beyond the
		// first item are implicitly lateral. Both stay on the executor.
		if i == 0 && item.On != nil {
			return nil
		}
		if i > 0 && (item.Lateral || item.Func != nil) {
			return nil
		}
		if i == 0 && item.Sub != nil && item.Lateral {
			return nil
		}
		if item.Table == "" && item.Func == nil && item.Sub == nil {
			return nil
		}
	}
	metas := make([]sourceMeta, len(s.From))
	for i, item := range s.From {
		m, ok := db.sourceMetaFor(item)
		if !ok {
			return nil
		}
		metas[i] = m
	}
	// Duplicate aliases make qualified references ambiguous at runtime;
	// side attribution cannot be trusted, so the executor keeps them.
	if len(metas) > 1 {
		seen := make(map[string]bool, len(metas))
		for _, m := range metas {
			key := strings.ToLower(m.alias)
			if m.alias == "" || seen[key] {
				return nil
			}
			seen[key] = true
		}
	}
	// The lazy tail runs with no lock held: every function outside the FROM
	// sources must be an engine builtin (aggregates are handled by the
	// aggregation stage).
	if !selectPureBuiltin(s) {
		return nil
	}
	grouped := len(s.GroupBy) > 0 || selectHasAggregates(s)
	var specs []*aggSpec
	if grouped {
		var ok bool
		specs, ok = collectAggSpecs(s)
		if !ok {
			return nil // stddev, bad arity, non-count(*): executor's errors apply
		}
	}

	plan := &opPlan{sel: s, grouped: grouped, specs: specs}
	if len(s.From) == 0 {
		plan.where = s.Where // FROM-less: one empty row, filtered above
		return plan
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
	// a LEFT join.
	pushed := make([][]Expr, len(s.From))
	if s.Where != nil {
		if len(s.From) == 1 {
			pushed[0] = []Expr{s.Where}
		} else {
			plan.where = s.Where
			for _, conj := range splitConjuncts(s.Where, nil) {
				si := exprSource(conj, metas)
				if si >= 0 && !(si > 0 && s.From[si].Join == JoinLeft) {
					pushed[si] = append(pushed[si], conj)
				}
			}
		}
	}

	// Leaves: access paths from the shared cost model over the pushed
	// predicate, compiled filters for base tables.
	plan.leaves = make([]*opSource, len(s.From))
	for i, item := range s.From {
		leaf := &opSource{item: item, alias: metas[i].alias, est: defaultRelationRows, lenient: len(s.From) > 1}
		leaf.pushed = conjAnd(pushed[i])
		if item.Table != "" {
			t, ok := db.tables.get(item.Table)
			if !ok {
				return nil // executor surfaces ErrNoSuchTable
			}
			leaf.table = t
			// Column aliases rename WHERE references away from the names
			// the indexes know (same rule as the vectorized planner).
			if leaf.pushed != nil && len(item.ColAliases) == 0 {
				leaf.access = chooseAccessPath(db, t, metas[i].alias, leaf.pushed)
			} else {
				leaf.access = chooseAccessPath(db, t, metas[i].alias, nil)
			}
			leaf.est = leaf.access.estRows
			if leaf.pushed != nil {
				comp := &compiler{alias: metas[i].alias, cols: metas[i].cols}
				if ce, ok := comp.compile(leaf.pushed); ok {
					leaf.pushedC = ce
				}
			}
		}
		plan.leaves[i] = leaf
	}

	// Join strategy per step, costed left-deep.
	leftEst := plan.leaves[0].est
	plan.steps = make([]*opJoinStep, 0, len(s.From)-1)
	for i := 1; i < len(s.From); i++ {
		item := s.From[i]
		step := &opJoinStep{kind: item.Join, residual: item.On}
		rightEst := plan.leaves[i].est
		keysL, keysR, rest := extractEquiKeys(item.On, metas, i)
		if len(keysL) > 0 && !db.planner.DisableHashJoin {
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

	// Parallel partitioned scan of a large sequential scan whose filter
	// compiled, feeding a single-source projection or the probe side of the
	// bottom hash join, with no LIMIT/OFFSET, grouping, DISTINCT or ORDER BY:
	// the merge is order-insensitive, LIMIT's early-exit accounting does not
	// partition, and grouped, DISTINCT, or sorted pipelines have
	// order-sensitive engine semantics (group first-row resolution and
	// emission order, first-occurrence dedup, stable-sort ties) that must
	// stay deterministic.
	if (len(plan.steps) == 0 || plan.steps[0].hash) &&
		!grouped && !s.Distinct && len(s.OrderBy) == 0 &&
		s.Limit == nil && s.Offset == nil {
		probe := plan.leaves[0]
		if probe.table != nil && probe.pushedC != nil && probe.access.kind == accessSeq {
			if workers := db.planner.parallelScanWorkers(probe.access.tableRows); workers > 0 {
				probe.parallel = true
				probe.workers = workers
			}
		}
	}

	// DisableIndexScan turns the lookup off like any other index access.
	if len(plan.steps) > 0 && plan.steps[0].hash && !db.planner.DisableIndexScan {
		plan.steps[0].lookup = planJoinLookup(plan, metas)
	}

	// ORDER BY satisfied from a btree index: single-table, non-aggregated
	// plans whose single sort key is provably the scan column's value.
	if len(plan.leaves) == 1 && !grouped && len(s.OrderBy) == 1 {
		plan.ordered = db.chooseOrderedScan(s, plan.leaves[0], metas[0])
	}

	if len(plan.leaves) == 1 && !grouped && (len(s.OrderBy) == 0 || plan.ordered != nil) {
		switch leaf := plan.leaves[0]; {
		case leaf.table != nil && metas[0].known:
			plan.cols, plan.projs = compileProjection(s.Items, metas[0])
		case leaf.item.Func != nil && s.Where != nil && !s.Distinct:
			leaf.batchTail = !db.planner.DisableVectorized
		}
	}
	return plan
}

// compileProjection compiles a single-source SELECT list against the source's
// plan-time shape; nil projs when any item does not compile (or does not
// expand), leaving projectStream to interpret it — and to surface expansion
// errors at open, as the executor does.
func compileProjection(items []SelectItem, m sourceMeta) ([]Column, []compiledExpr) {
	cols, exprs, err := expandItems(items, []sourceInfo{{alias: m.alias, columns: m.cols, width: len(m.cols)}})
	if err != nil {
		return nil, nil
	}
	comp := &compiler{alias: m.alias, cols: m.cols}
	projs := make([]compiledExpr, len(exprs))
	for i, e := range exprs {
		ce, ok := comp.compile(e)
		if !ok {
			return nil, nil
		}
		projs[i] = ce
	}
	return cols, projs
}

// sourceMetaFor computes the plan-time shape of one FROM item.
func (db *DB) sourceMetaFor(item FromItem) (sourceMeta, bool) {
	alias := item.Alias
	switch {
	case item.Table != "":
		if alias == "" {
			alias = strings.ToLower(item.Table)
		}
		t, ok := db.tables.get(item.Table)
		if !ok {
			return sourceMeta{}, false
		}
		cols := t.Columns
		if len(item.ColAliases) > 0 {
			if len(item.ColAliases) > len(cols) {
				return sourceMeta{alias: alias}, true // open surfaces the alias error
			}
			cols = append([]Column(nil), cols...)
			for i, a := range item.ColAliases {
				cols[i].Name = a
			}
		}
		return sourceMeta{alias: alias, cols: cols, known: true}, true
	case item.Func != nil:
		if alias == "" {
			alias = strings.ToLower(item.Func.Name)
		}
		return sourceMeta{alias: alias}, true
	default:
		return sourceMeta{alias: alias}, true
	}
}

// selectPureBuiltin reports whether every function referenced outside the
// FROM sources is an engine builtin or aggregate, so the lazy tail touches
// no registry-backed UDF after the lock is released. FROM-clause UDFs and
// subquery internals run under the lock at open time and are exempt.
func selectPureBuiltin(s *SelectStmt) bool {
	pure := true
	check := func(name string) {
		lower := strings.ToLower(name)
		if isAggregateName(lower) {
			return
		}
		if _, ok := builtinScalars[lower]; !ok {
			pure = false
		}
	}
	for _, it := range s.Items {
		walkExprFuncs(it.Expr, check)
	}
	for _, f := range s.From {
		walkExprFuncs(f.On, check)
	}
	walkExprFuncs(s.Where, check)
	for _, e := range s.GroupBy {
		walkExprFuncs(e, check)
	}
	walkExprFuncs(s.Having, check)
	for _, o := range s.OrderBy {
		walkExprFuncs(o.Expr, check)
	}
	walkExprFuncs(s.Limit, check)
	walkExprFuncs(s.Offset, check)
	return pure
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
// full-scope evaluation reproduces lookup errors and ambiguity).
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
// or has provably incompatible declared types. That prefix rule is what
// makes hashing observationally identical to the nested loop: the executor
// evaluates the ON with AND short-circuiting, so for a pair whose leading
// keys don't all match it never reaches the later conjuncts — and neither
// does the hash join, which evaluates the residual only on key-matched
// candidates. A residual conjunct placed BEFORE an equality (including an
// integer = text comparison that must error on every pair) therefore keeps
// nested-loop evaluation.
func extractEquiKeys(on Expr, metas []sourceMeta, rightIdx int) (keysL, keysR []Expr, residual Expr) {
	if on == nil {
		return nil, nil, nil
	}
	conjs := splitConjuncts(on, nil)
	split := 0
	for _, conj := range conjs {
		b, isEq := conj.(*BinaryExpr)
		if !isEq || b.Op != "=" {
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
	if outer.table == nil || outer.parallel || len(outer.item.ColAliases) > 0 ||
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
	cols, exprs, err := expandItems(s.Items, []sourceInfo{{alias: meta.alias, columns: meta.cols, width: len(meta.cols)}})
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

// open resolves every source and assembles the operator pipeline. It must
// run under the database lock; the returned stream's Next is pure.
func (p *opPlan) open(cx *evalCtx) (RowStream, error) {
	// The tail must not inherit transaction bookkeeping or a held scope.
	tailCx := &evalCtx{db: cx.db, params: cx.params, ctx: cx.ctx}
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
		right, rightInfo, err := p.leaves[i].open(cx, tailCx, nil)
		if err != nil {
			cur.Close()
			return nil, err
		}
		all := append(curSources[:len(curSources):len(curSources)], rightInfo)
		cur = newJoinStream(tailCx, p.steps[i-1], cur, right, curSources, rightInfo, all)
		curSources = all
	}

	if p.where != nil {
		cur = &opFilterStream{rowPred: newRowPred(tailCx, curSources, p.where, nil, false), src: cur}
	}

	cols, exprs := p.cols, []Expr(nil)
	if p.projs == nil {
		if cols, exprs, err = expandItems(s.Items, curSources); err != nil {
			cur.Close()
			return nil, err
		}
	}
	offset, limit, err := evalLimits(cx, s.Limit, s.Offset)
	if err != nil {
		cur.Close()
		return nil, err
	}
	if _, ok := cur.(BatchSource); ok && len(p.leaves) == 1 && p.leaves[0].batchTail {
		// The function scan's batches feed the vectorized tail when its
		// filter and projections vec-compile, skipping per-cell boxing of
		// dropped lanes; otherwise the leaf's filter goes on now.
		if vs := newVecFuncScanStream(tailCx, cur, curSources[0], s, cols, exprs, offset, limit); vs != nil {
			return vs, nil
		}
		cur = &opFilterStream{rowPred: p.leaves[0].filter(tailCx, curSources[0]), src: cur}
	}
	if p.grouped {
		cur = newHashAggStream(tailCx, cur, curSources, s, p.specs, cols, exprs)
		if len(s.OrderBy) > 0 {
			cur = &sortStream{cx: tailCx, src: cur, sel: s, cols: cols, aggregated: true}
		}
	} else if len(s.OrderBy) > 0 && p.ordered == nil {
		cur = &projectSortStream{cx: tailCx, src: cur, sources: curSources, sel: s, cols: cols, exprs: exprs}
	} else {
		cur = &projectStream{cx: tailCx, src: cur, sources: curSources, cols: cols, exprs: exprs,
			projs: p.projs, env: compEnv{params: cx.params, ctx: cx.ctx}}
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
// ordered index walk for tables, UDF call for function scans, materialized
// subquery otherwise. The pushed filter wraps the source (or feeds the
// parallel partitioned scan).
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
		if src.parallel {
			// Under a join the pushed filter is a lenient prefilter:
			// evaluation errors keep the row for the residual WHERE instead
			// of failing the pool.
			ps := newParallelScanStream(src.filter(tailCx, info), rows, info.columns, src.workers)
			ps.align = pageAlignRows(cx.db, t.Name, len(rows))
			return ps, info, nil
		}
		base = &sliceStream{cols: info.columns, rows: rows}
	case item.Func != nil:
		vals, err := evalFuncArgs(cx, item.Func)
		if err != nil {
			return nil, sourceInfo{}, err
		}
		st, err := cx.db.callTableFunc(cx, item.Func.Name, vals)
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
	default: // subquery, materialized once under the lock
		rs, err := execSelect(cx, item.Sub, nil)
		if err != nil {
			return nil, sourceInfo{}, err
		}
		info, err = fromItemInfo(item, rs.Columns)
		if err != nil {
			return nil, sourceInfo{}, err
		}
		base = rs.Stream()
	}
	if src.pushed != nil {
		base = &opFilterStream{rowPred: src.filter(tailCx, info), src: base}
	}
	return base, info, nil
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
// shape info.
func (src *opSource) filter(tailCx *evalCtx, info sourceInfo) *rowPred {
	pc := src.pushedC
	if pc == nil {
		// Non-table sources resolve their shape only now; compile the
		// pushed predicate against it, best effort.
		comp := &compiler{alias: info.alias, cols: info.columns}
		if ce, ok := comp.compile(src.pushed); ok {
			pc = ce
		}
	}
	return newRowPred(tailCx, []sourceInfo{info}, src.pushed, pc, src.lenient)
}

// openIndexedJoin opens join step 0 when its inner table is reachable through
// an index (step.lookup), choosing between the lookup and the hash join from
// the outer input's real size. Everything that touches the index happens
// here, under the caller-held lock, never in the stream's Next: Vacuum and DDL
// rollback rebuild indexes and move positions under the exclusive lock, and a
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
	if cx.db.forceLookupJoin {
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
		return newJoinStream(tailCx, step, left, right, sources[:1], innerInfo, sources), sources, nil
	}
	js := newJoinStream(tailCx, step, left, nil, sources[:1], innerInfo, sources)
	js.lk, js.built, js.residual = cands, true, step.lookup.residual
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

// evalFuncArgs evaluates a FROM-clause function's arguments (no row scope:
// first-item function calls cannot reference sibling sources).
func evalFuncArgs(cx *evalCtx, f *FuncExpr) ([]variant.Value, error) {
	vals := make([]variant.Value, len(f.Args))
	for i, a := range f.Args {
		v, err := evalExpr(cx, a)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	return vals, nil
}

// evalLimits evaluates LIMIT/OFFSET at open time with the executor's
// semantics: offset ≤ 0 skips nothing, negative limit means unlimited.
func evalLimits(cx *evalCtx, limitE, offsetE Expr) (offset, limit int, err error) {
	offset, limit = -1, -1
	if offsetE != nil {
		v, err := evalExpr(cx, offsetE)
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
	if limitE != nil {
		v, err := evalExpr(cx, limitE)
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
