package sqldb

import (
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/variant"
)

// Streaming hash aggregation. Input rows are consumed once; each group holds
// incremental aggregate state (aggAccum) fed row-at-a-time instead of the
// executor's partition-then-evaluate, so memory is bounded by the number of
// groups, not the number of input rows. The accumulators are shared with the
// materializing executor (aggregate.go folds through the same aggAccum), so
// the two paths cannot diverge on the fold arithmetic; grouping keys use the
// executor's exact key encoding, groups emit in first-seen order, and a
// query with no GROUP BY always has one implicit group — present even on
// empty input, so `SELECT count(*) FROM empty` yields its single zero row
// through this path too.

// --- Incremental aggregate state ---

// aggAccum folds one aggregate incrementally. add is never called with NULL
// (SQL aggregates skip NULL inputs; DISTINCT dedup happens in the caller).
type aggAccum interface {
	add(v variant.Value) error
	result() (variant.Value, error)
}

// newAggAccum returns the accumulator for a builtin aggregate name
// (lowercase); ok=false for unknown names.
func newAggAccum(name string) (aggAccum, bool) {
	switch name {
	case "count":
		return &countAccum{}, true
	case "sum":
		return &sumAccum{allInt: true}, true
	case "avg":
		return &avgAccum{}, true
	case "min":
		return &minMaxAccum{min: true}, true
	case "max":
		return &minMaxAccum{}, true
	case "stddev":
		return &stddevAccum{}, true
	}
	return nil, false
}

type countAccum struct{ n int64 }

func (a *countAccum) add(variant.Value) error { a.n++; return nil }
func (a *countAccum) result() (variant.Value, error) {
	return variant.NewInt(a.n), nil
}

// sumAccum keeps both the float fold (accumulated in input order, so the
// result is bit-identical to the executor's) and the integer fold used when
// every input was an integer.
type sumAccum struct {
	n      int
	allInt bool
	// overI records that the integer fold wrapped. The error is deferred to
	// result(): a later float input demotes the whole sum to the float fold,
	// where the wrapped integer partial is irrelevant — matching what every
	// executor strategy must report identically.
	overI bool
	sumI  int64
	sumF  float64
}

func (a *sumAccum) add(v variant.Value) error {
	f, err := v.AsFloat()
	if err != nil {
		return fmt.Errorf("sql: sum(): %w", err)
	}
	a.sumF += f
	if v.Kind() == variant.Int {
		s, err := addInt64(a.sumI, v.Int())
		if err != nil {
			a.overI = true
		}
		a.sumI = s
	} else {
		a.allInt = false
	}
	a.n++
	return nil
}

func (a *sumAccum) result() (variant.Value, error) {
	if a.n == 0 {
		return variant.NewNull(), nil
	}
	if a.allInt {
		if a.overI {
			return variant.Value{}, fmt.Errorf("sql: sum(): %w", errIntRange)
		}
		return variant.NewInt(a.sumI), nil
	}
	return variant.NewFloat(a.sumF), nil
}

type avgAccum struct {
	n   int
	sum float64
}

func (a *avgAccum) add(v variant.Value) error {
	f, err := v.AsFloat()
	if err != nil {
		return fmt.Errorf("sql: avg(): %w", err)
	}
	a.sum += f
	a.n++
	return nil
}

func (a *avgAccum) result() (variant.Value, error) {
	if a.n == 0 {
		return variant.NewNull(), nil
	}
	return variant.NewFloat(a.sum / float64(a.n)), nil
}

// minMaxAccum keeps the first value that strictly beats every predecessor,
// so ties keep the earliest value — the executor's fold order.
type minMaxAccum struct {
	min  bool
	any  bool
	best variant.Value
}

func (a *minMaxAccum) add(v variant.Value) error {
	if !a.any {
		a.any, a.best = true, v
		return nil
	}
	c, err := variant.Compare(v, a.best)
	if err != nil {
		return err
	}
	if (a.min && c < 0) || (!a.min && c > 0) {
		a.best = v
	}
	return nil
}

func (a *minMaxAccum) result() (variant.Value, error) {
	if !a.any {
		return variant.NewNull(), nil
	}
	return a.best, nil
}

// stddevAccum materializes its inputs: the sample standard deviation is
// computed with the executor's two-pass mean so results stay bit-identical.
// The streaming planner rejects stddev (collectAggSpecs), so this
// accumulator only ever runs inside the materializing executor.
type stddevAccum struct{ fs []float64 }

func (a *stddevAccum) add(v variant.Value) error {
	f, err := v.AsFloat()
	if err != nil {
		return fmt.Errorf("sql: stddev(): %w", err)
	}
	a.fs = append(a.fs, f)
	return nil
}

func (a *stddevAccum) result() (variant.Value, error) {
	if len(a.fs) < 2 {
		return variant.NewNull(), nil
	}
	mean := 0.0
	for _, f := range a.fs {
		mean += f
	}
	mean /= float64(len(a.fs))
	ss := 0.0
	for _, f := range a.fs {
		ss += (f - mean) * (f - mean)
	}
	return variant.NewFloat(math.Sqrt(ss / float64(len(a.fs)-1))), nil
}

// --- Aggregate call collection ---

// aggSpec is one distinct aggregate call appearing in the projection or
// HAVING; every group carries one accumulator per spec.
type aggSpec struct {
	fn   *FuncExpr
	name string // lowercase
}

// collectAggSpecs gathers the distinct aggregate calls of s and validates
// them for incremental evaluation. ok=false (stddev, wrong arity, a
// non-count star) sends the statement to the materializing executor, whose
// runtime errors then apply unchanged.
func collectAggSpecs(s *SelectStmt) ([]*aggSpec, bool) {
	var specs []*aggSpec
	seen := func(f *FuncExpr) bool {
		for _, sp := range specs {
			if exprEqual(sp.fn, f) {
				return true
			}
		}
		return false
	}
	valid := true
	walk := func(e Expr) {
		walkExpr(e, func(x Expr) bool {
			f, ok := x.(*FuncExpr)
			if !ok || !isAggregateName(f.Name) || f.Over != nil {
				return valid
			}
			name := strings.ToLower(f.Name)
			switch {
			case f.Star:
				if name != "count" {
					valid = false
				}
			case name == "stddev":
				valid = false
			case len(f.Args) != 1:
				valid = false
			}
			if valid && !seen(f) {
				specs = append(specs, &aggSpec{fn: f, name: name})
			}
			// Nested aggregates inside the argument error at runtime in
			// both paths; no need to descend into them.
			return false
		})
	}
	for _, it := range s.Items {
		walk(it.Expr)
	}
	walk(s.Having)
	return specs, valid
}

// --- Grouped expression evaluation ---

// aggEval evaluates projection and HAVING expressions for one finished
// group through the shared grouped-expression evaluator (evalGrouped,
// aggregate.go): aggregate calls resolve to the group's accumulated
// results, GROUP BY keys to their key values, and other column references
// to the group's first row.
type aggEval struct {
	cx      *evalCtx
	sources []sourceInfo
	groupBy []Expr
	keyVals []variant.Value
	specs   []*aggSpec
	vals    []variant.Value // accumulated results, aligned with specs
	first   Row             // nil for an empty implicit group
}

// resolveAgg maps an aggregate call to its accumulated result.
func (g *aggEval) resolveAgg(x *FuncExpr) (variant.Value, error) {
	for i, sp := range g.specs {
		if exprEqual(sp.fn, x) {
			return g.vals[i], nil
		}
	}
	return variant.Value{}, fmt.Errorf("sql: unknown aggregate %s()", x.Name)
}

func (g *aggEval) eval(e Expr) (variant.Value, error) {
	return evalGrouped(g.cx, g.sources, g.groupBy, g.keyVals, g.first, nil, g.resolveAgg, e)
}

// --- The streaming operator ---

// aggGroup is one group's incremental state.
type aggGroup struct {
	keyVals []variant.Value
	accums  []aggAccum
	seen    []map[string]bool // per-spec DISTINCT sets; nil when not DISTINCT
	first   Row
}

// hashAggStream consumes its input once, feeding per-group accumulators, and
// then emits one projected row per group (HAVING applied) in first-seen
// order.
type hashAggStream struct {
	cx      *evalCtx
	src     RowStream
	sources []sourceInfo
	sel     *SelectStmt
	specs   []*aggSpec
	cols    []Column
	exprs   []Expr
	// keysC and argsC are the group keys and aggregate arguments compiled
	// against the input layout (tailExprs; nil: interpreted), env their
	// environment.
	keysC []compiledExpr
	argsC []compiledExpr
	env   compEnv

	built  bool
	groups []*aggGroup
	pos    int
	err    error
	closed bool
}

func newHashAggStream(cx *evalCtx, src RowStream, sources []sourceInfo, sel *SelectStmt, specs []*aggSpec, cols []Column, exprs []Expr, tail tailExprs) *hashAggStream {
	return &hashAggStream{cx: cx, src: src, sources: sources, sel: sel, specs: specs, cols: cols, exprs: exprs,
		keysC: tail.groupBy, argsC: tail.aggArgs, env: compEnv{params: cx.params, ctx: cx.ctx}}
}

func (h *hashAggStream) Columns() []Column { return h.cols }

func (h *hashAggStream) newGroup(keyVals []variant.Value) *aggGroup {
	return newAggGroup(h.specs, keyVals)
}

// newAggGroup builds a fresh group with one accumulator per spec; shared by
// the row-at-a-time and vectorized aggregate executors.
func newAggGroup(specs []*aggSpec, keyVals []variant.Value) *aggGroup {
	g := &aggGroup{
		keyVals: keyVals,
		accums:  make([]aggAccum, len(specs)),
		seen:    make([]map[string]bool, len(specs)),
	}
	for i, sp := range specs {
		acc, _ := newAggAccum(sp.name)
		g.accums[i] = acc
		if sp.fn.Distinct {
			g.seen[i] = make(map[string]bool)
		}
	}
	return g
}

// feed folds one input row into its group's accumulators.
func (h *hashAggStream) feed(g *aggGroup, row Row) error {
	if g.first == nil {
		g.first = row
	}
	var rcx *evalCtx
	if h.argsC == nil {
		rcx = h.cx.withScope(bindScope(h.sources, row, nil))
	}
	for i, sp := range h.specs {
		if sp.fn.Star {
			g.accums[i].(*countAccum).n++
			continue
		}
		var v variant.Value
		var err error
		if rcx == nil {
			v, err = h.argsC[i](&h.env, row)
		} else {
			v, err = evalExpr(rcx, sp.fn.Args[0])
		}
		if err != nil {
			return err
		}
		if v.IsNull() {
			continue
		}
		if sp.fn.Distinct {
			key := v.Kind().String() + ":" + v.String()
			if g.seen[i][key] {
				continue
			}
			g.seen[i][key] = true
		}
		if err := g.accums[i].add(v); err != nil {
			return err
		}
	}
	return nil
}

// build consumes the entire input, grouping with the executor's key
// encoding so NULL keys and cross-kind keys group identically.
func (h *hashAggStream) build() error {
	defer h.src.Close()
	groupBy := h.sel.GroupBy
	index := make(map[string]*aggGroup)
	var implicit *aggGroup
	if len(groupBy) == 0 {
		// One implicit group over all rows — present even on empty input,
		// so pure aggregates always yield their single row.
		implicit = h.newGroup(nil)
		h.groups = append(h.groups, implicit)
	}
	for i := 0; ; i++ {
		if err := h.cx.checkCancel(i); err != nil {
			return err
		}
		row, err := h.src.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		g := implicit
		if g == nil {
			var rcx *evalCtx
			if h.keysC == nil {
				rcx = h.cx.withScope(bindScope(h.sources, row, nil))
			}
			keyVals := make([]variant.Value, len(groupBy))
			for ki, ge := range groupBy {
				var v variant.Value
				var err error
				if rcx == nil {
					v, err = h.keysC[ki](&h.env, row)
				} else {
					v, err = evalExpr(rcx, ge)
				}
				if err != nil {
					return err
				}
				keyVals[ki] = v
			}
			key := rowKey(keyVals)
			var ok bool
			if g, ok = index[key]; !ok {
				g = h.newGroup(keyVals)
				index[key] = g
				h.groups = append(h.groups, g)
			}
		}
		if err := h.feed(g, row); err != nil {
			return err
		}
	}
}

func (h *hashAggStream) Next() (Row, error) {
	if h.err != nil {
		return nil, h.err
	}
	if h.closed {
		return nil, io.EOF
	}
	fail := func(err error) (Row, error) {
		h.err = err
		return nil, err
	}
	if !h.built {
		h.built = true
		if err := h.build(); err != nil {
			return fail(err)
		}
	}
	for h.pos < len(h.groups) {
		g := h.groups[h.pos]
		h.pos++
		vals := make([]variant.Value, len(h.specs))
		for i, acc := range g.accums {
			v, err := acc.result()
			if err != nil {
				return fail(err)
			}
			vals[i] = v
		}
		ge := &aggEval{
			cx:      h.cx,
			sources: h.sources,
			groupBy: h.sel.GroupBy,
			keyVals: g.keyVals,
			specs:   h.specs,
			vals:    vals,
			first:   g.first,
		}
		if h.sel.Having != nil {
			v, err := ge.eval(h.sel.Having)
			if err != nil {
				return fail(err)
			}
			if v.IsNull() {
				continue
			}
			ok, err := v.AsBool()
			if err != nil {
				return fail(err)
			}
			if !ok {
				continue
			}
		}
		row := make(Row, len(h.exprs))
		for i, e := range h.exprs {
			v, err := ge.eval(e)
			if err != nil {
				return fail(err)
			}
			row[i] = v
		}
		return row, nil
	}
	return nil, io.EOF
}

func (h *hashAggStream) Close() error {
	if h.closed {
		return nil
	}
	h.closed = true
	h.groups = nil
	h.pos = 0
	return h.src.Close()
}
