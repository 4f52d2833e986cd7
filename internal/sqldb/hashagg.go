package sqldb

import (
	"fmt"
	"io"
	"math"
	"strings"

	"repro/internal/variant"
)

// Streaming hash aggregation. Input rows are consumed once; each group holds
// incremental aggregate state (aggAccum) fed row-at-a-time instead of a
// partition-then-evaluate, so memory is bounded by the number of groups, not
// the number of input rows. The accumulators are shared with the vectorized
// aggregate and the window kernel, so no path diverges on the fold
// arithmetic; grouping keys use rowKey's exact encoding, groups emit in
// first-seen order, and a query with no GROUP BY always has one implicit
// group — present even on empty input, so `SELECT count(*) FROM empty`
// yields its single zero row through this path too.
//
// Aggregate arguments are evaluated row by row as the input is fed, UDF calls
// included; an aggregate's errors surface when HAVING or the SELECT list reads
// it: errors met while feeding wait in the group until then (aggGroup.errs).

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
// result is bit-identical whatever the executor) and the integer fold used when
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
// so ties keep the earliest value in input order.
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
// computed with a two-pass mean over the values in input order, so results
// are bit-identical on every path.
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
	// err is an invalid call's error (a non-count star, wrong arity), raised
	// when the call is read.
	err error
}

// collectAggSpecs gathers the distinct aggregate calls of s.
func collectAggSpecs(s *SelectStmt) []*aggSpec {
	var specs []*aggSpec
	walk := func(e Expr) {
		walkExpr(e, func(x Expr) bool {
			f, ok := x.(*FuncExpr)
			if !ok || !isAggregateName(f.Name) || f.Over != nil {
				return true
			}
			for _, sp := range specs {
				if exprEqual(sp.fn, f) {
					return false
				}
			}
			sp := &aggSpec{fn: f, name: strings.ToLower(f.Name)}
			switch {
			case f.Star && sp.name != "count":
				sp.err = fmt.Errorf("sql: %s(*) is not valid", sp.name)
			case !f.Star && len(f.Args) != 1:
				sp.err = fmt.Errorf("sql: %s() expects 1 argument", sp.name)
			}
			specs = append(specs, sp)
			// Nested aggregates inside the argument error when it is
			// evaluated; no need to descend into them.
			return false
		})
	}
	for _, it := range s.Items {
		walk(it.Expr)
	}
	walk(s.Having)
	return specs
}

// --- The group projection ---

// compileGroupProj compiles a grouped statement's HAVING (nil when absent)
// and SELECT list exprs over finished groups of rows of layout sources:
// aggregate calls read the group's results, GROUP BY key expressions its key
// values, and other column references its first row (compiler.grouped).
func compileGroupProj(s *SelectStmt, specs []*aggSpec, exprs []Expr, sources []sourceInfo, levels [][]sourceInfo) (having compiledExpr, projs []compiledExpr) {
	c := &compiler{sources: sources, outer: levels, group: &groupLayout{keys: s.GroupBy, specs: specs}}
	if s.Having != nil {
		having = c.compile(s.Having)
	}
	projs = make([]compiledExpr, len(exprs))
	for i, e := range exprs {
		projs[i] = c.compile(e)
	}
	return having, projs
}

// emitGroup evaluates a finished group's HAVING (nil: every group passes)
// and, when the group passes, its SELECT list; cx is private to the calling
// stream, which it points at g.
func emitGroup(cx *evalCtx, g *aggGroup, having compiledExpr, projs []compiledExpr) (Row, bool, error) {
	cx.group = g
	if having != nil {
		if ok, err := truth(having(cx, g.first)); !ok || err != nil {
			return nil, false, err
		}
	}
	row, err := evalList(cx, g.first, projs)
	return row, err == nil, err
}

// --- The streaming operator ---

// aggGroup is one group's incremental state.
type aggGroup struct {
	keyVals []variant.Value
	accums  []aggAccum
	seen    []map[string]bool // per-spec DISTINCT sets; nil when not DISTINCT
	// errs holds, per spec, the first error evaluating its argument and the
	// first error folding a value (nil until one occurs). Feeding a spec stops
	// at its argument error and folding at its add error; resolveAgg reports
	// the argument error first, as the reference evaluates every argument of
	// a call before folding any.
	errs  []aggErrs
	first Row
}

type aggErrs struct{ arg, add error }

// feed folds one argument value of spec i, or records its evaluation error.
func (g *aggGroup) feed(i int, sp *aggSpec, v variant.Value, err error) {
	if err != nil {
		g.fail(i).arg = err
		return
	}
	if v.IsNull() || (g.errs != nil && g.errs[i].add != nil) {
		return
	}
	if sp.fn.Distinct {
		key := v.Kind().String() + ":" + v.String()
		if g.seen[i][key] {
			return
		}
		g.seen[i][key] = true
	}
	if err := g.accums[i].add(v); err != nil {
		g.fail(i).add = err
	}
}

// fail returns spec i's error slot, allocating the slots on first use.
func (g *aggGroup) fail(i int) *aggErrs {
	if g.errs == nil {
		g.errs = make([]aggErrs, len(g.accums))
	}
	return &g.errs[i]
}

// stopped reports whether spec i met an argument error: nothing more of it
// is evaluated.
func (g *aggGroup) stopped(i int) bool { return g.errs != nil && g.errs[i].arg != nil }

// result is spec i's value once the group is complete.
func (g *aggGroup) result(i int) (variant.Value, error) {
	if g.errs != nil {
		if e := g.errs[i]; e.arg != nil {
			return variant.Value{}, e.arg
		} else if e.add != nil {
			return variant.Value{}, e.add
		}
	}
	return g.accums[i].result()
}

// hashAggStream consumes its input once, feeding per-group accumulators, and
// then emits one projected row per group (HAVING applied) in first-seen
// order.
type hashAggStream struct {
	// cx is a private copy of the tail's context: emitGroup sets its group.
	cx    evalCtx
	src   RowStream
	specs []*aggSpec
	// tail holds the group keys and aggregate arguments compiled against
	// the input layout, and HAVING and the SELECT list over finished groups.
	tail tailExprs

	built  bool
	groups []*aggGroup
	pos    int
	err    error
	closed bool
}

func newHashAggStream(cx *evalCtx, src RowStream, specs []*aggSpec, tail tailExprs) *hashAggStream {
	return &hashAggStream{cx: *cx, src: src, specs: specs, tail: tail}
}

func (h *hashAggStream) Columns() []Column { return h.tail.cols }

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
func (h *hashAggStream) feed(g *aggGroup, row Row) {
	if g.first == nil {
		g.first = row
	}
	for i, sp := range h.specs {
		switch {
		case sp.err != nil || g.stopped(i):
			continue
		case sp.fn.Star:
			g.accums[i].(*countAccum).n++
			continue
		}
		v, err := h.tail.aggArgs[i](&h.cx, row)
		g.feed(i, sp, v, err)
	}
}

// build consumes the entire input, grouping with the executor's key
// encoding so NULL keys and cross-kind keys group identically.
func (h *hashAggStream) build() error {
	defer h.src.Close()
	index := make(map[string]*aggGroup)
	var implicit *aggGroup
	if len(h.tail.groupBy) == 0 {
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
			keyVals, err := evalList(&h.cx, row, h.tail.groupBy)
			if err != nil {
				return err
			}
			key := rowKey(keyVals)
			var ok bool
			if g, ok = index[key]; !ok {
				g = h.newGroup(keyVals)
				index[key] = g
				h.groups = append(h.groups, g)
			}
		}
		h.feed(g, row)
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
		row, ok, err := emitGroup(&h.cx, g, h.tail.having, h.tail.projs)
		if err != nil {
			return fail(err)
		} else if ok {
			return row, nil
		}
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
