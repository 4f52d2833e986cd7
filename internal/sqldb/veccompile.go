package sqldb

import (
	"strings"

	"repro/internal/variant"
)

// Vectorized expression compilation. A vecExpr evaluates one expression over
// a whole batch, returning a column vector. Hot patterns — column/constant
// comparisons over numeric, text, and timestamp lanes, three-valued AND/OR,
// NOT, IS NULL — lower to per-type kernel loops. Everything else falls back
// to the row compiler's closure (compile.go) evaluated per lane against the
// batch's backing row, which makes the fallback observationally identical to
// the row executors by construction. A node the row compiler reports opaque
// (a deferred error, a UDF call, a modifier on a scalar call) makes the
// whole statement ineligible for vectorized execution.
//
// Error semantics mirror sequential evaluation exactly: kernels record
// errors per lane (colVec.errs), AND/OR discard a right-hand error when the
// left operand short-circuits, and the drain loops raise the surviving
// errors in row order — so an error past a LIMIT early-exit never surfaces,
// just as the row executor never evaluates that row.

// vecExpr evaluates one compiled expression over a batch. The returned
// column is owned by the expression (a per-execution buffer) or aliases a
// batch column; it is valid until the next evaluation.
type vecExpr func(ve *vecEnv, b *Batch) (*colVec, error)

// vecEnv is the per-execution state of a vectorized plan: the compiled
// environment (parameters, context), one result buffer per compiled node,
// and conversion scratch. Plans are shared across concurrent executions;
// every execution allocates its own vecEnv.
type vecEnv struct {
	env  *evalCtx
	bufs []colVec
	f64a []float64
	f64b []float64
}

// vecCompiler lowers expressions to vecExprs over the scanned table's column
// offset space.
type vecCompiler struct {
	rowComp *compiler
	nodes   int    // buffers a vecEnv must allocate
	wanted  []bool // column offsets read by kernels (the gathered set)
}

// newVecCompiler builds a compiler over the scanned table's layout; column
// references resolve with the row compiler's rules, which its fallback
// shares.
func newVecCompiler(info sourceInfo) *vecCompiler {
	return &vecCompiler{rowComp: &compiler{sources: []sourceInfo{info}}, wanted: make([]bool, info.width)}
}

func (vc *vecCompiler) newEnv(env *evalCtx) *vecEnv {
	return &vecEnv{env: env, bufs: make([]colVec, vc.nodes)}
}

// resolve maps a column reference to its offset in the layout, or -1.
func (vc *vecCompiler) resolve(table, name string) int {
	return vc.rowComp.resolve(table, name)
}

func (vc *vecCompiler) newBuf() int {
	id := vc.nodes
	vc.nodes++
	return id
}

// compile lowers e; ok is false when the statement cannot run vectorized.
func (vc *vecCompiler) compile(e Expr) (vecExpr, bool) {
	switch x := e.(type) {
	case *ColumnRef:
		off := vc.resolve(x.Table, x.Name)
		if off < 0 {
			return nil, false
		}
		vc.wanted[off] = true
		return func(_ *vecEnv, b *Batch) (*colVec, error) {
			return &b.cols[off], nil
		}, true

	case *Literal:
		return vc.compileConst(func(*evalCtx) (variant.Value, error) { return x.Value, nil }), true

	case *Param:
		idx := x.Index
		return vc.compileConst(func(env *evalCtx) (variant.Value, error) {
			if idx > len(env.params) {
				return variant.Value{}, paramUnboundErr(idx)
			}
			return env.params[idx-1], nil
		}), true

	case *BinaryExpr:
		switch x.Op {
		case "=", "<>", "<", "<=", ">", ">=":
			l, ok := vc.compile(x.L)
			if !ok {
				return nil, false
			}
			r, ok := vc.compile(x.R)
			if !ok {
				return nil, false
			}
			return vc.compileCmp(x.Op, l, r), true
		case "and", "or":
			l, ok := vc.compile(x.L)
			if !ok {
				return nil, false
			}
			r, ok := vc.compile(x.R)
			if !ok {
				return nil, false
			}
			return vc.compileLogic(x.Op == "and", l, r), true
		}
		return vc.compileFallback(e)

	case *UnaryExpr:
		if x.Op == "not" {
			sub, ok := vc.compile(x.X)
			if !ok {
				return nil, false
			}
			return vc.compileNot(sub), true
		}
		return vc.compileFallback(e)

	case *IsNullExpr:
		sub, ok := vc.compile(x.X)
		if !ok {
			return nil, false
		}
		not := x.Not
		id := vc.newBuf()
		return func(ve *vecEnv, b *Batch) (*colVec, error) {
			c, err := sub(ve, b)
			if err != nil {
				return nil, err
			}
			out := &ve.bufs[id]
			out.reset(vecBool, b.n)
			for i := 0; i < b.n; i++ {
				if e := c.laneErr(i); e != nil {
					out.setErr(i, b.n, e)
					continue
				}
				out.bools[i] = c.isNull(i) != not
			}
			return out, nil
		}, true

	default:
		return vc.compileFallback(e)
	}
}

// compileConst materializes a row-independent value across the batch. Its
// error (an unbound parameter) is every lane's, so it surfaces in row order
// after the errors of operands evaluated before it, as per row.
func (vc *vecCompiler) compileConst(get func(*evalCtx) (variant.Value, error)) vecExpr {
	id := vc.newBuf()
	return func(ve *vecEnv, b *Batch) (*colVec, error) {
		v, err := get(ve.env)
		out := &ve.bufs[id]
		if err != nil {
			out.reset(vecAny, b.n)
			for i := 0; i < b.n; i++ {
				out.setErr(i, b.n, err)
			}
			return out, nil
		}
		switch v.Kind() {
		case variant.Int:
			out.reset(vecInt, b.n)
			x := v.Int()
			for i := range out.ints {
				out.ints[i] = x
			}
		case variant.Float:
			out.reset(vecFloat, b.n)
			x := v.Float()
			for i := range out.floats {
				out.floats[i] = x
			}
		case variant.Text:
			out.reset(vecText, b.n)
			x := v.Text()
			for i := range out.strs {
				out.strs[i] = x
			}
		case variant.Bool:
			out.reset(vecBool, b.n)
			x := v.Bool()
			for i := range out.bools {
				out.bools[i] = x
			}
		case variant.Time:
			out.reset(vecTime, b.n)
			x := v.Time()
			for i := range out.times {
				out.times[i] = x
			}
		default: // NULL: zero boxed values
			out.reset(vecAny, b.n)
			for i := range out.anys {
				out.anys[i] = variant.Value{}
			}
		}
		return out, nil
	}
}

// compileFallback wraps the row compiler's closure: per lane it evaluates
// against the batch's backing row, recording the value or the error.
func (vc *vecCompiler) compileFallback(e Expr) (vecExpr, bool) {
	vc.rowComp.opaque = false
	ce := vc.rowComp.compile(e)
	if vc.rowComp.opaque {
		return nil, false
	}
	id := vc.newBuf()
	return func(ve *vecEnv, b *Batch) (*colVec, error) {
		out := &ve.bufs[id]
		out.reset(vecAny, b.n)
		for i := 0; i < b.n; i++ {
			v, err := ce(ve.env, b.row(i))
			if err != nil {
				out.setErr(i, b.n, err)
				continue
			}
			out.anys[i] = v
		}
		return out, nil
	}, true
}

func isNumVec(k vecKind) bool { return k == vecInt || k == vecFloat }

// floatView returns the column's lanes as float64, converting integer lanes
// through the same float64 widening variant.Compare applies.
func floatView(c *colVec, scratch *[]float64) []float64 {
	if c.kind == vecFloat {
		return c.floats
	}
	s := *scratch
	n := len(c.ints)
	if cap(s) < n {
		s = make([]float64, n)
	} else {
		s = s[:n]
	}
	for i, v := range c.ints {
		s[i] = float64(v)
	}
	*scratch = s
	return s
}

// orNulls merges two null bitmaps into dst (all three length-matched).
func orNulls(dst, a, b []uint64) {
	for i := range dst {
		dst[i] = a[i] | b[i]
	}
}

// cmpMask is a comparison operator as the set of three-way outcomes it
// accepts: bit c+1 is set when outcome c (-1, 0, 1) passes. pass inlines, so
// kernel loops test a lane without an indirect call.
type cmpMask uint8

func (m cmpMask) pass(c int) bool { return m&(1<<uint(c+1)) != 0 }

func cmpTest(op string) cmpMask {
	const lt, eq, gt = 1, 2, 4
	switch op {
	case "=":
		return eq
	case "<>":
		return lt | gt
	case "<":
		return lt
	case "<=":
		return lt | eq
	case ">":
		return gt
	default: // ">="
		return eq | gt
	}
}

// compileCmp lowers a comparison: typed loops when both sides share a
// comparable physical kind, otherwise the boxed per-lane path that mirrors
// the compiled closure (NULL → NULL, variant.Compare errors per lane).
func (vc *vecCompiler) compileCmp(op string, l, r vecExpr) vecExpr {
	id := vc.newBuf()
	test := cmpTest(op)
	return func(ve *vecEnv, b *Batch) (*colVec, error) {
		lc, err := l(ve, b)
		if err != nil {
			return nil, err
		}
		rc, err := r(ve, b)
		if err != nil {
			return nil, err
		}
		out := &ve.bufs[id]
		out.reset(vecBool, b.n)
		clean := lc.errs == nil && rc.errs == nil
		switch {
		case clean && isNumVec(lc.kind) && isNumVec(rc.kind):
			// Three-way compare through float64 with variant.Compare's own
			// helper, so NaN ordering matches the row path exactly.
			lf := floatView(lc, &ve.f64a)
			rf := floatView(rc, &ve.f64b)
			for i := 0; i < b.n; i++ {
				out.bools[i] = test.pass(variant.CompareFloats(lf[i], rf[i]))
			}
			orNulls(out.nulls, lc.nulls, rc.nulls)
			return out, nil
		case clean && lc.kind == vecText && rc.kind == vecText:
			for i := 0; i < b.n; i++ {
				out.bools[i] = test.pass(strings.Compare(lc.strs[i], rc.strs[i]))
			}
			orNulls(out.nulls, lc.nulls, rc.nulls)
			return out, nil
		case clean && lc.kind == vecTime && rc.kind == vecTime:
			for i := 0; i < b.n; i++ {
				c := 0
				if lc.times[i].Before(rc.times[i]) {
					c = -1
				} else if lc.times[i].After(rc.times[i]) {
					c = 1
				}
				out.bools[i] = test.pass(c)
			}
			orNulls(out.nulls, lc.nulls, rc.nulls)
			return out, nil
		}
		for i := 0; i < b.n; i++ {
			if e := lc.laneErr(i); e != nil {
				out.setErr(i, b.n, e)
				continue
			}
			if e := rc.laneErr(i); e != nil {
				out.setErr(i, b.n, e)
				continue
			}
			lv, rv := lc.value(i), rc.value(i)
			if lv.IsNull() || rv.IsNull() {
				out.setNull(i)
				continue
			}
			cmp, err := variant.Compare(lv, rv)
			if err != nil {
				out.setErr(i, b.n, err)
				continue
			}
			out.bools[i] = test.pass(cmp)
		}
		return out, nil
	}
}

// compileLogic lowers AND/OR with three-valued semantics and the row path's
// short-circuit error discipline: a left-hand error wins its lane, and a
// right-hand error is discarded when the left operand alone decides.
func (vc *vecCompiler) compileLogic(isAnd bool, l, r vecExpr) vecExpr {
	id := vc.newBuf()
	return func(ve *vecEnv, b *Batch) (*colVec, error) {
		lc, err := l(ve, b)
		if err != nil {
			return nil, err
		}
		rc, err := r(ve, b)
		if err != nil {
			return nil, err
		}
		out := &ve.bufs[id]
		out.reset(vecBool, b.n)
		if lc.kind == vecBool && rc.kind == vecBool && lc.errs == nil && rc.errs == nil {
			// No lane errors to order: a known operand equal to the deciding
			// value (false for AND, true for OR) decides, else NULL wins.
			// Lanes with errors take the boxed walk below.
			decide := !isAnd
			for i := 0; i < b.n; i++ {
				w, bit := i>>6, uint64(1)<<(uint(i)&63)
				lNull, rNull := lc.nulls[w]&bit != 0, rc.nulls[w]&bit != 0
				switch {
				case !lNull && lc.bools[i] == decide, !rNull && rc.bools[i] == decide:
					out.bools[i] = decide
				case lNull || rNull:
					out.nulls[w] |= bit
				default:
					out.bools[i] = !decide
				}
			}
			return out, nil
		}
		for i := 0; i < b.n; i++ {
			if e := lc.laneErr(i); e != nil {
				out.setErr(i, b.n, e)
				continue
			}
			lv := lc.value(i)
			lNull := lv.IsNull()
			var lb bool
			if !lNull {
				v, err := lv.AsBool()
				if err != nil {
					out.setErr(i, b.n, err)
					continue
				}
				lb = v
			}
			if isAnd && !lNull && !lb {
				out.bools[i] = false
				continue
			}
			if !isAnd && !lNull && lb {
				out.bools[i] = true
				continue
			}
			if e := rc.laneErr(i); e != nil {
				out.setErr(i, b.n, e)
				continue
			}
			rv := rc.value(i)
			rNull := rv.IsNull()
			var rb bool
			if !rNull {
				v, err := rv.AsBool()
				if err != nil {
					out.setErr(i, b.n, err)
					continue
				}
				rb = v
			}
			if isAnd && !rNull && !rb {
				out.bools[i] = false
				continue
			}
			if !isAnd && !rNull && rb {
				out.bools[i] = true
				continue
			}
			if lNull || rNull {
				out.setNull(i)
				continue
			}
			out.bools[i] = isAnd
		}
		return out, nil
	}
}

// compileNot lowers NOT: a bool-lane flip, or the boxed mirror of the
// compiled closure (NULL passthrough, AsBool errors per lane).
func (vc *vecCompiler) compileNot(sub vecExpr) vecExpr {
	id := vc.newBuf()
	return func(ve *vecEnv, b *Batch) (*colVec, error) {
		c, err := sub(ve, b)
		if err != nil {
			return nil, err
		}
		out := &ve.bufs[id]
		out.reset(vecBool, b.n)
		if c.kind == vecBool {
			for i := 0; i < b.n; i++ {
				out.bools[i] = !c.bools[i]
			}
			copy(out.nulls, c.nulls)
			if c.errs != nil {
				out.errs = make([]error, b.n)
				copy(out.errs, c.errs)
			}
			return out, nil
		}
		for i := 0; i < b.n; i++ {
			if e := c.laneErr(i); e != nil {
				out.setErr(i, b.n, e)
				continue
			}
			v := c.value(i)
			if v.IsNull() {
				out.setNull(i)
				continue
			}
			bv, err := v.AsBool()
			if err != nil {
				out.setErr(i, b.n, err)
				continue
			}
			out.bools[i] = !bv
		}
		return out, nil
	}
}
