package sqldb

import (
	"fmt"
	"regexp"
	"strings"

	"repro/internal/variant"
)

// Expression compilation. Every expression the engine evaluates compiles
// once — at plan time, at open for sources whose shape only open learns, and
// once per execution for DML — into a closure over (evalCtx, row):
// WHERE predicates, join conditions and keys, group keys, aggregate
// arguments, window inputs, projections, ORDER BY keys, HAVING and grouped
// SELECT lists, LIMIT/OFFSET, index probe bounds, FROM-clause function
// arguments, and DML's VALUES, SET and WHERE. Compilation resolves what does
// not depend on the row up front: column references become fixed offsets
// into the (joined) row or an enclosing level's row, builtin functions are
// bound to their implementations, comparison operators are specialized, and
// constant LIKE patterns pre-compile their regexps.
//
// Compilation is total. What can only fail at run time — an unknown or
// ambiguous column, an unknown function, an aggregate or window call where
// none is allowed — compiles to a closure that raises the error when it is
// first evaluated, so an input that evaluates nothing stays error-free, in
// the evaluation order docs/sql-reference.md states. Registered UDFs are
// looked up per call. The reference executor (reference_test.go) keeps an
// AST interpreter of its own as the oracle the differential suites compare
// this compiler against.

// compiledExpr evaluates one expression for a statement's execution (cx: its
// parameters, context and database, the rows enclosing a lateral run, the
// group of a grouped projection) against a row of the compiler's layout: the
// joined row, or a grouped projection's group's first row (nil for an empty
// group). Expressions compiled without a row context (compileConst) ignore
// row. A compiled plan holds no execution state, so one serves concurrent
// executions.
type compiledExpr func(cx *evalCtx, row Row) (variant.Value, error)

// compiler compiles expressions against a row layout: its sources' columns
// concatenated in order — one scan leaf, the joined row above a join chain,
// or a table followed by the synthetic window-value columns. Column
// references become fixed offsets into that row, or into the row of an
// enclosing level.
type compiler struct {
	sources []sourceInfo
	// outer are the layouts of the levels enclosing the row, nearest first:
	// a lateral item's left row, then whatever encloses that. A reference
	// resolves level by level with the rules of the reference executor's
	// scope lookup; evalCtx.outer carries the rows.
	outer [][]sourceInfo
	// noRow compiles for a context with no row at all (LIMIT/OFFSET, probe
	// bounds, INSERT ... VALUES): every column reference is an error.
	noRow bool
	// group, when set, compiles over finished groups (see grouped).
	group *groupLayout
	// opaque records that a closure compiled here raises a deferred error,
	// calls a UDF, or ignores a call modifier (a scalar f(*) or
	// f(DISTINCT x)). The batch compiler declines such expressions.
	opaque bool
}

// groupLayout is what a grouped expression reads besides the first row: the
// GROUP BY key expressions, whose values the group holds, and the aggregate
// calls, whose results it folds.
type groupLayout struct {
	keys  []Expr
	specs []*aggSpec
}

// compileOver compiles e against sources within the enclosing levels; nil
// for a nil e.
func compileOver(e Expr, sources []sourceInfo, levels [][]sourceInfo) compiledExpr {
	if e == nil {
		return nil
	}
	return (&compiler{sources: sources, outer: levels}).compile(e)
}

// compileList compiles every expression of es against sources.
func compileList(es []Expr, sources []sourceInfo, levels [][]sourceInfo) []compiledExpr {
	c := &compiler{sources: sources, outer: levels}
	out := make([]compiledExpr, len(es))
	for i, e := range es {
		out[i] = c.compile(e)
	}
	return out
}

// compileConst compiles e for a context with no row; nil for a nil e.
func compileConst(e Expr) compiledExpr {
	if e == nil {
		return nil
	}
	return (&compiler{noRow: true}).compile(e)
}

// evalList evaluates compiled expressions into a fresh row.
func evalList(cx *evalCtx, row Row, es []compiledExpr) (Row, error) {
	out := make(Row, len(es))
	for i, e := range es {
		v, err := e(cx, row)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

// truth reads a predicate's value as WHERE, HAVING and ON do: NULL is false.
func truth(v variant.Value, err error) (bool, error) {
	if err != nil || v.IsNull() {
		return false, err
	}
	return v.AsBool()
}

func paramUnboundErr(idx int) error {
	return fmt.Errorf("sql: no value bound for parameter $%d", idx)
}

// fail compiles to err, raised when the expression is first evaluated.
func (c *compiler) fail(err error) compiledExpr {
	c.opaque = true
	return func(*evalCtx, Row) (variant.Value, error) { return variant.Value{}, err }
}

// resolveIn counts the columns of one level's sources that a (table, name)
// reference matches, with the offset of the last one; aliased reports that
// a qualifier names one of the level's sources.
func resolveIn(sources []sourceInfo, table, name string) (off, matches int, aliased bool) {
	base := 0
	for _, src := range sources {
		if table == "" || strings.EqualFold(table, src.alias) {
			aliased = aliased || table != ""
			for i, col := range src.columns {
				if strings.EqualFold(col.Name, name) {
					off = base + i
					matches++
				}
			}
		}
		base += src.width
	}
	return off, matches, aliased
}

// resolve maps a column reference to its offset in the row when exactly one
// column of the row's own sources matches, else -1.
func (c *compiler) resolve(table, name string) int {
	off, matches, _ := resolveIn(c.sources, table, name)
	if matches != 1 {
		return -1
	}
	return off
}

// column compiles a column reference: the first level with a match decides,
// more than one match there is ambiguous, and a qualifier naming a source of
// a level without the column stops the search.
func (c *compiler) column(x *ColumnRef) compiledExpr {
	if c.noRow {
		return c.fail(fmt.Errorf("sql: column %q referenced outside a row context", x.Name))
	}
	for lvl := 0; lvl <= len(c.outer); lvl++ {
		sources := c.sources
		if lvl > 0 {
			sources = c.outer[lvl-1]
		}
		off, matches, aliased := resolveIn(sources, x.Table, x.Name)
		switch {
		case matches > 1:
			return c.fail(fmt.Errorf("sql: ambiguous column reference %q", x.Name))
		case matches == 1 && lvl == 0:
			return func(_ *evalCtx, row Row) (variant.Value, error) { return row[off], nil }
		case matches == 1:
			up := lvl - 1
			return func(cx *evalCtx, _ Row) (variant.Value, error) { return cx.outer[up][off], nil }
		case aliased:
			return c.fail(fmt.Errorf("sql: column %q not found in %q", x.Name, x.Table))
		}
	}
	if x.Table != "" {
		return c.fail(fmt.Errorf("sql: unknown table or alias %q", x.Table))
	}
	return c.fail(fmt.Errorf("sql: unknown column %q", x.Name))
}

// call compiles a scalar function call: a builtin bound now, anything else
// looked up among the registered UDFs per call, after its arguments, so an
// unknown name fails only when called.
func (c *compiler) call(x *FuncExpr) compiledExpr {
	args := make([]compiledExpr, len(x.Args))
	for i, a := range x.Args {
		args[i] = c.compile(a)
	}
	name := strings.ToLower(x.Name)
	if fn, ok := builtinScalars[name]; ok {
		c.opaque = c.opaque || x.Star || x.Distinct
		return func(cx *evalCtx, row Row) (variant.Value, error) {
			vals, err := evalList(cx, row, args)
			if err != nil {
				return variant.Value{}, err
			}
			return fn(vals)
		}
	}
	c.opaque = true
	return func(cx *evalCtx, row Row) (variant.Value, error) {
		vals, err := evalList(cx, row, args)
		if err != nil {
			return variant.Value{}, err
		}
		fn, ok := cx.db.funcs.scalar(name)
		if !ok {
			return variant.Value{}, fmt.Errorf("sql: unknown function %s()", x.Name)
		}
		return callScalarUDF(cx, name, fn, vals)
	}
}

// grouped compiles the nodes a grouped context reads differently from a
// row: a GROUP BY key expression reads the group's key value, an aggregate
// call its result (or the error it met), a scalar call skips the row's
// window checks, and any other column reads the group's first row (NULL for
// an empty group). It returns nil for the nodes that compile as in a row —
// operators, casts, CASE, literals and parameters — whose operands compile
// grouped in turn.
func (c *compiler) grouped(e Expr) compiledExpr {
	for i, k := range c.group.keys {
		if exprEqual(e, k) {
			return func(cx *evalCtx, _ Row) (variant.Value, error) { return cx.group.keyVals[i], nil }
		}
	}
	switch x := e.(type) {
	case *FuncExpr:
		if !isAggregateName(x.Name) {
			return c.call(x)
		}
		for i, sp := range c.group.specs {
			if !exprEqual(sp.fn, x) {
				continue
			}
			if sp.err != nil {
				return c.fail(sp.err)
			}
			return func(cx *evalCtx, _ Row) (variant.Value, error) { return cx.group.result(i) }
		}
		return c.fail(fmt.Errorf("sql: unknown aggregate %s()", x.Name))
	case *ColumnRef:
		col := c.column(x)
		return func(cx *evalCtx, first Row) (variant.Value, error) {
			if first == nil {
				return variant.NewNull(), nil
			}
			return col(cx, first)
		}
	case *BinaryExpr, *UnaryExpr, *CastExpr, *CaseExpr, *Literal, *Param:
		return nil
	}
	return c.fail(fmt.Errorf("sql: unsupported expression %T in aggregate context", e))
}

// compile lowers e to a closure.
func (c *compiler) compile(e Expr) compiledExpr {
	if c.group != nil {
		if ce := c.grouped(e); ce != nil {
			return ce
		}
	}
	switch x := e.(type) {
	case *Literal:
		v := x.Value
		return func(*evalCtx, Row) (variant.Value, error) { return v, nil }

	case *Param:
		idx := x.Index
		return func(cx *evalCtx, _ Row) (variant.Value, error) {
			if idx > len(cx.params) {
				return variant.Value{}, paramUnboundErr(idx)
			}
			return cx.params[idx-1], nil
		}

	case *ColumnRef:
		return c.column(x)

	case *UnaryExpr:
		sub := c.compile(x.X)
		switch x.Op {
		case "-":
			return func(cx *evalCtx, row Row) (variant.Value, error) {
				v, err := sub(cx, row)
				if err != nil || v.IsNull() {
					return v, err
				}
				if v.Kind() == variant.Int {
					n, err := negInt64(v.Int())
					if err != nil {
						return variant.Value{}, err
					}
					return variant.NewInt(n), nil
				}
				f, err := v.AsFloat()
				if err != nil {
					return variant.Value{}, err
				}
				return variant.NewFloat(-f), nil
			}
		case "not":
			return func(cx *evalCtx, row Row) (variant.Value, error) {
				v, err := sub(cx, row)
				if err != nil || v.IsNull() {
					return v, err
				}
				b, err := v.AsBool()
				if err != nil {
					return variant.Value{}, err
				}
				return variant.NewBool(!b), nil
			}
		}
		c.opaque = true
		return func(cx *evalCtx, row Row) (variant.Value, error) {
			if _, err := sub(cx, row); err != nil {
				return variant.Value{}, err
			}
			return variant.Value{}, fmt.Errorf("sql: unknown unary operator %q", x.Op)
		}

	case *BinaryExpr:
		return c.compileBinary(x)

	case *CastExpr:
		sub := c.compile(x.X)
		typ := x.Type
		return func(cx *evalCtx, row Row) (variant.Value, error) {
			v, err := sub(cx, row)
			if err != nil {
				return variant.Value{}, err
			}
			return castValue(v, typ)
		}

	case *FuncExpr:
		switch {
		case x.Over != nil:
			return c.fail(fmt.Errorf("sql: window function %s() is not allowed here", x.Name))
		case isWindowOnlyName(x.Name):
			return c.fail(fmt.Errorf("sql: window function %s() requires an OVER clause", x.Name))
		case isAggregateName(x.Name):
			return c.fail(fmt.Errorf("sql: aggregate %s() not allowed here", x.Name))
		}
		return c.call(x)

	case *InExpr:
		sub := c.compile(x.X)
		list := make([]compiledExpr, len(x.List))
		for i, item := range x.List {
			list[i] = c.compile(item)
		}
		not := x.Not
		return func(cx *evalCtx, row Row) (variant.Value, error) {
			v, err := sub(cx, row)
			if err != nil || v.IsNull() {
				return variant.NewNull(), err
			}
			anyNull := false
			for _, item := range list {
				iv, err := item(cx, row)
				if err != nil {
					return variant.Value{}, err
				}
				if iv.IsNull() {
					anyNull = true
					continue
				}
				if cmp, err := variant.Compare(v, iv); err == nil && cmp == 0 {
					return variant.NewBool(!not), nil
				}
			}
			if anyNull {
				return variant.NewNull(), nil
			}
			return variant.NewBool(not), nil
		}

	case *IsNullExpr:
		sub := c.compile(x.X)
		not := x.Not
		return func(cx *evalCtx, row Row) (variant.Value, error) {
			v, err := sub(cx, row)
			if err != nil {
				return variant.Value{}, err
			}
			return variant.NewBool(v.IsNull() != not), nil
		}

	case *LikeExpr:
		sub := c.compile(x.X)
		not := x.Not
		// A constant pattern pre-compiles its regexp once; dynamic patterns
		// compile per evaluation.
		if lit, isLit := x.Pattern.(*Literal); isLit && lit.Value.Kind() == variant.Text {
			re, err := compileLikePattern(lit.Value.Text())
			if err != nil {
				return c.fail(err)
			}
			return func(cx *evalCtx, row Row) (variant.Value, error) {
				v, err := sub(cx, row)
				if err != nil || v.IsNull() {
					return variant.NewNull(), err
				}
				return variant.NewBool(re.MatchString(v.AsText()) != not), nil
			}
		}
		pat := c.compile(x.Pattern)
		return func(cx *evalCtx, row Row) (variant.Value, error) {
			v, p, err := evalPair(cx, row, sub, pat)
			if err != nil || v.IsNull() || p.IsNull() {
				return variant.NewNull(), err
			}
			re, err := compileLikePattern(p.AsText())
			if err != nil {
				return variant.Value{}, err
			}
			return variant.NewBool(re.MatchString(v.AsText()) != not), nil
		}

	case *BetweenExpr:
		sub, lo, hi := c.compile(x.X), c.compile(x.Lo), c.compile(x.Hi)
		not := x.Not
		return func(cx *evalCtx, row Row) (variant.Value, error) {
			v, err := sub(cx, row)
			if err != nil {
				return variant.Value{}, err
			}
			lv, err := lo(cx, row)
			if err != nil {
				return variant.Value{}, err
			}
			hv, err := hi(cx, row)
			if err != nil {
				return variant.Value{}, err
			}
			if v.IsNull() || lv.IsNull() || hv.IsNull() {
				return variant.NewNull(), nil
			}
			cLo, err := variant.Compare(v, lv)
			if err != nil {
				return variant.Value{}, err
			}
			cHi, err := variant.Compare(v, hv)
			if err != nil {
				return variant.Value{}, err
			}
			return variant.NewBool((cLo >= 0 && cHi <= 0) != not), nil
		}

	case *CaseExpr:
		return c.compileCase(x)
	}
	return c.fail(fmt.Errorf("sql: unsupported expression %T", e))
}

// compileBinary lowers logic, comparison, arithmetic, and concatenation.
func (c *compiler) compileBinary(x *BinaryExpr) compiledExpr {
	l, r := c.compile(x.L), c.compile(x.R)
	switch x.Op {
	case "and", "or":
		isAnd := x.Op == "and"
		return func(cx *evalCtx, row Row) (variant.Value, error) {
			lv, err := l(cx, row)
			if err != nil {
				return variant.Value{}, err
			}
			var lb bool
			lNull := lv.IsNull()
			if !lNull {
				if lb, err = lv.AsBool(); err != nil {
					return variant.Value{}, err
				}
			}
			if isAnd && !lNull && !lb {
				return variant.NewBool(false), nil
			}
			if !isAnd && !lNull && lb {
				return variant.NewBool(true), nil
			}
			rv, err := r(cx, row)
			if err != nil {
				return variant.Value{}, err
			}
			rNull := rv.IsNull()
			var rb bool
			if !rNull {
				if rb, err = rv.AsBool(); err != nil {
					return variant.Value{}, err
				}
			}
			if isAnd {
				if !rNull && !rb {
					return variant.NewBool(false), nil
				}
				if lNull || rNull {
					return variant.NewNull(), nil
				}
				return variant.NewBool(true), nil
			}
			if !rNull && rb {
				return variant.NewBool(true), nil
			}
			if lNull || rNull {
				return variant.NewNull(), nil
			}
			return variant.NewBool(false), nil
		}

	case "||":
		return func(cx *evalCtx, row Row) (variant.Value, error) {
			lv, rv, err := evalPair(cx, row, l, r)
			if err != nil || lv.IsNull() || rv.IsNull() {
				return variant.NewNull(), err
			}
			return variant.NewText(lv.AsText() + rv.AsText()), nil
		}

	case "+", "-", "*", "/", "%":
		op := x.Op
		return func(cx *evalCtx, row Row) (variant.Value, error) {
			lv, rv, err := evalPair(cx, row, l, r)
			if err != nil || lv.IsNull() || rv.IsNull() {
				return variant.NewNull(), err
			}
			return evalArith(op, lv, rv)
		}

	case "=", "<>", "<", "<=", ">", ">=":
		// Specialize the comparison-result test once, at compile time.
		test := cmpTest(x.Op)
		return func(cx *evalCtx, row Row) (variant.Value, error) {
			lv, rv, err := evalPair(cx, row, l, r)
			if err != nil || lv.IsNull() || rv.IsNull() {
				return variant.NewNull(), err
			}
			cmp, err := variant.Compare(lv, rv)
			if err != nil {
				return variant.Value{}, err
			}
			return variant.NewBool(test.pass(cmp)), nil
		}
	}
	c.opaque = true
	return func(cx *evalCtx, row Row) (variant.Value, error) {
		lv, rv, err := evalPair(cx, row, l, r)
		if err != nil || lv.IsNull() || rv.IsNull() {
			return variant.NewNull(), err
		}
		return variant.Value{}, fmt.Errorf("sql: unknown operator %q", x.Op)
	}
}

// evalPair evaluates two compiled operands.
func evalPair(cx *evalCtx, row Row, l, r compiledExpr) (variant.Value, variant.Value, error) {
	lv, err := l(cx, row)
	if err != nil {
		return variant.Value{}, variant.Value{}, err
	}
	rv, err := r(cx, row)
	if err != nil {
		return variant.Value{}, variant.Value{}, err
	}
	return lv, rv, nil
}

// compileCase lowers both CASE forms.
func (c *compiler) compileCase(x *CaseExpr) compiledExpr {
	var operand, elseFn compiledExpr
	if x.Operand != nil {
		operand = c.compile(x.Operand)
	}
	whens := make([]compiledExpr, len(x.Whens))
	thens := make([]compiledExpr, len(x.Whens))
	for i, arm := range x.Whens {
		whens[i], thens[i] = c.compile(arm.When), c.compile(arm.Then)
	}
	if x.Else != nil {
		elseFn = c.compile(x.Else)
	}
	return func(cx *evalCtx, row Row) (variant.Value, error) {
		if operand != nil {
			op, err := operand(cx, row)
			if err != nil {
				return variant.Value{}, err
			}
			for i := range whens {
				w, err := whens[i](cx, row)
				if err != nil {
					return variant.Value{}, err
				}
				if cmp, err := variant.Compare(op, w); err == nil && cmp == 0 && !op.IsNull() {
					return thens[i](cx, row)
				}
			}
		} else {
			for i := range whens {
				w, err := whens[i](cx, row)
				if err != nil {
					return variant.Value{}, err
				}
				if !w.IsNull() {
					b, err := w.AsBool()
					if err != nil {
						return variant.Value{}, err
					}
					if b {
						return thens[i](cx, row)
					}
				}
			}
		}
		if elseFn != nil {
			return elseFn(cx, row)
		}
		return variant.NewNull(), nil
	}
}

// compileLikePattern translates a SQL LIKE pattern to a compiled regexp —
// the one-time half of likeMatch.
func compileLikePattern(pattern string) (*regexp.Regexp, error) {
	var sb strings.Builder
	sb.WriteString("^")
	for _, r := range pattern {
		switch r {
		case '%':
			sb.WriteString(".*")
		case '_':
			sb.WriteString(".")
		default:
			sb.WriteString(regexp.QuoteMeta(string(r)))
		}
	}
	sb.WriteString("$")
	re, err := regexp.Compile("(?s)" + sb.String())
	if err != nil {
		return nil, fmt.Errorf("sql: invalid LIKE pattern %q: %w", pattern, err)
	}
	return re, nil
}
