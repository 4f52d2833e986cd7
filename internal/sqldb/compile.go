package sqldb

import (
	"context"
	"fmt"
	"regexp"
	"strings"

	"repro/internal/variant"
)

// Expression compilation. The physical planner compiles WHERE predicates,
// projections, join conditions, group keys and aggregate arguments once — at
// plan time, or at open for sources whose shape only open learns — into
// closures over (environment, row), replacing the per-row AST walk of
// eval.go. Compilation resolves everything that does not depend on the row
// up front: column references become fixed offsets into the (joined) row (no
// scope allocation, no case-insensitive name search per row), builtin
// functions are bound to their implementations (no registry lookup per
// call), comparison operators are specialized, and constant LIKE patterns
// pre-compile their regexps.
//
// Compiled evaluation must be observationally identical to evalExpr — same
// values, same NULL semantics, same errors — because the planner freely
// falls back to the interpreted path (and the property suite asserts
// equivalence). Only pure expressions compile: builtin scalar functions are
// bound at plan time, and anything referencing a registered UDF, an
// aggregate, or an unresolvable column reports "not compilable" so the
// planner can fall back.

// compEnv is the per-execution environment a compiled expression closes
// over: bound parameters and the statement context. It carries no row state,
// so one compiled plan serves concurrent executions.
type compEnv struct {
	params []variant.Value
	ctx    context.Context
}

// compiledExpr evaluates one expression against an environment and a row of
// the compiler's layout. Expressions compiled without a source (constant
// folding for LIMIT / probe bounds) ignore row.
type compiledExpr func(env *compEnv, row Row) (variant.Value, error)

// compiler compiles expressions against a row layout: its sources' columns
// concatenated in order — one scan leaf, the joined row above a join chain,
// or a table followed by the synthetic window-value columns. Column
// references become fixed offsets into that row. A compiler with no sources
// compiles only row-independent (constant) expressions.
type compiler struct {
	sources []sourceInfo
}

// resolve maps a column reference to its offset with scope.lookup's rules,
// or -1 unless exactly one column matches: an ambiguous or unknown reference
// stays interpreted, so the interpreter raises its error.
func (c *compiler) resolve(table, name string) int {
	found, matches, base := -1, 0, 0
	for _, src := range c.sources {
		if table == "" || strings.EqualFold(table, src.alias) {
			for i, col := range src.columns {
				if strings.EqualFold(col.Name, name) {
					found = base + i
					matches++
				}
			}
		}
		base += src.width
	}
	if matches != 1 {
		return -1
	}
	return found
}

// compileOver compiles e against the row layout of sources; nil when e is
// nil or does not compile (the caller interprets it).
func compileOver(e Expr, sources []sourceInfo) compiledExpr {
	if e == nil {
		return nil
	}
	ce, _ := (&compiler{sources: sources}).compile(e)
	return ce
}

// compileAll compiles every expression against sources; nil unless all of
// them compile.
func compileAll(es []Expr, sources []sourceInfo) []compiledExpr {
	out := make([]compiledExpr, len(es))
	for i, e := range es {
		if out[i] = compileOver(e, sources); out[i] == nil {
			return nil
		}
	}
	return out
}

func paramUnboundErr(idx int) error {
	return fmt.Errorf("sql: no value bound for parameter $%d", idx)
}

// compile lowers e to a closure; ok is false when e is not compilable
// (unknown column, UDF or aggregate call, unsupported node) and the caller
// must fall back to interpreted evaluation.
func (c *compiler) compile(e Expr) (compiledExpr, bool) {
	switch x := e.(type) {
	case *Literal:
		v := x.Value
		return func(*compEnv, Row) (variant.Value, error) { return v, nil }, true

	case *Param:
		idx := x.Index
		return func(env *compEnv, _ Row) (variant.Value, error) {
			if idx > len(env.params) {
				return variant.Value{}, paramUnboundErr(idx)
			}
			return env.params[idx-1], nil
		}, true

	case *ColumnRef:
		off := c.resolve(x.Table, x.Name)
		if off < 0 {
			return nil, false
		}
		return func(_ *compEnv, row Row) (variant.Value, error) { return row[off], nil }, true

	case *UnaryExpr:
		sub, ok := c.compile(x.X)
		if !ok {
			return nil, false
		}
		switch x.Op {
		case "-":
			return func(env *compEnv, row Row) (variant.Value, error) {
				v, err := sub(env, row)
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
			}, true
		case "not":
			return func(env *compEnv, row Row) (variant.Value, error) {
				v, err := sub(env, row)
				if err != nil || v.IsNull() {
					return v, err
				}
				b, err := v.AsBool()
				if err != nil {
					return variant.Value{}, err
				}
				return variant.NewBool(!b), nil
			}, true
		}
		return nil, false

	case *BinaryExpr:
		return c.compileBinary(x)

	case *CastExpr:
		sub, ok := c.compile(x.X)
		if !ok {
			return nil, false
		}
		typ := x.Type
		return func(env *compEnv, row Row) (variant.Value, error) {
			v, err := sub(env, row)
			if err != nil {
				return variant.Value{}, err
			}
			return castValue(v, typ)
		}, true

	case *FuncExpr:
		name := strings.ToLower(x.Name)
		if isAggregateName(name) || x.Star || x.Distinct || x.Over != nil {
			return nil, false
		}
		fn, builtin := builtinScalars[name]
		if !builtin {
			return nil, false
		}
		args := make([]compiledExpr, len(x.Args))
		for i, a := range x.Args {
			ca, ok := c.compile(a)
			if !ok {
				return nil, false
			}
			args[i] = ca
		}
		return func(env *compEnv, row Row) (variant.Value, error) {
			vals := make([]variant.Value, len(args))
			for i, a := range args {
				v, err := a(env, row)
				if err != nil {
					return variant.Value{}, err
				}
				vals[i] = v
			}
			return fn(vals)
		}, true

	case *InExpr:
		sub, ok := c.compile(x.X)
		if !ok {
			return nil, false
		}
		list := make([]compiledExpr, len(x.List))
		for i, item := range x.List {
			ci, ok := c.compile(item)
			if !ok {
				return nil, false
			}
			list[i] = ci
		}
		not := x.Not
		return func(env *compEnv, row Row) (variant.Value, error) {
			v, err := sub(env, row)
			if err != nil || v.IsNull() {
				return variant.NewNull(), err
			}
			anyNull := false
			for _, item := range list {
				iv, err := item(env, row)
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
		}, true

	case *IsNullExpr:
		sub, ok := c.compile(x.X)
		if !ok {
			return nil, false
		}
		not := x.Not
		return func(env *compEnv, row Row) (variant.Value, error) {
			v, err := sub(env, row)
			if err != nil {
				return variant.Value{}, err
			}
			return variant.NewBool(v.IsNull() != not), nil
		}, true

	case *LikeExpr:
		sub, ok := c.compile(x.X)
		if !ok {
			return nil, false
		}
		not := x.Not
		// A constant pattern pre-compiles its regexp once; dynamic patterns
		// compile per evaluation, as the interpreter does.
		if lit, isLit := x.Pattern.(*Literal); isLit && lit.Value.Kind() == variant.Text {
			re, err := compileLikePattern(lit.Value.Text())
			if err != nil {
				// Surface the interpreter's error lazily, at first evaluation.
				return func(*compEnv, Row) (variant.Value, error) {
					return variant.Value{}, err
				}, true
			}
			return func(env *compEnv, row Row) (variant.Value, error) {
				v, err := sub(env, row)
				if err != nil || v.IsNull() {
					return variant.NewNull(), err
				}
				return variant.NewBool(re.MatchString(v.AsText()) != not), nil
			}, true
		}
		pat, ok := c.compile(x.Pattern)
		if !ok {
			return nil, false
		}
		return func(env *compEnv, row Row) (variant.Value, error) {
			v, err := sub(env, row)
			if err != nil {
				return variant.Value{}, err
			}
			p, err := pat(env, row)
			if err != nil {
				return variant.Value{}, err
			}
			if v.IsNull() || p.IsNull() {
				return variant.NewNull(), nil
			}
			matched, err := likeMatch(v.AsText(), p.AsText())
			if err != nil {
				return variant.Value{}, err
			}
			return variant.NewBool(matched != not), nil
		}, true

	case *BetweenExpr:
		sub, ok := c.compile(x.X)
		if !ok {
			return nil, false
		}
		lo, ok := c.compile(x.Lo)
		if !ok {
			return nil, false
		}
		hi, ok := c.compile(x.Hi)
		if !ok {
			return nil, false
		}
		not := x.Not
		return func(env *compEnv, row Row) (variant.Value, error) {
			v, err := sub(env, row)
			if err != nil {
				return variant.Value{}, err
			}
			lv, err := lo(env, row)
			if err != nil {
				return variant.Value{}, err
			}
			hv, err := hi(env, row)
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
		}, true

	case *CaseExpr:
		return c.compileCase(x)
	}
	return nil, false
}

// compileBinary lowers logic, comparison, arithmetic, and concatenation.
func (c *compiler) compileBinary(x *BinaryExpr) (compiledExpr, bool) {
	l, ok := c.compile(x.L)
	if !ok {
		return nil, false
	}
	r, ok := c.compile(x.R)
	if !ok {
		return nil, false
	}

	switch x.Op {
	case "and", "or":
		isAnd := x.Op == "and"
		return func(env *compEnv, row Row) (variant.Value, error) {
			lv, err := l(env, row)
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
			rv, err := r(env, row)
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
		}, true

	case "||":
		return func(env *compEnv, row Row) (variant.Value, error) {
			lv, rv, err := evalPair(env, row, l, r)
			if err != nil || lv.IsNull() || rv.IsNull() {
				return variant.NewNull(), err
			}
			return variant.NewText(lv.AsText() + rv.AsText()), nil
		}, true

	case "+", "-", "*", "/", "%":
		op := x.Op
		return func(env *compEnv, row Row) (variant.Value, error) {
			lv, rv, err := evalPair(env, row, l, r)
			if err != nil || lv.IsNull() || rv.IsNull() {
				return variant.NewNull(), err
			}
			return evalArith(op, lv, rv)
		}, true

	case "=", "<>", "<", "<=", ">", ">=":
		// Specialize the comparison-result test once, at compile time.
		test := cmpTest(x.Op)
		return func(env *compEnv, row Row) (variant.Value, error) {
			lv, rv, err := evalPair(env, row, l, r)
			if err != nil || lv.IsNull() || rv.IsNull() {
				return variant.NewNull(), err
			}
			cmp, err := variant.Compare(lv, rv)
			if err != nil {
				return variant.Value{}, err
			}
			return variant.NewBool(test.pass(cmp)), nil
		}, true
	}
	return nil, false
}

// evalPair evaluates two compiled operands.
func evalPair(env *compEnv, row Row, l, r compiledExpr) (variant.Value, variant.Value, error) {
	lv, err := l(env, row)
	if err != nil {
		return variant.Value{}, variant.Value{}, err
	}
	rv, err := r(env, row)
	if err != nil {
		return variant.Value{}, variant.Value{}, err
	}
	return lv, rv, nil
}

// compileCase lowers both CASE forms.
func (c *compiler) compileCase(x *CaseExpr) (compiledExpr, bool) {
	var operand compiledExpr
	if x.Operand != nil {
		op, ok := c.compile(x.Operand)
		if !ok {
			return nil, false
		}
		operand = op
	}
	whens := make([]compiledExpr, len(x.Whens))
	thens := make([]compiledExpr, len(x.Whens))
	for i, arm := range x.Whens {
		w, ok := c.compile(arm.When)
		if !ok {
			return nil, false
		}
		t, ok := c.compile(arm.Then)
		if !ok {
			return nil, false
		}
		whens[i], thens[i] = w, t
	}
	var elseFn compiledExpr
	if x.Else != nil {
		e, ok := c.compile(x.Else)
		if !ok {
			return nil, false
		}
		elseFn = e
	}
	return func(env *compEnv, row Row) (variant.Value, error) {
		if operand != nil {
			op, err := operand(env, row)
			if err != nil {
				return variant.Value{}, err
			}
			for i := range whens {
				w, err := whens[i](env, row)
				if err != nil {
					return variant.Value{}, err
				}
				if cmp, err := variant.Compare(op, w); err == nil && cmp == 0 && !op.IsNull() {
					return thens[i](env, row)
				}
			}
		} else {
			for i := range whens {
				w, err := whens[i](env, row)
				if err != nil {
					return variant.Value{}, err
				}
				if !w.IsNull() {
					b, err := w.AsBool()
					if err != nil {
						return variant.Value{}, err
					}
					if b {
						return thens[i](env, row)
					}
				}
			}
		}
		if elseFn != nil {
			return elseFn(env, row)
		}
		return variant.NewNull(), nil
	}, true
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
