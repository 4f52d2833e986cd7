package sqldb

import (
	"fmt"
	"strings"

	"repro/internal/variant"
)

// The reference executor's expression evaluator: an AST interpreter that
// resolves column references through a chain of scopes, one per level of
// rows (a joined row, the left row a lateral item runs on, ...). The engine
// compiles every expression instead (compile.go); this interpreter is kept,
// independent of the compiler, as the oracle the differential suites hold
// the compiled closures to: same values, NULL semantics and errors.

// scope resolves column references during evaluation. Scopes chain to outer
// scopes for LATERAL and correlated evaluation.
type scope struct {
	// sources are the FROM items visible at this level, in order.
	sources []*boundSource
	outer   *scope
}

// boundSource is one FROM item with its current row during iteration.
type boundSource struct {
	alias   string
	columns []Column
	row     Row
}

// lookup resolves a (table, column) reference. Unqualified names search all
// sources at this level, then outer scopes; ambiguity is an error.
func (s *scope) lookup(table, name string) (variant.Value, error) {
	for sc := s; sc != nil; sc = sc.outer {
		var found *variant.Value
		matches := 0
		for _, src := range sc.sources {
			if table != "" && !strings.EqualFold(src.alias, table) {
				continue
			}
			for i, c := range src.columns {
				if strings.EqualFold(c.Name, name) {
					v := src.row[i]
					found = &v
					matches++
				}
			}
		}
		if matches > 1 {
			return variant.Value{}, fmt.Errorf("sql: ambiguous column reference %q", name)
		}
		if matches == 1 {
			return *found, nil
		}
		if table != "" {
			// Check the qualifier exists at this level before ascending.
			for _, src := range sc.sources {
				if strings.EqualFold(src.alias, table) {
					return variant.Value{}, fmt.Errorf("sql: column %q not found in %q", name, table)
				}
			}
		}
	}
	if table != "" {
		return variant.Value{}, fmt.Errorf("sql: unknown table or alias %q", table)
	}
	return variant.Value{}, fmt.Errorf("sql: unknown column %q", name)
}

// bindScope slices a joined row into per-source bound rows.
func bindScope(sources []sourceInfo, joined Row, outer *scope) *scope {
	sc := &scope{outer: outer}
	off := 0
	for _, src := range sources {
		sc.sources = append(sc.sources, &boundSource{
			alias:   src.alias,
			columns: src.columns,
			row:     joined[off : off+src.width],
		})
		off += src.width
	}
	return sc
}

// evalExpr evaluates a non-aggregate expression.
func evalExpr(cx *evalCtx, sc *scope, e Expr) (variant.Value, error) {
	switch x := e.(type) {
	case *Literal:
		return x.Value, nil

	case *Param:
		if x.Index > len(cx.params) {
			return variant.Value{}, fmt.Errorf("sql: no value bound for parameter $%d", x.Index)
		}
		return cx.params[x.Index-1], nil

	case *ColumnRef:
		if sc == nil {
			return variant.Value{}, fmt.Errorf("sql: column %q referenced outside a row context", x.Name)
		}
		return sc.lookup(x.Table, x.Name)

	case *UnaryExpr:
		v, err := evalExpr(cx, sc, x.X)
		if err != nil {
			return variant.Value{}, err
		}
		switch x.Op {
		case "-":
			if v.IsNull() {
				return v, nil
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
		case "not":
			if v.IsNull() {
				return v, nil
			}
			b, err := v.AsBool()
			if err != nil {
				return variant.Value{}, err
			}
			return variant.NewBool(!b), nil
		default:
			return variant.Value{}, fmt.Errorf("sql: unknown unary operator %q", x.Op)
		}

	case *BinaryExpr:
		return evalBinary(cx, sc, x)

	case *CastExpr:
		v, err := evalExpr(cx, sc, x.X)
		if err != nil {
			return variant.Value{}, err
		}
		return castValue(v, x.Type)

	case *FuncExpr:
		if x.Over != nil {
			return variant.Value{}, fmt.Errorf("sql: window function %s() is not allowed here", x.Name)
		}
		if isWindowOnlyName(x.Name) {
			return variant.Value{}, fmt.Errorf("sql: window function %s() requires an OVER clause", x.Name)
		}
		if isAggregateName(x.Name) {
			return variant.Value{}, fmt.Errorf("sql: aggregate %s() not allowed here", x.Name)
		}
		return evalScalarFunc(cx, sc, x)

	case *InExpr:
		v, err := evalExpr(cx, sc, x.X)
		if err != nil {
			return variant.Value{}, err
		}
		if v.IsNull() {
			return variant.NewNull(), nil
		}
		anyNull := false
		for _, item := range x.List {
			iv, err := evalExpr(cx, sc, item)
			if err != nil {
				return variant.Value{}, err
			}
			if iv.IsNull() {
				anyNull = true
				continue
			}
			if c, err := variant.Compare(v, iv); err == nil && c == 0 {
				return variant.NewBool(!x.Not), nil
			}
		}
		if anyNull {
			return variant.NewNull(), nil
		}
		return variant.NewBool(x.Not), nil

	case *IsNullExpr:
		v, err := evalExpr(cx, sc, x.X)
		if err != nil {
			return variant.Value{}, err
		}
		return variant.NewBool(v.IsNull() != x.Not), nil

	case *LikeExpr:
		v, err := evalExpr(cx, sc, x.X)
		if err != nil {
			return variant.Value{}, err
		}
		pat, err := evalExpr(cx, sc, x.Pattern)
		if err != nil {
			return variant.Value{}, err
		}
		if v.IsNull() || pat.IsNull() {
			return variant.NewNull(), nil
		}
		matched, err := likeMatch(v.AsText(), pat.AsText())
		if err != nil {
			return variant.Value{}, err
		}
		return variant.NewBool(matched != x.Not), nil

	case *BetweenExpr:
		v, err := evalExpr(cx, sc, x.X)
		if err != nil {
			return variant.Value{}, err
		}
		lo, err := evalExpr(cx, sc, x.Lo)
		if err != nil {
			return variant.Value{}, err
		}
		hi, err := evalExpr(cx, sc, x.Hi)
		if err != nil {
			return variant.Value{}, err
		}
		if v.IsNull() || lo.IsNull() || hi.IsNull() {
			return variant.NewNull(), nil
		}
		cLo, err := variant.Compare(v, lo)
		if err != nil {
			return variant.Value{}, err
		}
		cHi, err := variant.Compare(v, hi)
		if err != nil {
			return variant.Value{}, err
		}
		return variant.NewBool((cLo >= 0 && cHi <= 0) != x.Not), nil

	case *CaseExpr:
		if x.Operand != nil {
			op, err := evalExpr(cx, sc, x.Operand)
			if err != nil {
				return variant.Value{}, err
			}
			for _, arm := range x.Whens {
				w, err := evalExpr(cx, sc, arm.When)
				if err != nil {
					return variant.Value{}, err
				}
				if c, err := variant.Compare(op, w); err == nil && c == 0 && !op.IsNull() {
					return evalExpr(cx, sc, arm.Then)
				}
			}
		} else {
			for _, arm := range x.Whens {
				w, err := evalExpr(cx, sc, arm.When)
				if err != nil {
					return variant.Value{}, err
				}
				if !w.IsNull() {
					b, err := w.AsBool()
					if err != nil {
						return variant.Value{}, err
					}
					if b {
						return evalExpr(cx, sc, arm.Then)
					}
				}
			}
		}
		if x.Else != nil {
			return evalExpr(cx, sc, x.Else)
		}
		return variant.NewNull(), nil

	default:
		return variant.Value{}, fmt.Errorf("sql: unsupported expression %T", e)
	}
}

func evalBinary(cx *evalCtx, sc *scope, x *BinaryExpr) (variant.Value, error) {
	// Short-circuit logic operators with SQL three-valued semantics.
	if x.Op == "and" || x.Op == "or" {
		l, err := evalExpr(cx, sc, x.L)
		if err != nil {
			return variant.Value{}, err
		}
		var lb bool
		lNull := l.IsNull()
		if !lNull {
			if lb, err = l.AsBool(); err != nil {
				return variant.Value{}, err
			}
		}
		if x.Op == "and" && !lNull && !lb {
			return variant.NewBool(false), nil
		}
		if x.Op == "or" && !lNull && lb {
			return variant.NewBool(true), nil
		}
		r, err := evalExpr(cx, sc, x.R)
		if err != nil {
			return variant.Value{}, err
		}
		rNull := r.IsNull()
		var rb bool
		if !rNull {
			if rb, err = r.AsBool(); err != nil {
				return variant.Value{}, err
			}
		}
		switch x.Op {
		case "and":
			if !rNull && !rb {
				return variant.NewBool(false), nil
			}
			if lNull || rNull {
				return variant.NewNull(), nil
			}
			return variant.NewBool(true), nil
		default: // or
			if !rNull && rb {
				return variant.NewBool(true), nil
			}
			if lNull || rNull {
				return variant.NewNull(), nil
			}
			return variant.NewBool(false), nil
		}
	}

	l, err := evalExpr(cx, sc, x.L)
	if err != nil {
		return variant.Value{}, err
	}
	r, err := evalExpr(cx, sc, x.R)
	if err != nil {
		return variant.Value{}, err
	}
	if l.IsNull() || r.IsNull() {
		return variant.NewNull(), nil
	}

	switch x.Op {
	case "||":
		return variant.NewText(l.AsText() + r.AsText()), nil
	case "+", "-", "*", "/", "%":
		return evalArith(x.Op, l, r)
	case "=", "<>", "<", "<=", ">", ">=":
		c, err := variant.Compare(l, r)
		if err != nil {
			return variant.Value{}, err
		}
		var b bool
		switch x.Op {
		case "=":
			b = c == 0
		case "<>":
			b = c != 0
		case "<":
			b = c < 0
		case "<=":
			b = c <= 0
		case ">":
			b = c > 0
		case ">=":
			b = c >= 0
		}
		return variant.NewBool(b), nil
	default:
		return variant.Value{}, fmt.Errorf("sql: unknown operator %q", x.Op)
	}
}

// evalScalarFunc dispatches a scalar call: builtin math/string functions
// first, then registered UDFs.
func evalScalarFunc(cx *evalCtx, sc *scope, x *FuncExpr) (variant.Value, error) {
	args := make([]variant.Value, len(x.Args))
	for i, a := range x.Args {
		v, err := evalExpr(cx, sc, a)
		if err != nil {
			return variant.Value{}, err
		}
		args[i] = v
	}
	name := strings.ToLower(x.Name)
	if fn, ok := builtinScalars[name]; ok {
		return fn(args)
	}
	if fn, ok := cx.db.funcs.scalar(name); ok {
		return fn(cx.ctxOrBackground(), cx.tx, args)
	}
	return variant.Value{}, fmt.Errorf("sql: unknown function %s()", x.Name)
}

// likeMatch evaluates a SQL LIKE pattern (% and _) against s, sharing the
// pattern translation with the compiled path (compile.go) so interpreted
// and compiled LIKE can never diverge.
func likeMatch(s, pattern string) (bool, error) {
	re, err := compileLikePattern(pattern)
	if err != nil {
		return false, err
	}
	return re.MatchString(s), nil
}

// truthy evaluates a predicate for WHERE/HAVING/ON: NULL counts as false.
func truthy(cx *evalCtx, sc *scope, e Expr) (bool, error) {
	v, err := evalExpr(cx, sc, e)
	if err != nil {
		return false, err
	}
	if v.IsNull() {
		return false, nil
	}
	return v.AsBool()
}

// evalGrouped evaluates one expression in a grouped context: GROUP BY keys
// resolve to their key values, aggregate calls go through aggFn, and other
// column references bind the group's representative row (NULL for an empty
// group).
func evalGrouped(cx *evalCtx, sources []sourceInfo, groupBy []Expr, keyVals []variant.Value, first Row, outer *scope, aggFn func(*FuncExpr) (variant.Value, error), e Expr) (variant.Value, error) {
	self := func(sub Expr) (variant.Value, error) {
		return evalGrouped(cx, sources, groupBy, keyVals, first, outer, aggFn, sub)
	}
	// A GROUP BY key expression evaluates to its key value.
	for i, ge := range groupBy {
		if exprEqual(e, ge) {
			return keyVals[i], nil
		}
	}
	switch x := e.(type) {
	case *FuncExpr:
		if isAggregateName(x.Name) {
			return aggFn(x)
		}
		// Scalar function of (possibly aggregate) arguments.
		args := make([]variant.Value, len(x.Args))
		for i, a := range x.Args {
			v, err := self(a)
			if err != nil {
				return variant.Value{}, err
			}
			args[i] = v
		}
		name := strings.ToLower(x.Name)
		if fn, ok := builtinScalars[name]; ok {
			return fn(args)
		}
		if fn, ok := cx.db.funcs.scalar(name); ok {
			return fn(cx.ctxOrBackground(), cx.tx, args)
		}
		return variant.Value{}, fmt.Errorf("sql: unknown function %s()", x.Name)
	case *BinaryExpr:
		// Fold the operands and combine them as a row does: AND and OR do
		// not evaluate the right operand once the left one decides.
		l, err := self(x.L)
		if err != nil {
			return variant.Value{}, err
		}
		if (x.Op == "and" || x.Op == "or") && !l.IsNull() {
			b, err := l.AsBool()
			if err != nil {
				return variant.Value{}, err
			}
			if b == (x.Op == "or") {
				return variant.NewBool(b), nil
			}
		}
		r, err := self(x.R)
		if err != nil {
			return variant.Value{}, err
		}
		return evalBinary(cx, nil, &BinaryExpr{Op: x.Op, L: &Literal{Value: l}, R: &Literal{Value: r}})
	case *UnaryExpr:
		v, err := self(x.X)
		if err != nil {
			return variant.Value{}, err
		}
		return evalExpr(cx, nil, &UnaryExpr{Op: x.Op, X: &Literal{Value: v}})
	case *CastExpr:
		v, err := self(x.X)
		if err != nil {
			return variant.Value{}, err
		}
		return castValue(v, x.Type)
	case *Literal, *Param:
		return evalExpr(cx, nil, e)
	case *ColumnRef:
		// Not a group key: evaluate against the first row of the group
		// (defined behaviour here; PostgreSQL would reject).
		if first == nil {
			return variant.NewNull(), nil
		}
		return evalExpr(cx, bindScope(sources, first, outer), e)
	case *CaseExpr:
		// Evaluate arms with group semantics.
		if x.Operand != nil {
			op, err := self(x.Operand)
			if err != nil {
				return variant.Value{}, err
			}
			for _, arm := range x.Whens {
				w, err := self(arm.When)
				if err != nil {
					return variant.Value{}, err
				}
				if c, err := variant.Compare(op, w); err == nil && c == 0 && !op.IsNull() {
					return self(arm.Then)
				}
			}
		} else {
			for _, arm := range x.Whens {
				w, err := self(arm.When)
				if err != nil {
					return variant.Value{}, err
				}
				if !w.IsNull() {
					b, err := w.AsBool()
					if err != nil {
						return variant.Value{}, err
					}
					if b {
						return self(arm.Then)
					}
				}
			}
		}
		if x.Else != nil {
			return self(x.Else)
		}
		return variant.NewNull(), nil
	default:
		return variant.Value{}, fmt.Errorf("sql: unsupported expression %T in aggregate context", e)
	}
}

// refLimits evaluates LIMIT/OFFSET, which see no row: offset ≤ 0 skips
// nothing (-1), a negative limit means unlimited.
func refLimits(cx *evalCtx, limitE, offsetE Expr) (offset, limit int, err error) {
	offset, limit = -1, -1
	if offsetE != nil {
		v, err := evalExpr(cx, nil, offsetE)
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
		v, err := evalExpr(cx, nil, limitE)
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

// refCallFromItem evaluates a FROM-clause function's arguments in sc and
// calls it.
func refCallFromItem(cx *evalCtx, f *FuncExpr, sc *scope) (RowStream, error) {
	vals := make([]variant.Value, len(f.Args))
	for i, a := range f.Args {
		v, err := evalExpr(cx, sc, a)
		if err != nil {
			return nil, err
		}
		vals[i] = v
	}
	return cx.db.callTableFunc(cx, f.Name, vals)
}
