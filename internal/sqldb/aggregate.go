package sqldb

import (
	"fmt"
	"strings"

	"repro/internal/variant"
)

// evalGrouped evaluates one expression in a grouped context: GROUP BY keys
// resolve to their key values, aggregate calls go through aggFn, and other
// column references bind the group's representative row (NULL for an empty
// group). It is the single grouped-expression evaluator — the reference
// executor (folding each group's argument values) and the hash aggregations
// (aggEval, reading incremental accumulator results) both delegate here, so
// the paths cannot diverge on grouped semantics.
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
			return fn(cx.ctxOrBackground(), cx.db, args)
		}
		return variant.Value{}, fmt.Errorf("sql: unknown function %s()", x.Name)
	case *BinaryExpr:
		// Re-dispatching through evalBinary with group-aware operand
		// evaluation via a temporary row scope is complex; fold both sides
		// (no short-circuit inside HAVING is acceptable).
		l, err := self(x.L)
		if err != nil {
			return variant.Value{}, err
		}
		r, err := self(x.R)
		if err != nil {
			return variant.Value{}, err
		}
		return evalBinary(cx.withScope(nil), &BinaryExpr{Op: x.Op, L: &Literal{Value: l}, R: &Literal{Value: r}})
	case *UnaryExpr:
		v, err := self(x.X)
		if err != nil {
			return variant.Value{}, err
		}
		return evalExpr(cx.withScope(nil), &UnaryExpr{Op: x.Op, X: &Literal{Value: v}})
	case *CastExpr:
		v, err := self(x.X)
		if err != nil {
			return variant.Value{}, err
		}
		return castValue(v, x.Type)
	case *Literal, *Param:
		return evalExpr(cx, e)
	case *ColumnRef:
		// Not a group key: evaluate against the first row of the group
		// (defined behaviour here; PostgreSQL would reject).
		if first == nil {
			return variant.NewNull(), nil
		}
		sc := bindScope(sources, first, outer)
		return evalExpr(cx.withScope(sc), e)
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

// exprEqual reports structural equality of two expressions (used to match
// GROUP BY keys in the projection).
func exprEqual(a, b Expr) bool {
	switch x := a.(type) {
	case *Literal:
		y, ok := b.(*Literal)
		return ok && x.Value.Equal(y.Value)
	case *ColumnRef:
		y, ok := b.(*ColumnRef)
		return ok && strings.EqualFold(x.Table, y.Table) && strings.EqualFold(x.Name, y.Name)
	case *Param:
		y, ok := b.(*Param)
		return ok && x.Index == y.Index
	case *BinaryExpr:
		y, ok := b.(*BinaryExpr)
		return ok && x.Op == y.Op && exprEqual(x.L, y.L) && exprEqual(x.R, y.R)
	case *UnaryExpr:
		y, ok := b.(*UnaryExpr)
		return ok && x.Op == y.Op && exprEqual(x.X, y.X)
	case *CastExpr:
		y, ok := b.(*CastExpr)
		return ok && x.Type == y.Type && exprEqual(x.X, y.X)
	case *FuncExpr:
		y, ok := b.(*FuncExpr)
		if !ok || !strings.EqualFold(x.Name, y.Name) || x.Star != y.Star ||
			x.Distinct != y.Distinct || len(x.Args) != len(y.Args) {
			return false
		}
		for i := range x.Args {
			if !exprEqual(x.Args[i], y.Args[i]) {
				return false
			}
		}
		return windowSpecEqual(x.Over, y.Over)
	case *InExpr:
		y, ok := b.(*InExpr)
		if !ok || x.Not != y.Not || len(x.List) != len(y.List) || !exprEqual(x.X, y.X) {
			return false
		}
		for i := range x.List {
			if !exprEqual(x.List[i], y.List[i]) {
				return false
			}
		}
		return true
	case *IsNullExpr:
		y, ok := b.(*IsNullExpr)
		return ok && x.Not == y.Not && exprEqual(x.X, y.X)
	case *LikeExpr:
		y, ok := b.(*LikeExpr)
		return ok && x.Not == y.Not && exprEqual(x.X, y.X) && exprEqual(x.Pattern, y.Pattern)
	case *BetweenExpr:
		y, ok := b.(*BetweenExpr)
		return ok && x.Not == y.Not && exprEqual(x.X, y.X) && exprEqual(x.Lo, y.Lo) && exprEqual(x.Hi, y.Hi)
	case *CaseExpr:
		y, ok := b.(*CaseExpr)
		if !ok || (x.Operand == nil) != (y.Operand == nil) || (x.Else == nil) != (y.Else == nil) || len(x.Whens) != len(y.Whens) {
			return false
		}
		if x.Operand != nil && !exprEqual(x.Operand, y.Operand) {
			return false
		}
		for i := range x.Whens {
			if !exprEqual(x.Whens[i].When, y.Whens[i].When) || !exprEqual(x.Whens[i].Then, y.Whens[i].Then) {
				return false
			}
		}
		return x.Else == nil || exprEqual(x.Else, y.Else)
	default:
		return false
	}
}
