package sqldb

import "strings"

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
