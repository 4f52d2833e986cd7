package sqldb

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/variant"
)

// Row-level helpers shared by the operator pipeline and the vectorized
// executor: the joined-row layout, SELECT-list expansion, aggregate
// detection, ORDER BY resolution and the DISTINCT key.

// sourceInfo describes one FROM item's shape for name resolution. The joined
// row layout is the concatenation of all sources' columns in order.
type sourceInfo struct {
	alias   string
	columns []Column
	width   int
	// hidden sources (the synthetic window-value columns) resolve for
	// qualified references but are excluded from * expansion.
	hidden bool
}

// nullRow is n SQL NULLs: the padding of an unmatched LEFT JOIN row.
func nullRow(n int) Row {
	r := make(Row, n)
	for i := range r {
		r[i] = variant.NewNull()
	}
	return r
}

// expandItems resolves *, t.*, and explicit items into projection columns
// and expressions.
func expandItems(items []SelectItem, sources []sourceInfo) ([]Column, []Expr, error) {
	var cols []Column
	var exprs []Expr
	for _, item := range items {
		if item.Star {
			matched := false
			for _, src := range sources {
				if src.hidden {
					continue
				}
				if item.Table != "" && !strings.EqualFold(src.alias, item.Table) {
					continue
				}
				matched = true
				for _, c := range src.columns {
					cols = append(cols, c)
					exprs = append(exprs, &ColumnRef{Table: src.alias, Name: c.Name})
				}
			}
			if !matched {
				if item.Table != "" {
					return nil, nil, fmt.Errorf("sql: unknown table or alias %q in select list", item.Table)
				}
				return nil, nil, fmt.Errorf("sql: SELECT * with no FROM clause")
			}
			continue
		}
		name := item.Alias
		if name == "" {
			name = inferColumnName(item.Expr)
		}
		cols = append(cols, Column{Name: name, Type: itemType(item.Expr, sources)})
		exprs = append(exprs, item.Expr)
	}
	return cols, exprs, nil
}

// itemType is an explicit select item's result type: a bare column reference
// that resolves to exactly one source column keeps that column's declared
// type, anything else is variant.
func itemType(e Expr, sources []sourceInfo) string {
	ref, ok := e.(*ColumnRef)
	if !ok {
		return "variant"
	}
	off, matches, _ := resolveIn(sources, ref.Table, ref.Name)
	if matches != 1 {
		return "variant"
	}
	for _, src := range sources {
		if off < src.width {
			return src.columns[off].Type
		}
		off -= src.width
	}
	return "variant"
}

// inferColumnName picks the display name for an unaliased projection.
func inferColumnName(e Expr) string {
	switch x := e.(type) {
	case *ColumnRef:
		return x.Name
	case *FuncExpr:
		return strings.ToLower(x.Name)
	case *CastExpr:
		return inferColumnName(x.X)
	default:
		return "?column?"
	}
}

// selectHasAggregates reports whether the projection or HAVING uses
// aggregate functions.
func selectHasAggregates(s *SelectStmt) bool {
	for _, item := range s.Items {
		if item.Expr != nil && exprHasAggregate(item.Expr) {
			return true
		}
	}
	return s.Having != nil && exprHasAggregate(s.Having)
}

func exprHasAggregate(e Expr) bool {
	switch x := e.(type) {
	case *FuncExpr:
		// A windowed call (sum(x) OVER ...) is not an aggregate: it neither
		// groups its input nor collapses rows.
		if isAggregateName(x.Name) && x.Over == nil {
			return true
		}
		for _, a := range x.Args {
			if exprHasAggregate(a) {
				return true
			}
		}
	case *BinaryExpr:
		return exprHasAggregate(x.L) || exprHasAggregate(x.R)
	case *UnaryExpr:
		return exprHasAggregate(x.X)
	case *CastExpr:
		return exprHasAggregate(x.X)
	case *InExpr:
		if exprHasAggregate(x.X) {
			return true
		}
		for _, i := range x.List {
			if exprHasAggregate(i) {
				return true
			}
		}
	case *IsNullExpr:
		return exprHasAggregate(x.X)
	case *LikeExpr:
		return exprHasAggregate(x.X) || exprHasAggregate(x.Pattern)
	case *BetweenExpr:
		return exprHasAggregate(x.X) || exprHasAggregate(x.Lo) || exprHasAggregate(x.Hi)
	case *CaseExpr:
		if x.Operand != nil && exprHasAggregate(x.Operand) {
			return true
		}
		for _, w := range x.Whens {
			if exprHasAggregate(w.When) || exprHasAggregate(w.Then) {
				return true
			}
		}
		if x.Else != nil {
			return exprHasAggregate(x.Else)
		}
	}
	return false
}

// applyOrderBy sorts result rows. Sort keys resolve against output columns
// (by alias/name or ordinal); for non-aggregate queries they can also be
// arbitrary expressions over the input rows, which inputKey evaluates: the
// ki'th ORDER BY item over one input row.
func applyOrderBy(s *SelectStmt, inputRows []Row, result *ResultSet, aggregated bool, inputKey func(ki int, in Row) (variant.Value, error)) error {
	type keyed struct {
		row  Row
		keys []variant.Value
	}
	n := len(result.Rows)
	keyedRows := make([]keyed, n)

	for ki, item := range s.OrderBy {
		// Ordinal: ORDER BY 2.
		if lit, ok := item.Expr.(*Literal); ok && lit.Value.Kind() == variant.Int {
			idx := int(lit.Value.Int())
			if idx < 1 || idx > len(result.Columns) {
				return fmt.Errorf("sql: ORDER BY position %d out of range", idx)
			}
			for i := range result.Rows {
				keyedRows[i].keys = append(keyedRows[i].keys, result.Rows[i][idx-1])
			}
			continue
		}
		// Output column reference.
		if ref, ok := item.Expr.(*ColumnRef); ok && ref.Table == "" {
			if idx := result.ColumnIndex(ref.Name); idx >= 0 {
				for i := range result.Rows {
					keyedRows[i].keys = append(keyedRows[i].keys, result.Rows[i][idx])
				}
				continue
			}
		}
		// Arbitrary expression over input rows (non-aggregate only, and only
		// when the projection is row-aligned with the input).
		if aggregated || len(inputRows) != n {
			return fmt.Errorf("sql: ORDER BY key %d must reference an output column", ki+1)
		}
		for i := range inputRows {
			v, err := inputKey(ki, inputRows[i])
			if err != nil {
				return err
			}
			keyedRows[i].keys = append(keyedRows[i].keys, v)
		}
	}
	for i := range result.Rows {
		keyedRows[i].row = result.Rows[i]
	}
	var sortErr error
	sort.SliceStable(keyedRows, func(a, b int) bool {
		for ki := range s.OrderBy {
			c, err := variant.Compare(keyedRows[a].keys[ki], keyedRows[b].keys[ki])
			if err != nil {
				sortErr = err
				return false
			}
			if c == 0 {
				continue
			}
			if s.OrderBy[ki].Desc {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	if sortErr != nil {
		return sortErr
	}
	for i := range keyedRows {
		result.Rows[i] = keyedRows[i].row
	}
	return nil
}

// rowKey renders a row as a kind-tagged deduplication key — the encoding
// DISTINCT (sortop.go), GROUP BY and window partitions share, so every path
// keeps identical duplicate sets.
func rowKey(r Row) string {
	var sb strings.Builder
	for _, v := range r {
		sb.WriteString(v.Kind().String())
		sb.WriteByte(':')
		sb.WriteString(v.String())
		sb.WriteByte('\x00')
	}
	return sb.String()
}
