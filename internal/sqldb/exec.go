package sqldb

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/variant"
)

// execSelect runs a SELECT under an optional outer scope (for LATERAL
// subqueries / nested UDF-issued queries).
func execSelect(cx *evalCtx, s *SelectStmt, outer *scope) (*ResultSet, error) {
	// 1. FROM: build the joined row stream. A single-table SELECT whose
	// WHERE clause carries an indexable predicate resolves its candidate
	// rows through a secondary index instead of a full scan; the WHERE
	// step below still verifies every candidate, so the index only prunes.
	var rows []Row
	var sources []sourceInfo
	var err error
	if cand, info, ok := tryIndexScan(cx, s); ok {
		rows, sources = cand, []sourceInfo{info}
	} else {
		rows, sources, err = execFrom(cx, s.From, outer)
		if err != nil {
			return nil, err
		}
	}

	// LIMIT/OFFSET resolve once the sources are open, before any row is
	// read. A plain SELECT — no grouping, window, ORDER BY or DISTINCT —
	// stops filtering and projecting once OFFSET+LIMIT rows qualify, as the
	// streaming operators do, so an error in a row past the LIMIT never
	// surfaces.
	offset, limit, err := evalLimits(cx, s.Limit, s.Offset)
	if err != nil {
		return nil, err
	}
	hasAggregates := selectHasAggregates(s)
	need := -1
	if limit >= 0 && len(s.GroupBy) == 0 && !hasAggregates && !selectHasWindows(s) &&
		len(s.OrderBy) == 0 && !s.Distinct {
		need = max(offset, 0) + limit
	}

	// 2. WHERE.
	if s.Where != nil {
		var filtered []Row
		for ri, joined := range rows {
			if len(filtered) == need {
				break
			}
			if err := cx.checkCancel(ri); err != nil {
				return nil, err
			}
			sc := bindScope(sources, joined, outer)
			ok, err := truthy(cx.withScope(sc), s.Where)
			if err != nil {
				return nil, err
			}
			if ok {
				filtered = append(filtered, joined)
			}
		}
		rows = filtered
	}
	if need >= 0 && len(rows) > need {
		rows = rows[:need]
	}

	// 2b. Window functions: compute each distinct windowed call over the
	// filtered rows as a synthetic column, then project a rewritten select
	// list that references those columns.
	if selectHasWindows(s) {
		if hasAggregates || len(s.GroupBy) > 0 {
			return nil, fmt.Errorf("sql: window functions cannot be combined with GROUP BY or aggregates")
		}
		s, sources, rows, err = applyWindowStage(cx, s, sources, rows, outer)
		if err != nil {
			return nil, err
		}
	}

	var result *ResultSet
	if len(s.GroupBy) > 0 || hasAggregates {
		result, err = execAggregate(cx, s, sources, rows, outer)
	} else {
		result, err = execProjection(cx, s, sources, rows, outer)
	}
	if err != nil {
		return nil, err
	}

	// ORDER BY over the projected result; keys may reference output aliases
	// or input columns — we resolve aliases first, then fall back to
	// re-evaluating in the input scope (only possible pre-aggregation; for
	// grouped queries keys must be output columns or ordinals).
	if len(s.OrderBy) > 0 {
		if err := applyOrderBy(cx, s, sources, rows, result, hasAggregates); err != nil {
			return nil, err
		}
	}

	if s.Distinct {
		result.Rows = distinctRows(result.Rows)
	}

	// LIMIT / OFFSET.
	if s.Offset != nil {
		if offset = max(offset, 0); offset >= len(result.Rows) {
			result.Rows = nil
		} else {
			result.Rows = result.Rows[offset:]
		}
	}
	if limit >= 0 && limit < len(result.Rows) {
		result.Rows = result.Rows[:limit]
	}
	return result, nil
}

// sourceInfo describes one FROM item's shape for scope binding. The joined
// row layout is the concatenation of all sources' columns in order.
type sourceInfo struct {
	alias   string
	columns []Column
	width   int
	// hidden sources (the synthetic window-value columns) resolve for
	// qualified references but are excluded from * expansion.
	hidden bool
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

// execFrom evaluates the FROM clause into joined rows. An empty FROM yields
// a single empty row (SELECT 1).
func execFrom(cx *evalCtx, from []FromItem, outer *scope) ([]Row, []sourceInfo, error) {
	if len(from) == 0 {
		return []Row{{}}, nil, nil
	}
	var rows []Row
	var sources []sourceInfo
	rows = []Row{{}}
	for _, item := range from {
		next, info, err := joinItem(cx, rows, sources, item, outer)
		if err != nil {
			return nil, nil, err
		}
		rows = next
		sources = append(sources, info)
	}
	return rows, sources, nil
}

// joinItem joins one FROM item onto the accumulated rows.
func joinItem(cx *evalCtx, left []Row, sources []sourceInfo, item FromItem, outer *scope) ([]Row, sourceInfo, error) {
	// Lateral items (explicit LATERAL or function calls, as in PostgreSQL)
	// re-evaluate the relation per left row with the left columns in scope.
	lateral := item.Lateral || item.Func != nil

	materialize := func(sc *scope) (*ResultSet, error) {
		switch {
		case item.Table != "":
			t, ok := cx.db.tables.get(item.Table)
			if !ok {
				return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, item.Table)
			}
			// Resolve the versions visible to this statement's snapshot; the
			// result is private, so later mutations never interfere.
			rs := &ResultSet{Columns: t.Columns, Rows: visibleRows(cx, t)}
			return rs, nil
		case item.Func != nil:
			args := make([]variant.Value, len(item.Func.Args))
			for i, a := range item.Func.Args {
				v, err := evalExpr(cx.withScope(sc), a)
				if err != nil {
					return nil, err
				}
				args[i] = v
			}
			st, err := cx.db.callTableFunc(cx, item.Func.Name, args)
			if err != nil {
				return nil, err
			}
			return drainStreamCtx(cx, st)
		case item.Sub != nil:
			return execSelect(cx, item.Sub, sc)
		default:
			return nil, fmt.Errorf("sql: empty FROM item")
		}
	}

	makeInfo := func(rs *ResultSet) (sourceInfo, error) {
		return fromItemInfo(item, rs.Columns)
	}

	if !lateral {
		// Non-lateral items cannot see left columns; only the outer scope.
		sc := &scope{outer: outer}
		rs, err := materialize(sc)
		if err != nil {
			return nil, sourceInfo{}, err
		}
		info, err := makeInfo(rs)
		if err != nil {
			return nil, sourceInfo{}, err
		}
		var out []Row
		switch item.Join {
		case JoinLeft:
			for _, l := range left {
				matched := false
				for _, r := range rs.Rows {
					joined := append(append(Row{}, l...), r...)
					if item.On != nil {
						scJ := bindScope(append(sources, info), joined, outer)
						ok, err := truthy(cx.withScope(scJ), item.On)
						if err != nil {
							return nil, sourceInfo{}, err
						}
						if !ok {
							continue
						}
					}
					matched = true
					out = append(out, joined)
				}
				if !matched {
					nulls := make(Row, info.width)
					for i := range nulls {
						nulls[i] = variant.NewNull()
					}
					out = append(out, append(append(Row{}, l...), nulls...))
				}
			}
		default: // cross or inner
			for _, l := range left {
				for _, r := range rs.Rows {
					joined := append(append(Row{}, l...), r...)
					if item.On != nil {
						scJ := bindScope(append(sources, info), joined, outer)
						ok, err := truthy(cx.withScope(scJ), item.On)
						if err != nil {
							return nil, sourceInfo{}, err
						}
						if !ok {
							continue
						}
					}
					out = append(out, joined)
				}
			}
		}
		return out, info, nil
	}

	// Lateral: evaluate the relation once per left row.
	var out []Row
	var info sourceInfo
	infoSet := false
	for _, l := range left {
		sc := bindScope(sources, l, outer)
		rs, err := materialize(sc)
		if err != nil {
			return nil, sourceInfo{}, err
		}
		if !infoSet {
			info, err = makeInfo(rs)
			if err != nil {
				return nil, sourceInfo{}, err
			}
			infoSet = true
		}
		for _, r := range rs.Rows {
			joined := append(append(Row{}, l...), r...)
			if item.On != nil {
				scJ := bindScope(append(sources, info), joined, outer)
				ok, err := truthy(cx.withScope(scJ), item.On)
				if err != nil {
					return nil, sourceInfo{}, err
				}
				if !ok {
					continue
				}
			}
			out = append(out, joined)
		}
	}
	if !infoSet {
		// No left rows: still need the shape; evaluate against outer scope.
		rs, err := materialize(&scope{outer: outer})
		if err != nil {
			return nil, sourceInfo{}, err
		}
		info, err = makeInfo(rs)
		if err != nil {
			return nil, sourceInfo{}, err
		}
	}
	return out, info, nil
}

// execProjection computes the SELECT list for each row (no aggregation).
func execProjection(cx *evalCtx, s *SelectStmt, sources []sourceInfo, rows []Row, outer *scope) (*ResultSet, error) {
	cols, exprs, err := expandItems(s.Items, sources)
	if err != nil {
		return nil, err
	}
	out := &ResultSet{Columns: cols}
	for ri, joined := range rows {
		if err := cx.checkCancel(ri); err != nil {
			return nil, err
		}
		sc := bindScope(sources, joined, outer)
		row := make(Row, len(exprs))
		for i, e := range exprs {
			v, err := evalExpr(cx.withScope(sc), e)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
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
		cols = append(cols, Column{Name: name, Type: "variant"})
		exprs = append(exprs, item.Expr)
	}
	return cols, exprs, nil
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
// arbitrary expressions over the input rows.
func applyOrderBy(cx *evalCtx, s *SelectStmt, sources []sourceInfo, inputRows []Row, result *ResultSet, aggregated bool) error {
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
			sc := bindScope(sources, inputRows[i], nil)
			v, err := evalExpr(cx.withScope(sc), item.Expr)
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
// DISTINCT uses in both the materializing executor and the streaming
// pipeline (sortop.go), so the two paths keep identical duplicate sets.
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

func distinctRows(rows []Row) []Row {
	seen := make(map[string]bool, len(rows))
	var out []Row
	for _, r := range rows {
		key := rowKey(r)
		if !seen[key] {
			seen[key] = true
			out = append(out, r)
		}
	}
	return out
}
