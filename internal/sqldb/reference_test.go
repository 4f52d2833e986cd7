package sqldb

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/variant"
)

// The reference executor: a materializing, row-at-a-time interpreter of
// SELECT, kept as the oracle the differential suites compare the operator
// pipeline and the vectorized executor against. It evaluates in the order
// docs/sql-reference.md states — row-major through WHERE and the projection,
// or the group keys and aggregate arguments; an aggregate's result or error
// when HAVING or the SELECT list reads it; windows over the filtered rows —
// with an expression interpreter of its own (interp_test.go), and shares with
// the engine only the accumulators, the window kernel and the ORDER BY
// comparator.

// refQuery runs one SELECT on the reference executor the way exec runs a
// statement calling a UDF that may write: in a transaction of its own, its
// UDFs handed a function handle of that transaction.
func refQuery(t testing.TB, db *DB, sql string, args ...any) (*ResultSet, error) {
	t.Helper()
	stmt, err := Parse(sql)
	if err != nil {
		return nil, err
	}
	sel, ok := stmt.(*SelectStmt)
	if !ok {
		t.Fatalf("refQuery: %T is not a SELECT", stmt)
	}
	params, err := bindArgs(args)
	if err != nil {
		return nil, err
	}
	tx, err := db.Begin()
	if err != nil {
		return nil, err
	}
	cx := &evalCtx{db: db, params: params, ctx: context.Background(), txn: tx.state, snap: tx.snap,
		tx: &Tx{db: db, state: tx.state, snap: tx.snap, fn: true}}
	rs, err := execSelect(cx, sel, nil)
	if err != nil {
		return nil, errors.Join(err, tx.Rollback())
	}
	return rs, tx.Commit()
}

// mustRefQuery is refQuery failing the test on error.
func mustRefQuery(t testing.TB, db *DB, sql string, args ...any) *ResultSet {
	t.Helper()
	rs, err := refQuery(t, db, sql, args...)
	if err != nil {
		t.Fatalf("reference %s: %v", sql, err)
	}
	return rs
}

// execSelect runs a SELECT under an optional outer scope (for LATERAL
// subqueries).
func execSelect(cx *evalCtx, s *SelectStmt, outer *scope) (*ResultSet, error) {
	// 1. FROM: build the joined rows. A single-table SELECT whose WHERE
	// carries an indexable predicate resolves its candidates through an
	// index; WHERE still verifies every candidate, so the index only prunes.
	var rows []Row
	var sources []sourceInfo
	var err error
	if cand, info, ok := tryIndexScan(cx, s); ok {
		rows, sources = cand, []sourceInfo{info}
	} else if rows, sources, err = execFrom(cx, s.From, outer); err != nil {
		return nil, err
	}

	// 2. LIMIT/OFFSET resolve once the sources are open, and the SELECT list
	// expands, before any row is evaluated.
	offset, limit, err := refLimits(cx, s.Limit, s.Offset)
	if err != nil {
		return nil, err
	}
	if _, _, err := expandItems(s.Items, sources); err != nil {
		return nil, err
	}
	hasAggregates := selectHasAggregates(s)
	grouped := len(s.GroupBy) > 0 || hasAggregates
	// A plain SELECT drops the rows OFFSET skips before projecting them and
	// stops once LIMIT rows qualify, as the pipeline's OFFSET and LIMIT do;
	// the other shapes apply both to their result.
	skip, need := 0, -1
	if len(s.OrderBy) == 0 && !s.Distinct && !grouped {
		skip, need, offset = max(offset, 0), limit, 0
	}
	if limit == 0 {
		need = 0
	}

	// 3. Rows: WHERE fused with the group keys or the projection, row by row;
	// windows see every filtered row first.
	var result *ResultSet
	var kept []Row // the input rows aligned with result (ungrouped)
	switch {
	case selectHasWindows(s):
		if rows, err = filterRows(cx, s.Where, sources, rows, outer); err != nil {
			return nil, err
		}
		ws := newWindowStage(s, grouped)
		evalCol := func(e Expr) ([]variant.Value, error) {
			col := make([]variant.Value, len(rows))
			for i, r := range rows {
				if err := cx.checkCancel(i); err != nil {
					return nil, err
				}
				v, err := evalExpr(cx, bindScope(sources, r, outer), e)
				if err != nil {
					return nil, err
				}
				col[i] = v
			}
			return col, nil
		}
		if rows, err = ws.apply(cx, rows, evalCol); err != nil {
			return nil, err
		}
		if len(ws.calls) > 0 {
			sources = append(sources, ws.source())
			s2 := *s
			s2.Items = ws.items
			s = &s2
		}
		result, kept, err = execProjection(cx, s, nil, sources, rows, outer, skip, need)
	case grouped:
		result, err = execAggregate(cx, s, sources, rows, outer)
	default:
		result, kept, err = execProjection(cx, s, s.Where, sources, rows, outer, skip, need)
	}
	if err != nil {
		return nil, err
	}

	// 4. ORDER BY over the projected result; keys may reference output
	// aliases or, before aggregation, input columns.
	if len(s.OrderBy) > 0 {
		inputKey := func(ki int, in Row) (variant.Value, error) {
			return evalExpr(cx, bindScope(sources, in, outer), s.OrderBy[ki].Expr)
		}
		if err := applyOrderBy(s, kept, result, grouped, inputKey); err != nil {
			return nil, err
		}
	}
	if s.Distinct {
		result.Rows = distinctRows(result.Rows)
	}
	if offset > 0 {
		if offset >= len(result.Rows) {
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

// filterRows keeps the rows where is true on (all of them when it is nil).
func filterRows(cx *evalCtx, where Expr, sources []sourceInfo, rows []Row, outer *scope) ([]Row, error) {
	if where == nil {
		return rows, nil
	}
	var out []Row
	for ri, joined := range rows {
		if err := cx.checkCancel(ri); err != nil {
			return nil, err
		}
		ok, err := truthy(cx, bindScope(sources, joined, outer), where)
		if err != nil {
			return nil, err
		}
		if ok {
			out = append(out, joined)
		}
	}
	return out, nil
}

// execFrom evaluates the FROM clause into joined rows. An empty FROM yields
// a single empty row (SELECT 1).
func execFrom(cx *evalCtx, from []FromItem, outer *scope) ([]Row, []sourceInfo, error) {
	rows := []Row{{}}
	var sources []sourceInfo
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
			t, ok := cx.db.tables.Load().get(item.Table)
			if !ok {
				return nil, fmt.Errorf("%w: %q", ErrNoSuchTable, item.Table)
			}
			return &ResultSet{Columns: t.Columns, Rows: visibleRows(cx, t.loadView())}, nil
		case item.Func != nil:
			st, err := refCallFromItem(cx, item.Func, sc)
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
	// join pairs l with every row of rs that passes ON; LEFT JOIN null-pads
	// a left row no relation row matched.
	var out []Row
	join := func(l Row, rs *ResultSet, info sourceInfo) error {
		matched := false
		for _, r := range rs.Rows {
			joined := append(append(Row{}, l...), r...)
			if item.On != nil {
				ok, err := truthy(cx, bindScope(append(sources, info), joined, outer), item.On)
				if err != nil {
					return err
				}
				if !ok {
					continue
				}
			}
			matched = true
			out = append(out, joined)
		}
		if item.Join == JoinLeft && !matched {
			out = append(out, append(append(Row{}, l...), nullRow(info.width)...))
		}
		return nil
	}

	if !lateral {
		// Non-lateral items cannot see left columns; only the outer scope.
		rs, err := materialize(&scope{outer: outer})
		if err != nil {
			return nil, sourceInfo{}, err
		}
		info, err := fromItemInfo(item, rs.Columns)
		if err != nil {
			return nil, sourceInfo{}, err
		}
		for _, l := range left {
			if err := join(l, rs, info); err != nil {
				return nil, sourceInfo{}, err
			}
		}
		return out, info, nil
	}

	var info sourceInfo
	for i, l := range left {
		rs, err := materialize(bindScope(sources, l, outer))
		if err != nil {
			return nil, sourceInfo{}, err
		}
		if i == 0 {
			if info, err = fromItemInfo(item, rs.Columns); err != nil {
				return nil, sourceInfo{}, err
			}
		}
		if err := join(l, rs, info); err != nil {
			return nil, sourceInfo{}, err
		}
	}
	if len(left) == 0 {
		// No left rows: still need the shape; evaluate against outer scope.
		rs, err := materialize(&scope{outer: outer})
		if err != nil {
			return nil, sourceInfo{}, err
		}
		if info, err = fromItemInfo(item, rs.Columns); err != nil {
			return nil, sourceInfo{}, err
		}
	}
	return out, info, nil
}

// execProjection computes the SELECT list for each row passing where (every
// row when where is nil) after the first skip such rows, stopping after need
// rows (need < 0: no bound). It also returns the input rows the result rows
// came from.
func execProjection(cx *evalCtx, s *SelectStmt, where Expr, sources []sourceInfo, rows []Row, outer *scope, skip, need int) (*ResultSet, []Row, error) {
	cols, exprs, err := expandItems(s.Items, sources)
	if err != nil {
		return nil, nil, err
	}
	out := &ResultSet{Columns: cols}
	var kept []Row
	for ri, joined := range rows {
		if len(out.Rows) == need {
			break
		}
		if err := cx.checkCancel(ri); err != nil {
			return nil, nil, err
		}
		sc := bindScope(sources, joined, outer)
		if where != nil {
			ok, err := truthy(cx, sc, where)
			if err != nil {
				return nil, nil, err
			}
			if !ok {
				continue
			}
		}
		if skip > 0 {
			skip--
			continue
		}
		row := make(Row, len(exprs))
		for i, e := range exprs {
			v, err := evalExpr(cx, sc, e)
			if err != nil {
				return nil, nil, err
			}
			row[i] = v
		}
		out.Rows = append(out.Rows, row)
		kept = append(kept, joined)
	}
	return out, kept, nil
}

// execAggregate handles grouped and implicitly aggregated SELECTs: WHERE, the
// group keys and the arguments of every aggregate call evaluate row by row,
// then every group's HAVING and SELECT list, whose aggregates fold their
// group's argument values — or raise the first error met — as they are read.
func execAggregate(cx *evalCtx, s *SelectStmt, sources []sourceInfo, rows []Row, outer *scope) (*ResultSet, error) {
	calls := aggregateCalls(s)
	newGroup := func(keyVals []variant.Value) *groupCtx {
		return &groupCtx{cx: cx, sources: sources, outer: outer, groupBy: s.GroupBy, keyVals: keyVals,
			calls: calls, args: make([][]variant.Value, len(calls)), argErr: make([]error, len(calls))}
	}
	var groups []*groupCtx
	if len(s.GroupBy) == 0 {
		// One implicit group over all rows (possibly empty).
		groups = []*groupCtx{newGroup(nil)}
	}
	index := make(map[string]*groupCtx)
	for ri, joined := range rows {
		if err := cx.checkCancel(ri); err != nil {
			return nil, err
		}
		sc := bindScope(sources, joined, outer)
		if s.Where != nil {
			ok, err := truthy(cx, sc, s.Where)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		var g *groupCtx
		if len(s.GroupBy) == 0 {
			g = groups[0]
		} else {
			keyVals := make([]variant.Value, len(s.GroupBy))
			for i, ge := range s.GroupBy {
				v, err := evalExpr(cx, sc, ge)
				if err != nil {
					return nil, err
				}
				keyVals[i] = v
			}
			key := rowKey(keyVals)
			var ok bool
			if g, ok = index[key]; !ok {
				g = newGroup(keyVals)
				index[key] = g
				groups = append(groups, g)
			}
		}
		g.rows = append(g.rows, joined)
		// A call stops evaluating its argument in a group at its first error.
		for i, f := range calls {
			if g.argErr[i] != nil {
				continue
			}
			v, err := evalExpr(cx, sc, f.Args[0])
			if err != nil {
				g.argErr[i] = err
				continue
			}
			g.args[i] = append(g.args[i], v)
		}
	}

	cols, exprs, err := expandItems(s.Items, sources)
	if err != nil {
		return nil, err
	}
	out := &ResultSet{Columns: cols}
	for _, g := range groups {
		if s.Having != nil {
			v, err := g.eval(s.Having)
			if err != nil {
				return nil, err
			}
			if v.IsNull() {
				continue
			}
			ok, err := v.AsBool()
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
		}
		row := make(Row, len(exprs))
		for i, e := range exprs {
			v, err := g.eval(e)
			if err != nil {
				return nil, err
			}
			row[i] = v
		}
		out.Rows = append(out.Rows, row)
	}
	return out, nil
}

// aggregateCalls lists the distinct well-formed one-argument aggregate calls
// of the SELECT list and HAVING: the ones whose argument every row evaluates.
func aggregateCalls(s *SelectStmt) []*FuncExpr {
	var calls []*FuncExpr
	walk := func(e Expr) {
		walkExpr(e, func(x Expr) bool {
			f, ok := x.(*FuncExpr)
			if !ok || !isAggregateName(f.Name) || f.Over != nil {
				return true
			}
			if f.Star || len(f.Args) != 1 {
				return false
			}
			for _, c := range calls {
				if exprEqual(c, f) {
					return false
				}
			}
			calls = append(calls, f)
			return false
		})
	}
	for _, it := range s.Items {
		walk(it.Expr)
	}
	walk(s.Having)
	return calls
}

// groupCtx is one group: its rows, and per aggregate call the argument values
// in input order or the first error evaluating one. It evaluates expressions
// in a grouped context: aggregate calls fold those values; other column
// references resolve against the group key or the group's first row.
type groupCtx struct {
	cx      *evalCtx
	sources []sourceInfo
	rows    []Row
	outer   *scope
	groupBy []Expr
	keyVals []variant.Value
	calls   []*FuncExpr
	args    [][]variant.Value
	argErr  []error
}

func (g *groupCtx) eval(e Expr) (variant.Value, error) {
	var first Row
	if len(g.rows) > 0 {
		first = g.rows[0]
	}
	return evalGrouped(g.cx, g.sources, g.groupBy, g.keyVals, first, g.outer, g.evalAggregate, e)
}

// evalAggregate folds one aggregate call: NULLs skipped and DISTINCT applied,
// then the values in input order through the shared accumulators.
func (g *groupCtx) evalAggregate(x *FuncExpr) (variant.Value, error) {
	name := strings.ToLower(x.Name)
	if x.Star {
		if name != "count" {
			return variant.Value{}, fmt.Errorf("sql: %s(*) is not valid", name)
		}
		return variant.NewInt(int64(len(g.rows))), nil
	}
	if len(x.Args) != 1 {
		return variant.Value{}, fmt.Errorf("sql: %s() expects 1 argument", name)
	}
	ci := -1
	for i, c := range g.calls {
		if exprEqual(c, x) {
			ci = i
		}
	}
	if ci < 0 {
		return variant.Value{}, fmt.Errorf("sql: unknown aggregate %s()", x.Name)
	}
	if err := g.argErr[ci]; err != nil {
		return variant.Value{}, err
	}
	acc, ok := newAggAccum(name)
	if !ok {
		return variant.Value{}, fmt.Errorf("sql: unknown aggregate %s()", x.Name)
	}
	seen := make(map[string]bool)
	for _, v := range g.args[ci] {
		if v.IsNull() {
			continue
		}
		if x.Distinct {
			key := v.Kind().String() + ":" + v.String()
			if seen[key] {
				continue
			}
			seen[key] = true
		}
		if err := acc.add(v); err != nil {
			return variant.Value{}, err
		}
	}
	return acc.result()
}

// tryIndexScan resolves a single-table SELECT's FROM through a secondary
// index when the cost-based access-path chooser decides a probe beats a full
// scan. It returns a candidate superset of the matching rows (in table
// order) — the caller still applies the full WHERE — or ok=false to fall
// back to a scan.
func tryIndexScan(cx *evalCtx, s *SelectStmt) ([]Row, sourceInfo, bool) {
	if len(s.From) != 1 || s.Where == nil {
		return nil, sourceInfo{}, false
	}
	item := s.From[0]
	if item.Table == "" || len(item.ColAliases) > 0 {
		return nil, sourceInfo{}, false
	}
	t, ok := cx.db.tables.Load().get(item.Table)
	if !ok || len(t.indexes) == 0 {
		return nil, sourceInfo{}, false
	}
	alias := item.Alias
	if alias == "" {
		alias = strings.ToLower(item.Table)
	}
	ap := chooseAccessPath(cx.db, t, alias, s.Where)
	rows, ok := ap.lookupRows(cx, t)
	if !ok {
		return nil, sourceInfo{}, false
	}
	return rows, sourceInfo{alias: alias, columns: t.Columns, width: len(t.Columns)}, true
}

// distinctRows keeps the first occurrence of every row.
func distinctRows(rows []Row) []Row {
	seen := make(map[string]bool, len(rows))
	var out []Row
	for _, r := range rows {
		if key := rowKey(r); !seen[key] {
			seen[key] = true
			out = append(out, r)
		}
	}
	return out
}
