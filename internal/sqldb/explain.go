package sqldb

import (
	"fmt"
	"strings"

	"repro/internal/variant"
)

// EXPLAIN rendering. EXPLAIN <stmt> plans the target without executing it
// and returns one plan line per row (column "QUERY PLAN"), so access-path
// choices are observable and testable. SELECT targets render the physical
// plan that would run — the vectorized or the operator pipeline. DML targets
// render their write node over the scan that feeds it.

// explainLocked renders s.Target under the held database lock.
func (db *DB) explainLocked(s *ExplainStmt) (*ResultSet, error) {
	lines, err := db.explainStatement(s.Target)
	if err != nil {
		return nil, err
	}
	rs := &ResultSet{Columns: []Column{{Name: "QUERY PLAN", Type: "text"}}}
	for _, l := range lines {
		rs.Rows = append(rs.Rows, Row{variant.NewText(l)})
	}
	return rs, nil
}

func (db *DB) explainStatement(st Statement) ([]string, error) {
	r := &planRenderer{db: db}
	switch s := st.(type) {
	case *SelectStmt:
		if err := r.renderSelect(s, 0); err != nil {
			return nil, err
		}
	case *InsertStmt:
		r.node(0, fmt.Sprintf("Insert on %s", strings.ToLower(s.Table)))
		if s.Query != nil {
			if err := r.renderSelect(s.Query, 1); err != nil {
				return nil, err
			}
		} else {
			r.node(1, fmt.Sprintf("Values (rows=%d)", len(s.Rows)))
		}
	case *UpdateStmt:
		r.node(0, fmt.Sprintf("Update on %s", strings.ToLower(s.Table)))
		r.renderWriteScan(s.Table, s.Where)
	case *DeleteStmt:
		r.node(0, fmt.Sprintf("Delete on %s", strings.ToLower(s.Table)))
		r.renderWriteScan(s.Table, s.Where)
	default:
		return nil, fmt.Errorf("sql: cannot EXPLAIN %T", st)
	}
	return r.lines, nil
}

// planRenderer accumulates indented plan lines.
type planRenderer struct {
	db    *DB
	lines []string
}

// node emits an operator line: the root is bare, children get an arrow.
func (r *planRenderer) node(depth int, text string) {
	if depth == 0 {
		r.lines = append(r.lines, text)
		return
	}
	r.lines = append(r.lines, strings.Repeat("  ", depth)+"-> "+text)
}

// detail emits an attribute line under the operator at depth.
func (r *planRenderer) detail(depth int, text string) {
	pad := strings.Repeat("  ", depth)
	if depth > 0 {
		pad += "   "
	}
	r.lines = append(r.lines, pad+"  "+text)
}

// renderSelect renders a SELECT's physical plan at the given depth.
func (r *planRenderer) renderSelect(s *SelectStmt, depth int) error {
	plan, err := r.db.planSelect(s)
	if err != nil {
		return err
	}
	if plan.kind == physVectorized {
		r.renderVectorized(plan.vec, depth)
		return nil
	}
	return r.renderOps(plan.ops, depth)
}

// renderVectorized renders the columnar batch pipeline (vecexec.go).
func (r *planRenderer) renderVectorized(p *vecPlan, depth int) {
	s := p.sel
	if s.Limit != nil || s.Offset != nil {
		var parts []string
		if s.Limit != nil {
			parts = append(parts, exprString(s.Limit))
		}
		if s.Offset != nil {
			parts = append(parts, "offset "+exprString(s.Offset))
		}
		r.node(depth, fmt.Sprintf("Limit (%s)", strings.Join(parts, ", ")))
		depth++
	}
	switch p.mode {
	case vecAggMode:
		label := "Vectorized Aggregate"
		if len(s.GroupBy) > 0 {
			keys := make([]string, len(s.GroupBy))
			for i, g := range s.GroupBy {
				keys[i] = exprString(g)
			}
			label = "Vectorized HashAggregate (group by: " + strings.Join(keys, ", ") + ")"
		}
		r.node(depth, label)
		if s.Having != nil {
			r.detail(depth, "Having: "+exprString(s.Having))
		}
		depth++
	case vecWindowMode:
		r.node(depth, "Vectorized WindowAgg")
		for _, f := range p.rawCalls {
			r.detail(depth, "Window: "+exprString(f))
		}
		depth++
	}
	rowsEq := "rows="
	if p.analyzed {
		rowsEq = "rows≈"
	}
	r.node(depth, fmt.Sprintf("Vectorized Seq Scan on %s  (batch=%d, %s%d)",
		p.table.Name, vecBatchSize, rowsEq, p.tableRows))
	if s.Where != nil {
		r.detail(depth, "Filter: "+exprString(s.Where))
	}
}

// renderOps renders the streaming operator pipeline top-down, mirroring its
// construction order in opPlan.open.
func (r *planRenderer) renderOps(p *opPlan, depth int) error {
	s := p.sel
	if s.Limit != nil || s.Offset != nil {
		var parts []string
		if s.Limit != nil {
			parts = append(parts, exprString(s.Limit))
		}
		if s.Offset != nil {
			parts = append(parts, "offset "+exprString(s.Offset))
		}
		r.node(depth, fmt.Sprintf("Limit (%s)", strings.Join(parts, ", ")))
		depth++
	}
	if s.Distinct {
		r.node(depth, "Distinct")
		depth++
	}
	if len(s.OrderBy) > 0 && (p.grouped || p.ordered == nil) {
		keys := make([]string, len(s.OrderBy))
		for i, k := range s.OrderBy {
			keys[i] = exprString(k.Expr)
			if k.Desc {
				keys[i] += " DESC"
			}
		}
		r.node(depth, "Sort (key: "+strings.Join(keys, ", ")+")")
		depth++
	}
	if p.grouped {
		label := "Aggregate (streamed)"
		if len(s.GroupBy) > 0 {
			keys := make([]string, len(s.GroupBy))
			for i, g := range s.GroupBy {
				keys[i] = exprString(g)
			}
			label = "HashAggregate (group by: " + strings.Join(keys, ", ") + ")"
		}
		r.node(depth, label)
		if s.Having != nil {
			r.detail(depth, "Having: "+exprString(s.Having))
		}
		depth++
	}
	if w := p.window; w != nil {
		r.node(depth, "WindowAgg")
		for _, f := range w.calls {
			r.detail(depth, "Window: "+exprString(f))
		}
		depth++
	}
	if p.where != nil {
		r.node(depth, "Filter: "+exprString(p.where))
		depth++
	}
	return r.renderOpInput(p, len(p.leaves)-1, depth)
}

// renderOpInput renders the join subtree whose topmost input is leaf idx.
func (r *planRenderer) renderOpInput(p *opPlan, idx, depth int) error {
	if idx < 0 {
		r.node(depth, "Result (one row)") // FROM-less
		return nil
	}
	if idx == 0 {
		return r.renderOpLeaf(p.leaves[0], p.ordered, depth)
	}
	step := p.steps[idx-1]
	kind := "cross"
	switch step.kind {
	case JoinInner:
		kind = "inner"
	case JoinLeft:
		kind = "left"
	}
	if step.hash {
		r.node(depth, fmt.Sprintf("Hash Join (%s)", kind))
		conds := make([]string, len(step.keysL))
		for i := range step.keysL {
			conds[i] = "(" + exprString(step.keysL[i]) + " = " + exprString(step.keysR[i]) + ")"
		}
		r.detail(depth, "Hash Cond: "+strings.Join(conds, " AND "))
		if step.residual != nil {
			r.detail(depth, "Join Filter: "+exprString(step.residual))
		}
		if lk := step.lookup; lk != nil {
			// Open decides from the outer input's real size (openIndexedJoin).
			r.detail(depth, fmt.Sprintf("Index Lookup: %s for %s when outer rows × %d ≤ inner rows",
				lk.ix.name, conds[lk.pair], lookupJoinRatio))
		}
		if err := r.renderOpInput(p, idx-1, depth+1); err != nil {
			return err
		}
		r.node(depth+1, "Hash")
		return r.renderOpLeaf(p.leaves[idx], nil, depth+2)
	}
	label := "Nested Loop (" + kind + " join"
	if p.leaves[idx].lateral {
		label += ", lateral"
	}
	r.node(depth, label+")")
	if step.residual != nil {
		r.detail(depth, "Join Cond: "+exprString(step.residual))
	}
	if err := r.renderOpInput(p, idx-1, depth+1); err != nil {
		return err
	}
	return r.renderOpLeaf(p.leaves[idx], nil, depth+1)
}

// leafFilterLabel names a leaf's predicate detail: a lenient pushed
// prefilter under a join reads "Prefilter" (the residual Filter above the
// join re-verifies it), a single-source leaf's predicate is the real
// "Filter".
func leafFilterLabel(leaf *opSource) string {
	if leaf.lenient {
		return "Prefilter"
	}
	return "Filter"
}

// renderOpLeaf renders one scan leaf with its pushed filter.
func (r *planRenderer) renderOpLeaf(leaf *opSource, ordered *orderedScanInfo, depth int) error {
	switch {
	case leaf.table != nil:
		t := leaf.table
		if ordered != nil {
			rowsEq := "rows="
			if leaf.access.analyzed {
				rowsEq = "rows≈"
			}
			name := t.Name
			if leaf.alias != "" && !strings.EqualFold(leaf.alias, t.Name) {
				name = t.Name + " " + leaf.alias
			}
			dir := ""
			if ordered.desc {
				dir = " desc"
			}
			r.node(depth, fmt.Sprintf("Index Scan using %s on %s  (btree ordered%s, %s%d)",
				ordered.ix.name, name, dir, rowsEq, leaf.access.tableRows))
			if leaf.pushed != nil {
				r.detail(depth, leafFilterLabel(leaf)+": "+exprString(leaf.pushed))
			}
			return nil
		}
		r.renderAccess(leaf.access, t.Name, leaf.alias, leaf.pushed, leafFilterLabel(leaf), depth)
		return nil
	case leaf.item.Func != nil:
		r.node(depth, fmt.Sprintf("Function Scan on %s", strings.ToLower(leaf.alias)))
		if leaf.pushed != nil {
			r.detail(depth, leafFilterLabel(leaf)+": "+exprString(leaf.pushed))
		}
		return nil
	default:
		r.node(depth, fmt.Sprintf("Subquery Scan on %s", strings.ToLower(leaf.alias)))
		if leaf.pushed != nil {
			r.detail(depth, leafFilterLabel(leaf)+": "+exprString(leaf.pushed))
		}
		return r.renderOps(leaf.sub, depth+1)
	}
}

// renderAccess renders the scan leaf with its access-path annotation.
// filterLabel names the predicate detail: "Filter" for a real filter,
// "Prefilter" for a lenient pushed predicate under a join.
func (r *planRenderer) renderAccess(ap accessPath, table, alias string, where Expr, filterLabel string, depth int) {
	// "rows=" reports a live count; "rows≈" an ANALYZE-snapshot estimate.
	rowsEq := "rows="
	if ap.analyzed {
		rowsEq = "rows≈"
	}
	name := table
	if alias != "" && !strings.EqualFold(alias, table) {
		name = table + " " + alias
	}
	switch ap.kind {
	case accessIndexEq, accessIndexRange:
		mode := "range"
		if ap.kind == accessIndexEq {
			mode = "equality"
		}
		r.node(depth, fmt.Sprintf("Index Scan using %s on %s  (%s %s, est rows≈%d of %d)",
			ap.ix.name, name, ap.ix.kind, mode, int(ap.estRows+0.5), ap.tableRows))
		r.detail(depth, "Index Cond: "+probeString(ap.probe))
	default:
		r.node(depth, fmt.Sprintf("Seq Scan on %s  (%s%d)", name, rowsEq, ap.tableRows))
	}
	if where != nil {
		r.detail(depth, filterLabel+": "+exprString(where))
	}
}

// renderWriteScan renders the leaf that locates an UPDATE/DELETE's target
// rows: the access path applyToTargets will ask the chooser for.
func (r *planRenderer) renderWriteScan(table string, where Expr) {
	t, ok := r.db.tables.get(table)
	if !ok {
		r.node(1, fmt.Sprintf("Seq Scan on %s", strings.ToLower(table)))
		return
	}
	alias := strings.ToLower(t.Name)
	ap := chooseAccessPath(r.db, t, alias, where)
	r.renderAccess(ap, t.Name, alias, where, "Filter", 1)
}

// windowSpecString renders the inside of an OVER (...) clause.
func windowSpecString(w *WindowSpec) string {
	var parts []string
	if len(w.PartitionBy) > 0 {
		keys := make([]string, len(w.PartitionBy))
		for i, e := range w.PartitionBy {
			keys[i] = exprString(e)
		}
		parts = append(parts, "PARTITION BY "+strings.Join(keys, ", "))
	}
	if len(w.OrderBy) > 0 {
		keys := make([]string, len(w.OrderBy))
		for i, k := range w.OrderBy {
			keys[i] = exprString(k.Expr)
			if k.Desc {
				keys[i] += " DESC"
			}
		}
		parts = append(parts, "ORDER BY "+strings.Join(keys, ", "))
	}
	if w.Frame != nil {
		parts = append(parts, "ROWS BETWEEN "+frameBoundString(w.Frame.Start)+
			" AND "+frameBoundString(w.Frame.End))
	}
	return strings.Join(parts, " ")
}

func frameBoundString(b FrameBound) string {
	switch b.Kind {
	case frameUnboundedPreceding:
		return "UNBOUNDED PRECEDING"
	case frameOffsetPreceding:
		return fmt.Sprintf("%d PRECEDING", b.Offset)
	case frameCurrentRow:
		return "CURRENT ROW"
	case frameOffsetFollowing:
		return fmt.Sprintf("%d FOLLOWING", b.Offset)
	default:
		return "UNBOUNDED FOLLOWING"
	}
}

// probeString renders an index probe condition.
func probeString(p *indexProbe) string {
	if p.eq != nil {
		return fmt.Sprintf("%s = %s", p.column, exprString(p.eq))
	}
	var parts []string
	if p.lo != nil {
		op := ">"
		if p.loInc {
			op = ">="
		}
		parts = append(parts, fmt.Sprintf("%s %s %s", p.column, op, exprString(p.lo)))
	}
	if p.hi != nil {
		op := "<"
		if p.hiInc {
			op = "<="
		}
		parts = append(parts, fmt.Sprintf("%s %s %s", p.column, op, exprString(p.hi)))
	}
	return strings.Join(parts, " AND ")
}

// exprString renders an expression for plan output (round-trippable for the
// common cases, compact otherwise).
func exprString(e Expr) string {
	switch x := e.(type) {
	case nil:
		return ""
	case *Literal:
		return x.Value.SQLLiteral()
	case *Param:
		return fmt.Sprintf("$%d", x.Index)
	case *ColumnRef:
		if x.Table != "" {
			return x.Table + "." + x.Name
		}
		return x.Name
	case *BinaryExpr:
		op := x.Op
		if op == "and" || op == "or" {
			op = strings.ToUpper(op)
		}
		return "(" + exprString(x.L) + " " + op + " " + exprString(x.R) + ")"
	case *UnaryExpr:
		if x.Op == "not" {
			return "NOT " + exprString(x.X)
		}
		return x.Op + exprString(x.X)
	case *FuncExpr:
		var call string
		if x.Star {
			call = strings.ToLower(x.Name) + "(*)"
		} else {
			args := make([]string, len(x.Args))
			for i, a := range x.Args {
				args[i] = exprString(a)
			}
			prefix := ""
			if x.Distinct {
				prefix = "DISTINCT "
			}
			call = strings.ToLower(x.Name) + "(" + prefix + strings.Join(args, ", ") + ")"
		}
		if x.Over != nil {
			call += " OVER (" + windowSpecString(x.Over) + ")"
		}
		return call
	case *CastExpr:
		return exprString(x.X) + "::" + x.Type
	case *InExpr:
		items := make([]string, len(x.List))
		for i, it := range x.List {
			items[i] = exprString(it)
		}
		op := " IN "
		if x.Not {
			op = " NOT IN "
		}
		return exprString(x.X) + op + "(" + strings.Join(items, ", ") + ")"
	case *IsNullExpr:
		if x.Not {
			return exprString(x.X) + " IS NOT NULL"
		}
		return exprString(x.X) + " IS NULL"
	case *LikeExpr:
		op := " LIKE "
		if x.Not {
			op = " NOT LIKE "
		}
		return exprString(x.X) + op + exprString(x.Pattern)
	case *BetweenExpr:
		op := " BETWEEN "
		if x.Not {
			op = " NOT BETWEEN "
		}
		return exprString(x.X) + op + exprString(x.Lo) + " AND " + exprString(x.Hi)
	case *CaseExpr:
		var sb strings.Builder
		sb.WriteString("CASE")
		if x.Operand != nil {
			sb.WriteString(" " + exprString(x.Operand))
		}
		for _, w := range x.Whens {
			sb.WriteString(" WHEN " + exprString(w.When) + " THEN " + exprString(w.Then))
		}
		if x.Else != nil {
			sb.WriteString(" ELSE " + exprString(x.Else))
		}
		sb.WriteString(" END")
		return sb.String()
	default:
		return fmt.Sprintf("%T", e)
	}
}
