package sqldb

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/variant"
)

// Window functions (sum/avg/count/min/max OVER, row_number, lag, lead).
//
// Every execution strategy shares one evaluator: the operator pipeline's
// WindowAgg stage (windowStream), the vectorized pipeline and the reference
// executor each gather the call's inputs — argument, PARTITION BY, and
// ORDER BY values, one column per expression — and hand them to
// evalWindowCall, which partitions, orders, frames, and folds through the
// same aggAccum accumulators the grouped executors use. The paths therefore
// cannot diverge on partition identity (rowKey encoding), sort order
// (variant.Compare, stable), or fold arithmetic.
//
// Restrictions (clean errors, every path): window calls may appear only in
// the SELECT list, never mixed with GROUP BY or plain aggregates; DISTINCT
// is rejected; frames are ROWS-only (the default frame without a ROWS
// clause is range-to-current-row with peers under ORDER BY, else the whole
// partition).

// isWindowOnlyName reports functions that exist only with an OVER clause.
func isWindowOnlyName(name string) bool {
	switch strings.ToLower(name) {
	case "row_number", "lag", "lead":
		return true
	}
	return false
}

// windowSpecEqual compares OVER clauses structurally (nil == nil).
func windowSpecEqual(a, b *WindowSpec) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if len(a.PartitionBy) != len(b.PartitionBy) || len(a.OrderBy) != len(b.OrderBy) {
		return false
	}
	for i := range a.PartitionBy {
		if !exprEqual(a.PartitionBy[i], b.PartitionBy[i]) {
			return false
		}
	}
	for i := range a.OrderBy {
		if a.OrderBy[i].Desc != b.OrderBy[i].Desc || !exprEqual(a.OrderBy[i].Expr, b.OrderBy[i].Expr) {
			return false
		}
	}
	if (a.Frame == nil) != (b.Frame == nil) {
		return false
	}
	return a.Frame == nil || *a.Frame == *b.Frame
}

// selectHasWindows reports whether any clause of s contains a window call.
func selectHasWindows(s *SelectStmt) bool {
	found := false
	check := func(e Expr) {
		walkExpr(e, func(x Expr) bool {
			if f, ok := x.(*FuncExpr); ok && f.Over != nil {
				found = true
			}
			return !found
		})
	}
	for _, it := range s.Items {
		check(it.Expr)
	}
	check(s.Where)
	check(s.Having)
	for _, g := range s.GroupBy {
		check(g)
	}
	for _, o := range s.OrderBy {
		check(o.Expr)
	}
	for _, f := range s.From {
		check(f.On)
	}
	return found
}

// validateWindowCall checks name, arity, and modifier rules.
func validateWindowCall(f *FuncExpr) error {
	name := strings.ToLower(f.Name)
	if f.Distinct {
		return fmt.Errorf("sql: DISTINCT is not allowed in window functions")
	}
	switch name {
	case "count":
		if !f.Star && len(f.Args) != 1 {
			return fmt.Errorf("sql: count() window expects 1 argument or *")
		}
	case "sum", "avg", "min", "max":
		if f.Star {
			return fmt.Errorf("sql: %s(*) is not valid", name)
		}
		if len(f.Args) != 1 {
			return fmt.Errorf("sql: %s() window expects 1 argument", name)
		}
	case "row_number":
		if f.Star || len(f.Args) != 0 {
			return fmt.Errorf("sql: row_number() takes no arguments")
		}
	case "lag", "lead":
		if f.Star || len(f.Args) < 1 || len(f.Args) > 3 {
			return fmt.Errorf("sql: %s(value [, offset [, default]]) expects 1-3 arguments", name)
		}
	default:
		return fmt.Errorf("sql: %s() is not supported as a window function", f.Name)
	}
	return nil
}

// collectWindowCalls gathers the distinct window calls of the select list
// (deduplicated by exprEqual so `sum(x) OVER (...)` written twice computes
// once) plus a pointer→slot map for the rewrite step.
func collectWindowCalls(items []SelectItem) ([]*FuncExpr, map[*FuncExpr]int) {
	var calls []*FuncExpr
	byPtr := make(map[*FuncExpr]int)
	for _, it := range items {
		walkExpr(it.Expr, func(x Expr) bool {
			f, ok := x.(*FuncExpr)
			if !ok || f.Over == nil {
				return true
			}
			slot := -1
			for i, c := range calls {
				if exprEqual(c, f) {
					slot = i
					break
				}
			}
			if slot < 0 {
				slot = len(calls)
				calls = append(calls, f)
			}
			byPtr[f] = slot
			// The call's own children (args, partition, order) cannot
			// contain further window calls; nested ones error at evaluation.
			return false
		})
	}
	return calls, byPtr
}

// windowInput is one window call with its inputs fully evaluated: one value
// column per argument / PARTITION BY / ORDER BY expression, each of length
// n (the filtered input row count, in input order).
type windowInput struct {
	fn    *FuncExpr
	name  string // lowercase
	args  [][]variant.Value
	part  [][]variant.Value
	order [][]variant.Value
	desc  []bool
}

// buildWindowInput evaluates a call's input expressions through the
// caller-supplied evaluator (compiled on the row path, vector-kernel backed
// in the vectorized pipeline, interpreted by the reference executor).
func buildWindowInput(f *FuncExpr, n int, evalCol func(e Expr) ([]variant.Value, error)) (*windowInput, error) {
	in := &windowInput{fn: f, name: strings.ToLower(f.Name)}
	if !f.Star {
		for _, a := range f.Args {
			col, err := evalCol(a)
			if err != nil {
				return nil, err
			}
			in.args = append(in.args, col)
		}
	}
	for _, p := range f.Over.PartitionBy {
		col, err := evalCol(p)
		if err != nil {
			return nil, err
		}
		in.part = append(in.part, col)
	}
	for _, o := range f.Over.OrderBy {
		col, err := evalCol(o.Expr)
		if err != nil {
			return nil, err
		}
		in.order = append(in.order, col)
		in.desc = append(in.desc, o.Desc)
	}
	return in, nil
}

// evalWindowCall computes one window call over n input rows, returning the
// result column aligned with the input order.
func evalWindowCall(cx *evalCtx, in *windowInput, n int) ([]variant.Value, error) {
	out := make([]variant.Value, n)

	// Partition in first-seen order using rowKey's encoding, so
	// NULL and cross-kind partition keys group exactly like GROUP BY keys.
	var parts [][]int
	if len(in.part) == 0 {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		parts = [][]int{idx}
	} else {
		index := make(map[string]int)
		keyBuf := make(Row, len(in.part))
		for i := 0; i < n; i++ {
			if err := cx.checkCancel(i); err != nil {
				return nil, err
			}
			for k := range in.part {
				keyBuf[k] = in.part[k][i]
			}
			key := rowKey(keyBuf)
			pi, ok := index[key]
			if !ok {
				pi = len(parts)
				index[key] = pi
				parts = append(parts, nil)
			}
			parts[pi] = append(parts[pi], i)
		}
	}

	for _, p := range parts {
		ord, err := sortPartition(in, p)
		if err != nil {
			return nil, err
		}
		if err := evalPartition(cx, in, ord, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// sortPartition orders a partition's row indices by the ORDER BY keys
// (stable, variant.Compare semantics — the sort the row executor uses).
func sortPartition(in *windowInput, p []int) ([]int, error) {
	if len(in.order) == 0 {
		return p, nil
	}
	ord := append([]int(nil), p...)
	var sortErr error
	sort.SliceStable(ord, func(a, b int) bool {
		for ki := range in.order {
			c, err := variant.Compare(in.order[ki][ord[a]], in.order[ki][ord[b]])
			if err != nil {
				if sortErr == nil {
					sortErr = err
				}
				return false
			}
			if c == 0 {
				continue
			}
			if in.desc[ki] {
				return c > 0
			}
			return c < 0
		}
		return false
	})
	if sortErr != nil {
		return nil, sortErr
	}
	return ord, nil
}

// samePeers reports whether two rows are peers (equal on every ORDER BY
// key).
func samePeers(in *windowInput, a, b int) (bool, error) {
	for ki := range in.order {
		c, err := variant.Compare(in.order[ki][a], in.order[ki][b])
		if err != nil {
			return false, err
		}
		if c != 0 {
			return false, nil
		}
	}
	return true, nil
}

// evalPartition computes the call over one sorted partition, writing
// results back to the original row slots.
func evalPartition(cx *evalCtx, in *windowInput, ord []int, out []variant.Value) error {
	m := len(ord)
	switch in.name {
	case "row_number":
		for j, ri := range ord {
			out[ri] = variant.NewInt(int64(j + 1))
		}
		return nil

	case "lag", "lead":
		for j, ri := range ord {
			off := int64(1)
			if len(in.args) >= 2 {
				ov := in.args[1][ri]
				if ov.IsNull() {
					out[ri] = variant.NewNull()
					continue
				}
				var err error
				off, err = ov.AsInt()
				if err != nil {
					return fmt.Errorf("sql: %s() offset: %w", in.name, err)
				}
			}
			tj := int64(j) - off
			if in.name == "lead" {
				tj = int64(j) + off
			}
			switch {
			case tj >= 0 && tj < int64(m):
				out[ri] = in.args[0][ord[tj]]
			case len(in.args) == 3:
				out[ri] = in.args[2][ri]
			default:
				out[ri] = variant.NewNull()
			}
		}
		return nil
	}

	// Aggregate window: count/sum/avg/min/max over a frame.
	frame := in.fn.Over.Frame
	star := in.fn.Star

	feed := func(acc aggAccum, ri int) error {
		if star {
			return acc.add(variant.Value{})
		}
		v := in.args[0][ri]
		if v.IsNull() {
			return nil
		}
		if err := acc.add(v); err != nil {
			return err
		}
		return nil
	}

	switch {
	case frame == nil && len(in.order) == 0:
		// Whole partition, one fold shared by every row.
		acc, _ := newAggAccum(in.name)
		for _, ri := range ord {
			if err := feed(acc, ri); err != nil {
				return err
			}
		}
		v, err := acc.result()
		if err != nil {
			return err
		}
		for _, ri := range ord {
			out[ri] = v
		}
		return nil

	case frame == nil:
		// Default frame with ORDER BY: start of partition through the last
		// peer of the current row. A running accumulator folds each peer
		// group once — identical order to refolding the prefix.
		acc, _ := newAggAccum(in.name)
		for j := 0; j < m; {
			k := j
			for k+1 < m {
				same, err := samePeers(in, ord[k+1], ord[j])
				if err != nil {
					return err
				}
				if !same {
					break
				}
				k++
			}
			for t := j; t <= k; t++ {
				if err := feed(acc, ord[t]); err != nil {
					return err
				}
			}
			v, err := acc.result()
			if err != nil {
				return err
			}
			for t := j; t <= k; t++ {
				out[ord[t]] = v
			}
			j = k + 1
		}
		return nil

	case frame.Start.Kind == frameUnboundedPreceding && frame.End.Kind == frameCurrentRow:
		// ROWS UNBOUNDED PRECEDING .. CURRENT ROW: running, no peers.
		acc, _ := newAggAccum(in.name)
		for j := 0; j < m; j++ {
			if err := feed(acc, ord[j]); err != nil {
				return err
			}
			v, err := acc.result()
			if err != nil {
				return err
			}
			out[ord[j]] = v
		}
		return nil
	}

	// General ROWS frame: refold per row (frames slide in both directions).
	for j := 0; j < m; j++ {
		if err := cx.checkCancel(j); err != nil {
			return err
		}
		lo, hi := frameBounds(frame, j, m)
		acc, _ := newAggAccum(in.name)
		for k := lo; k <= hi; k++ {
			if err := feed(acc, ord[k]); err != nil {
				return err
			}
		}
		v, err := acc.result()
		if err != nil {
			return err
		}
		out[ord[j]] = v
	}
	return nil
}

// frameBounds resolves a ROWS frame to inclusive sorted-position bounds
// (lo > hi means an empty frame).
func frameBounds(f *WindowFrame, j, m int) (int, int) {
	boundPos := func(b FrameBound, start bool) int {
		switch b.Kind {
		case frameUnboundedPreceding:
			return 0
		case frameOffsetPreceding:
			return j - int(b.Offset)
		case frameCurrentRow:
			return j
		case frameOffsetFollowing:
			return j + int(b.Offset)
		default: // frameUnboundedFollowing
			return m - 1
		}
	}
	lo, hi := boundPos(f.Start, true), boundPos(f.End, false)
	if lo < 0 {
		lo = 0
	}
	if hi > m-1 {
		hi = m - 1
	}
	return lo, hi
}

// rewriteExpr rebuilds e with repl applied at every node where it reports a
// replacement; used to swap computed window columns into the select list.
func rewriteExpr(e Expr, repl func(Expr) (Expr, bool)) Expr {
	if e == nil {
		return nil
	}
	if r, ok := repl(e); ok {
		return r
	}
	switch x := e.(type) {
	case *BinaryExpr:
		return &BinaryExpr{Op: x.Op, L: rewriteExpr(x.L, repl), R: rewriteExpr(x.R, repl)}
	case *UnaryExpr:
		return &UnaryExpr{Op: x.Op, X: rewriteExpr(x.X, repl)}
	case *CastExpr:
		return &CastExpr{X: rewriteExpr(x.X, repl), Type: x.Type}
	case *FuncExpr:
		nf := *x
		nf.Args = make([]Expr, len(x.Args))
		for i, a := range x.Args {
			nf.Args[i] = rewriteExpr(a, repl)
		}
		return &nf
	case *InExpr:
		ni := &InExpr{X: rewriteExpr(x.X, repl), Not: x.Not, List: make([]Expr, len(x.List))}
		for i, item := range x.List {
			ni.List[i] = rewriteExpr(item, repl)
		}
		return ni
	case *IsNullExpr:
		return &IsNullExpr{X: rewriteExpr(x.X, repl), Not: x.Not}
	case *LikeExpr:
		return &LikeExpr{X: rewriteExpr(x.X, repl), Pattern: rewriteExpr(x.Pattern, repl), Not: x.Not}
	case *BetweenExpr:
		return &BetweenExpr{X: rewriteExpr(x.X, repl), Lo: rewriteExpr(x.Lo, repl), Hi: rewriteExpr(x.Hi, repl), Not: x.Not}
	case *CaseExpr:
		nc := &CaseExpr{Operand: rewriteExpr(x.Operand, repl), Else: rewriteExpr(x.Else, repl)}
		nc.Whens = make([]CaseWhen, len(x.Whens))
		for i, w := range x.Whens {
			nc.Whens[i] = CaseWhen{When: rewriteExpr(w.When, repl), Then: rewriteExpr(w.Then, repl)}
		}
		return nc
	default:
		return e
	}
}

// windowSourceAlias qualifies the synthetic window-value columns so they can
// never collide with user columns in unqualified lookups.
const windowSourceAlias = "__window__"

// rewriteWindowItems swaps each window call in the select list for a
// reference to its computed column; unaliased items keep the display name
// the original expression would have produced.
func rewriteWindowItems(items []SelectItem, byPtr map[*FuncExpr]int, winCols []Column) []SelectItem {
	out := make([]SelectItem, len(items))
	for i, it := range items {
		ni := it
		if it.Expr != nil {
			changed := false
			ni.Expr = rewriteExpr(it.Expr, func(e Expr) (Expr, bool) {
				f, ok := e.(*FuncExpr)
				if !ok {
					return nil, false
				}
				slot, ok := byPtr[f]
				if !ok {
					return nil, false
				}
				changed = true
				return &ColumnRef{Table: windowSourceAlias, Name: winCols[slot].Name}, true
			})
			if changed && ni.Alias == "" {
				ni.Alias = inferColumnName(it.Expr)
			}
		}
		out[i] = ni
	}
	return out
}

// windowStage computes the window calls of a SELECT list as hidden columns
// appended to every input row, and rewrites the list to read them. The
// pipeline's WindowAgg node (windowStream), the vectorized planner and the
// reference executor share it.
type windowStage struct {
	calls []*FuncExpr
	cols  []Column
	items []SelectItem
	// mixed is the error of a statement that also groups or aggregates,
	// raised once the input rows are filtered.
	mixed error
}

func newWindowStage(s *SelectStmt, grouped bool) *windowStage {
	if grouped {
		return &windowStage{items: s.Items,
			mixed: fmt.Errorf("sql: window functions cannot be combined with GROUP BY or aggregates")}
	}
	calls, byPtr := collectWindowCalls(s.Items)
	w := &windowStage{calls: calls, cols: make([]Column, len(calls))}
	for i := range calls {
		w.cols[i] = Column{Name: fmt.Sprintf("__w%d", i), Type: "variant"}
	}
	w.items = rewriteWindowItems(s.Items, byPtr, w.cols)
	return w
}

// source is the hidden source the computed columns bind as.
func (w *windowStage) source() sourceInfo {
	return sourceInfo{alias: windowSourceAlias, columns: w.cols, width: len(w.cols), hidden: true}
}

// apply validates every call, computes each over rows — evalCol evaluates
// one input expression over all of them — and returns the rows with the
// results appended.
func (w *windowStage) apply(cx *evalCtx, rows []Row, evalCol func(Expr) ([]variant.Value, error)) ([]Row, error) {
	if w.mixed != nil {
		return nil, w.mixed
	}
	if len(w.calls) == 0 {
		return rows, nil
	}
	for _, f := range w.calls {
		if err := validateWindowCall(f); err != nil {
			return nil, err
		}
	}
	n := len(rows)
	outCols := make([][]variant.Value, len(w.calls))
	for ci, f := range w.calls {
		in, err := buildWindowInput(f, n, evalCol)
		if err != nil {
			return nil, err
		}
		if outCols[ci], err = evalWindowCall(cx, in, n); err != nil {
			return nil, err
		}
	}
	out := make([]Row, n)
	for i, r := range rows {
		nr := make(Row, 0, len(r)+len(w.calls))
		nr = append(nr, r...)
		for ci := range w.calls {
			nr = append(nr, outCols[ci][i])
		}
		out[i] = nr
	}
	return out, nil
}

// windowStream is the pipeline's WindowAgg node: it drains its input (rows
// of shape sources) on the first Next and emits the rows with the window
// columns appended. Window inputs compile against the input layout.
type windowStream struct {
	cx      *evalCtx
	src     RowStream
	sources []sourceInfo
	stage   *windowStage

	built bool
	rows  []Row
	pos   int
	err   error
}

func (w *windowStream) Columns() []Column {
	return append(append([]Column(nil), w.src.Columns()...), w.stage.cols...)
}

func (w *windowStream) Next() (Row, error) {
	if !w.built {
		w.built = true
		w.rows, w.err = w.build()
	}
	if w.err != nil {
		return nil, w.err
	}
	if w.pos >= len(w.rows) {
		return nil, io.EOF
	}
	r := w.rows[w.pos]
	w.pos++
	return r, nil
}

func (w *windowStream) build() ([]Row, error) {
	rs, err := drainStreamCtx(w.cx, w.src)
	if err != nil {
		return nil, err
	}
	rows := rs.Rows
	evalCol := func(e Expr) ([]variant.Value, error) {
		ce := compileOver(e, w.sources, w.cx.levels)
		col := make([]variant.Value, len(rows))
		for i, r := range rows {
			if err := w.cx.checkCancel(i); err != nil {
				return nil, err
			}
			v, err := ce(w.cx, r)
			if err != nil {
				return nil, err
			}
			col[i] = v
		}
		return col, nil
	}
	return w.stage.apply(w.cx, rows, evalCol)
}

func (w *windowStream) Close() error {
	w.rows = nil
	return w.src.Close()
}
