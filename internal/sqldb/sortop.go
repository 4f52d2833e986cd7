package sqldb

import (
	"io"

	"repro/internal/variant"
)

// Tail operators of the streaming pipeline: residual filtering, projection,
// ORDER BY (reusing the executor's applyOrderBy so key resolution — output
// names, ordinals, input expressions — and the stable comparator cannot
// diverge), DISTINCT with first-occurrence order, and LIMIT/OFFSET
// accounting with early exit.

// rowPred is one row predicate: interpreted via the bound scope, or through
// a compiled closure when the planner produced one (pushed single-source
// filters over base tables). In lenient mode — prefilters pushed below a
// join — an evaluation error keeps the row instead of failing: the executor
// never evaluates WHERE on source rows the join eliminates, so the error
// must be left to the residual filter above the join, which only sees rows
// that actually survive.
type rowPred struct {
	cx      *evalCtx
	env     compEnv // the compiled form's environment, built once per predicate
	sources []sourceInfo
	pred    Expr
	predC   compiledExpr
	lenient bool
}

func newRowPred(cx *evalCtx, sources []sourceInfo, pred Expr, predC compiledExpr, lenient bool) *rowPred {
	return &rowPred{cx: cx, env: compEnv{params: cx.params, ctx: cx.ctx},
		sources: sources, pred: pred, predC: predC, lenient: lenient}
}

// keep evaluates the predicate on one row: NULL and FALSE drop it.
func (p *rowPred) keep(row Row) (bool, error) {
	var keep bool
	var err error
	if p.predC != nil {
		var v variant.Value
		if v, err = p.predC(&p.env, row); err == nil && !v.IsNull() {
			keep, err = v.AsBool()
		}
	} else {
		keep, err = truthy(p.cx.withScope(bindScope(p.sources, row, nil)), p.pred)
	}
	if err != nil && p.lenient {
		return true, nil
	}
	return keep, err
}

// opFilterStream drops the rows of src its predicate does not keep.
type opFilterStream struct {
	*rowPred
	src RowStream
	n   int
}

func (f *opFilterStream) Columns() []Column { return f.src.Columns() }

func (f *opFilterStream) Next() (Row, error) {
	for {
		if err := f.cx.checkCancel(f.n); err != nil {
			return nil, err
		}
		f.n++
		row, err := f.src.Next()
		if err != nil {
			return nil, err // io.EOF included
		}
		keep, err := f.keep(row)
		if err != nil {
			return nil, err
		}
		if keep {
			return row, nil
		}
	}
}

func (f *opFilterStream) Close() error { return f.src.Close() }

// projectStream evaluates the SELECT list per input row: through projs, the
// list compiled against a single base-table source, when the planner
// produced it (env is their environment, built once at open), interpreted
// via the bound scope otherwise.
type projectStream struct {
	cx      *evalCtx
	src     RowStream
	sources []sourceInfo
	cols    []Column
	exprs   []Expr
	projs   []compiledExpr
	env     compEnv
	n       int
}

func (p *projectStream) Columns() []Column { return p.cols }

func (p *projectStream) Next() (Row, error) {
	if err := p.cx.checkCancel(p.n); err != nil {
		return nil, err
	}
	p.n++
	in, err := p.src.Next()
	if err != nil {
		return nil, err
	}
	if p.projs != nil {
		out := make(Row, len(p.projs))
		for i, proj := range p.projs {
			if out[i], err = proj(&p.env, in); err != nil {
				return nil, err
			}
		}
		return out, nil
	}
	sc := bindScope(p.sources, in, nil)
	rcx := p.cx.withScope(sc)
	out := make(Row, len(p.exprs))
	for i, e := range p.exprs {
		v, err := evalExpr(rcx, e)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func (p *projectStream) Close() error { return p.src.Close() }

// projectSortStream projects and orders a non-aggregated pipeline: it drains
// the input (keeping the post-filter rows aligned with their projections so
// ORDER BY expressions over input columns still resolve), sorts through
// applyOrderBy, and then emits.
type projectSortStream struct {
	cx      *evalCtx
	src     RowStream
	sources []sourceInfo
	sel     *SelectStmt
	cols    []Column
	exprs   []Expr

	built  bool
	rows   []Row
	pos    int
	err    error
	closed bool
}

func (p *projectSortStream) Columns() []Column { return p.cols }

func (p *projectSortStream) build() error {
	defer p.src.Close()
	var inRows, outRows []Row
	for i := 0; ; i++ {
		if err := p.cx.checkCancel(i); err != nil {
			return err
		}
		in, err := p.src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		sc := bindScope(p.sources, in, nil)
		rcx := p.cx.withScope(sc)
		out := make(Row, len(p.exprs))
		for oi, e := range p.exprs {
			v, err := evalExpr(rcx, e)
			if err != nil {
				return err
			}
			out[oi] = v
		}
		inRows = append(inRows, in)
		outRows = append(outRows, out)
	}
	rs := &ResultSet{Columns: p.cols, Rows: outRows}
	if err := applyOrderBy(p.cx, p.sel, p.sources, inRows, rs, false); err != nil {
		return err
	}
	p.rows = rs.Rows
	return nil
}

func (p *projectSortStream) Next() (Row, error) {
	if p.err != nil {
		return nil, p.err
	}
	if p.closed {
		return nil, io.EOF
	}
	if !p.built {
		p.built = true
		if err := p.build(); err != nil {
			p.err = err
			return nil, err
		}
	}
	if p.pos >= len(p.rows) {
		return nil, io.EOF
	}
	r := p.rows[p.pos]
	p.pos++
	return r, nil
}

func (p *projectSortStream) Close() error {
	if p.closed {
		return nil
	}
	p.closed = true
	p.rows = nil
	return p.src.Close()
}

// sortStream orders already-projected rows (the aggregated pipeline): keys
// must be output columns or ordinals, which applyOrderBy enforces with the
// executor's error.
type sortStream struct {
	cx         *evalCtx
	src        RowStream
	sel        *SelectStmt
	cols       []Column
	aggregated bool

	built  bool
	rows   []Row
	pos    int
	err    error
	closed bool
}

func (s *sortStream) Columns() []Column { return s.cols }

func (s *sortStream) build() error {
	defer s.src.Close()
	var rows []Row
	for i := 0; ; i++ {
		if err := s.cx.checkCancel(i); err != nil {
			return err
		}
		r, err := s.src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
		rows = append(rows, r)
	}
	rs := &ResultSet{Columns: s.cols, Rows: rows}
	if err := applyOrderBy(s.cx, s.sel, nil, nil, rs, s.aggregated); err != nil {
		return err
	}
	s.rows = rs.Rows
	return nil
}

func (s *sortStream) Next() (Row, error) {
	if s.err != nil {
		return nil, s.err
	}
	if s.closed {
		return nil, io.EOF
	}
	if !s.built {
		s.built = true
		if err := s.build(); err != nil {
			s.err = err
			return nil, err
		}
	}
	if s.pos >= len(s.rows) {
		return nil, io.EOF
	}
	r := s.rows[s.pos]
	s.pos++
	return r, nil
}

func (s *sortStream) Close() error {
	if s.closed {
		return nil
	}
	s.closed = true
	s.rows = nil
	return s.src.Close()
}

// distinctStream deduplicates with the executor's row-key encoding,
// preserving first-occurrence order.
type distinctStream struct {
	src  RowStream
	seen map[string]bool
}

func (d *distinctStream) Columns() []Column { return d.src.Columns() }

func (d *distinctStream) Next() (Row, error) {
	for {
		r, err := d.src.Next()
		if err != nil {
			return nil, err
		}
		key := rowKey(r)
		if d.seen[key] {
			continue
		}
		d.seen[key] = true
		return r, nil
	}
}

func (d *distinctStream) Close() error { return d.src.Close() }

// limitStream skips OFFSET rows and stops after LIMIT, closing its source
// early so upstream operators (and their worker pools) are reaped.
type limitStream struct {
	src    RowStream
	offset int // rows still to skip; <= 0 none
	limit  int // rows still to emit; < 0 unlimited
}

func (l *limitStream) Columns() []Column { return l.src.Columns() }

func (l *limitStream) Next() (Row, error) {
	if l.limit == 0 {
		l.src.Close()
		return nil, io.EOF
	}
	for {
		r, err := l.src.Next()
		if err != nil {
			return nil, err
		}
		if l.offset > 0 {
			l.offset--
			continue
		}
		if l.limit > 0 {
			l.limit--
		}
		return r, nil
	}
}

func (l *limitStream) Close() error { return l.src.Close() }
