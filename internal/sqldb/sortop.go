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

// rowPred is one compiled row predicate. In lenient mode — prefilters
// pushed below a join — an evaluation error keeps the row instead of
// failing: the executor never evaluates WHERE on source rows the join
// eliminates, so the error must be left to the residual filter above the
// join, which only sees rows that actually survive.
type rowPred struct {
	cx      *evalCtx
	pred    compiledExpr
	lenient bool
}

func newRowPred(cx *evalCtx, pred compiledExpr, lenient bool) *rowPred {
	return &rowPred{cx: cx, pred: pred, lenient: lenient}
}

// keep evaluates the predicate on one row: NULL and FALSE drop it.
func (p *rowPred) keep(row Row) (bool, error) {
	v, err := p.pred(p.cx, row)
	keep := false
	if err == nil && !v.IsNull() {
		keep, err = v.AsBool()
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

// projectStream evaluates the compiled SELECT list per input row.
type projectStream struct {
	cx    *evalCtx
	src   RowStream
	cols  []Column
	projs []compiledExpr
	n     int
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
	return evalList(p.cx, in, p.projs)
}

func (p *projectStream) Close() error { return p.src.Close() }

// projectSortStream projects and orders a non-aggregated pipeline: it drains
// the input (keeping the post-filter rows aligned with their projections so
// ORDER BY expressions over input columns — keys, one per ORDER BY item —
// still evaluate), sorts through applyOrderBy, and then emits.
type projectSortStream struct {
	cx    *evalCtx
	src   RowStream
	sel   *SelectStmt
	cols  []Column
	projs []compiledExpr
	keys  []compiledExpr

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
		out, err := evalList(p.cx, in, p.projs)
		if err != nil {
			return err
		}
		inRows = append(inRows, in)
		outRows = append(outRows, out)
	}
	rs := &ResultSet{Columns: p.cols, Rows: outRows}
	inputKey := func(ki int, in Row) (variant.Value, error) { return p.keys[ki](p.cx, in) }
	if err := applyOrderBy(p.sel, inRows, rs, false, inputKey); err != nil {
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
	cx   *evalCtx
	src  RowStream
	sel  *SelectStmt
	cols []Column

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
	if err := applyOrderBy(s.sel, nil, rs, true, nil); err != nil {
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
