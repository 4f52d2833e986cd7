package sqldb

import (
	"context"
	"fmt"
	"io"
	"strings"
	"time"

	"repro/internal/variant"
)

// RowStream is the engine's pull-based row producer contract: Next returns
// one row at a time and (nil, io.EOF) when the stream is exhausted. Streams
// handed across the API boundary (from QueryRows, or returned by a
// RegisterTable UDF) must be iterable after the statement returns: they may
// only touch data private to the stream — snapshots taken while it opened,
// or results the producing UDF already computed — never live catalogue
// state.
type RowStream interface {
	// Columns describes the stream's row shape.
	Columns() []Column
	// Next returns the next row, or (nil, io.EOF) once exhausted.
	Next() (Row, error)
	// Close releases the stream's resources. It is idempotent.
	Close() error
}

// sliceStream iterates a materialized row slice.
type sliceStream struct {
	cols []Column
	rows []Row
	pos  int
}

// NewSliceStream wraps already-materialized rows as a RowStream — the
// adapter table-UDFs and internal fallbacks use when lazy production is not
// worthwhile.
func NewSliceStream(cols []Column, rows []Row) RowStream {
	return &sliceStream{cols: cols, rows: rows}
}

func (s *sliceStream) Columns() []Column { return s.cols }

func (s *sliceStream) Next() (Row, error) {
	if s.pos >= len(s.rows) {
		return nil, io.EOF
	}
	r := s.rows[s.pos]
	s.pos++
	return r, nil
}

func (s *sliceStream) Close() error {
	s.pos = len(s.rows)
	return nil
}

// Stream adapts a materialized result set to the pull contract.
func (rs *ResultSet) Stream() RowStream {
	return &sliceStream{cols: rs.Columns, rows: rs.Rows}
}

// drainStreamCtx materializes a stream into a ResultSet, closing it. It
// polls the statement context, so a cancelled query stops materializing an
// unbounded source (a huge generate_series, a long fmu_simulate) promptly.
func drainStreamCtx(cx *evalCtx, st RowStream) (*ResultSet, error) {
	defer st.Close()
	out := &ResultSet{Columns: st.Columns()}
	for i := 0; ; i++ {
		if err := cx.checkCancel(i); err != nil {
			return nil, err
		}
		row, err := st.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out.Rows = append(out.Rows, row)
	}
}

// RowIter is the public streaming query result: a cursor over a RowStream
// with database/sql-style Next/Scan/Err/Close semantics. A RowIter holds no
// lock — its source is a point-in-time snapshot (or private UDF
// data) — so callers may interleave iteration with other statements freely.
// Iteration observes the bound context: once it is cancelled, Next returns
// false and Err reports the cancellation.
type RowIter struct {
	ctx    context.Context
	src    RowStream
	cur    Row
	err    error
	closed bool
}

func newRowIter(ctx context.Context, src RowStream) *RowIter {
	if ctx == nil {
		ctx = context.Background()
	}
	return &RowIter{ctx: ctx, src: src}
}

// Columns describes the result shape.
func (it *RowIter) Columns() []Column { return it.src.Columns() }

// Next advances to the next row, reporting false at the end of the stream or
// on error (check Err to distinguish).
func (it *RowIter) Next() bool {
	if it.closed || it.err != nil {
		return false
	}
	if err := it.ctx.Err(); err != nil {
		it.err = err
		it.Close()
		return false
	}
	row, err := it.src.Next()
	if err == io.EOF {
		it.Close()
		return false
	}
	if err != nil {
		it.err = err
		it.Close()
		return false
	}
	it.cur = row
	return true
}

// Row returns the current row's raw values; valid until the next call to
// Next.
func (it *RowIter) Row() Row { return it.cur }

// Value returns the current row's value in the named column.
func (it *RowIter) Value(column string) (variant.Value, error) {
	for i, c := range it.src.Columns() {
		if strings.EqualFold(c.Name, column) {
			if i < len(it.cur) {
				return it.cur[i], nil
			}
			break
		}
	}
	return variant.Value{}, fmt.Errorf("sql: result has no column %q", column)
}

// Scan copies the current row into dest pointers (one per column). Supported
// destinations: *int, *int64, *float64, *string, *bool, *time.Time,
// *variant.Value, and *any.
func (it *RowIter) Scan(dest ...any) error {
	if it.cur == nil {
		return fmt.Errorf("sql: Scan called without a successful Next")
	}
	if len(dest) != len(it.cur) {
		return fmt.Errorf("sql: Scan got %d destinations for %d columns", len(dest), len(it.cur))
	}
	for i, d := range dest {
		if err := assignValue(d, it.cur[i]); err != nil {
			return fmt.Errorf("sql: Scan column %d: %w", i+1, err)
		}
	}
	return nil
}

// Err reports the first error encountered during iteration (nil after a
// clean end of stream).
func (it *RowIter) Err() error { return it.err }

// Close releases the iterator. It is idempotent and implied by exhausting
// the stream.
func (it *RowIter) Close() error {
	if it.closed {
		return nil
	}
	it.closed = true
	it.cur = nil
	return it.src.Close()
}

// Materialize drains the remaining rows into a ResultSet — the compatibility
// bridge from the streaming API to the classic materialized one.
func (it *RowIter) Materialize() (*ResultSet, error) {
	defer it.Close()
	out := &ResultSet{Columns: it.src.Columns()}
	for it.Next() {
		out.Rows = append(out.Rows, it.cur)
	}
	if it.err != nil {
		return nil, it.err
	}
	return out, nil
}

// assignValue converts one SQL datum into a Go destination pointer.
func assignValue(dest any, v variant.Value) error {
	switch d := dest.(type) {
	case *variant.Value:
		*d = v
		return nil
	case *any:
		*d = v.Native()
		return nil
	case *int64:
		n, err := v.AsInt()
		if err != nil {
			return err
		}
		*d = n
		return nil
	case *int:
		n, err := v.AsInt()
		if err != nil {
			return err
		}
		*d = int(n)
		return nil
	case *float64:
		f, err := v.AsFloat()
		if err != nil {
			return err
		}
		*d = f
		return nil
	case *string:
		*d = v.AsText()
		return nil
	case *bool:
		b, err := v.AsBool()
		if err != nil {
			return err
		}
		*d = b
		return nil
	case *time.Time:
		t, err := v.AsTime()
		if err != nil {
			return err
		}
		*d = t
		return nil
	default:
		return fmt.Errorf("unsupported Scan destination %T", dest)
	}
}
