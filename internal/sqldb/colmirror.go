package sqldb

import (
	"slices"
	"sync"
	"time"

	"repro/internal/variant"
)

// Column mirror. The heap stores boxed rows; the vectorized kernels read
// typed column vectors. Instead of transposing every batch on every query,
// each Table keeps a lazily built typed shadow of its version array — one
// slice per column plus a null map — and batches gather from it by position.
//
// The mirror needs no invalidation because of how the heap stores versions
// (mvcc.go): versions are append-only, a published position's row is never
// rewritten, rollback only flips stamps, and only vacuumTable (and table
// creation) publish a reordered array — which bumps the view's layout
// generation, the key the mirror is built under. A mirror built for
// generation g over positions [0, n) is therefore exact for every view of
// generation g, and writes only ever extend it. A reader whose view carries
// another generation starts the mirror over in fresh arrays, whatever the
// locks around it guarantee.
//
// Concurrency: a reader extends the columns it needs up to its own view's
// length under colMirror.mu — a leaf lock, nothing is acquired while it is
// held — and takes away headers cut at that length. Extension only appends,
// so it never writes a word a published header covers, and headers are read
// without the mutex. Visibility is not the mirror's business: it covers
// every version, and readers check their snapshot per position.
//
// Only typed columns are mirrored. A variant column, and a typed column
// holding a value of another kind (insert coercion rules that out for data
// the engine writes itself), are vecAny: demoted for the rest of the
// generation and gathered from the boxed rows at batch time. A mirrored cell
// costs its typed slot (8 bytes; 16 for text, 24 for timestamps) plus one
// null byte once the column holds a NULL — at most 3/8 of the 72-byte boxed
// value it shadows.
type colMirror struct {
	mu   sync.Mutex
	gen  uint64
	cols []mirrorCol // by column offset; nil until first use
}

// mirrorCol is one column's typed shadow over version positions [0, n).
// The slice of the column's kind is active; nulls, when non-nil, has entry p
// set for a NULL at position p (nil: no NULL below n). kind vecAny means
// the column is not mirrored.
type mirrorCol struct {
	kind   vecKind
	n      int
	ints   []int64
	floats []float64
	bools  []bool
	strs   []string
	times  []time.Time
	nulls  []bool
}

// mirrorColumns returns headers over v's positions for the wanted columns,
// extending the mirror to len(v.rows) first. Unwanted entries are zero and
// must not be read.
func (t *Table) mirrorColumns(v *tableView, wanted []bool) []mirrorCol {
	n := len(v.rows)
	out := make([]mirrorCol, len(wanted))
	m := &t.mirror
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cols == nil || m.gen != v.gen {
		// A new layout: fresh arrays, so headers already handed out stay
		// intact.
		m.gen = v.gen
		m.cols = make([]mirrorCol, len(t.Columns))
		for i, c := range t.Columns {
			m.cols[i].kind = vecKindFor(c.Type)
		}
	}
	for off, w := range wanted {
		if !w {
			continue
		}
		c := &m.cols[off]
		if c.kind != vecAny && c.n < n {
			c.extend(v.rows[:n], off)
		}
		out[off] = c.header(n)
	}
	return out
}

// extend appends the cells at off of rows[c.n:], demoting the column to
// vecAny at the first value of another kind.
func (c *mirrorCol) extend(rows []Row, off int) {
	ok := true
	switch c.kind {
	case vecInt:
		c.ints, ok = extendTyped(c.ints, &c.nulls, rows, off, variant.Int, variant.Value.Int)
	case vecFloat:
		c.floats, ok = extendTyped(c.floats, &c.nulls, rows, off, variant.Float, variant.Value.Float)
	case vecBool:
		c.bools, ok = extendTyped(c.bools, &c.nulls, rows, off, variant.Bool, variant.Value.Bool)
	case vecText:
		c.strs, ok = extendTyped(c.strs, &c.nulls, rows, off, variant.Text, variant.Value.Text)
	case vecTime:
		c.times, ok = extendTyped(c.times, &c.nulls, rows, off, variant.Time, variant.Value.Time)
	}
	if !ok {
		*c = mirrorCol{kind: vecAny}
		return
	}
	c.n = len(rows)
}

// extendTyped appends the cells at off of rows[len(dst):] to dst and the
// null map, or reports false at the first non-NULL cell not of kind.
func extendTyped[T any](dst []T, nulls *[]bool, rows []Row, off int, kind variant.Kind, get func(variant.Value) T) ([]T, bool) {
	from := len(dst)
	dst = slices.Grow(dst, len(rows)-from)
	if *nulls != nil {
		*nulls = slices.Grow(*nulls, len(rows)-from)
	}
	var zero T
	for i := from; i < len(rows); i++ {
		v := rows[i][off]
		if v.IsNull() {
			if *nulls == nil {
				*nulls = make([]bool, i, cap(dst))
			}
			*nulls = append(*nulls, true)
			dst = append(dst, zero)
			continue
		}
		if v.Kind() != kind {
			return dst, false
		}
		if *nulls != nil {
			*nulls = append(*nulls, false)
		}
		dst = append(dst, get(v))
	}
	return dst, true
}

// header returns the column cut at n positions, capacity included, so no
// holder can append into the shared arrays.
func (c *mirrorCol) header(n int) mirrorCol {
	return mirrorCol{
		kind: c.kind, n: n,
		ints: cut(c.ints, n), floats: cut(c.floats, n), bools: cut(c.bools, n),
		strs: cut(c.strs, n), times: cut(c.times, n), nulls: cut(c.nulls, n),
	}
}

// cut is s[:n:n], nil for an inactive (nil) slice.
func cut[T any](s []T, n int) []T {
	if s == nil {
		return nil
	}
	return s[:n:n]
}

// mirrorScan is what one vectorized execution reads: a view's version
// array, the mirror headers of the columns its kernels read, and the
// positions its snapshot sees.
type mirrorScan struct {
	heap   []Row
	cols   []mirrorCol
	wanted []bool
	vis    []int32
}

// openMirrorScan pins t's current view for cx's snapshot. It runs while the
// statement opens, as for any scan source.
func openMirrorScan(cx *evalCtx, t *Table, wanted []bool) *mirrorScan {
	v := t.loadView()
	return &mirrorScan{
		heap:   v.rows,
		cols:   t.mirrorColumns(v, wanted),
		wanted: wanted,
		vis:    visiblePositions(cx.snap, v),
	}
}

// fill rebuilds b as the lanes at positions pos (a run of s.vis), gathering
// only the wanted columns; the others stay empty and must not be read.
func (s *mirrorScan) fill(b *Batch, pos []int32) {
	b.n = len(pos)
	b.heap = s.heap
	b.pos = pos
	if cap(b.cols) < len(s.cols) {
		b.cols = make([]colVec, len(s.cols))
	}
	b.cols = b.cols[:len(s.cols)]
	for off, want := range s.wanted {
		if want {
			b.cols[off].gather(&s.cols[off], s.heap, off, pos)
		}
	}
}

// gather fills c with h's lanes at positions pos; an unmirrored column
// copies the boxed cells at off of heap instead.
func (c *colVec) gather(h *mirrorCol, heap []Row, off int, pos []int32) {
	c.reset(h.kind, len(pos))
	switch h.kind {
	case vecAny:
		for i, p := range pos {
			c.anys[i] = heap[p][off]
		}
		return
	case vecInt:
		gatherLanes(c.ints, h.ints, pos)
	case vecFloat:
		gatherLanes(c.floats, h.floats, pos)
	case vecBool:
		gatherLanes(c.bools, h.bools, pos)
	case vecText:
		gatherLanes(c.strs, h.strs, pos)
	case vecTime:
		gatherLanes(c.times, h.times, pos)
	}
	if h.nulls != nil {
		for i, p := range pos {
			if h.nulls[p] {
				c.setNull(i)
			}
		}
	}
}

func gatherLanes[T any](dst, src []T, pos []int32) {
	for i, p := range pos {
		dst[i] = src[p]
	}
}
