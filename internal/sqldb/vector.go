package sqldb

import (
	"time"

	"repro/internal/variant"
)

// Columnar batches. The vectorized executor (vecexec.go) moves rows through
// the pipeline vecBatchSize at a time as typed column vectors: one Go slice
// per column with a null bitmap beside it, so filters, projections, and
// aggregate feeds run as per-type kernel loops instead of per-row closure
// calls. A Batch gathered from a table (colmirror.go) also knows each lane's
// backing row version — kernel-resistant expressions fall back to the
// row-compiled closure over the original row, which makes the fallback
// trivially identical to the row-at-a-time executors.

// vecBatchSize is the number of rows per batch: large enough to amortize
// per-batch bookkeeping, small enough that a batch's working set stays
// cache-resident.
const vecBatchSize = 1024

// vecKind is the physical representation of one column vector.
type vecKind uint8

const (
	// vecAny holds boxed variant values — the universal representation for
	// variant-typed columns, mixed-kind data, and fallback expression
	// results. Nullness lives in the value itself, not the bitmap.
	vecAny vecKind = iota
	vecInt
	vecFloat
	vecBool
	vecText
	vecTime
)

// vecKindFor maps a catalogue column type to its vector representation.
func vecKindFor(colType string) vecKind {
	switch colType {
	case "integer":
		return vecInt
	case "float":
		return vecFloat
	case "boolean":
		return vecBool
	case "text":
		return vecText
	case "timestamp":
		return vecTime
	default: // "variant" and anything unknown
		return vecAny
	}
}

// colVec is one column of a batch. Exactly one of the typed slices is active
// (per kind); nulls is a bitmap with bit i set when lane i is NULL (typed
// kinds only — vecAny carries nullness in the boxed value). errs, when
// non-nil, records per-lane evaluation errors for computed columns: the
// drain loop raises them in row order, so an error on a lane past a LIMIT
// early-exit is discarded exactly as the row executor — which never reaches
// that row — would have discarded it.
type colVec struct {
	kind   vecKind
	ints   []int64
	floats []float64
	bools  []bool
	strs   []string
	times  []time.Time
	anys   []variant.Value
	nulls  []uint64
	errs   []error
}

func nullWords(n int) int { return (n + 63) / 64 }

// reset prepares the column for n lanes of the given kind, reusing backing
// storage across batches.
func (c *colVec) reset(kind vecKind, n int) {
	c.kind = kind
	c.errs = nil
	w := nullWords(n)
	if cap(c.nulls) < w {
		c.nulls = make([]uint64, w)
	} else {
		c.nulls = c.nulls[:w]
		for i := range c.nulls {
			c.nulls[i] = 0
		}
	}
	grow := func(have int) bool { return have < n }
	switch kind {
	case vecInt:
		if grow(cap(c.ints)) {
			c.ints = make([]int64, n)
		} else {
			c.ints = c.ints[:n]
		}
	case vecFloat:
		if grow(cap(c.floats)) {
			c.floats = make([]float64, n)
		} else {
			c.floats = c.floats[:n]
		}
	case vecBool:
		if grow(cap(c.bools)) {
			c.bools = make([]bool, n)
		} else {
			c.bools = c.bools[:n]
		}
	case vecText:
		if grow(cap(c.strs)) {
			c.strs = make([]string, n)
		} else {
			c.strs = c.strs[:n]
		}
	case vecTime:
		if grow(cap(c.times)) {
			c.times = make([]time.Time, n)
		} else {
			c.times = c.times[:n]
		}
	case vecAny:
		if grow(cap(c.anys)) {
			c.anys = make([]variant.Value, n)
		} else {
			c.anys = c.anys[:n]
		}
	}
}

func (c *colVec) setNull(i int) { c.nulls[i>>6] |= 1 << (uint(i) & 63) }

// isNull reports lane i's nullness (bitmap for typed kinds, boxed value for
// vecAny).
func (c *colVec) isNull(i int) bool {
	if c.kind == vecAny {
		return c.anys[i].IsNull()
	}
	return c.nulls[i>>6]&(1<<(uint(i)&63)) != 0
}

// setErr records a lane error, allocating the error slice on first use.
func (c *colVec) setErr(i, n int, err error) {
	if c.errs == nil {
		c.errs = make([]error, n)
	}
	c.errs[i] = err
}

func (c *colVec) laneErr(i int) error {
	if c.errs == nil {
		return nil
	}
	return c.errs[i]
}

// value boxes lane i back into a variant value.
func (c *colVec) value(i int) variant.Value {
	if c.kind != vecAny && c.isNull(i) {
		return variant.Value{}
	}
	switch c.kind {
	case vecInt:
		return variant.NewInt(c.ints[i])
	case vecFloat:
		return variant.NewFloat(c.floats[i])
	case vecBool:
		return variant.NewBool(c.bools[i])
	case vecText:
		return variant.NewText(c.strs[i])
	case vecTime:
		return variant.NewTime(c.times[i])
	default:
		return c.anys[i]
	}
}

// Batch is one vector of rows in columnar form, gathered from a table
// (colmirror.go): lane i's backing row is heap[pos[i]], so fallback
// expressions evaluate against the original row.
type Batch struct {
	n    int
	cols []colVec
	heap []Row
	pos  []int32
}

// row returns lane i's backing row.
func (b *Batch) row(i int) Row { return b.heap[b.pos[i]] }
