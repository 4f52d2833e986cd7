package sqldb

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/variant"
)

// Index kinds. A hash index answers equality probes in O(1); an ordered
// index (named "btree" after the PostgreSQL access method it stands in for)
// answers both equality and range probes via binary search.
const (
	IndexHash    = "hash"
	IndexOrdered = "btree"
)

// IndexInfo describes one secondary index for introspection and Dump.
type IndexInfo struct {
	Name   string
	Table  string
	Column string
	Kind   string
}

// index is a secondary index over a single column. Keys are the column's
// stored (coerced) values; NULLs are never indexed, matching SQL predicate
// semantics where `col = x` and `col BETWEEN lo AND hi` can't select NULL.
// Row ids are version positions in the table's view arrays, kept ascending
// within each key.
//
// Index maintenance is insert-only on the hot path: every new row version
// gets an entry, while DELETE and rollback leave entries behind — a probe
// re-checks each candidate's visibility (and its own view bound) anyway, so
// stale entries cost a filtered candidate, never a wrong result. That holds
// for writes too: UPDATE and DELETE find their targets through the same
// probes (DB.applyToTargets), and an entry whose version a newer commit
// ended is what lets the loser of a write-write race see its conflict. Full
// rebuilds (vacuum compaction) run under the DB's exclusive lock. ix.mu makes the insert/lookup pair safe when concurrent
// writers grow the index while snapshot readers probe it.
type index struct {
	name   string // lowercase
	table  string // lowercase
	column string // lowercase
	kind   string // IndexHash or IndexOrdered
	col    int    // column position in the table

	mu      sync.RWMutex
	hash    map[string][]int // IndexHash: key -> row positions
	entries []indexEntry     // IndexOrdered: sorted by val, distinct keys
}

// indexEntry is one distinct key of an ordered index.
type indexEntry struct {
	val  variant.Value
	rows []int
}

func (ix *index) info() IndexInfo {
	return IndexInfo{Name: ix.name, Table: ix.table, Column: ix.column, Kind: ix.kind}
}

// hashKey renders a value as a hash-bucket key. Int and Float values that
// are numerically equal share a bucket (3 = 3.0, as variant.Compare treats
// them), so a probe coerced to either numeric type finds the row.
func hashKey(v variant.Value) string {
	switch v.Kind() {
	case variant.Bool:
		if v.Bool() {
			return "b1"
		}
		return "b0"
	case variant.Int:
		i := v.Int()
		if f := float64(i); int64(f) == i {
			return "n" + strconv.FormatFloat(f, 'g', -1, 64)
		}
		return "i" + strconv.FormatInt(i, 10)
	case variant.Float:
		return "n" + strconv.FormatFloat(v.Float(), 'g', -1, 64)
	case variant.Text:
		return "t" + v.Text()
	case variant.Time:
		return "s" + v.Time().UTC().Format(time.RFC3339Nano)
	default:
		return ""
	}
}

// build (re)constructs the index from a table's row versions.
func (ix *index) build(rows []Row) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if ix.kind == IndexHash {
		ix.hash = make(map[string][]int)
	} else {
		ix.entries = nil
	}
	for pos, row := range rows {
		if err := ix.insert(pos, row[ix.col]); err != nil {
			return err
		}
	}
	return nil
}

// search finds the first entry whose key is >= v in an ordered index,
// reporting whether it is an exact match.
func (ix *index) search(v variant.Value) (int, bool, error) {
	lo, hi := 0, len(ix.entries)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		c, err := variant.Compare(ix.entries[mid].val, v)
		if err != nil {
			return 0, false, err
		}
		if c < 0 {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ix.entries) {
		c, err := variant.Compare(ix.entries[lo].val, v)
		if err != nil {
			return 0, false, err
		}
		if c == 0 {
			return lo, true, nil
		}
	}
	return lo, false, nil
}

// insert adds one row position under the value's key. Caller holds ix.mu.
func (ix *index) insert(pos int, v variant.Value) error {
	if v.IsNull() {
		return nil
	}
	if ix.kind == IndexHash {
		k := hashKey(v)
		ix.hash[k] = append(ix.hash[k], pos)
		return nil
	}
	i, exact, err := ix.search(v)
	if err != nil {
		return fmt.Errorf("sql: index %q: %w", ix.name, err)
	}
	if exact {
		ix.entries[i].rows = append(ix.entries[i].rows, pos)
		return nil
	}
	ix.entries = append(ix.entries, indexEntry{})
	copy(ix.entries[i+1:], ix.entries[i:])
	ix.entries[i] = indexEntry{val: v, rows: []int{pos}}
	return nil
}

// insertLocked is insert with ix.mu taken — the per-row-version entry point
// used by writers that run concurrently with probes.
func (ix *index) insertLocked(pos int, v variant.Value) error {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.insert(pos, v)
}

// appendEqual appends the row positions whose key equals v to dst and
// returns it. Positions are copied out under ix.mu — ordered-index inserts
// shift entries in place, so handing out the backing array would race later
// writers — but into the caller's buffer, so a probe loop (the index lookup
// join issues one per outer row) reuses one allocation.
func (ix *index) appendEqual(dst []int, v variant.Value) ([]int, error) {
	if v.IsNull() {
		return dst, nil
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	if ix.kind == IndexHash {
		return append(dst, ix.hash[hashKey(v)]...), nil
	}
	i, exact, err := ix.search(v)
	if err != nil || !exact {
		return dst, err
	}
	return append(dst, ix.entries[i].rows...), nil
}

// lookupRange returns row positions with lo ⟨op⟩ key ⟨op⟩ hi on an ordered
// index. nil bounds are open; loInc/hiInc select >=,<= over >,<. The result
// is a private slice (see appendEqual).
func (ix *index) lookupRange(lo, hi *variant.Value, loInc, hiInc bool) ([]int, error) {
	if ix.kind != IndexOrdered {
		return nil, fmt.Errorf("sql: index %q does not support range lookups", ix.name)
	}
	ix.mu.RLock()
	defer ix.mu.RUnlock()
	start := 0
	if lo != nil {
		if lo.IsNull() {
			return nil, nil
		}
		i, exact, err := ix.search(*lo)
		if err != nil {
			return nil, err
		}
		start = i
		if exact && !loInc {
			start = i + 1 // keys are distinct: skip the single equal entry
		}
	}
	if hi != nil && hi.IsNull() {
		return nil, nil
	}
	var out []int
	for i := start; i < len(ix.entries); i++ {
		if hi != nil {
			c, err := variant.Compare(ix.entries[i].val, *hi)
			if err != nil {
				return nil, err
			}
			if c > 0 || (c == 0 && !hiInc) {
				break
			}
		}
		out = append(out, ix.entries[i].rows...)
	}
	return out, nil
}

// --- Predicate pushdown planner ---

// indexProbe is one indexable conjunct extracted from a WHERE clause.
type indexProbe struct {
	column string // lowercase column name
	eq     Expr   // equality probe (nil for range probes)
	lo, hi Expr   // range bounds; nil = open
	loInc  bool
	hiInc  bool
}

// splitConjuncts flattens a WHERE tree's top-level ANDs.
func splitConjuncts(e Expr, out []Expr) []Expr {
	if b, ok := e.(*BinaryExpr); ok && b.Op == "and" {
		return splitConjuncts(b.R, splitConjuncts(b.L, out))
	}
	return append(out, e)
}

// isConstExpr reports whether e is evaluable without a row: literals,
// parameters, and operators over those. Function calls are excluded (they
// may be volatile or shadowed by UDFs).
func isConstExpr(e Expr) bool {
	switch x := e.(type) {
	case *Literal, *Param:
		return true
	case *UnaryExpr:
		return isConstExpr(x.X)
	case *CastExpr:
		return isConstExpr(x.X)
	case *BinaryExpr:
		return isConstExpr(x.L) && isConstExpr(x.R)
	default:
		return false
	}
}

// columnOf matches e as a reference to a column of the scanned relation
// (unqualified, or qualified by its alias).
func columnOf(e Expr, alias string) (string, bool) {
	ref, ok := e.(*ColumnRef)
	if !ok {
		return "", false
	}
	if ref.Table != "" && !strings.EqualFold(ref.Table, alias) {
		return "", false
	}
	return strings.ToLower(ref.Name), true
}

// matchProbe extracts an indexable probe from one conjunct, or nil.
func matchProbe(e Expr, alias string) *indexProbe {
	switch x := e.(type) {
	case *BinaryExpr:
		col, colOnLeft := columnOf(x.L, alias)
		if !colOnLeft {
			var ok bool
			col, ok = columnOf(x.R, alias)
			if !ok || !isConstExpr(x.L) {
				return nil
			}
		} else if !isConstExpr(x.R) {
			return nil
		}
		val := x.R
		if !colOnLeft {
			val = x.L
		}
		switch x.Op {
		case "=":
			return &indexProbe{column: col, eq: val}
		case "<", "<=", ">", ">=":
			op := x.Op
			if !colOnLeft { // 5 < col  ==  col > 5
				op = map[string]string{"<": ">", "<=": ">=", ">": "<", ">=": "<="}[op]
			}
			p := &indexProbe{column: col}
			switch op {
			case "<":
				p.hi = val
			case "<=":
				p.hi, p.hiInc = val, true
			case ">":
				p.lo = val
			case ">=":
				p.lo, p.loInc = val, true
			}
			return p
		}
	case *BetweenExpr:
		if x.Not {
			return nil
		}
		col, ok := columnOf(x.X, alias)
		if !ok || !isConstExpr(x.Lo) || !isConstExpr(x.Hi) {
			return nil
		}
		return &indexProbe{column: col, lo: x.Lo, hi: x.Hi, loInc: true, hiInc: true}
	}
	return nil
}

// probeIndex evaluates a probe's constant expressions, coerces them to the
// indexed column's type (mirroring the insert path so hash keys line up),
// and performs the lookup. An equality probe appends into buf (see
// appendEqual); a range probe allocates its own result.
func probeIndex(cx *evalCtx, t *Table, ix *index, p *indexProbe, buf []int) ([]int, bool) {
	colType := t.Columns[ix.col].Type
	evalBound := func(e Expr) (*variant.Value, bool) {
		if e == nil {
			return nil, true
		}
		v, err := compileConst(e)(cx, nil)
		if err != nil {
			return nil, false
		}
		cv, err := coerceToColumn(v, colType)
		if err != nil {
			return nil, false
		}
		if !v.IsNull() {
			// Coercion must be value-preserving, or the scan path's compare
			// semantics (including its errors) would not be reproduced.
			if c, err := variant.Compare(v, cv); err != nil || c != 0 {
				return nil, false
			}
		}
		return &cv, true
	}
	if p.eq != nil {
		v, ok := evalBound(p.eq)
		if !ok {
			return nil, false
		}
		positions, err := ix.appendEqual(buf, *v)
		if err != nil {
			return nil, false
		}
		return positions, true
	}
	lo, ok := evalBound(p.lo)
	if !ok {
		return nil, false
	}
	hi, ok := evalBound(p.hi)
	if !ok {
		return nil, false
	}
	positions, err := ix.lookupRange(lo, hi, p.loInc, p.hiInc)
	if err != nil {
		return nil, false
	}
	return positions, true
}

// --- Table-side index maintenance ---

// findIndex returns an index on column; needOrdered restricts to ordered
// indexes (required for range probes). Equality probes prefer hash.
func (t *Table) findIndex(column string, needOrdered bool) *index {
	var fallback *index
	for _, ix := range t.indexes {
		if ix.column != column {
			continue
		}
		if needOrdered {
			if ix.kind == IndexOrdered {
				return ix
			}
			continue
		}
		if ix.kind == IndexHash {
			return ix
		}
		fallback = ix
	}
	return fallback
}

// insertIntoIndexes registers a newly appended row version. The view is
// published before this runs (see DB.insertVersion), so a probe that
// surfaces the new position always finds it within its own view header —
// or, bound by an older header, skips it.
func (t *Table) insertIntoIndexes(pos int, row Row) error {
	for _, ix := range t.indexes {
		if err := ix.insertLocked(pos, row[ix.col]); err != nil {
			return err
		}
	}
	return nil
}
