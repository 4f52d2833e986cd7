package sqldb

import (
	"io"
	"strings"

	"repro/internal/variant"
)

// Streaming join operators. All strategies share one stream type and differ
// only in where a left row's candidates come from: the right (build) input is
// drained once — into hash buckets keyed on the equi-join columns, or into a
// plain slice for the nested loop — or the candidates were resolved per left
// row when the plan opened (lookupCands; there is no right input then): read
// from the inner table's index for the bottom join over an indexed table.
// (Lateral items join at open instead; see openLateral.) The left (probe)
// input streams through row by row, so the
// join's output participates in LIMIT early-exit and cancellation like every
// other operator.
//
// Output order is the nested-loop order the reference executor produces:
// left-major, right rows in stream order within each left row (hash buckets
// append in right-stream order, so probing preserves it). The build is
// deferred until the first left row arrives, which keeps the executor's
// behaviour of never evaluating join keys when the outer input is empty.
//
// NULL and type semantics: a NULL in any equi-key component never matches
// (SQL equality with NULL is NULL), exactly like the nested loop. Within
// one kind family — numeric (integers and floats compare numerically, as
// the engine's hash indexes already define), text, boolean, timestamp —
// hashKey equality coincides exactly with variant.Compare equality, so
// bucket probes are safe. Across families Compare may parse (text against
// timestamp) or error (text against integer), neither of which a hash
// bucket can express: the build therefore records the kind families seen
// per key component, and a probe whose family doesn't match falls back to
// verifying every build row with the real comparison — slower, but
// observationally identical to the nested loop, including its errors. Key
// pairs whose declared column types are provably incompatible skip hashing
// altogether at plan time (see extractEquiKeys).

// joinStream implements one join step over two RowStreams.
type joinStream struct {
	cx   *evalCtx
	step *opJoinStep

	left, right RowStream
	rightInfo   sourceInfo
	cols        []Column
	// keysL and keysR are the hash strategy's key expressions, compiled
	// against the left layout and the right source.
	keysL, keysR []compiledExpr

	// residual tests the part of the ON condition the candidate source does
	// not already guarantee (the whole ON for the nested loop) on a joined
	// row; nil when there is none.
	residual *rowPred

	built   bool
	lk      *lookupCands // candidates resolved at open (index lookup); leftN counts outer rows pulled
	leftN   int
	buckets map[string][]Row // hash strategy
	rows    []Row            // all build rows (hash cross-family fallback + nested loop)
	famMask []int            // hash: kind families seen per key component

	curLeft Row
	cand    []Row
	candIdx int
	matched bool
	// verify marks the cross-family fallback: cand is every build row and
	// each candidate's key must be compared against probeVals with real
	// Compare semantics before the residual applies.
	verify    bool
	probeVals []variant.Value

	n      int // rows pulled, for cancellation polling
	err    error
	closed bool
}

// newJoinStream joins left (rows of leftSources) with right (rows of
// rightInfo; nil for an index lookup, whose candidates the caller sets);
// residual is the compiled remainder of ON over allSources, nil when none.
func newJoinStream(cx *evalCtx, step *opJoinStep, left, right RowStream, leftSources []sourceInfo, rightInfo sourceInfo, allSources []sourceInfo, residual compiledExpr) *joinStream {
	var cols []Column
	for _, src := range allSources {
		cols = append(cols, src.columns...)
	}
	j := &joinStream{cx: cx, step: step, left: left, right: right, rightInfo: rightInfo, cols: cols}
	if step.hash && right != nil {
		j.keysL = compileList(step.keysL, leftSources, cx.levels)
		j.keysR = compileList(step.keysR, []sourceInfo{rightInfo}, cx.levels)
	}
	if residual != nil {
		j.residual = newRowPred(cx, residual, false)
	}
	return j
}

func (j *joinStream) Columns() []Column { return j.cols }

// Kind families for the probe-side guard. Within one family, hashKey
// equality coincides exactly with variant.Compare equality — except for
// integers outside float64's exact range (famLossy): Compare collapses
// numerics to float64, so two such values (or a lossy integer and a float)
// can be Compare-equal while hashing differently, and bucket lookups are
// never safe for them.
const (
	famNumeric = 1 << 0
	famText    = 1 << 1
	famBool    = 1 << 2
	famTime    = 1 << 3
	famLossy   = 1 << 4
)

// valueFamily buckets one non-NULL key value.
func valueFamily(v variant.Value) int {
	switch v.Kind() {
	case variant.Int:
		i := v.Int()
		if f := float64(i); int64(f) != i { // hashKey's own round-trip test
			return famNumeric | famLossy
		}
		return famNumeric
	case variant.Float:
		return famNumeric
	case variant.Text:
		return famText
	case variant.Bool:
		return famBool
	case variant.Time:
		return famTime
	default:
		return 0
	}
}

// build drains the right input into j.rows (stream order). Hash strategy:
// additionally evaluate the right key per row (NULL components are never
// bucketed), append to its bucket — so buckets preserve right-stream order
// — and record each component's kind family for the probe-side guard.
func (j *joinStream) build() error {
	defer j.right.Close()
	if j.step.hash {
		j.buckets = make(map[string][]Row)
		j.famMask = make([]int, len(j.step.keysR))
	}
	for i := 0; ; i++ {
		if err := j.cx.checkCancel(i); err != nil {
			return err
		}
		r, err := j.right.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		j.rows = append(j.rows, r)
		if !j.step.hash {
			continue
		}
		vals, nullAt, err := j.keyVals(j.keysR, r)
		if err != nil {
			return err
		}
		if nullAt >= 0 {
			continue // a NULL key component never equi-matches
		}
		for k, v := range vals {
			j.famMask[k] |= valueFamily(v)
		}
		key := joinHashKey(vals)
		j.buckets[key] = append(j.buckets[key], r)
	}
}

// keyVals evaluates every key expression against a row of its side; nullAt
// is the index of the first NULL component (-1 when none). All components
// are evaluated even past a NULL, because the nested loop's AND chain keeps
// evaluating after a NULL operand and its errors must surface here too.
func (j *joinStream) keyVals(keys []compiledExpr, row Row) ([]variant.Value, int, error) {
	vals, err := evalList(j.cx, row, keys)
	if err != nil {
		return nil, 0, err
	}
	for i, v := range vals {
		if v.IsNull() {
			return vals, i, nil
		}
	}
	return vals, -1, nil
}

func joinHashKey(vals []variant.Value) string {
	var sb strings.Builder
	for _, v := range vals {
		sb.WriteString(hashKey(v))
		sb.WriteByte(0)
	}
	return sb.String()
}

// verifyKeys compares a fallback candidate's key values against the probe's
// with the nested loop's exact AND-chain semantics, component by component:
// a clean FALSE short-circuits, a NULL operand skips the comparison but
// keeps evaluating later components (their errors must still surface), and
// a cross-kind comparison error fails the query just as it would there.
func (j *joinStream) verifyKeys(r Row) (bool, error) {
	matched := true
	for i, k := range j.keysR {
		rv, err := k(j.cx, r)
		if err != nil {
			return false, err
		}
		lv := j.probeVals[i]
		if lv.IsNull() || rv.IsNull() {
			matched = false
			continue
		}
		c, err := variant.Compare(lv, rv)
		if err != nil {
			return false, err
		}
		if c != 0 {
			return false, nil
		}
	}
	return matched, nil
}

// residualOK applies the non-equi remainder of the ON condition to a joined
// candidate row.
func (j *joinStream) residualOK(joined Row) (bool, error) {
	if j.residual == nil {
		return true, nil
	}
	return j.residual.keep(joined)
}

func (j *joinStream) nullPad() Row {
	return concatRow(j.curLeft, nullRow(j.rightInfo.width))
}

func concatRow(l, r Row) Row {
	out := make(Row, 0, len(l)+len(r))
	out = append(out, l...)
	return append(out, r...)
}

func (j *joinStream) Next() (Row, error) {
	if j.err != nil {
		return nil, j.err
	}
	if j.closed {
		return nil, io.EOF
	}
	fail := func(err error) (Row, error) {
		j.err = err
		return nil, err
	}
	for {
		if j.curLeft != nil {
			for j.candIdx < len(j.cand) {
				j.n++
				if err := j.cx.checkCancel(j.n); err != nil {
					return fail(err)
				}
				r := j.cand[j.candIdx]
				j.candIdx++
				if j.verify {
					ok, err := j.verifyKeys(r)
					if err != nil {
						return fail(err)
					}
					if !ok {
						continue
					}
				}
				joined := concatRow(j.curLeft, r)
				ok, err := j.residualOK(joined)
				if err != nil {
					return fail(err)
				}
				if ok {
					j.matched = true
					return joined, nil
				}
			}
			if j.step.kind == JoinLeft && !j.matched {
				j.matched = true
				return j.nullPad(), nil
			}
		}
		l, err := j.left.Next()
		if err == io.EOF {
			j.curLeft = nil
			return nil, io.EOF
		}
		if err != nil {
			return fail(err)
		}
		j.n++
		if err := j.cx.checkCancel(j.n); err != nil {
			return fail(err)
		}
		// The build is deferred until the first outer row exists, matching
		// the executor: an empty outer input never evaluates join keys.
		if !j.built {
			j.built = true
			if err := j.build(); err != nil {
				return fail(err)
			}
		}
		j.curLeft = l
		j.matched = false
		j.candIdx = 0
		j.verify = false
		if j.lk != nil {
			j.cand = j.lk.rows[j.lk.off[j.leftN]:j.lk.off[j.leftN+1]]
			j.leftN++
		} else if j.step.hash {
			if len(j.rows) == 0 {
				// No pairs exist: the executor never evaluates any ON
				// expression, so neither may the probe.
				j.cand = nil
				continue
			}
			vals, nullAt, err := j.keyVals(j.keysL, l)
			if err != nil {
				return fail(err)
			}
			switch {
			case nullAt < 0 && j.familySafe(vals):
				j.cand = j.buckets[joinHashKey(vals)]
			case nullAt >= 0 && j.familySafe(vals):
				// A NULL component never equi-matches, and with every
				// non-NULL component family-safe no comparison on any
				// pair could error — the executor would reject every
				// pair without erroring, so skip them all.
				j.cand = nil
			default:
				// The probe crosses the build's kind families (or mixes
				// NULLs with comparisons that might error): hash buckets
				// cannot express Compare's cross-kind semantics, so fall
				// back to verifying every build row.
				j.cand = j.rows
				j.verify = true
				j.probeVals = vals
			}
		} else {
			j.cand = j.rows
		}
	}
}

// familySafe reports whether every non-NULL probe component's kind family
// matches everything the build saw for that component — with no lossy
// integers on either side — making bucket lookups (and skipped NULL-key
// probes) exactly Compare-equal, errors included.
func (j *joinStream) familySafe(vals []variant.Value) bool {
	for k, v := range vals {
		if v.IsNull() {
			continue
		}
		fam := valueFamily(v)
		m := j.famMask[k]
		if (m|fam)&famLossy != 0 {
			return false
		}
		if m != 0 && m != fam {
			return false
		}
	}
	return true
}

func (j *joinStream) Close() error {
	if j.closed {
		return nil
	}
	j.closed = true
	j.curLeft, j.cand = nil, nil
	j.buckets, j.rows, j.lk = nil, nil, nil
	err := j.left.Close()
	if j.right != nil { // the index lookup has no right stream
		if rerr := j.right.Close(); err == nil {
			err = rerr
		}
	}
	return err
}

// lookupCands are candidates an index lookup join (see joinLookup) resolved
// per outer row at open: rows[off[i]:off[i+1]] are the candidates of the
// i-th outer row.
type lookupCands struct {
	rows []Row
	off  []int
}

// probe resolves every outer row's candidates through the index, within the
// view v the caller loaded beforehand. It returns nil once more than budget
// candidates have accumulated.
func (lk *joinLookup) probe(cx *evalCtx, outer []Row, v *tableView, pred *rowPred, budget int) (*lookupCands, error) {
	c := &lookupCands{rows: make([]Row, 0, len(outer)), off: make([]int, 1, len(outer)+1)}
	var buf []int
	for i, row := range outer {
		if err := cx.checkCancel(i); err != nil {
			return nil, err
		}
		var err error
		// A NULL key appends nothing; positions ascend within one key.
		if buf, err = lk.ix.appendEqual(buf[:0], row[lk.outerCol]); err != nil {
			return nil, err
		}
		for _, pos := range buf {
			// Index entries are insert-only: deleted, superseded, and aborted
			// versions keep theirs, so each candidate re-checks visibility.
			if pos >= len(v.rows) || !cx.snap.visible(v.meta[pos]) {
				continue
			}
			if pred != nil {
				if keep, err := pred.keep(v.rows[pos]); err != nil {
					return nil, err
				} else if !keep {
					continue
				}
			}
			c.rows = append(c.rows, v.rows[pos])
		}
		if len(c.rows) > budget {
			return nil, nil
		}
		c.off = append(c.off, len(c.rows))
	}
	return c, nil
}
