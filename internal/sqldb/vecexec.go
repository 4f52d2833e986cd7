package sqldb

import (
	"io"

	"repro/internal/variant"
)

// Vectorized batch execution. Two statement classes of the single-table
// analytical kind run over columnar batches (vector.go) with compiled
// per-type kernels (veccompile.go):
//
//   - scan: WHERE + projection, drained vecBatchSize rows at a time —
//     filter kernel, selection walk with OFFSET/LIMIT accounting, lazy
//     projection kernels, and one flat boxing pass per batch;
//   - aggregate: the filter/key/argument expressions run as kernels and feed
//     the SAME incremental accumulators (aggAccum) and group-key encoding
//     (rowKey bytes) the row paths use, so the fold arithmetic and group
//     identity cannot diverge; group output goes through the compiled
//     group projection the row path uses too (emitGroup).
//
// Eligibility is deliberately a subset of what the row paths accept: any
// gate failure (window calls among them) returns nil and the planner falls
// through to the operator pipeline unchanged.

type vecMode int

const (
	vecScanMode vecMode = iota
	vecAggMode
)

// vecPlan is the vectorized physical plan for one SELECT. Like physPlan it
// pins the table pointer and compiled closures and is immutable after
// planning; every execution gets its own vecEnv, so one plan serves
// concurrent statements.
type vecPlan struct {
	mode    vecMode
	sel     *SelectStmt
	table   *Table
	sources []sourceInfo
	// EXPLAIN annotations from the chosen (sequential) access path.
	tableRows int
	analyzed  bool
	// vc.wanted marks the base-table columns the kernels read: the ones
	// gathered from the table's column mirror.
	vc     *vecCompiler
	filter vecExpr // full WHERE; nil when absent
	cols   []Column
	projs  []vecExpr // scan mode
	// projRefs (scan mode) short-circuits plain column projections: entry i
	// holds the source offset when projs[i] is a bare ColumnRef — the emit
	// walk then reads the already-boxed cell straight from the heap row,
	// skipping both the column's gather and its re-boxing. -1 runs the
	// compiled kernel.
	projRefs []int
	limitC   compiledExpr
	offsetC  compiledExpr

	// vecAggMode:
	specs    []*aggSpec
	keyExprs []vecExpr
	argExprs []vecExpr // aligned with specs; nil for count(*)
	having   compiledExpr
	aggProjs []compiledExpr // the SELECT list over finished groups
}

// planVectorized decides whether s runs on the vectorized executor and
// compiles its plan; nil falls through to the other strategies. Like
// planOperators it takes no lock.
func (db *DB) planVectorized(cat *catalogValue, s *SelectStmt) *vecPlan {
	if db.planner.disableVectorized {
		return nil
	}
	if len(s.From) != 1 {
		return nil
	}
	item := s.From[0]
	if item.Table == "" || item.On != nil {
		return nil
	}
	if s.Distinct || len(s.OrderBy) > 0 {
		return nil
	}
	if !selectPureBuiltin(s) {
		return nil
	}
	if selectHasWindows(s) {
		return nil // windows run on the operator pipeline's window stage
	}
	hasAgg := len(s.GroupBy) > 0 || selectHasAggregates(s)
	if s.Having != nil && !hasAgg {
		return nil
	}
	t, ok := cat.get(item.Table)
	if !ok {
		return nil // the fallback paths surface ErrNoSuchTable
	}
	info, err := fromItemInfo(item, t.Columns)
	if err != nil {
		return nil
	}

	// Indexable predicates stay on the probing paths — the vectorized scan
	// only ever replaces a full sequential scan (column aliases rename WHERE
	// references away from indexed names, same rule as the operator leaves).
	var access accessPath
	if s.Where != nil && len(item.ColAliases) == 0 {
		access = chooseAccessPath(db, t, info.alias, s.Where)
	} else {
		access = chooseAccessPath(db, t, info.alias, nil)
	}
	if access.kind != accessSeq {
		return nil
	}

	p := &vecPlan{
		sel: s, table: t, sources: []sourceInfo{info},
		tableRows: access.tableRows, analyzed: access.analyzed,
	}
	if hasAgg {
		p.mode = vecAggMode
	} else if s.Where == nil {
		// A bare projection scan has no kernel to feed: the operator
		// pipeline's compiled projection emits each visible row once, and
		// batches would only add gather and bookkeeping on top.
		return nil
	}

	vc := newVecCompiler(info)
	p.vc = vc
	if s.Where != nil {
		f, ok := vc.compile(s.Where)
		if !ok {
			return nil
		}
		p.filter = f
	}

	switch p.mode {
	case vecAggMode:
		specs := collectAggSpecs(s)
		for _, sp := range specs {
			if sp.err != nil {
				return nil // the pipeline raises it when the call is read
			}
		}
		p.specs = specs
		p.keyExprs = make([]vecExpr, len(s.GroupBy))
		for i, ge := range s.GroupBy {
			ke, ok := vc.compile(ge)
			if !ok {
				return nil
			}
			p.keyExprs[i] = ke
		}
		p.argExprs = make([]vecExpr, len(specs))
		for i, sp := range specs {
			if sp.fn.Star {
				continue
			}
			ae, ok := vc.compile(sp.fn.Args[0])
			if !ok {
				return nil
			}
			p.argExprs[i] = ae
		}
		cols, exprs, err := expandItems(s.Items, p.sources)
		if err != nil {
			return nil
		}
		p.cols = cols
		p.having, p.aggProjs = compileGroupProj(s, specs, exprs, p.sources, nil)
	default:
		cols, exprs, err := expandItems(s.Items, p.sources)
		if err != nil {
			return nil
		}
		p.cols = cols
		p.projs = make([]vecExpr, len(exprs))
		p.projRefs = make([]int, len(exprs))
		for i, e := range exprs {
			p.projRefs[i] = -1
			if cr, isRef := e.(*ColumnRef); isRef {
				if off := vc.resolve(cr.Table, cr.Name); off >= 0 {
					p.projRefs[i] = off
					continue // read from the heap row, no kernel
				}
			}
			pe, ok := vc.compile(e)
			if !ok {
				return nil
			}
			p.projs[i] = pe
		}
	}

	constComp := &compiler{noRow: true}
	if s.Limit != nil {
		p.limitC = constComp.compile(s.Limit)
	}
	if s.Offset != nil {
		p.offsetC = constComp.compile(s.Offset)
	}
	if constComp.opaque {
		return nil
	}
	return p
}

// open resolves the snapshot while the statement opens — the view, the
// mirror headers of the columns the kernels read, the visible positions —
// and returns the stream; its lazy tail reads only what open pinned.
func (p *vecPlan) open(cx *evalCtx) (RowStream, error) {
	scan := openMirrorScan(cx, p.table, p.vc.wanted)
	// Detach the tail from transaction bookkeeping, like the streaming
	// tails do.
	tailCx := &evalCtx{db: cx.db, params: cx.params, ctx: cx.ctx}
	env := p.vc.newEnv(tailCx)
	offset, limit, err := evalLimits(tailCx, p.offsetC, p.limitC)
	if err != nil {
		return nil, err
	}
	if p.mode == vecScanMode {
		return &vecScanStream{env: env, plan: p, scan: scan, offset: offset, limit: limit}, nil
	}
	return &vecAggStream{cx: tailCx, env: env, plan: p, scan: scan, offset: offset, limit: limit}, nil
}

// filterLane classifies one filter-result lane: keep, skip (false/NULL), or
// error — the compiled stream's per-row WHERE semantics.
func filterLane(fc *colVec, i int) (bool, error) {
	if e := fc.laneErr(i); e != nil {
		return false, e
	}
	if fc.kind == vecBool {
		if fc.isNull(i) {
			return false, nil
		}
		return fc.bools[i], nil
	}
	v := fc.value(i)
	if v.IsNull() {
		return false, nil
	}
	b, err := v.AsBool()
	if err != nil {
		return false, err
	}
	return b, nil
}

// --- Scan mode ---

// vecScanStream drains the snapshot batch-wise: gather the wanted columns
// from the mirror, run the filter kernel, walk the selection applying OFFSET/LIMIT,
// then evaluate projection kernels and box the surviving lanes. Per-lane
// errors surface in exactly the row order the compiled stream would have hit
// them — including being discarded entirely when LIMIT exits first.
type vecScanStream struct {
	env    *vecEnv
	plan   *vecPlan
	scan   *mirrorScan
	pos    int
	offset int
	limit  int

	batch  Batch
	emit   []int
	pcols  []*colVec
	out    []Row
	outPos int
	pend   error // raised after the current out buffer drains
	err    error
	done   bool
}

func (st *vecScanStream) Columns() []Column { return st.plan.cols }

func (st *vecScanStream) Next() (Row, error) {
	if st.err != nil {
		return nil, st.err
	}
	for st.outPos >= len(st.out) {
		if st.pend != nil {
			st.err = st.pend
			return nil, st.err
		}
		if st.done {
			return nil, io.EOF
		}
		if err := st.fill(); err != nil {
			st.err = err
			return nil, err
		}
	}
	r := st.out[st.outPos]
	st.outPos++
	return r, nil
}

// fill processes the next batch into st.out (possibly empty, possibly with a
// pending error to raise after the boxed rows are handed out).
func (st *vecScanStream) fill() error {
	st.out = st.out[:0]
	st.outPos = 0
	vis := st.scan.vis
	if st.limit == 0 || st.pos >= len(vis) {
		st.done = true
		return nil
	}
	if ctx := st.env.env.ctx; ctx != nil {
		if err := ctx.Err(); err != nil {
			return err
		}
	}
	end := min(st.pos+vecBatchSize, len(vis))
	window := vis[st.pos:end]
	st.pos = end
	p := st.plan
	st.scan.fill(&st.batch, window)

	var fc *colVec
	if p.filter != nil {
		c, err := p.filter(st.env, &st.batch)
		if err != nil {
			return err
		}
		fc = c
	}
	st.emit = st.emit[:0]
	for i := 0; i < st.batch.n && st.limit != 0; i++ {
		if fc != nil {
			keep, err := filterLane(fc, i)
			if err != nil {
				st.pend = err
				break
			}
			if !keep {
				continue
			}
		}
		if st.offset > 0 {
			st.offset--
			continue
		}
		st.emit = append(st.emit, i)
		if st.limit > 0 {
			st.limit--
		}
	}
	if len(st.emit) == 0 {
		return nil
	}
	// Projections evaluate lazily — only for batches that emit — so a
	// row-independent projection error cannot surface on a batch the row
	// executor would never have projected.
	if cap(st.pcols) < len(p.projs) {
		st.pcols = make([]*colVec, len(p.projs))
	}
	pcols := st.pcols[:len(p.projs)]
	for pi, pe := range p.projs {
		if pe == nil {
			pcols[pi] = nil // bare column ref: read the heap row directly
			continue
		}
		c, err := pe(st.env, &st.batch)
		if err != nil {
			return err
		}
		pcols[pi] = c
	}
	flat := make([]variant.Value, len(st.emit)*len(pcols))
	for _, lane := range st.emit {
		row := flat[:len(pcols):len(pcols)]
		flat = flat[len(pcols):]
		for pi, c := range pcols {
			if c == nil {
				row[pi] = st.batch.row(lane)[p.projRefs[pi]]
				continue
			}
			if e := c.laneErr(lane); e != nil {
				// A projection error precedes any later filter-lane error in
				// row order; boxed rows before it still emit first.
				st.pend = e
				return nil
			}
			row[pi] = c.value(lane)
		}
		st.out = append(st.out, Row(row))
	}
	return nil
}

func (st *vecScanStream) Close() error {
	st.done = true
	st.pos = len(st.scan.vis)
	st.out = nil
	st.outPos = 0
	return nil
}

// --- Aggregate mode ---

// vecAggStream is the batch-fed twin of hashAggStream: kernels produce the
// filter/key/argument columns, lanes feed the shared accumulators through
// the executor's exact group-key byte encoding, and finished groups emit in
// first-seen order through the compiled group projection with HAVING and
// OFFSET/LIMIT applied to the output rows.
type vecAggStream struct {
	cx     *evalCtx
	env    *vecEnv
	plan   *vecPlan
	scan   *mirrorScan
	offset int
	limit  int

	built  bool
	groups []*aggGroup
	pos    int
	err    error
	closed bool
}

func (st *vecAggStream) Columns() []Column { return st.plan.cols }

func (st *vecAggStream) Next() (Row, error) {
	if st.err != nil {
		return nil, st.err
	}
	if st.closed || st.limit == 0 {
		return nil, io.EOF
	}
	fail := func(err error) (Row, error) {
		st.err = err
		return nil, err
	}
	if !st.built {
		st.built = true
		if err := st.build(); err != nil {
			return fail(err)
		}
	}
	p := st.plan
	for st.pos < len(st.groups) {
		g := st.groups[st.pos]
		st.pos++
		row, ok, err := emitGroup(st.env.env, g, p.having, p.aggProjs)
		if err != nil {
			return fail(err)
		} else if !ok {
			continue
		}
		if st.offset > 0 {
			st.offset--
			continue
		}
		if st.limit > 0 {
			st.limit--
		}
		return row, nil
	}
	return nil, io.EOF
}

// build consumes the snapshot batch-wise into per-group accumulators.
func (st *vecAggStream) build() error {
	p := st.plan
	var groups *groupIndex
	if len(p.sel.GroupBy) == 0 {
		// One implicit group, present even on empty input.
		st.groups = append(st.groups, newAggGroup(p.specs, nil))
	} else {
		groups = newGroupIndex(len(p.keyExprs), func(keyVals []variant.Value) *aggGroup {
			g := newAggGroup(p.specs, keyVals)
			st.groups = append(st.groups, g)
			return g
		})
	}
	var batch Batch
	sel := make([]int, 0, vecBatchSize)
	keyCols := make([]*colVec, len(p.keyExprs))
	argCols := make([]*colVec, len(p.specs))

	vis := st.scan.vis
	for pos := 0; pos < len(vis); pos += vecBatchSize {
		if st.cx.ctx != nil {
			if err := st.cx.ctx.Err(); err != nil {
				return err
			}
		}
		st.scan.fill(&batch, vis[pos:min(pos+vecBatchSize, len(vis))])

		// Selection: lanes passing WHERE, stopping at the first filter-lane
		// error — whose selected predecessors still feed (and may surface
		// their own, earlier, errors first).
		sel = sel[:0]
		var pend error
		if p.filter == nil {
			for i := 0; i < batch.n; i++ {
				sel = append(sel, i)
			}
		} else {
			fc, err := p.filter(st.env, &batch)
			if err != nil {
				return err
			}
			for i := 0; i < batch.n; i++ {
				keep, err := filterLane(fc, i)
				if err != nil {
					pend = err
					break
				}
				if keep {
					sel = append(sel, i)
				}
			}
		}
		if len(sel) > 0 {
			for ki, ke := range p.keyExprs {
				c, err := ke(st.env, &batch)
				if err != nil {
					return err
				}
				keyCols[ki] = c
			}
			for si, ae := range p.argExprs {
				if ae == nil {
					argCols[si] = nil
					continue
				}
				c, err := ae(st.env, &batch)
				if err != nil {
					return err
				}
				argCols[si] = c
			}
			for _, lane := range sel {
				var g *aggGroup
				if groups == nil {
					g = st.groups[0]
				} else {
					var err error
					if g, err = groups.lookup(keyCols, lane); err != nil {
						return err
					}
				}
				if g.first == nil {
					g.first = batch.row(lane)
				}
				for si, sp := range p.specs {
					switch c := argCols[si]; {
					case sp.fn.Star:
						g.accums[si].(*countAccum).n++
					case g.stopped(si):
					case c.laneErr(lane) != nil:
						g.feed(si, sp, variant.Value{}, c.laneErr(lane))
					default:
						g.feed(si, sp, c.value(lane), nil)
					}
				}
			}
		}
		if pend != nil {
			return pend
		}
	}
	return nil
}

// groupIndex finds a lane's group by its GROUP BY key, creating groups in
// first-seen order. A single integer, text or boolean key column is looked
// up by its typed lane value — no boxing, no string encoding. Everything
// else — floats (whose -0/0 and NaN payloads must group exactly as their
// rowKey text does), timestamps, boxed lanes, multi-column keys and NULL
// keys — is looked up by rowKey's exact bytes. The two never hold the same
// group: a key column's representation is fixed for one execution (kernel
// output kinds follow from the plan and the mirror's generation), so a
// non-NULL key takes the same path on every batch.
type groupIndex struct {
	create  func(keyVals []variant.Value) *aggGroup
	byKey   map[string]*aggGroup
	byInt   map[int64]*aggGroup
	byText  map[string]*aggGroup
	byBool  map[bool]*aggGroup
	scratch []byte
	keyVals []variant.Value
}

func newGroupIndex(keys int, create func([]variant.Value) *aggGroup) *groupIndex {
	return &groupIndex{
		create:  create,
		byKey:   make(map[string]*aggGroup),
		byInt:   make(map[int64]*aggGroup),
		byText:  make(map[string]*aggGroup),
		byBool:  make(map[bool]*aggGroup),
		keyVals: make([]variant.Value, keys),
	}
}

func (ix *groupIndex) lookup(keyCols []*colVec, lane int) (*aggGroup, error) {
	if len(keyCols) == 1 {
		c := keyCols[0]
		if e := c.laneErr(lane); e != nil {
			return nil, e
		}
		if c.kind != vecAny && !c.isNull(lane) {
			switch c.kind {
			case vecInt:
				return typedGroup(ix, ix.byInt, c.ints[lane], variant.NewInt), nil
			case vecText:
				return typedGroup(ix, ix.byText, c.strs[lane], variant.NewText), nil
			case vecBool:
				return typedGroup(ix, ix.byBool, c.bools[lane], variant.NewBool), nil
			}
		}
	}
	// rowKey's exact bytes; the string(scratch) map lookup does not
	// allocate.
	ix.scratch = ix.scratch[:0]
	for ki, c := range keyCols {
		if e := c.laneErr(lane); e != nil {
			return nil, e
		}
		v := c.value(lane)
		ix.keyVals[ki] = v
		ix.scratch = append(ix.scratch, v.Kind().String()...)
		ix.scratch = append(ix.scratch, ':')
		ix.scratch = append(ix.scratch, v.String()...)
		ix.scratch = append(ix.scratch, 0)
	}
	g := ix.byKey[string(ix.scratch)]
	if g == nil {
		g = ix.create(append([]variant.Value(nil), ix.keyVals...))
		ix.byKey[string(ix.scratch)] = g
	}
	return g, nil
}

// typedGroup returns m[k], creating the group (key value box(k)) on first
// sight.
func typedGroup[K comparable](ix *groupIndex, m map[K]*aggGroup, k K, box func(K) variant.Value) *aggGroup {
	g := m[k]
	if g == nil {
		g = ix.create([]variant.Value{box(k)})
		m[k] = g
	}
	return g
}

func (st *vecAggStream) Close() error {
	st.closed = true
	st.groups = nil
	st.pos = 0
	return nil
}
