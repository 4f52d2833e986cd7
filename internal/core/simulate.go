package core

import (
	"context"
	"fmt"
	"io"
	"sort"
	"time"

	"repro/internal/fmu"
	"repro/internal/sqldb"
	"repro/internal/variant"
)

// SimulateRequest configures fmu_simulate beyond the SQL-facing arguments.
type SimulateRequest struct {
	// InstanceID names the model instance to simulate.
	InstanceID string
	// InputSQL optionally supplies measured input series; empty simulates
	// from instance input values alone.
	InputSQL string
	// TimeFrom/TimeTo bound the simulation; nil derives the window from the
	// input data or, failing that, the model's default experiment
	// (Algorithm 4 lines 7–9).
	TimeFrom, TimeTo *float64
	// OutputStep overrides the communication-grid spacing; 0 uses the
	// model's default experiment step.
	OutputStep float64
}

// Simulate implements fmu_simulate (Algorithm 4). The result table has the
// paper's Table 4 shape: (simulationTime, instanceId, varName, value) with
// one row per variable per communication point.
func (s *Session) Simulate(req SimulateRequest) (*sqldb.ResultSet, error) {
	return s.SimulateContext(context.Background(), req)
}

// SimulateContext is Simulate honouring ctx: cancellation is observed
// during integration stepping, so a long simulation aborts mid-run.
// Simulation is a read — a pure function of the instance's current values
// and the input query — so it takes no transaction: its input query shares
// the database lock for the query alone.
func (s *Session) SimulateContext(ctx context.Context, req SimulateRequest) (*sqldb.ResultSet, error) {
	res, timestamps, err := s.simulateFrame(ctx, s.db, req)
	if err != nil {
		return nil, err
	}
	return simResultToTable(req.InstanceID, res, timestamps), nil
}

// simulateFrame runs Algorithm 4 up to — but not including — the
// long-format row rendering: it returns the compact trajectory frame plus
// whether times should render as timestamps. The SQL fmu_simulate UDF
// streams rows from this frame lazily (see newSimResultStream), so a LIMIT
// over a large simulation never materializes the full n_times × n_vars
// relation. The instance and the input query are read through q.
func (s *Session) simulateFrame(ctx context.Context, q querier, req SimulateRequest) (*fmu.SimResult, bool, error) {
	inst, modelID, err := s.snapshot(ctx, q, req.InstanceID)
	if err != nil {
		return nil, false, err
	}
	unit := inst.Unit()
	// Build the input object from the query result (Challenge 2).
	in, err := s.loadInput(ctx, q, unit, req.InputSQL)
	if err != nil {
		return nil, false, err
	}
	t0, t1, step, err := in.grid(unit, req.TimeFrom, req.TimeTo, req.OutputStep)
	if err != nil {
		return nil, false, err
	}
	timestamps := in.data != nil && in.data.timeIsTimestamp

	// Content-addressed result cache: the key covers everything the
	// trajectory depends on (model GUID, current instance values, input
	// series, window, step), so a hit can skip integration outright.
	cacheKey := simCacheKey(modelID, inst, unit, in.series, t0, t1, step)
	if timestamps {
		cacheKey += ":ts"
	}
	if res, _, hit := s.simcache.get(cacheKey); hit {
		return res, timestamps, nil
	}
	res, err := inst.Simulate(in.series, t0, t1, &fmu.SimOptions{OutputStep: step, Ctx: ctx})
	if err != nil {
		return nil, false, err
	}
	s.simcache.put(cacheKey, req.InstanceID, res, timestamps)
	return res, timestamps, nil
}

// simTableColumns is the Table-4 result shape.
func simTableColumns() []sqldb.Column {
	return []sqldb.Column{
		{Name: "simulationTime", Type: "variant"},
		{Name: "instanceId", Type: "text"},
		{Name: "varName", Type: "text"},
		{Name: "value", Type: "float"},
	}
}

// simResultStream renders a simulation result in the Table-4 long format
// lazily: the backing store stays the compact per-variable frame, and each
// Next materializes exactly one (time, instance, var, value) row. The frame
// is private to the stream, so iteration is safe after the database lock is
// released.
type simResultStream struct {
	res        *fmu.SimResult
	cols       []string // sorted variable names
	instVal    variant.Value
	timestamps bool
	ti, ci     int // current time index, column index
}

func newSimResultStream(instanceID string, res *fmu.SimResult, timestamps bool) *simResultStream {
	cols := append([]string(nil), res.Frame.Columns...)
	sort.Strings(cols)
	return &simResultStream{
		res:        res,
		cols:       cols,
		instVal:    variant.NewText(instanceID),
		timestamps: timestamps,
	}
}

func (ss *simResultStream) Columns() []sqldb.Column { return simTableColumns() }

func (ss *simResultStream) Next() (sqldb.Row, error) {
	if len(ss.cols) == 0 || ss.ti >= len(ss.res.Frame.Times) {
		return nil, io.EOF
	}
	t := ss.res.Frame.Times[ss.ti]
	var tv variant.Value
	if ss.timestamps {
		tv = variant.NewTime(time.Unix(int64(t), 0).UTC())
	} else {
		tv = variant.NewFloat(t)
	}
	c := ss.cols[ss.ci]
	row := sqldb.Row{tv, ss.instVal, variant.NewText(c), variant.NewFloat(ss.res.Frame.Data[c][ss.ti])}
	ss.ci++
	if ss.ci >= len(ss.cols) {
		ss.ci = 0
		ss.ti++
	}
	return row, nil
}

func (ss *simResultStream) Close() error {
	ss.ti = len(ss.res.Frame.Times)
	return nil
}

// NextBatch implements sqldb.BatchSource: the compact trajectory frame feeds
// the vectorized executor directly as column vectors, skipping the per-cell
// boxing of Next. Batches hold whole communication points (time-major, the
// exact Next order); the single-variable case hands out the frame's own
// float slices zero-copy.
func (ss *simResultStream) NextBatch(max int) (*sqldb.Batch, error) {
	k := len(ss.cols)
	if k == 0 || ss.ti >= len(ss.res.Frame.Times) {
		return nil, io.EOF
	}
	if ss.ci != 0 {
		return nil, fmt.Errorf("core: mixed Next/NextBatch consumption of simulation stream")
	}
	nt := max / k
	if nt < 1 {
		nt = 1
	}
	if rem := len(ss.res.Frame.Times) - ss.ti; nt > rem {
		nt = rem
	}
	times := ss.res.Frame.Times[ss.ti : ss.ti+nt]
	n := nt * k
	b := sqldb.NewBatch(n)

	// simulationTime
	switch {
	case ss.timestamps:
		tv := make([]time.Time, 0, n)
		for _, t := range times {
			ts := time.Unix(int64(t), 0).UTC()
			for j := 0; j < k; j++ {
				tv = append(tv, ts)
			}
		}
		b.AddTimeColumn(tv)
	case k == 1:
		b.AddFloatColumn(times) // zero-copy frame view
	default:
		fv := make([]float64, 0, n)
		for _, t := range times {
			for j := 0; j < k; j++ {
				fv = append(fv, t)
			}
		}
		b.AddFloatColumn(fv)
	}

	b.AddConstTextColumn(ss.instVal.Text())

	// varName
	if k == 1 {
		b.AddConstTextColumn(ss.cols[0])
	} else {
		sv := make([]string, 0, n)
		for range times {
			sv = append(sv, ss.cols...)
		}
		b.AddTextColumn(sv)
	}

	// value
	if k == 1 {
		b.AddFloatColumn(ss.res.Frame.Data[ss.cols[0]][ss.ti : ss.ti+nt]) // zero-copy
	} else {
		vv := make([]float64, 0, n)
		for i := 0; i < nt; i++ {
			for _, c := range ss.cols {
				vv = append(vv, ss.res.Frame.Data[c][ss.ti+i])
			}
		}
		b.AddFloatColumn(vv)
	}

	ss.ti += nt
	return b, nil
}

// simResultToTable renders a simulation result in the Table-4 long format,
// materialized — the typed-API compatibility path.
func simResultToTable(instanceID string, res *fmu.SimResult, timestamps bool) *sqldb.ResultSet {
	out := &sqldb.ResultSet{Columns: simTableColumns()}
	st := newSimResultStream(instanceID, res, timestamps)
	for {
		row, err := st.Next()
		if err != nil {
			return out
		}
		out.Rows = append(out.Rows, row)
	}
}
