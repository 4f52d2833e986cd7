package core

import (
	"context"
	"fmt"
	"math"
	"strings"

	"repro/internal/fmu"
	"repro/internal/sqldb"
	"repro/internal/timeseries"
	"repro/internal/variant"
)

// inputData is a measurement result set decoded into aligned numeric series
// with bookkeeping about how the time axis was expressed — the "input
// object" of Algorithm 4, built automatically from FMU meta-data and the
// result-set shape (Challenge 2: metadata-driven data binding).
type inputData struct {
	// series maps variable name (lowercased) to its measured series over
	// model time in seconds.
	series map[string]*timeseries.Series
	// timeIsTimestamp records whether the source time column carried SQL
	// timestamps (simulation output then renders timestamps again).
	timeIsTimestamp bool
}

// modelInput is one input_sql resolved against one model: the decoded result
// (nil when the caller supplied no query) and the series it binds, by name,
// to the model's input variables.
type modelInput struct {
	data   *inputData
	series map[string]*timeseries.Series
}

// loadInput is the one place a caller-supplied input_sql runs, for
// fmu_simulate, fmu_validate, fmu_control, fmu_parest and sweeps alike. The
// query must be one the engine classifies read-only: the functions that take
// it promise to write nothing (or, for fmu_parest, only the catalogue), and
// DML smuggled in here would run on a typed read path outside any
// transaction. It runs through q: the calling statement's transaction, or
// the DB on a typed read path.
func (s *Session) loadInput(ctx context.Context, q querier, unit *fmu.Unit, inputSQL string) (*modelInput, error) {
	in := &modelInput{series: make(map[string]*timeseries.Series)}
	if inputSQL == "" {
		return in, nil
	}
	readOnly, err := s.db.IsReadOnly(inputSQL)
	if err != nil {
		return nil, fmt.Errorf("core: input_sql: %w", err)
	}
	if !readOnly {
		return nil, fmt.Errorf("core: input_sql must be a read-only query (a SELECT that calls no side-effecting function), got %q", inputSQL)
	}
	rs, err := q.QueryContext(ctx, inputSQL)
	if err != nil {
		return nil, fmt.Errorf("core: input_sql: %w", err)
	}
	if in.data, err = decodeInput(rs); err != nil {
		return nil, err
	}
	for _, mi := range unit.Model.Inputs {
		if series := in.data.get(mi.Name); series != nil {
			in.series[mi.Name] = series
		}
	}
	return in, nil
}

// grid resolves the simulation window and communication step (Algorithm 4
// lines 7–9): an explicit [from, to], else the span of the input data, else
// the model's default experiment; an explicit step, else the input sampling
// grid (the way PyFMI derives ncp from the input object), else the default
// experiment's step, else a hundredth of the window.
func (in *modelInput) grid(unit *fmu.Unit, from, to *float64, step float64) (t0, t1, _ float64, err error) {
	switch {
	case from != nil && to != nil:
		t0, t1 = *from, *to
	case from != nil || to != nil:
		return 0, 0, 0, fmt.Errorf("core: incomplete simulation time interval: both time_from and time_to are required")
	case in.data != nil:
		t0, t1, err = in.data.window()
	default:
		t0, t1, err = unit.DefaultInterval()
	}
	if err != nil {
		return 0, 0, 0, err
	}
	if t1 <= t0 {
		return 0, 0, 0, fmt.Errorf("core: empty simulation interval [%v, %v]", t0, t1)
	}
	if step <= 0 && in.data != nil {
		if n := in.data.maxLen(); n > 1 {
			step = (t1 - t0) / float64(n-1)
		}
	}
	if step <= 0 {
		if ds, err := unit.DefaultStep(); err == nil && !math.IsNaN(ds) && ds > 0 && ds <= t1-t0 {
			step = ds
		} else {
			step = (t1 - t0) / 100
		}
	}
	return t0, t1, step, nil
}

// timeColumnNames are recognised time-axis column spellings, checked in
// order.
var timeColumnNames = []string{"time", "ts", "timestamp", "simulationtime", "datetime"}

// ignoredColumns are bookkeeping columns skipped during binding (the paper's
// Table 6 datasets carry a row number).
var ignoredColumns = map[string]bool{"no": true, "id": true, "rownum": true}

// findTimeColumn locates the time axis: a recognised name first, then the
// first timestamp-typed value column.
func findTimeColumn(rs *sqldb.ResultSet) (int, error) {
	for _, name := range timeColumnNames {
		if idx := rs.ColumnIndex(name); idx >= 0 {
			return idx, nil
		}
	}
	// Fall back to the first column whose first non-null value is a
	// timestamp.
	for ci := range rs.Columns {
		for _, row := range rs.Rows {
			v := row[ci]
			if v.IsNull() {
				continue
			}
			if v.Kind() == variant.Time {
				return ci, nil
			}
			break
		}
	}
	return -1, fmt.Errorf("core: cannot locate a time column (looked for %v or a timestamp-typed column)", timeColumnNames)
}

// decodeInput converts a measurement result set into per-variable series.
// Two shapes are accepted:
//
//   - wide: one time column plus one numeric column per variable
//     (Table 6), matched to model variables by column name;
//   - long: (time, varName, value) triplets (the fmu_simulate output shape),
//     pivoted back to wide.
func decodeInput(rs *sqldb.ResultSet) (*inputData, error) {
	if len(rs.Rows) == 0 {
		return nil, fmt.Errorf("core: input query returned no rows")
	}
	timeIdx, err := findTimeColumn(rs)
	if err != nil {
		return nil, err
	}

	// Long format: exactly a varname column and a value column besides time.
	varIdx := rs.ColumnIndex("varname")
	valIdx := rs.ColumnIndex("value")
	if varIdx >= 0 && valIdx >= 0 {
		return decodeLong(rs, timeIdx, varIdx, valIdx)
	}
	return decodeWide(rs, timeIdx)
}

// timeValue converts a time-axis datum to model time in seconds.
func timeValue(v variant.Value) (float64, bool, error) {
	switch v.Kind() {
	case variant.Time:
		return float64(v.Time().Unix()), true, nil
	default:
		f, err := v.AsFloat()
		if err != nil {
			return 0, false, fmt.Errorf("core: time column value %v: %w", v, err)
		}
		return f, false, nil
	}
}

func decodeWide(rs *sqldb.ResultSet, timeIdx int) (*inputData, error) {
	in := &inputData{series: make(map[string]*timeseries.Series)}
	var prev float64
	for ri, row := range rs.Rows {
		t, isTS, err := timeValue(row[timeIdx])
		if err != nil {
			return nil, err
		}
		if ri == 0 {
			in.timeIsTimestamp = isTS
		} else if t <= prev {
			return nil, fmt.Errorf("core: input rows must be ordered by strictly increasing time (row %d)", ri+1)
		}
		prev = t
		for ci, col := range rs.Columns {
			if ci == timeIdx || ignoredColumns[strings.ToLower(col.Name)] {
				continue
			}
			v := row[ci]
			if v.IsNull() {
				continue
			}
			f, err := v.AsFloat()
			if err != nil {
				return nil, fmt.Errorf("core: column %q row %d: %w", col.Name, ri+1, err)
			}
			if err := in.add(strings.ToLower(col.Name), t, f); err != nil {
				return nil, fmt.Errorf("core: column %q: %w", col.Name, err)
			}
		}
	}
	if len(in.series) == 0 {
		return nil, fmt.Errorf("core: input query has a time column but no value columns")
	}
	return in, nil
}

func decodeLong(rs *sqldb.ResultSet, timeIdx, varIdx, valIdx int) (*inputData, error) {
	in := &inputData{series: make(map[string]*timeseries.Series)}
	for ri, row := range rs.Rows {
		t, isTS, err := timeValue(row[timeIdx])
		if err != nil {
			return nil, err
		}
		if ri == 0 {
			in.timeIsTimestamp = isTS
		}
		name := strings.ToLower(row[varIdx].AsText())
		if name == "" {
			return nil, fmt.Errorf("core: empty varName at row %d", ri+1)
		}
		if row[valIdx].IsNull() {
			continue
		}
		f, err := row[valIdx].AsFloat()
		if err != nil {
			return nil, fmt.Errorf("core: value at row %d: %w", ri+1, err)
		}
		if err := in.add(name, t, f); err != nil {
			return nil, fmt.Errorf("core: variable %q: %w", name, err)
		}
	}
	if len(in.series) == 0 {
		return nil, fmt.Errorf("core: long-format input had no usable rows")
	}
	return in, nil
}

// add appends one sample to the named series, creating it.
func (in *inputData) add(name string, t, f float64) error {
	s := in.series[name]
	if s == nil {
		s = &timeseries.Series{}
		in.series[name] = s
	}
	return s.Append(t, f)
}

// window reports the [min start, max end] across all series.
func (in *inputData) window() (t0, t1 float64, err error) {
	t0, t1 = math.Inf(1), math.Inf(-1)
	for _, s := range in.series {
		if start, err := s.Start(); err == nil {
			end, _ := s.End()
			t0, t1 = min(t0, start), max(t1, end)
		}
	}
	if t0 > t1 {
		return 0, 0, fmt.Errorf("core: input contains no samples")
	}
	return t0, t1, nil
}

// get returns the series for a variable name, nil when absent.
func (in *inputData) get(name string) *timeseries.Series {
	return in.series[strings.ToLower(name)]
}

// maxLen reports the longest series length.
func (in *inputData) maxLen() int {
	n := 0
	for _, s := range in.series {
		n = max(n, s.Len())
	}
	return n
}

// names lists the decoded column names, for error messages.
func (in *inputData) names() []string {
	out := make([]string, 0, len(in.series))
	for k := range in.series {
		out = append(out, k)
	}
	return out
}
