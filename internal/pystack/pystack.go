// Package pystack reproduces the paper's baseline: the traditional
// "Python stack" workflow of Figure 1 (PyFMI + ModestPy + psycopg2 + pandas
// + Assimulo), in which the FMU file, the database, and the modelling tool
// are separate systems glued together by files and per-call reconnections.
//
// The numerical work is identical to pgFMU's (same FMU runtime, same
// estimator — as in the paper, where both sides run ModestPy), but the
// workflow retains the structural costs pgFMU eliminates:
//
//   - the .fmu file is re-read and re-parsed from disk for every instance
//     (no shared in-DBMS FMU storage);
//   - measurements travel DB → CSV file → tool, and predictions travel
//     tool → CSV file → DB (explicit I/O instead of in-place binding);
//   - the measurement query is re-parsed on every use (no prepared plans);
//   - every instance is calibrated from scratch (no MI warm start).
//
// Step timings are recorded per workflow stage so the experiments can
// regenerate Table 8 and Figure 7.
package pystack

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/estimate"
	"repro/internal/fmu"
	"repro/internal/sqldb"
	"repro/internal/timeseries"
)

// StepTimes records wall-clock per workflow step (Table 8 rows).
type StepTimes struct {
	LoadFMU    time.Duration
	ReadData   time.Duration
	Calibrate  time.Duration
	Validate   time.Duration
	Simulate   time.Duration
	ExportData time.Duration
	Analysis   time.Duration
}

// Total sums all steps.
func (st StepTimes) Total() time.Duration {
	return st.LoadFMU + st.ReadData + st.Calibrate + st.Validate +
		st.Simulate + st.ExportData + st.Analysis
}

// Workflow is one traditional-stack session: a database "far away" from the
// modelling tool, a working directory for file interchange, and the FMU path.
type Workflow struct {
	DB *sqldb.DB
	// FMUPath is the model file on disk; reloaded for every instance.
	FMUPath string
	// WorkDir holds the interchange CSV files.
	WorkDir string
	// EstOpts configures the estimator (kept identical to pgFMU's, as the
	// paper keeps ModestPy identical on both sides).
	EstOpts estimate.Options
	// Params are the parameters to estimate with their bounds (in the
	// traditional stack the user supplies these explicitly; there is no
	// catalogue to read them from).
	Params []estimate.ParamSpec
	// MeasuredColumns maps result-set columns to model variables manually —
	// the hand-matching step §2 describes.
	MeasuredColumns []string
	InputColumns    []string
}

// Result is the outcome of one instance's full workflow run.
type Result struct {
	InstanceID string
	RMSE       float64
	Validation float64
	Params     map[string]float64
	// CostEvals counts the calibration's objective evaluations.
	CostEvals int
	Steps     StepTimes
}

// RunSingleInstance executes the complete 7-step workflow of Figure 1 for
// one instance: load FMU, read measurements (via CSV interchange),
// calibrate, validate, simulate, export predictions (via CSV interchange),
// and run a final analysis query.
func (w *Workflow) RunSingleInstance(instanceID, measurementsSQL, predictionsTable string) (*Result, error) {
	res := &Result{InstanceID: instanceID}

	// Step 1: load/build the FMU — from disk, every time.
	start := time.Now()
	unit, err := fmu.Load(w.FMUPath)
	if err != nil {
		return nil, fmt.Errorf("pystack: load FMU: %w", err)
	}
	inst := unit.Instantiate(instanceID)
	res.Steps.LoadFMU = time.Since(start)

	// Step 2: read historical measurements and control inputs. The
	// traditional stack exports the query result to a text file and the
	// modelling tool re-parses it (psycopg2 -> pandas -> file -> tool).
	start = time.Now()
	frame, err := w.fetchViaCSV(instanceID, measurementsSQL)
	if err != nil {
		return nil, err
	}
	inputs := make(map[string]*timeseries.Series)
	for _, c := range w.InputColumns {
		s, err := frame.Series(c)
		if err != nil {
			return nil, fmt.Errorf("pystack: input column %q: %w", c, err)
		}
		inputs[c] = s
	}
	measured := make(map[string]*timeseries.Series)
	for _, c := range w.MeasuredColumns {
		s, err := frame.Series(c)
		if err != nil {
			return nil, fmt.Errorf("pystack: measured column %q: %w", c, err)
		}
		measured[c] = s
	}
	res.Steps.ReadData = time.Since(start)

	// Step 3: recalibrate the model (full G+LaG, always).
	start = time.Now()
	problem := &estimate.Problem{
		Instance: inst,
		Params:   w.Params,
		Inputs:   inputs,
		Measured: measured,
	}
	fit, err := estimate.EstimateSI(context.Background(), problem, w.EstOpts)
	if err != nil {
		return nil, fmt.Errorf("pystack: calibration: %w", err)
	}
	res.RMSE = fit.RMSE
	res.Params = fit.Params
	res.CostEvals = fit.CostEvals
	res.Steps.Calibrate = time.Since(start)

	// Step 4: validate and update the FMU model (manual parameter update
	// through the PyFMI-style set calls).
	start = time.Now()
	if err := estimate.Apply(problem, fit); err != nil {
		return nil, err
	}
	t0, _ := firstTime(measured)
	t1, _ := lastTime(measured)
	validation, err := estimate.Validate(problem, t0+(t1-t0)*3/4, t1)
	if err != nil {
		return nil, fmt.Errorf("pystack: validation: %w", err)
	}
	res.Validation = validation
	res.Steps.Validate = time.Since(start)

	// Step 5: simulate the recalibrated model to predict.
	start = time.Now()
	sim, err := inst.Simulate(inputs, t0, t1, &fmu.SimOptions{OutputStep: (t1 - t0) / 100})
	if err != nil {
		return nil, fmt.Errorf("pystack: simulation: %w", err)
	}
	res.Steps.Simulate = time.Since(start)

	// Step 6: export predicted values to the DB — again via a text file.
	start = time.Now()
	if err := w.exportViaCSV(instanceID, predictionsTable, sim.Frame); err != nil {
		return nil, err
	}
	res.Steps.ExportData = time.Since(start)

	// Step 7: perform further analysis in the DBMS.
	start = time.Now()
	if _, err := w.DB.Query(fmt.Sprintf(
		`SELECT varname, avg(value), min(value), max(value) FROM %s GROUP BY varname`,
		predictionsTable)); err != nil {
		return nil, fmt.Errorf("pystack: analysis: %w", err)
	}
	res.Steps.Analysis = time.Since(start)
	return res, nil
}

// RunMultiInstance runs the full workflow for each instance independently —
// the traditional stack has no cross-instance reuse, so cost is strictly
// linear in the number of instances with the full calibration constant.
func (w *Workflow) RunMultiInstance(instanceIDs []string, measurementsSQLs []string, predictionsTable string) ([]*Result, error) {
	if len(instanceIDs) != len(measurementsSQLs) {
		return nil, fmt.Errorf("pystack: %d instances vs %d queries", len(instanceIDs), len(measurementsSQLs))
	}
	out := make([]*Result, len(instanceIDs))
	for i, id := range instanceIDs {
		r, err := w.RunSingleInstance(id, measurementsSQLs[i], predictionsTable)
		if err != nil {
			return nil, fmt.Errorf("pystack: instance %s: %w", id, err)
		}
		out[i] = r
	}
	return out, nil
}

// fetchViaCSV runs the measurement query WITHOUT prepared-plan reuse, dumps
// the result to a CSV file in the working directory, and re-parses it —
// the DB→file→tool hop of the traditional stack.
func (w *Workflow) fetchViaCSV(instanceID, sql string) (*timeseries.Frame, error) {
	w.DB.EnablePlanCache(false)
	rs, err := w.DB.Query(sql)
	w.DB.EnablePlanCache(true)
	if err != nil {
		return nil, fmt.Errorf("pystack: measurement query: %w", err)
	}
	frame, err := resultToFrame(rs)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(w.WorkDir, fmt.Sprintf("measurements_%s.csv", sanitize(instanceID)))
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("pystack: creating interchange file: %w", err)
	}
	if err := frame.WriteCSV(f); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, err
	}
	g, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer g.Close()
	return timeseries.ReadCSV(g)
}

// exportViaCSV writes predictions to a CSV file, re-reads it, and inserts
// the rows into the database one INSERT at a time (the psycopg2 loop).
func (w *Workflow) exportViaCSV(instanceID, table string, frame *timeseries.Frame) error {
	path := filepath.Join(w.WorkDir, fmt.Sprintf("predictions_%s.csv", sanitize(instanceID)))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("pystack: creating export file: %w", err)
	}
	if err := frame.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	g, err := os.Open(path)
	if err != nil {
		return err
	}
	loaded, err := timeseries.ReadCSV(g)
	g.Close()
	if err != nil {
		return err
	}
	if !w.DB.HasTable(table) {
		if _, err := w.DB.Exec(fmt.Sprintf(
			`CREATE TABLE %s (time float, instanceid text, varname text, value float)`, table)); err != nil {
			return err
		}
	}
	for i, t := range loaded.Times {
		for _, c := range loaded.Columns {
			if err := w.DB.InsertRow(table, t, instanceID, c, loaded.Data[c][i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// resultToFrame converts a wide SQL result (time + numeric columns) into a
// frame; the first column named time/ts/timestamp is the axis.
func resultToFrame(rs *sqldb.ResultSet) (*timeseries.Frame, error) {
	timeIdx := -1
	for _, name := range []string{"time", "ts", "timestamp"} {
		if idx := rs.ColumnIndex(name); idx >= 0 {
			timeIdx = idx
			break
		}
	}
	if timeIdx < 0 {
		return nil, fmt.Errorf("pystack: result has no time column")
	}
	var cols []string
	var colIdx []int
	for i, c := range rs.Columns {
		if i == timeIdx {
			continue
		}
		cols = append(cols, c.Name)
		colIdx = append(colIdx, i)
	}
	frame := timeseries.NewFrame(cols...)
	for ri, row := range rs.Rows {
		t, err := row[timeIdx].AsFloat()
		if err != nil {
			// Timestamps convert to epoch seconds.
			ts, terr := row[timeIdx].AsTime()
			if terr != nil {
				return nil, fmt.Errorf("pystack: row %d time: %w", ri+1, err)
			}
			t = float64(ts.Unix())
		}
		vals := make([]float64, len(colIdx))
		for j, ci := range colIdx {
			v, err := row[ci].AsFloat()
			if err != nil {
				return nil, fmt.Errorf("pystack: row %d column %s: %w", ri+1, rs.Columns[ci].Name, err)
			}
			vals[j] = v
		}
		if err := frame.AppendRow(t, vals...); err != nil {
			return nil, err
		}
	}
	return frame, nil
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_', r == '-':
			out = append(out, r)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

func firstTime(m map[string]*timeseries.Series) (float64, error) {
	first := true
	var t0 float64
	for _, s := range m {
		v, err := s.Start()
		if err != nil {
			continue
		}
		if first || v < t0 {
			t0, first = v, false
		}
	}
	if first {
		return 0, fmt.Errorf("pystack: no samples")
	}
	return t0, nil
}

func lastTime(m map[string]*timeseries.Series) (float64, error) {
	first := true
	var t1 float64
	for _, s := range m {
		v, err := s.End()
		if err != nil {
			continue
		}
		if first || v > t1 {
			t1, first = v, false
		}
	}
	if first {
		return 0, fmt.Errorf("pystack: no samples")
	}
	return t1, nil
}
