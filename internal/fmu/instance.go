package fmu

import (
	"context"
	"fmt"
	"math"
	"sort"

	"repro/internal/modelica"
	"repro/internal/solver"
	"repro/internal/timeseries"
)

// Instance is one runtime instantiation of a Unit: a mutable set of
// parameter values, state initial values, and input defaults over the shared
// immutable model. This mirrors FMI's instantiate/setReal/simulate lifecycle
// and is the object pgFMU's ModelInstance catalogue rows stand for.
type Instance struct {
	unit *Unit
	name string

	// vals holds parameter values, input fallback values and state start
	// values at their kernel slots; set marks the slots that have a value.
	vals []float64
	set  []bool
}

// Instantiate creates an instance with values seeded from the model defaults.
func (u *Unit) Instantiate(name string) *Instance {
	k := u.kernel
	n := k.StateSlot + len(u.Model.States)
	inst := &Instance{unit: u, name: name, vals: make([]float64, n), set: make([]bool, n)}
	seed := func(slot int, v float64) {
		if !math.IsNaN(v) {
			inst.vals[slot], inst.set[slot] = v, true
		}
	}
	for i, p := range u.Model.Parameters {
		seed(k.ParamSlot+i, p.Default)
	}
	for i, in := range u.Model.Inputs {
		seed(k.InputSlot+i, in.Start)
	}
	for i, s := range u.Model.States {
		seed(k.StateSlot+i, s.Start)
	}
	return inst
}

// Name returns the instance name given at instantiation.
func (inst *Instance) Name() string { return inst.name }

// Unit returns the parent FMU.
func (inst *Instance) Unit() *Unit { return inst.unit }

// VarKind classifies a variable name within the instance.
type VarKind int

// VarKind values.
const (
	VarUnknown VarKind = iota
	VarParameter
	VarInput
	VarState
	VarOutput
)

func (k VarKind) String() string {
	switch k {
	case VarParameter:
		return "parameter"
	case VarInput:
		return "input"
	case VarState:
		return "state"
	case VarOutput:
		return "output"
	default:
		return "unknown"
	}
}

// KindOf reports how name is classified by the model. A state that is also
// an output reports VarState (settable initial value).
func (inst *Instance) KindOf(name string) VarKind { return inst.unit.index[name].kind }

// SetReal assigns a parameter value, a state initial value, or an input
// fallback value. Pure outputs are not settable (they are computed).
func (inst *Instance) SetReal(name string, v float64) error {
	ref := inst.unit.index[name]
	switch ref.kind {
	case VarParameter, VarState, VarInput:
		inst.vals[ref.slot], inst.set[ref.slot] = v, true
	case VarOutput:
		return fmt.Errorf("fmu: cannot set computed output %q", name)
	default:
		return fmt.Errorf("fmu: model %s has no variable %q", inst.unit.Model.Name, name)
	}
	return nil
}

// GetReal reads the current parameter / state-initial / input-fallback value.
func (inst *Instance) GetReal(name string) (float64, error) {
	ref := inst.unit.index[name]
	switch ref.kind {
	case VarParameter, VarState, VarInput:
		if !inst.set[ref.slot] {
			return 0, fmt.Errorf("fmu: variable %q has no value set", name)
		}
		return inst.vals[ref.slot], nil
	case VarOutput:
		return 0, fmt.Errorf("fmu: output %q has no stored value; simulate to compute it", name)
	default:
		return 0, fmt.Errorf("fmu: model %s has no variable %q", inst.unit.Model.Name, name)
	}
}

// Parameters returns a copy of the current parameter assignment.
func (inst *Instance) Parameters() map[string]float64 {
	params := inst.unit.Model.Parameters
	out := make(map[string]float64, len(params))
	for i, p := range params {
		if slot := inst.unit.kernel.ParamSlot + i; inst.set[slot] {
			out[p.Name] = inst.vals[slot]
		}
	}
	return out
}

// SetParameters assigns several parameters at once.
func (inst *Instance) SetParameters(vals map[string]float64) error {
	for k, v := range vals {
		ref := inst.unit.index[k]
		if ref.kind != VarParameter {
			return fmt.Errorf("fmu: %q is not a parameter", k)
		}
		inst.vals[ref.slot], inst.set[ref.slot] = v, true
	}
	return nil
}

// Reset restores all values to the model defaults — pgFMU's fmu_reset.
func (inst *Instance) Reset() {
	*inst = *inst.unit.Instantiate(inst.name)
}

// Clone copies the instance under a new name — pgFMU's fmu_copy.
func (inst *Instance) Clone(name string) *Instance {
	return &Instance{
		unit: inst.unit,
		name: name,
		vals: append([]float64(nil), inst.vals...),
		set:  append([]bool(nil), inst.set...),
	}
}

// SimOptions configures a simulation run.
type SimOptions struct {
	// Method is the ODE integrator; nil picks adaptive RK45 with the
	// default-experiment tolerance.
	Method solver.Method
	// OutputStep, when positive, resamples results onto a uniform grid with
	// this spacing (communication points). Zero returns solver steps.
	OutputStep float64
	// InputInterpolation selects how input series are read between samples.
	InputInterpolation timeseries.Interpolation
	// Ctx, when non-nil, is polled during integration stepping so a
	// cancelled context aborts a long simulation mid-run.
	Ctx context.Context
}

// SimResult is a simulation trajectory: one column per state and output on a
// shared time grid.
type SimResult struct {
	// Frame holds the trajectories; column order is states then outputs.
	Frame *timeseries.Frame
}

// Series extracts one result variable.
func (r *SimResult) Series(name string) (*timeseries.Series, error) {
	return r.Frame.Series(name)
}

// Final returns the last value of a result variable.
func (r *SimResult) Final(name string) (float64, error) {
	s, err := r.Frame.Series(name)
	if err != nil {
		return 0, err
	}
	if s.Len() == 0 {
		return 0, fmt.Errorf("fmu: empty result for %q", name)
	}
	return s.Values[s.Len()-1], nil
}

// run is one simulation's view of the kernel: a register file with the
// instance's values bound, and a cursor per input that is read from a
// series. It is what the derivative closure and output evaluation share.
type run struct {
	unit   *Unit
	regs   []float64
	series []seriesInput
	interp timeseries.Interpolation
	// derivErr[i] / outErr[i] hold the division by zero, if any, in the
	// parameter-only part of that program: raised once by Bind, it belongs
	// to every evaluation (see modelica.Program.Bind).
	derivErr, outErr []error
}

// seriesInput is an input read from a series into its slot at each load.
type seriesInput struct {
	slot   int
	values []float64
	cursor timeseries.Cursor
}

// load writes the evaluation point into the slots: time, every series input
// at that time, and the state vector.
func (r *run) load(t float64, x []float64) {
	r.regs[modelica.TimeSlot] = t
	for i := range r.series {
		in := &r.series[i]
		r.regs[in.slot] = in.cursor.At(in.values, t, r.interp)
	}
	copy(r.regs[r.unit.kernel.StateSlot:], x)
}

// bind validates that the instance and inputs give every slot a value and
// builds the run plus the initial state vector.
func (inst *Instance) bind(inputs map[string]*timeseries.Series, interp timeseries.Interpolation) (*run, []float64, error) {
	u := inst.unit
	m, k := u.Model, u.kernel
	for i, p := range m.Parameters {
		if !inst.set[k.ParamSlot+i] {
			return nil, nil, fmt.Errorf("fmu: parameter %q has no value; set it before simulating", p.Name)
		}
	}
	r := &run{unit: u, regs: k.NewRegisters(), interp: interp}
	copy(r.regs[k.ParamSlot:k.StateSlot], inst.vals[k.ParamSlot:k.StateSlot])
	// Every input needs a series or a fallback value.
	bySeries := make([]bool, len(m.Inputs))
	for name, s := range inputs {
		ref := u.index[name]
		if ref.kind != VarInput {
			return nil, nil, fmt.Errorf("fmu: model %s has no input %q", m.Name, name)
		}
		if s == nil || s.Len() == 0 {
			return nil, nil, fmt.Errorf("fmu: empty input series for %q", name)
		}
		bySeries[ref.slot-k.InputSlot] = true
		r.series = append(r.series, seriesInput{slot: ref.slot, values: s.Values, cursor: timeseries.NewCursor(s.Times)})
	}
	for i, in := range m.Inputs {
		if !bySeries[i] && !inst.set[k.InputSlot+i] {
			return nil, nil, fmt.Errorf("fmu: insufficient model input time series: input %q has neither a series nor a start value", in.Name)
		}
	}
	x0 := make([]float64, len(m.States))
	for i, s := range m.States {
		if !inst.set[k.StateSlot+i] {
			return nil, nil, fmt.Errorf("fmu: state %q has no initial value", s.Name)
		}
		x0[i] = inst.vals[k.StateSlot+i]
	}
	errs := make([]error, len(k.Derivatives)+len(k.Outputs))
	r.derivErr, r.outErr = errs[:len(k.Derivatives)], errs[len(k.Derivatives):]
	for i := range k.Derivatives {
		r.derivErr[i] = k.Derivatives[i].Bind(r.regs)
	}
	for i := range k.Outputs {
		r.outErr[i] = k.Outputs[i].Bind(r.regs)
	}
	return r, x0, nil
}

// Trajectory is a simulated state trajectory on a time axis — the solver's
// accepted steps, or a uniform grid after resampling — together with the
// bound model that evaluates outputs along it. It is not safe for concurrent
// use.
type Trajectory struct {
	// Times is the time axis, strictly increasing.
	Times []float64
	// states[i][j] is state j (model order) at Times[i].
	states [][]float64
	run    *run
}

// Integrate runs the solver over [t0, t1] with the given input series (one
// per input variable; inputs without a series fall back to the instance's
// input value) and returns the accepted steps. opts.OutputStep is not
// applied here: Simulate resamples and tabulates on top of this.
func (inst *Instance) Integrate(inputs map[string]*timeseries.Series, t0, t1 float64, opts *SimOptions) (*Trajectory, error) {
	if opts == nil {
		opts = &SimOptions{}
	}
	if t1 <= t0 {
		return nil, fmt.Errorf("fmu: simulation interval [%v, %v] is empty", t0, t1)
	}
	r, x0, err := inst.bind(inputs, opts.InputInterpolation)
	if err != nil {
		return nil, err
	}
	m := inst.unit.Model
	derivs := inst.unit.kernel.Derivatives

	method := opts.Method
	if method == nil {
		method = solver.NewDormandPrince(1e-6, 1e-8)
	}

	// Poll the context every 64th derivative evaluation: cheap relative to
	// expression evaluation, frequent enough that cancellation lands within
	// a handful of solver steps.
	rhsCalls := 0
	rhs := func(t float64, x []float64, dxdt []float64) error {
		if opts.Ctx != nil {
			if rhsCalls&63 == 0 {
				if err := opts.Ctx.Err(); err != nil {
					return err
				}
			}
			rhsCalls++
		}
		r.load(t, x)
		for i := range derivs {
			v, err := derivs[i].Run(r.regs)
			if err == nil {
				err = r.derivErr[i]
			}
			if err != nil {
				return fmt.Errorf("evaluating der(%s): %w", m.States[i].Name, err)
			}
			dxdt[i] = v
		}
		return nil
	}

	res, err := method.Integrate(rhs, t0, t1, x0)
	if err != nil {
		return nil, fmt.Errorf("fmu: simulating %s: %w", m.Name, err)
	}
	return &Trajectory{Times: res.Times, states: res.States, run: r}, nil
}

// resample interpolates the states linearly onto grid in one forward merge
// of the two increasing time axes.
func (tr *Trajectory) resample(grid []float64) *Trajectory {
	n := len(tr.run.unit.Model.States)
	flat := make([]float64, len(grid)*n)
	rows := make([][]float64, len(grid))
	cursor := timeseries.NewCursor(tr.Times)
	for i, t := range grid {
		row := flat[i*n : (i+1)*n : (i+1)*n]
		lo, hi := cursor.Seek(t)
		if lo == hi {
			copy(row, tr.states[lo])
		} else {
			for j := range row {
				row[j] = timeseries.Interpolate(t, tr.Times[lo], tr.Times[hi], tr.states[lo][j], tr.states[hi][j])
			}
		}
		rows[i] = row
	}
	return &Trajectory{Times: grid, states: rows, run: tr.run}
}

// Columns tabulates the named states and outputs along the trajectory, one
// slice per name, parallel to Times. Outputs are evaluated from the states,
// inputs and time at each point.
func (tr *Trajectory) Columns(names ...string) ([][]float64, error) {
	u := tr.run.unit
	cols := make([][]float64, len(names))
	type outputColumn struct{ col, output int }
	var outputs []outputColumn
	for c, name := range names {
		cols[c] = make([]float64, len(tr.Times))
		switch ref := u.index[name]; ref.kind {
		case VarState:
			j := ref.slot - u.kernel.StateSlot
			for i, x := range tr.states {
				cols[c][i] = x[j]
			}
		case VarOutput:
			outputs = append(outputs, outputColumn{col: c, output: ref.slot})
		default:
			return nil, fmt.Errorf("fmu: %q is not a state or output of model %s", name, u.Model.Name)
		}
	}
	if len(outputs) == 0 {
		return cols, nil
	}
	for i, t := range tr.Times {
		tr.run.load(t, tr.states[i])
		for _, oc := range outputs {
			v, err := u.kernel.Outputs[oc.output].Run(tr.run.regs)
			if err == nil {
				err = tr.run.outErr[oc.output]
			}
			if err != nil {
				return nil, fmt.Errorf("fmu: evaluating output %s at t=%v: %w", u.Model.Outputs[oc.output].Name, t, err)
			}
			cols[oc.col][i] = v
		}
	}
	return cols, nil
}

// Simulate integrates the model from t0 to t1 with the given input series
// (one per input variable; inputs without a series fall back to the
// instance's input value). Returns trajectories for all states and outputs.
func (inst *Instance) Simulate(inputs map[string]*timeseries.Series, t0, t1 float64, opts *SimOptions) (*SimResult, error) {
	tr, err := inst.Integrate(inputs, t0, t1, opts)
	if err != nil {
		return nil, err
	}
	// Optionally resample onto a uniform communication grid.
	if opts != nil && opts.OutputStep > 0 {
		grid, err := uniformGrid(t0, t1, opts.OutputStep)
		if err != nil {
			return nil, err
		}
		tr = tr.resample(grid)
	}
	for i := 1; i < len(tr.Times); i++ {
		if tr.Times[i] <= tr.Times[i-1] {
			return nil, fmt.Errorf("fmu: assembling result frame: time %v not after last time %v", tr.Times[i], tr.Times[i-1])
		}
	}
	// The result frame: states then (non-state) outputs.
	columns := inst.unit.columns
	cols, err := tr.Columns(columns...)
	if err != nil {
		return nil, err
	}
	frame := timeseries.NewFrame(columns...)
	frame.Times = tr.Times
	for c, name := range columns {
		frame.Data[name] = cols[c]
	}
	return &SimResult{Frame: frame}, nil
}

// maxGridPoints bounds the communication grid; beyond it the point count no
// longer fits the arithmetic that builds the grid.
const maxGridPoints = 1 << 31

// uniformGrid builds t0, t0+step, t0+2*step, ..., ending exactly at t1. When
// the window is a whole number of steps up to rounding — 23 h in 24 steps of
// 23/24 h — the last multiple is t1 itself; otherwise t1 follows the last
// multiple below it. Points are computed as t0 + i*step, not accumulated, so
// rounding cannot land a point just short of t1 and then add t1 again.
func uniformGrid(t0, t1, step float64) ([]float64, error) {
	q := (t1 - t0) / step
	if !(q < maxGridPoints) {
		return nil, fmt.Errorf("fmu: output step %v over [%v, %v] gives more than %d points", step, t0, t1, maxGridPoints)
	}
	n := int(math.Floor(q)) // whole steps strictly inside the window, if q is not whole
	if r := math.Round(q); r >= 1 && math.Abs(q-r) <= 1e-9*r {
		n = int(r) - 1
	}
	grid := make([]float64, n+2)
	grid[0], grid[n+1] = t0, t1
	for i := 1; i <= n; i++ {
		grid[i] = t0 + float64(i)*step
	}
	return grid, nil
}

// ResultVariables returns the sorted simulated variable names (states and
// outputs) — what fmu_simulate emits rows for.
func (inst *Instance) ResultVariables() []string {
	m := inst.unit.Model
	set := make(map[string]bool)
	for _, s := range m.States {
		set[s.Name] = true
	}
	for _, o := range m.Outputs {
		set[o.Name] = true
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// DefaultInterval reads the default experiment window from the metadata.
func (u *Unit) DefaultInterval() (t0, t1 float64, err error) {
	t0, err = attrFloat(u.Description.DefaultExperiment.StartTime)
	if err != nil {
		return 0, 0, err
	}
	t1, err = attrFloat(u.Description.DefaultExperiment.StopTime)
	if err != nil {
		return 0, 0, err
	}
	if math.IsNaN(t0) || math.IsNaN(t1) {
		return 0, 0, fmt.Errorf("fmu: model %s has no default experiment interval", u.Model.Name)
	}
	return t0, t1, nil
}

// DefaultStep reads the default experiment step size (NaN when absent).
func (u *Unit) DefaultStep() (float64, error) {
	return attrFloat(u.Description.DefaultExperiment.StepSize)
}
