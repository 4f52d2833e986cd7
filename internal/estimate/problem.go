// Package estimate implements FMU parameter estimation — the role ModestPy
// plays in the paper's stack (§6). It provides the two-phase strategy the
// paper describes: a genetic-algorithm Global Search (G) to locate the basin
// of the optimum, followed by a gradient-based Local Search (LaG) to refine
// it, plus the Local-Only (LO) variant used by the multi-instance (MI)
// optimization, and Algorithms 2 (SI) and 3 (MI with the L2 similarity gate).
package estimate

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/fmu"
	"repro/internal/solver"
	"repro/internal/timeseries"
)

// ParamSpec describes one parameter under estimation with its search bounds.
type ParamSpec struct {
	Name   string
	Lo, Hi float64
}

// Problem is one parameter-estimation task: fit the instance's parameters so
// simulated trajectories match measured ones over [T0, T1].
type Problem struct {
	// Instance is the model instance under calibration. Its parameter values
	// are read as defaults and written back by the caller after estimation.
	Instance *fmu.Instance
	// Params are the parameters to estimate with bounds.
	Params []ParamSpec
	// Inputs are the measured input series fed into every simulation.
	Inputs map[string]*timeseries.Series
	// Measured are the observed trajectories to fit, keyed by model state or
	// output variable name.
	Measured map[string]*timeseries.Series
	// T0, T1 bound the training window. Zero values derive the window from
	// the measured series.
	T0, T1 float64
	// Method is the ODE solver used inside the objective; nil picks the
	// instance default (adaptive RK45).
	Method solver.Method

	// prep is what Cost derives from Measured and the window, built by
	// Validate so that a search prepares once and evaluates many times.
	prep *prepared
}

// prepared is the part of the objective no candidate changes: the measured
// samples inside the training window, in sorted variable order so that the
// squared errors are always summed in the same order.
type prepared struct {
	t0, t1  float64
	names   []string // the variables actually compared, sorted
	windows []window // windows[i] belongs to names[i]
	samples int
}

// window is one measured variable's samples inside [T0, T1].
type window struct {
	times   []float64
	values  []float64
	isState bool
}

// prepare slices the measured series to the window.
func (p *Problem) prepare() (*prepared, error) {
	prep := &prepared{t0: p.T0, t1: p.T1}
	for name := range p.Measured {
		prep.names = append(prep.names, name)
	}
	sort.Strings(prep.names)
	for _, name := range prep.names {
		s := p.Measured[name].Slice(p.T0, p.T1)
		if s.Len() == 0 {
			return nil, fmt.Errorf("estimate: no measured samples for %q inside [%v, %v]", name, p.T0, p.T1)
		}
		prep.windows = append(prep.windows, window{
			times: s.Times, values: s.Values,
			isState: p.Instance.KindOf(name) == fmu.VarState,
		})
		prep.samples += s.Len()
	}
	return prep, nil
}

// Validate checks the problem is well-formed and fills the time window from
// the measurement series when unset.
func (p *Problem) Validate() error {
	if p.Instance == nil {
		return fmt.Errorf("estimate: problem has no instance")
	}
	if len(p.Params) == 0 {
		return fmt.Errorf("estimate: no parameters to estimate")
	}
	seen := make(map[string]bool, len(p.Params))
	for _, ps := range p.Params {
		if p.Instance.KindOf(ps.Name) != fmu.VarParameter {
			return fmt.Errorf("estimate: %q is not a parameter of model %s", ps.Name, p.Instance.Unit().Model.Name)
		}
		if seen[ps.Name] {
			return fmt.Errorf("estimate: duplicate parameter %q", ps.Name)
		}
		seen[ps.Name] = true
		if math.IsNaN(ps.Lo) || math.IsNaN(ps.Hi) {
			return fmt.Errorf("estimate: parameter %q has unbounded search range; set min/max", ps.Name)
		}
		if ps.Lo >= ps.Hi {
			return fmt.Errorf("estimate: parameter %q has empty range [%v, %v]", ps.Name, ps.Lo, ps.Hi)
		}
	}
	if len(p.Measured) == 0 {
		return fmt.Errorf("estimate: no measured series to fit against")
	}
	for name, s := range p.Measured {
		kind := p.Instance.KindOf(name)
		if kind != fmu.VarState && kind != fmu.VarOutput {
			return fmt.Errorf("estimate: measured variable %q is not a state or output", name)
		}
		if s == nil || s.Len() < 2 {
			return fmt.Errorf("estimate: measured series for %q needs at least 2 samples", name)
		}
	}
	if p.T0 == 0 && p.T1 == 0 {
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, s := range p.Measured {
			start, _ := s.Start()
			end, _ := s.End()
			lo = math.Min(lo, start)
			hi = math.Max(hi, end)
		}
		p.T0, p.T1 = lo, hi
	}
	if p.T1 <= p.T0 {
		return fmt.Errorf("estimate: empty training window [%v, %v]", p.T0, p.T1)
	}
	// A window that holds no sample of some measured series is reported by
	// Cost, as before; Validate only keeps the preparation when there is one.
	p.prep, _ = p.prepare()
	return nil
}

// Cost simulates the instance with the candidate parameter vector (ordered
// as p.Params) and returns the combined RMSE against all measured series —
// the paper's sum-of-squared-errors objective expressed as RMSE. It reads the
// problem only, so concurrent calls are safe.
func (p *Problem) Cost(vals []float64) (float64, error) {
	if len(vals) != len(p.Params) {
		return 0, fmt.Errorf("estimate: candidate has %d values, want %d", len(vals), len(p.Params))
	}
	prep := p.prep
	if prep == nil || prep.t0 != p.T0 || prep.t1 != p.T1 {
		// Not validated, or the window was moved since.
		var err error
		if prep, err = p.prepare(); err != nil {
			return 0, err
		}
	}
	// Work on a scratch clone so the caller's instance stays untouched.
	scratch := p.Instance.Clone(p.Instance.Name() + "/scratch")
	for i, ps := range p.Params {
		if err := scratch.SetReal(ps.Name, vals[i]); err != nil {
			return 0, err
		}
	}
	// Anchor the initial state to the first measured sample inside the
	// window for measured states, as calibration tooling does: the initial
	// condition is data, not a free variable.
	for k, w := range prep.windows {
		if w.isState {
			if err := scratch.SetReal(prep.names[k], w.values[0]); err != nil {
				return 0, err
			}
		}
	}
	method := p.Method
	if method == nil {
		// Tighter tolerances than the simulation default: the objective must
		// be smooth enough for finite-difference gradients in Local Search
		// (adaptive step-acceptance jitter otherwise swamps the differences).
		method = solver.NewDormandPrince(1e-9, 1e-11)
	}
	tr, err := scratch.Integrate(p.Inputs, p.T0, p.T1, &fmu.SimOptions{Method: method})
	if err != nil {
		return 0, err
	}
	// Only the compared variables are tabulated, and each is read at its
	// measured times in one forward merge over the solver's steps.
	sims, err := tr.Columns(prep.names...)
	if err != nil {
		return 0, err
	}
	totalSSE := 0.0
	for k, w := range prep.windows {
		cursor := timeseries.NewCursor(tr.Times)
		for i, t := range w.times {
			d := w.values[i] - cursor.At(sims[k], t, timeseries.Linear)
			totalSSE += d * d
		}
	}
	return math.Sqrt(totalSSE / float64(prep.samples)), nil
}

// clip projects v into [lo, hi].
func clip(v, lo, hi float64) float64 {
	return math.Max(lo, math.Min(hi, v))
}

// randomCandidate draws a uniform random point inside the bounds.
func randomCandidate(params []ParamSpec, rng *rand.Rand) []float64 {
	vals := make([]float64, len(params))
	for i, ps := range params {
		vals[i] = ps.Lo + rng.Float64()*(ps.Hi-ps.Lo)
	}
	return vals
}

// TracePoint records one optimizer iteration for Figure-5-style traces.
type TracePoint struct {
	Phase  string // "G", "LaG", or "LO"
	Iter   int
	Params []float64
	Cost   float64
}

// Result is the outcome of one estimation run.
type Result struct {
	// Params maps estimated parameter names to fitted values.
	Params map[string]float64
	// RMSE is the training-window error at the optimum (the paper's
	// estimationError).
	RMSE float64
	// CostEvals counts objective evaluations (simulations) performed,
	// including the line search's speculative candidates that were not taken.
	CostEvals int
	// Trace records optimizer iterations when tracing was requested.
	Trace []TracePoint
	// UsedWarmStart reports whether the MI shortcut (LO from a previous
	// optimum) produced this result.
	UsedWarmStart bool
}

func (p *Problem) resultFrom(vals []float64, cost float64, evals int, trace []TracePoint, warm bool) *Result {
	params := make(map[string]float64, len(p.Params))
	for i, ps := range p.Params {
		params[ps.Name] = vals[i]
	}
	return &Result{Params: params, RMSE: cost, CostEvals: evals, Trace: trace, UsedWarmStart: warm}
}
