// Package solver implements the ODE integration substrate the FMU runtime
// simulates with — the role Assimulo plays under PyFMI in the paper's stack.
// It provides fixed-step explicit methods (Euler, Heun, RK4) and an adaptive
// Dormand–Prince RK45 with PI step-size control, which is the default for
// FMU simulation (matching CVode-class adaptive behaviour on the small smooth
// ODEs the paper evaluates).
package solver

import (
	"errors"
	"fmt"
	"math"
)

// System is the right-hand side of the ODE x' = f(t, x). Implementations
// write the derivative into dxdt (len(dxdt) == len(x)).
type System func(t float64, x []float64, dxdt []float64) error

// ErrStepSize is returned when the adaptive controller cannot meet the
// tolerance without shrinking the step below the hard minimum.
var ErrStepSize = errors.New("solver: step size underflow")

// ErrBadInterval is returned for empty or reversed integration intervals.
var ErrBadInterval = errors.New("solver: integration interval must have t1 > t0")

// Result holds a dense trajectory: Times[i] is the time of States[i], and
// States[i][j] is state j at that time. States[0] is the initial condition.
type Result struct {
	Times  []float64
	States [][]float64
}

// recorder collects accepted steps into one growing flat buffer, so that a
// trajectory costs a handful of allocations instead of one per step.
type recorder struct {
	n     int
	times []float64
	flat  []float64
}

func (r *recorder) add(t float64, x []float64) {
	r.times = append(r.times, t)
	r.flat = append(r.flat, x...)
}

// result slices the flat buffer into per-step rows.
func (r *recorder) result() *Result {
	states := make([][]float64, len(r.times))
	for i := range states {
		states[i] = r.flat[i*r.n : (i+1)*r.n : (i+1)*r.n]
	}
	return &Result{Times: r.times, States: states}
}

// Method integrates x' = f over [t0, t1] from x0 and returns the trajectory.
// Implementations must not retain f, x0 or the returned slices' backing
// arrays between calls.
type Method interface {
	// Integrate solves the system and records the state at every accepted
	// step (plus t0 and t1 exactly).
	Integrate(f System, t0, t1 float64, x0 []float64) (*Result, error)
	// Name identifies the method for logs and benchmarks.
	Name() string
}

// FixedStep is an explicit fixed-step integrator using a Butcher tableau.
type FixedStep struct {
	name string
	step float64
	// tableau
	a [][]float64
	b []float64
	c []float64
}

// NewEuler returns the forward Euler method with the given step size.
func NewEuler(step float64) (*FixedStep, error) {
	return newFixed("euler", step, nil, []float64{1}, []float64{0})
}

// NewHeun returns Heun's second-order method with the given step size.
func NewHeun(step float64) (*FixedStep, error) {
	return newFixed("heun", step,
		[][]float64{{1}},
		[]float64{0.5, 0.5},
		[]float64{0, 1})
}

// NewRK4 returns the classical fourth-order Runge–Kutta method.
func NewRK4(step float64) (*FixedStep, error) {
	return newFixed("rk4", step,
		[][]float64{{0.5}, {0, 0.5}, {0, 0, 1}},
		[]float64{1.0 / 6, 1.0 / 3, 1.0 / 3, 1.0 / 6},
		[]float64{0, 0.5, 0.5, 1})
}

func newFixed(name string, step float64, a [][]float64, b, c []float64) (*FixedStep, error) {
	if step <= 0 || math.IsNaN(step) || math.IsInf(step, 0) {
		return nil, fmt.Errorf("solver: step must be positive and finite, got %v", step)
	}
	return &FixedStep{name: name, step: step, a: a, b: b, c: c}, nil
}

// Name implements Method.
func (m *FixedStep) Name() string { return m.name }

// Step reports the configured step size.
func (m *FixedStep) Step() float64 { return m.step }

// Integrate implements Method.
func (m *FixedStep) Integrate(f System, t0, t1 float64, x0 []float64) (*Result, error) {
	if t1 <= t0 {
		return nil, fmt.Errorf("%w: [%v, %v]", ErrBadInterval, t0, t1)
	}
	n := len(x0)
	stages := len(m.b)
	k := make([][]float64, stages)
	for i := range k {
		k[i] = make([]float64, n)
	}
	xs := make([]float64, n) // stage state scratch
	x := append([]float64(nil), x0...)

	rec := recorder{n: n}
	rec.add(t0, x0)
	t := t0
	for t < t1 {
		h := m.step
		if t+h > t1 {
			h = t1 - t
		}
		for s := 0; s < stages; s++ {
			copy(xs, x)
			for j := 0; j < s; j++ {
				aj := 0.0
				if m.a != nil && j < len(m.a[s-1]) {
					aj = m.a[s-1][j]
				}
				if aj != 0 {
					for i := range xs {
						xs[i] += h * aj * k[j][i]
					}
				}
			}
			if err := f(t+m.c[s]*h, xs, k[s]); err != nil {
				return nil, fmt.Errorf("solver: RHS at t=%v: %w", t+m.c[s]*h, err)
			}
		}
		for i := range x {
			acc := 0.0
			for s := 0; s < stages; s++ {
				acc += m.b[s] * k[s][i]
			}
			x[i] += h * acc
		}
		t += h
		rec.add(t, x)
	}
	return rec.result(), nil
}

// DormandPrince is the adaptive RK45 (DOPRI5) method with PI step control.
type DormandPrince struct {
	// RelTol and AbsTol define the per-component error tolerance
	// AbsTol + RelTol*|x|. Defaults: 1e-6 and 1e-8.
	RelTol, AbsTol float64
	// InitialStep seeds the controller; 0 picks (t1-t0)/100.
	InitialStep float64
	// MaxStep caps the step; 0 means no cap.
	MaxStep float64
	// MinStep aborts with ErrStepSize below this; 0 picks 1e-12*(t1-t0).
	MinStep float64
	// MaxSteps bounds the number of accepted+rejected steps; 0 means 1e6.
	MaxSteps int
}

// NewDormandPrince returns an RK45 integrator with the given tolerances
// (zero values pick the defaults).
func NewDormandPrince(relTol, absTol float64) *DormandPrince {
	return &DormandPrince{RelTol: relTol, AbsTol: absTol}
}

// Name implements Method.
func (m *DormandPrince) Name() string { return "dopri5" }

// Dormand–Prince coefficients.
var (
	dpC = []float64{0, 1.0 / 5, 3.0 / 10, 4.0 / 5, 8.0 / 9, 1, 1}
	dpA = [][]float64{
		{},
		{1.0 / 5},
		{3.0 / 40, 9.0 / 40},
		{44.0 / 45, -56.0 / 15, 32.0 / 9},
		{19372.0 / 6561, -25360.0 / 2187, 64448.0 / 6561, -212.0 / 729},
		{9017.0 / 3168, -355.0 / 33, 46732.0 / 5247, 49.0 / 176, -5103.0 / 18656},
		{35.0 / 384, 0, 500.0 / 1113, 125.0 / 192, -2187.0 / 6784, 11.0 / 84},
	}
	// 5th order solution weights (same as last A row; FSAL).
	dpB5 = []float64{35.0 / 384, 0, 500.0 / 1113, 125.0 / 192, -2187.0 / 6784, 11.0 / 84, 0}
	// 4th order embedded weights.
	dpB4 = []float64{5179.0 / 57600, 0, 7571.0 / 16695, 393.0 / 640, -92097.0 / 339200, 187.0 / 2100, 1.0 / 40}
)

// Integrate implements Method.
func (m *DormandPrince) Integrate(f System, t0, t1 float64, x0 []float64) (*Result, error) {
	if t1 <= t0 {
		return nil, fmt.Errorf("%w: [%v, %v]", ErrBadInterval, t0, t1)
	}
	relTol := m.RelTol
	if relTol <= 0 {
		relTol = 1e-6
	}
	absTol := m.AbsTol
	if absTol <= 0 {
		absTol = 1e-8
	}
	h := m.InitialStep
	if h <= 0 {
		h = (t1 - t0) / 100
	}
	maxStep := m.MaxStep
	if maxStep <= 0 {
		maxStep = t1 - t0
	}
	minStep := m.MinStep
	if minStep <= 0 {
		minStep = 1e-12 * (t1 - t0)
	}
	maxSteps := m.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 1_000_000
	}
	if h > maxStep {
		h = maxStep
	}

	n := len(x0)
	k := make([][]float64, 7)
	for i := range k {
		k[i] = make([]float64, n)
	}
	xs := make([]float64, n)
	x5 := make([]float64, n)
	x := append([]float64(nil), x0...)

	rec := recorder{n: n}
	rec.add(t0, x0)

	if err := f(t0, x, k[0]); err != nil {
		return nil, fmt.Errorf("solver: RHS at t=%v: %w", t0, err)
	}
	t := t0
	prevErrNorm := 1.0
	for steps := 0; t < t1; steps++ {
		if steps >= maxSteps {
			return nil, fmt.Errorf("solver: exceeded %d steps at t=%v", maxSteps, t)
		}
		if t+h > t1 {
			h = t1 - t
		}
		// Stages 1..6 (stage 0 derivative already in k[0]).
		for s := 1; s < 7; s++ {
			copy(xs, x)
			for j := 0; j < s; j++ {
				if a := dpA[s][j]; a != 0 {
					for i := range xs {
						xs[i] += h * a * k[j][i]
					}
				}
			}
			if err := f(t+dpC[s]*h, xs, k[s]); err != nil {
				return nil, fmt.Errorf("solver: RHS at t=%v: %w", t+dpC[s]*h, err)
			}
		}
		// 5th order solution and embedded error estimate.
		errNorm := 0.0
		for i := range x {
			sum5, sum4 := 0.0, 0.0
			for s := 0; s < 7; s++ {
				sum5 += dpB5[s] * k[s][i]
				sum4 += dpB4[s] * k[s][i]
			}
			x5[i] = x[i] + h*sum5
			e := h * (sum5 - sum4)
			sc := absTol + relTol*math.Max(math.Abs(x[i]), math.Abs(x5[i]))
			errNorm += (e / sc) * (e / sc)
		}
		if n > 0 {
			errNorm = math.Sqrt(errNorm / float64(n))
		}
		if errNorm <= 1 || n == 0 {
			// Accept.
			t += h
			copy(x, x5)
			rec.add(t, x)
			// FSAL: last stage derivative is the first of the next step.
			copy(k[0], k[6])
			// PI controller (Gustafsson).
			if errNorm == 0 {
				h *= 5
			} else {
				factor := 0.9 * math.Pow(errNorm, -0.7/5) * math.Pow(prevErrNorm, 0.4/5)
				h *= math.Min(5, math.Max(0.2, factor))
			}
			prevErrNorm = math.Max(errNorm, 1e-4)
		} else {
			// Reject, shrink.
			h *= math.Max(0.1, 0.9*math.Pow(errNorm, -1.0/5))
		}
		if h > maxStep {
			h = maxStep
		}
		if h < minStep {
			return nil, fmt.Errorf("%w: h=%v at t=%v", ErrStepSize, h, t)
		}
	}
	return rec.result(), nil
}
