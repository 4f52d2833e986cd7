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
	Stats
}

// Stats counts the work of one integration.
type Stats struct {
	// Accepted and Rejected count the steps taken; a fixed-step method
	// rejects none.
	Accepted, Rejected int
	// RHSCalls counts evaluations of the right-hand side.
	RHSCalls int
}

// recorder collects accepted steps into one growing flat buffer, so that a
// trajectory costs a handful of allocations instead of one per step.
type recorder struct {
	n     int
	times []float64
	flat  []float64
	Stats
}

// newRecorder returns a recorder with room for the steps a step size of step
// takes over span, up to 1024 rows, so that the buffers grow a few times at
// most instead of from empty.
func newRecorder(n int, span, step float64) recorder {
	rows := 1024.0
	if est := span/step + 2; est < rows {
		rows = est
	}
	return recorder{n: n, times: make([]float64, 0, int(rows)), flat: make([]float64, 0, int(rows)*n)}
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
	return &Result{Times: r.times, States: states, Stats: r.Stats}
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

	rec := newRecorder(n, t1-t0, m.step)
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
		rec.RHSCalls += stages
		rec.Accepted++
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

	rec := newRecorder(n, t1-t0, h)
	rec.add(t0, x0)

	if err := f(t0, x, k[0]); err != nil {
		return nil, fmt.Errorf("solver: RHS at t=%v: %w", t0, err)
	}
	rec.RHSCalls++
	t := t0
	pi := piController{powPrev: 1}
	for steps := 0; t < t1; steps++ {
		if steps >= maxSteps {
			return nil, fmt.Errorf("solver: exceeded %d steps at t=%v", maxSteps, t)
		}
		if t+h > t1 {
			h = t1 - t
		}
		// Stages 1..6 (stage 0 derivative already in k[0]). Component i of
		// a stage state is x[i] plus its terms in j order, as one running
		// sum.
		for s := 1; s < 7; s++ {
			row, ks := dpA[s], k[:s]
			for i, xi := range x {
				for j, a := range row {
					if a != 0 {
						xi += h * a * ks[j][i]
					}
				}
				xs[i] = xi
			}
			if err := f(t+dpC[s]*h, xs, k[s]); err != nil {
				return nil, fmt.Errorf("solver: RHS at t=%v: %w", t+dpC[s]*h, err)
			}
		}
		rec.RHSCalls += 6
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
			sc := absTol + relTol*max(math.Abs(x[i]), math.Abs(x5[i]))
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
			rec.Accepted++
			// FSAL: last stage derivative is the first of the next step.
			copy(k[0], k[6])
			h *= pi.accept(errNorm)
		} else {
			rec.Rejected++
			h *= rejectFactor(errNorm)
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

// The step-size controller is the standard PI rule (Gustafsson 1991; Hairer &
// Wanner, Solving ODEs I, §II.4): after an accepted step with error norm e, h
// grows by 0.9·e^(−0.7/5)·p^(0.4/5), where p is the previous accepted norm
// clamped below at 1e-4; after a rejected one it shrinks by 0.9·e^(−1/5).
//
// The powers are formed the way math.Pow forms x^y for 0 < |y| < ½ where it
// has no assembly version (every platform but s390x): Exp(|y|·Log(x)), then
// the reciprocal for y < 0, then an Ldexp by 0, which leaves a finite non-zero
// value alone. So each factor equals the math.Pow expression bit for bit,
// while one Log of e serves both of its powers and no Pow runs. A norm that
// is not finite and positive takes math.Pow itself. The builtin min and max
// treat NaN and ±0 as math.Min and math.Max do.
const (
	piAlpha     = 0.7 / 5 // exponent of the current norm, negated
	piBeta      = 0.4 / 5 // exponent of the previous norm
	rejectAlpha = 1.0 / 5 // exponent of a rejected step's norm, negated
	minPrevNorm = 1e-4
)

// powMinPrev is the clamped norm's power, minPrevNorm^piBeta.
var powMinPrev = math.Exp(piBeta * math.Log(minPrevNorm))

// piController carries p^(0.4/5) from one accepted step to the next; it
// starts at 1, for p = 1.
type piController struct{ powPrev float64 }

// accept returns the factor h grows by after an accepted step of norm e.
func (c *piController) accept(e float64) float64 {
	if e == 0 {
		c.powPrev = powMinPrev
		return 5
	}
	pe, logE := invPow(e, piAlpha)
	factor := 0.9 * pe * c.powPrev
	if e < minPrevNorm {
		c.powPrev = powMinPrev
	} else {
		c.powPrev = math.Exp(piBeta * logE)
	}
	return min(5, max(0.2, factor))
}

// rejectFactor returns the factor h shrinks by after a rejected step of norm e.
func rejectFactor(e float64) float64 {
	pe, _ := invPow(e, rejectAlpha)
	return max(0.1, 0.9*pe)
}

// invPow returns math.Pow(e, -y), for 0 < y < ½, together with Log(e).
func invPow(e, y float64) (pow, logE float64) {
	logE = math.Log(e)
	if e > 0 && e <= math.MaxFloat64 {
		return 1 / math.Exp(y*logE), logE
	}
	return math.Pow(e, -y), logE
}
