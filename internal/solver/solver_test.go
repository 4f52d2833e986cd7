package solver

import (
	"errors"
	"math"
	"testing"
)

// expDecay is x' = -x with solution x(t) = x0 * exp(-t).
func expDecay(_ float64, x []float64, dxdt []float64) error {
	dxdt[0] = -x[0]
	return nil
}

// harmonic is x” = -x as a 2-state system; solution x(t)=cos(t), v(t)=-sin(t).
func harmonic(_ float64, x []float64, dxdt []float64) error {
	dxdt[0] = x[1]
	dxdt[1] = -x[0]
	return nil
}

func finalState(t *testing.T, m Method, f System, t0, t1 float64, x0 []float64) []float64 {
	t.Helper()
	res, err := m.Integrate(f, t0, t1, x0)
	if err != nil {
		t.Fatalf("%s Integrate: %v", m.Name(), err)
	}
	if len(res.Times) != len(res.States) {
		t.Fatalf("times/states length mismatch: %d vs %d", len(res.Times), len(res.States))
	}
	if res.Times[0] != t0 {
		t.Fatalf("first time = %v, want %v", res.Times[0], t0)
	}
	last := res.Times[len(res.Times)-1]
	if math.Abs(last-t1) > 1e-9 {
		t.Fatalf("last time = %v, want %v", last, t1)
	}
	return res.States[len(res.States)-1]
}

func TestEulerAccuracy(t *testing.T) {
	m, err := NewEuler(1e-4)
	if err != nil {
		t.Fatal(err)
	}
	got := finalState(t, m, expDecay, 0, 1, []float64{1})[0]
	want := math.Exp(-1)
	if math.Abs(got-want) > 1e-3 {
		t.Errorf("euler exp decay: got %v, want %v", got, want)
	}
}

func TestHeunAccuracy(t *testing.T) {
	m, err := NewHeun(1e-3)
	if err != nil {
		t.Fatal(err)
	}
	got := finalState(t, m, expDecay, 0, 1, []float64{1})[0]
	want := math.Exp(-1)
	if math.Abs(got-want) > 1e-6 {
		t.Errorf("heun exp decay: got %v, want %v", got, want)
	}
}

func TestRK4Accuracy(t *testing.T) {
	m, err := NewRK4(1e-2)
	if err != nil {
		t.Fatal(err)
	}
	got := finalState(t, m, expDecay, 0, 1, []float64{1})[0]
	want := math.Exp(-1)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("rk4 exp decay: got %v, want %v", got, want)
	}
}

func TestRK4Harmonic(t *testing.T) {
	m, _ := NewRK4(1e-3)
	end := finalState(t, m, harmonic, 0, 2*math.Pi, []float64{1, 0})
	if math.Abs(end[0]-1) > 1e-8 || math.Abs(end[1]) > 1e-8 {
		t.Errorf("rk4 harmonic after full period: %v, want [1 0]", end)
	}
}

func TestDormandPrinceAccuracy(t *testing.T) {
	m := NewDormandPrince(1e-8, 1e-10)
	got := finalState(t, m, expDecay, 0, 5, []float64{1})[0]
	want := math.Exp(-5)
	if math.Abs(got-want) > 1e-8 {
		t.Errorf("dopri5 exp decay: got %v, want %v", got, want)
	}
}

func TestDormandPrinceHarmonicLongHorizon(t *testing.T) {
	m := NewDormandPrince(1e-9, 1e-11)
	end := finalState(t, m, harmonic, 0, 20*math.Pi, []float64{1, 0})
	if math.Abs(end[0]-1) > 1e-6 || math.Abs(end[1]) > 1e-6 {
		t.Errorf("dopri5 harmonic after 10 periods: %v, want [1 0]", end)
	}
}

func TestDormandPrinceDefaults(t *testing.T) {
	m := &DormandPrince{} // all defaults
	got := finalState(t, m, expDecay, 0, 1, []float64{1})[0]
	if math.Abs(got-math.Exp(-1)) > 1e-5 {
		t.Errorf("default-tolerance dopri5: got %v", got)
	}
}

func TestDormandPrinceAdaptsSteps(t *testing.T) {
	// A stiff-ish forcing: fast transient then slow decay. The adaptive
	// method must take fewer steps than fixed-step RK4 at similar accuracy.
	f := func(_ float64, x []float64, dxdt []float64) error {
		dxdt[0] = -50 * (x[0] - math.Exp(-0.1))
		return nil
	}
	ad := NewDormandPrince(1e-6, 1e-8)
	res, err := ad.Integrate(f, 0, 10, []float64{5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Times) > 5000 {
		t.Errorf("adaptive solver used %d steps; expected far fewer", len(res.Times))
	}
}

func TestBadInterval(t *testing.T) {
	m, _ := NewRK4(0.1)
	if _, err := m.Integrate(expDecay, 1, 1, []float64{1}); !errors.Is(err, ErrBadInterval) {
		t.Errorf("empty interval: err = %v, want ErrBadInterval", err)
	}
	if _, err := m.Integrate(expDecay, 2, 1, []float64{1}); !errors.Is(err, ErrBadInterval) {
		t.Errorf("reversed interval: err = %v, want ErrBadInterval", err)
	}
	ad := NewDormandPrince(0, 0)
	if _, err := ad.Integrate(expDecay, 2, 1, []float64{1}); !errors.Is(err, ErrBadInterval) {
		t.Errorf("reversed interval adaptive: err = %v", err)
	}
}

func TestBadStep(t *testing.T) {
	for _, h := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewRK4(h); err == nil {
			t.Errorf("NewRK4(%v) should fail", h)
		}
		if _, err := NewEuler(h); err == nil {
			t.Errorf("NewEuler(%v) should fail", h)
		}
	}
}

func TestRHSErrorPropagates(t *testing.T) {
	bad := func(_ float64, _ []float64, _ []float64) error {
		return errors.New("boom")
	}
	m, _ := NewRK4(0.1)
	if _, err := m.Integrate(bad, 0, 1, []float64{1}); err == nil {
		t.Error("fixed-step should propagate RHS error")
	}
	ad := NewDormandPrince(0, 0)
	if _, err := ad.Integrate(bad, 0, 1, []float64{1}); err == nil {
		t.Error("adaptive should propagate RHS error")
	}
}

func TestMaxStepsLimit(t *testing.T) {
	ad := &DormandPrince{MaxSteps: 3}
	_, err := ad.Integrate(harmonic, 0, 100, []float64{1, 0})
	if err == nil {
		t.Error("MaxSteps should abort long integrations")
	}
}

// TestResultRowsAreIndependent: the rows of a Result share one backing
// buffer; each must hold its own step and be capped so that appending to one
// cannot overwrite the next.
func TestResultRowsAreIndependent(t *testing.T) {
	rk4, _ := NewRK4(0.25)
	for _, m := range []Method{rk4, NewDormandPrince(0, 0)} {
		res, err := m.Integrate(harmonic, 0, 1, []float64{1, 0})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.States) != len(res.Times) || res.States[0][0] != 1 || res.States[0][1] != 0 {
			t.Fatalf("%s: %d rows for %d times, first row %v", m.Name(), len(res.States), len(res.Times), res.States[0])
		}
		next := append([]float64(nil), res.States[1]...)
		_ = append(res.States[0], 99)
		if res.States[1][0] != next[0] || len(res.States[0]) != 2 {
			t.Errorf("%s: appending to row 0 changed row 1", m.Name())
		}
	}
}

func TestFixedStepHitsEndExactly(t *testing.T) {
	// Step 0.3 does not divide 1.0; last step must be truncated to land on 1.
	m, _ := NewRK4(0.3)
	res, err := m.Integrate(expDecay, 0, 1, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	last := res.Times[len(res.Times)-1]
	if last != 1.0 {
		t.Errorf("last time = %v, want exactly 1.0", last)
	}
}

func TestConvergenceOrder(t *testing.T) {
	// Halving the step of RK4 should reduce error ~16x (4th order).
	errAt := func(h float64) float64 {
		m, _ := NewRK4(h)
		res, err := m.Integrate(expDecay, 0, 1, []float64{1})
		if err != nil {
			t.Fatal(err)
		}
		got := res.States[len(res.States)-1][0]
		return math.Abs(got - math.Exp(-1))
	}
	e1 := errAt(0.1)
	e2 := errAt(0.05)
	ratio := e1 / e2
	if ratio < 10 || ratio > 25 {
		t.Errorf("RK4 error ratio for halved step = %v, want ≈16", ratio)
	}
}

func TestNames(t *testing.T) {
	e, _ := NewEuler(1)
	h, _ := NewHeun(1)
	r, _ := NewRK4(1)
	d := NewDormandPrince(0, 0)
	for _, c := range []struct {
		m    Method
		want string
	}{{e, "euler"}, {h, "heun"}, {r, "rk4"}, {d, "dopri5"}} {
		if c.m.Name() != c.want {
			t.Errorf("Name = %q, want %q", c.m.Name(), c.want)
		}
	}
	if e.Step() != 1 {
		t.Error("Step accessor wrong")
	}
}
