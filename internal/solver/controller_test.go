package solver

import (
	"math"
	"math/rand"
	"testing"
)

// powController is the step-size controller as written with math.Pow: the
// oracle the Pow-free controller must match bit for bit.
type powController struct{ prev float64 }

func (c *powController) accept(e float64) float64 {
	f := 5.0
	if e != 0 {
		f = math.Min(5, math.Max(0.2, 0.9*math.Pow(e, -0.7/5)*math.Pow(c.prev, 0.4/5)))
	}
	c.prev = math.Max(e, 1e-4)
	return f
}

func powReject(e float64) float64 { return math.Max(0.1, 0.9*math.Pow(e, -1.0/5)) }

// controllerNorms sweeps the error norms the oracle test feeds the
// controllers: zero, subnormals, the clamp 1e-4 and its neighbours, (0, 1],
// (1, 1e6], the extremes, +Inf and NaN.
func controllerNorms() []float64 {
	norms := []float64{
		0, math.Copysign(0, -1), 1, math.SmallestNonzeroFloat64, 2 * math.SmallestNonzeroFloat64,
		0x1p-1030, 0x1p-1022, math.Nextafter(0x1p-1022, 0),
		1e-4, math.Nextafter(1e-4, 0), math.Nextafter(1e-4, 1), math.Nextafter(1, 0), math.Nextafter(1, 2),
		1e6, math.MaxFloat64, math.Inf(1), math.NaN(), math.Inf(-1), -1e-3,
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		norms = append(norms,
			math.Pow(10, -12*rng.Float64()),  // (1e-12, 1]
			rng.Float64(),                    // (0, 1)
			1+rng.Float64()*(1e6-1),          // (1, 1e6)
			math.Pow(10, 6*rng.Float64()),    // (1, 1e6], log-spread
			math.Pow(10, -300*rng.Float64()), // down to 1e-300
		)
	}
	return norms
}

func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b)
}

// TestControllerMatchesPow: the step controller without math.Pow grows and
// shrinks h by exactly the factors the math.Pow expressions give, for every
// norm after every previous accepted norm, and along a long run that carries
// its memory from step to step.
func TestControllerMatchesPow(t *testing.T) {
	norms := controllerNorms()
	for _, e := range norms {
		if got, want := rejectFactor(e), powReject(e); !sameBits(got, want) {
			t.Errorf("reject(%v) = %v, want %v", e, got, want)
		}
	}
	// Every (previous, current) pair, from the start of an integration.
	for _, prev := range norms {
		for _, e := range norms {
			c := piController{powPrev: 1}
			o := powController{prev: 1}
			if got, want := c.accept(prev), o.accept(prev); !sameBits(got, want) {
				t.Fatalf("first accept(%v) = %v, want %v", prev, got, want)
			}
			if got, want := c.accept(e), o.accept(e); !sameBits(got, want) {
				t.Fatalf("accept(%v) after %v = %v, want %v", e, prev, got, want)
			}
		}
	}
	// One long run in a shuffled order.
	rng := rand.New(rand.NewSource(2))
	c := piController{powPrev: 1}
	o := powController{prev: 1}
	for i, j := range rng.Perm(len(norms)) {
		if got, want := c.accept(norms[j]), o.accept(norms[j]); !sameBits(got, want) {
			t.Fatalf("step %d: accept(%v) = %v, want %v", i, norms[j], got, want)
		}
	}
}

// TestStatsCountTheWork: Result's counts agree with the trajectory and with
// the stages each method evaluates per step.
func TestStatsCountTheWork(t *testing.T) {
	rk4, _ := NewRK4(0.25)
	res, err := rk4.Integrate(harmonic, 0, 1, []float64{1, 0})
	if err != nil {
		t.Fatal(err)
	}
	if want := (Stats{Accepted: 4, RHSCalls: 16}); res.Stats != want {
		t.Errorf("rk4: %+v, want %+v", res.Stats, want)
	}
	// A fast transient from a large first step: the controller must reject.
	stiff := func(_ float64, x []float64, dxdt []float64) error {
		dxdt[0] = -50 * (x[0] - math.Exp(-0.1))
		return nil
	}
	res, err = NewDormandPrince(1e-6, 1e-8).Integrate(stiff, 0, 10, []float64{5})
	if err != nil {
		t.Fatal(err)
	}
	s := res.Stats
	if s.Accepted != len(res.Times)-1 || s.Rejected == 0 || s.RHSCalls != 1+6*(s.Accepted+s.Rejected) {
		t.Errorf("dopri5: %+v for %d times", s, len(res.Times))
	}
}
