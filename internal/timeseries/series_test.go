package timeseries

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New([]float64{0, 1}, []float64{1}); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := New([]float64{0, 0}, []float64{1, 2}); err == nil {
		t.Error("non-increasing times should fail")
	}
	if _, err := New([]float64{1, 0}, []float64{1, 2}); err == nil {
		t.Error("decreasing times should fail")
	}
	s, err := New([]float64{0, 1, 2}, []float64{5, 6, 7})
	if err != nil {
		t.Fatalf("valid New failed: %v", err)
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d, want 3", s.Len())
	}
}

func TestMustNewPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustNew should panic on invalid input")
		}
	}()
	MustNew([]float64{1, 0}, []float64{0, 0})
}

func TestUniform(t *testing.T) {
	s := Uniform(0, 0.5, 5, func(t float64) float64 { return 2 * t })
	if s.Len() != 5 {
		t.Fatalf("Len = %d, want 5", s.Len())
	}
	if s.Times[4] != 2.0 || s.Values[4] != 4.0 {
		t.Errorf("last sample = (%v, %v), want (2, 4)", s.Times[4], s.Values[4])
	}
}

func TestAppend(t *testing.T) {
	s := &Series{}
	if err := s.Append(0, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(1, 3); err == nil {
		t.Error("Append with non-increasing time should fail")
	}
	if err := s.Append(0.5, 3); err == nil {
		t.Error("Append with earlier time should fail")
	}
}

func TestStartEnd(t *testing.T) {
	s := MustNew([]float64{1, 2, 3}, []float64{0, 0, 0})
	start, err := s.Start()
	if err != nil || start != 1 {
		t.Errorf("Start = %v, %v", start, err)
	}
	end, err := s.End()
	if err != nil || end != 3 {
		t.Errorf("End = %v, %v", end, err)
	}
	empty := &Series{}
	if _, err := empty.Start(); err == nil {
		t.Error("Start of empty should fail")
	}
	if _, err := empty.End(); err == nil {
		t.Error("End of empty should fail")
	}
}

func TestAtLinear(t *testing.T) {
	s := MustNew([]float64{0, 1, 2}, []float64{0, 10, 0})
	cases := []struct {
		t    float64
		want float64
	}{
		{-1, 0},  // clamp before
		{0, 0},   // exact
		{0.5, 5}, // interior
		{1, 10},  // exact interior
		{1.25, 7.5},
		{2, 0}, // exact end
		{3, 0}, // clamp after
	}
	for _, c := range cases {
		got, err := s.At(c.t, Linear)
		if err != nil {
			t.Errorf("At(%v): %v", c.t, err)
			continue
		}
		if math.Abs(got-c.want) > 1e-12 {
			t.Errorf("At(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}

func TestAtHold(t *testing.T) {
	s := MustNew([]float64{0, 1, 2}, []float64{5, 7, 9})
	got, _ := s.At(0.99, Hold)
	if got != 5 {
		t.Errorf("Hold At(0.99) = %v, want 5", got)
	}
	got, _ = s.At(1.0, Hold)
	if got != 7 {
		t.Errorf("Hold At(1.0) = %v, want 7", got)
	}
	got, _ = s.At(1.5, Hold)
	if got != 7 {
		t.Errorf("Hold At(1.5) = %v, want 7", got)
	}
}

func TestAtEmpty(t *testing.T) {
	s := &Series{}
	if _, err := s.At(0, Linear); err == nil {
		t.Error("At on empty series should fail")
	}
}

func TestResample(t *testing.T) {
	s := MustNew([]float64{0, 2}, []float64{0, 4})
	r, err := s.Resample([]float64{0, 1, 2}, Linear)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 2, 4}
	for i, v := range r.Values {
		if math.Abs(v-want[i]) > 1e-12 {
			t.Errorf("Resample[%d] = %v, want %v", i, v, want[i])
		}
	}
}

func TestSlice(t *testing.T) {
	s := MustNew([]float64{0, 1, 2, 3, 4}, []float64{0, 1, 2, 3, 4})
	sub := s.Slice(1, 3)
	if sub.Len() != 3 || sub.Times[0] != 1 || sub.Times[2] != 3 {
		t.Errorf("Slice = %+v", sub)
	}
}

func TestScaleShift(t *testing.T) {
	s := MustNew([]float64{0, 1}, []float64{2, 4})
	sc := s.Scale(1.5)
	if sc.Values[0] != 3 || sc.Values[1] != 6 {
		t.Errorf("Scale = %v", sc.Values)
	}
	// original untouched
	if s.Values[0] != 2 {
		t.Error("Scale must not mutate the receiver")
	}
	sh := s.Shift(10)
	if sh.Values[0] != 12 || sh.Values[1] != 14 {
		t.Errorf("Shift = %v", sh.Values)
	}
}

func TestMean(t *testing.T) {
	s := MustNew([]float64{0, 1, 2}, []float64{1, 2, 3})
	m, err := s.Mean()
	if err != nil || m != 2 {
		t.Errorf("Mean = %v, %v", m, err)
	}
	if _, err := (&Series{}).Mean(); err == nil {
		t.Error("Mean of empty should fail")
	}
}

func TestL2NormAndDistance(t *testing.T) {
	a := MustNew([]float64{0, 1}, []float64{3, 4})
	if got := a.L2Norm(); math.Abs(got-5) > 1e-12 {
		t.Errorf("L2Norm = %v, want 5", got)
	}
	b := MustNew([]float64{0, 1}, []float64{0, 0})
	d, err := L2Distance(a, b)
	if err != nil || math.Abs(d-5) > 1e-12 {
		t.Errorf("L2Distance = %v, %v; want 5", d, err)
	}
	short := MustNew([]float64{0}, []float64{0})
	if _, err := L2Distance(a, short); err == nil {
		t.Error("L2Distance with length mismatch should fail")
	}
}

func TestRelativeL2Distance(t *testing.T) {
	a := MustNew([]float64{0, 1}, []float64{3, 4})
	b := a.Scale(1.2)
	d, err := RelativeL2Distance(a, b)
	if err != nil {
		t.Fatal(err)
	}
	// Scaling by 1.2 gives relative distance exactly 0.2.
	if math.Abs(d-0.2) > 1e-12 {
		t.Errorf("RelativeL2Distance = %v, want 0.2", d)
	}
	zero := MustNew([]float64{0, 1}, []float64{0, 0})
	d, err = RelativeL2Distance(zero, zero)
	if err != nil || d != 0 {
		t.Errorf("zero/zero relative distance = %v, %v", d, err)
	}
	d, err = RelativeL2Distance(zero, a)
	if err != nil || !math.IsInf(d, 1) {
		t.Errorf("zero/nonzero relative distance = %v, %v; want +Inf", d, err)
	}
}

func TestRMSEAndMAE(t *testing.T) {
	m := MustNew([]float64{0, 1, 2, 3}, []float64{1, 2, 3, 4})
	s := MustNew([]float64{0, 1, 2, 3}, []float64{1, 2, 3, 4})
	r, err := RMSE(m, s)
	if err != nil || r != 0 {
		t.Errorf("identical RMSE = %v, %v", r, err)
	}
	s2 := MustNew([]float64{0, 1, 2, 3}, []float64{2, 3, 4, 5})
	r, _ = RMSE(m, s2)
	if math.Abs(r-1) > 1e-12 {
		t.Errorf("offset-1 RMSE = %v, want 1", r)
	}
	a, _ := MAE(m, s2)
	if math.Abs(a-1) > 1e-12 {
		t.Errorf("offset-1 MAE = %v, want 1", a)
	}
	if _, err := RMSE(m, MustNew([]float64{0}, []float64{0})); err == nil {
		t.Error("RMSE length mismatch should fail")
	}
	if _, err := RMSE(&Series{}, &Series{}); err == nil {
		t.Error("RMSE of empty should fail")
	}
	if _, err := MAE(m, MustNew([]float64{0}, []float64{0})); err == nil {
		t.Error("MAE length mismatch should fail")
	}
}

func TestAlignedRMSE(t *testing.T) {
	measured := MustNew([]float64{0, 1, 2}, []float64{0, 1, 2})
	// Simulated on a denser grid but identical underlying line.
	simulated := Uniform(0, 0.25, 9, func(t float64) float64 { return t })
	r, err := AlignedRMSE(measured, simulated)
	if err != nil || math.Abs(r) > 1e-12 {
		t.Errorf("AlignedRMSE = %v, %v; want 0", r, err)
	}
	if _, err := AlignedRMSE(&Series{}, simulated); err == nil {
		t.Error("AlignedRMSE with empty measured should fail")
	}
}

func TestRMSEGreaterEqualZeroProperty(t *testing.T) {
	f := func(vals []float64) bool {
		n := len(vals)
		if n == 0 || n > 50 {
			return true
		}
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e150 {
				return true
			}
		}
		times := make([]float64, n)
		zeros := make([]float64, n)
		for i := range times {
			times[i] = float64(i)
		}
		a := MustNew(times, vals)
		b := MustNew(times, zeros)
		r, err := RMSE(a, b)
		return err == nil && r >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestScaleRelativeDistanceProperty(t *testing.T) {
	// Property: RelativeL2Distance(s, s.Scale(1+d)) == |d| for nonzero series.
	f := func(seed uint8) bool {
		d := (float64(seed)/255)*0.4 - 0.2 // d in [-0.2, 0.2]
		s := Uniform(0, 1, 24, func(t float64) float64 { return 20 + math.Sin(t) })
		got, err := RelativeL2Distance(s, s.Scale(1+d))
		return err == nil && math.Abs(got-math.Abs(d)) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestClone(t *testing.T) {
	s := MustNew([]float64{0, 1}, []float64{1, 2})
	c := s.Clone()
	c.Values[0] = 99
	if s.Values[0] == 99 {
		t.Error("Clone must deep-copy values")
	}
}

// TestCursorMatchesAt: on random series and random non-monotone query
// sequences a Cursor returns, bit for bit, what Series.At returns — clamped
// ends, exact hits, Hold and Linear, single-sample series included.
func TestCursorMatchesAt(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 300; trial++ {
		n := 1 + rng.Intn(40)
		times := make([]float64, n)
		values := make([]float64, n)
		tm := rng.NormFloat64() * 10
		for i := range times {
			tm += 0.01 + rng.Float64()*3
			times[i], values[i] = tm, rng.NormFloat64()*100
		}
		s := MustNew(times, values)
		span := times[n-1] - times[0] + 1
		cur := NewCursor(s.Times)
		q := times[0]
		for k := 0; k < 200; k++ {
			switch rng.Intn(6) {
			case 0: // exact hit
				q = times[rng.Intn(n)]
			case 1: // anywhere, including outside both ends
				q = times[0] - 0.2*span + rng.Float64()*1.4*span
			case 2: // a small step back, as after a rejected solver step
				q -= rng.Float64() * 0.5
			default: // forward, as within a solver step
				q += rng.Float64() * 0.7
			}
			for _, mode := range []Interpolation{Linear, Hold} {
				want, err := s.At(q, mode)
				if err != nil {
					t.Fatal(err)
				}
				if got := cur.At(s.Values, q, mode); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d query %d: cursor %v, At %v (t=%v mode=%v n=%d)", trial, k, got, want, q, mode, n)
				}
			}
		}
		if v := cur.At(s.Values, math.NaN(), Linear); n > 1 && !math.IsNaN(v) {
			t.Fatalf("NaN query read %v", v)
		}
	}
}
