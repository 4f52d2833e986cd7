package fmu

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/timeseries"
)

// TestSeriesInputMatchesAt: the input read that keeps its open segment
// returns, bit for bit, what Series.At returns, under Linear and Hold, for
// query times that advance inside a segment, land on the segment's end or
// any other sample, repeat, step back, and fall before the first or after
// the last sample; one-sample series and NaN or infinite samples included.
// A NaN time reads NaN under Linear.
func TestSeriesInputMatchesAt(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 400; trial++ {
		n := 1 + rng.Intn(30)
		times := make([]float64, n)
		values := make([]float64, n)
		tm := rng.NormFloat64() * 10
		for i := range times {
			tm += 0.01 + rng.Float64()*3
			times[i], values[i] = tm, rng.NormFloat64()*100
			if trial%4 == 3 {
				switch rng.Intn(8) {
				case 0:
					values[i] = math.NaN()
				case 1:
					values[i] = math.Inf(1 - 2*rng.Intn(2))
				}
			}
		}
		s := timeseries.MustNew(times, values)
		span := times[n-1] - times[0] + 1
		for _, mode := range []timeseries.Interpolation{timeseries.Linear, timeseries.Hold} {
			in := newSeriesInput(0, s)
			q := times[0]
			for k := 0; k < 200; k++ {
				switch rng.Intn(8) {
				case 0: // any sample
					q = times[rng.Intn(n)]
				case 1: // the end of the segment q is in
					if i := sort.SearchFloat64s(times, q); i < n {
						q = times[i]
					}
				case 2: // anywhere, including outside both ends
					q = times[0] - 0.2*span + rng.Float64()*1.4*span
				case 3: // a small step back, as after a rejected solver step
					q -= rng.Float64() * 0.5
				case 4: // the same time again, as for an ODE step's last stages
				default: // forward, as within a solver step
					q += rng.Float64() * 0.7
				}
				want, err := s.At(q, mode)
				if err != nil {
					t.Fatal(err)
				}
				if got := in.at(q, mode); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("trial %d query %d: read %v, At %v (t=%v mode=%v n=%d)", trial, k, got, want, q, mode, n)
				}
			}
			if v := in.at(math.NaN(), mode); mode == timeseries.Linear && n > 1 && !math.IsNaN(v) {
				t.Fatalf("trial %d: NaN time read %v", trial, v)
			}
		}
	}
}
