// Package timeseries provides the time-series machinery shared by FMU
// simulation inputs, parameter estimation, and the dataset generators:
// a Series type over a numeric time axis, interpolation, resampling,
// similarity (L2 norm, as used by the paper's multi-instance gate), and the
// RMSE/MAE error metrics used for model-quality evaluation.
package timeseries

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrEmpty is returned by operations that need at least one sample.
var ErrEmpty = errors.New("timeseries: empty series")

// ErrLengthMismatch is returned when two series must align sample-for-sample.
var ErrLengthMismatch = errors.New("timeseries: length mismatch")

// Series is a sequence of (time, value) samples with strictly increasing
// times. Time is model time in seconds (FMUs use a real-valued time axis;
// wall-clock timestamps are converted before entering the numeric layer).
type Series struct {
	Times  []float64
	Values []float64
}

// New creates a Series after validating that times and values have equal
// length and times strictly increase.
func New(times, values []float64) (*Series, error) {
	if len(times) != len(values) {
		return nil, fmt.Errorf("%w: %d times vs %d values", ErrLengthMismatch, len(times), len(values))
	}
	for i := 1; i < len(times); i++ {
		if times[i] <= times[i-1] {
			return nil, fmt.Errorf("timeseries: times not strictly increasing at index %d (%v >= %v)", i, times[i-1], times[i])
		}
	}
	return &Series{Times: times, Values: values}, nil
}

// MustNew is New that panics on invalid input; for fixtures.
func MustNew(times, values []float64) *Series {
	s, err := New(times, values)
	if err != nil {
		panic(err)
	}
	return s
}

// Uniform builds a series with n samples spaced step apart starting at start,
// with values produced by f.
func Uniform(start, step float64, n int, f func(t float64) float64) *Series {
	times := make([]float64, n)
	values := make([]float64, n)
	for i := range times {
		t := start + float64(i)*step
		times[i] = t
		values[i] = f(t)
	}
	return &Series{Times: times, Values: values}
}

// Len reports the number of samples.
func (s *Series) Len() int { return len(s.Times) }

// Clone returns a deep copy.
func (s *Series) Clone() *Series {
	return &Series{
		Times:  append([]float64(nil), s.Times...),
		Values: append([]float64(nil), s.Values...),
	}
}

// Append adds a sample; time must exceed the last time.
func (s *Series) Append(t, v float64) error {
	if n := len(s.Times); n > 0 && t <= s.Times[n-1] {
		return fmt.Errorf("timeseries: time %v not after last time %v", t, s.Times[n-1])
	}
	s.Times = append(s.Times, t)
	s.Values = append(s.Values, v)
	return nil
}

// Start returns the first sample time.
func (s *Series) Start() (float64, error) {
	if s.Len() == 0 {
		return 0, ErrEmpty
	}
	return s.Times[0], nil
}

// End returns the last sample time.
func (s *Series) End() (float64, error) {
	if s.Len() == 0 {
		return 0, ErrEmpty
	}
	return s.Times[s.Len()-1], nil
}

// Interpolation selects how values between samples are reconstructed.
type Interpolation int

const (
	// Linear interpolates linearly between neighbouring samples; FMI
	// continuous inputs use this.
	Linear Interpolation = iota
	// Hold uses the previous sample's value (zero-order hold); FMI discrete
	// inputs use this.
	Hold
)

// At evaluates the series at time t using the given interpolation. Times
// before the first sample clamp to the first value; after the last, to the
// last value (the behaviour PyFMI input objects exhibit).
func (s *Series) At(t float64, mode Interpolation) (float64, error) {
	n := s.Len()
	if n == 0 {
		return 0, ErrEmpty
	}
	if t <= s.Times[0] {
		return s.Values[0], nil
	}
	if t >= s.Times[n-1] {
		return s.Values[n-1], nil
	}
	// idx is the first sample with time > t.
	idx := sort.SearchFloat64s(s.Times, t)
	if idx < n && s.Times[idx] == t {
		return s.Values[idx], nil
	}
	lo, hi := idx-1, idx
	if mode == Hold {
		return s.Values[lo], nil
	}
	return Interpolate(t, s.Times[lo], s.Times[hi], s.Values[lo], s.Values[hi]), nil
}

// Interpolate is the linear interpolation formula of At: the value at t on
// the line through (t0, v0) and (t1, v1). Every reader of a series between
// samples goes through it, so they all round alike.
func Interpolate(t, t0, t1, v0, v1 float64) float64 {
	frac := (t - t0) / (t1 - t0)
	return v0 + frac*(v1-v0)
}

// Cursor reads values on a strictly increasing, non-empty time axis at a
// succession of query times, remembering the segment of the last query and
// walking from there instead of searching. It is meant for queries that
// mostly advance (the stages of an ODE step, a merge of two increasing
// axes); a query may also move backwards, at the cost of the walk. For every
// t that is not NaN it selects the samples At selects; a NaN t reads as NaN
// under Linear.
type Cursor struct {
	times []float64
	i     int // 0 <= i <= max(len(times)-2, 0): last segment was [i, i+1]
}

// NewCursor returns a cursor over times positioned at its start.
func NewCursor(times []float64) Cursor { return Cursor{times: times} }

// Seek locates t on the axis. lo == hi means the value at t is the sample
// lo: t falls on it, or outside the axis and clamps to an end. Otherwise
// hi == lo+1 and times[lo] < t < times[hi].
func (c *Cursor) Seek(t float64) (lo, hi int) {
	times := c.times
	n := len(times)
	if t <= times[0] || n == 1 {
		c.i = 0
		return 0, 0
	}
	if t >= times[n-1] {
		c.i = n - 2
		return n - 1, n - 1
	}
	i := c.i
	for i > 0 && t < times[i] {
		i--
	}
	for i < n-2 && t >= times[i+1] {
		i++
	}
	c.i = i
	if times[i] == t {
		return i, i
	}
	return i, i + 1
}

// At reads values, which runs parallel to the cursor's time axis, at t — what
// Series.At returns for the same series, t and mode.
func (c *Cursor) At(values []float64, t float64, mode Interpolation) float64 {
	lo, hi := c.Seek(t)
	if lo == hi || mode == Hold {
		return values[lo]
	}
	return Interpolate(t, c.times[lo], c.times[hi], values[lo], values[hi])
}

// Resample evaluates the series on a new time grid.
func (s *Series) Resample(times []float64, mode Interpolation) (*Series, error) {
	values := make([]float64, len(times))
	for i, t := range times {
		v, err := s.At(t, mode)
		if err != nil {
			return nil, err
		}
		values[i] = v
	}
	return New(times, values)
}

// Slice returns the sub-series with from <= t <= to.
func (s *Series) Slice(from, to float64) *Series {
	var times, values []float64
	for i, t := range s.Times {
		if t >= from && t <= to {
			times = append(times, t)
			values = append(values, s.Values[i])
		}
	}
	return &Series{Times: times, Values: values}
}

// Scale returns a copy with every value multiplied by factor; the paper's
// MI synthetic datasets are built this way (δ ∈ [0.8, 1.2]).
func (s *Series) Scale(factor float64) *Series {
	out := s.Clone()
	for i := range out.Values {
		out.Values[i] *= factor
	}
	return out
}

// Shift returns a copy with offset added to every value.
func (s *Series) Shift(offset float64) *Series {
	out := s.Clone()
	for i := range out.Values {
		out.Values[i] += offset
	}
	return out
}

// Mean returns the arithmetic mean of the values.
func (s *Series) Mean() (float64, error) {
	if s.Len() == 0 {
		return 0, ErrEmpty
	}
	sum := 0.0
	for _, v := range s.Values {
		sum += v
	}
	return sum / float64(s.Len()), nil
}

// L2Norm returns the Euclidean norm of the value vector.
func (s *Series) L2Norm() float64 {
	sum := 0.0
	for _, v := range s.Values {
		sum += v * v
	}
	return math.Sqrt(sum)
}

// L2Distance returns the Euclidean distance between the value vectors of two
// equally long series — the similarity metric the paper's MI gate uses.
func L2Distance(a, b *Series) (float64, error) {
	if a.Len() != b.Len() {
		return 0, fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, a.Len(), b.Len())
	}
	sum := 0.0
	for i := range a.Values {
		d := a.Values[i] - b.Values[i]
		sum += d * d
	}
	return math.Sqrt(sum), nil
}

// RelativeL2Distance returns L2Distance normalised by the norm of the
// reference series a, expressing dissimilarity as a fraction (the paper's
// threshold is stated in percent: 20%).
func RelativeL2Distance(a, b *Series) (float64, error) {
	d, err := L2Distance(a, b)
	if err != nil {
		return 0, err
	}
	n := a.L2Norm()
	if n == 0 {
		if d == 0 {
			return 0, nil
		}
		return math.Inf(1), nil
	}
	return d / n, nil
}

// RMSE returns the root-mean-square error between two equally long series.
func RMSE(measured, simulated *Series) (float64, error) {
	if measured.Len() != simulated.Len() {
		return 0, fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, measured.Len(), simulated.Len())
	}
	if measured.Len() == 0 {
		return 0, ErrEmpty
	}
	sum := 0.0
	for i := range measured.Values {
		d := measured.Values[i] - simulated.Values[i]
		sum += d * d
	}
	return math.Sqrt(sum / float64(measured.Len())), nil
}

// MAE returns the mean absolute error between two equally long series.
func MAE(measured, simulated *Series) (float64, error) {
	if measured.Len() != simulated.Len() {
		return 0, fmt.Errorf("%w: %d vs %d", ErrLengthMismatch, measured.Len(), simulated.Len())
	}
	if measured.Len() == 0 {
		return 0, ErrEmpty
	}
	sum := 0.0
	for i := range measured.Values {
		sum += math.Abs(measured.Values[i] - simulated.Values[i])
	}
	return sum / float64(measured.Len()), nil
}

// AlignedRMSE resamples simulated onto measured's time grid before computing
// RMSE, so solver output grids need not match the measurement grid.
func AlignedRMSE(measured, simulated *Series) (float64, error) {
	if measured.Len() == 0 || simulated.Len() == 0 {
		return 0, ErrEmpty
	}
	rs, err := simulated.Resample(measured.Times, Linear)
	if err != nil {
		return 0, err
	}
	return RMSE(measured, rs)
}
