package estimate

import (
	"context"
	"fmt"
	"math"
)

// LocalOptions configures the gradient-based Local Search — the paper's
// LaG/LO phase (a projected quasi-Newton method standing in for ModestPy's
// SQP, with a Nelder–Mead fallback for non-smooth objectives).
type LocalOptions struct {
	// MaxIters bounds quasi-Newton iterations; 0 picks 60.
	MaxIters int
	// Tol stops when the cost improvement falls below it; 0 picks 1e-9.
	Tol float64
	// GradStep is the relative finite-difference step; 0 picks 1e-6.
	GradStep float64
	// Phase labels trace points ("LaG" or "LO"); empty picks "LaG".
	Phase string
	// Trace enables per-iteration tracking.
	Trace bool
	// UseNelderMead switches to the derivative-free simplex method.
	UseNelderMead bool
}

func (o LocalOptions) withDefaults() LocalOptions {
	if o.MaxIters == 0 {
		o.MaxIters = 100
	}
	if o.Tol == 0 {
		o.Tol = 1e-10
	}
	if o.GradStep == 0 {
		o.GradStep = 1e-4
	}
	if o.Phase == "" {
		o.Phase = "LaG"
	}
	return o
}

// LocalSearch refines start within the problem bounds and returns the
// optimum, its cost, the number of objective evaluations (the line search's
// speculative ones included), and an optional iteration trace. The context
// is polled before every objective evaluation, so cancellation takes effect
// within one evaluation per worker.
func LocalSearch(ctx context.Context, p *Problem, start []float64, opts LocalOptions) ([]float64, float64, int, []TracePoint, error) {
	opts = opts.withDefaults()
	if len(start) != len(p.Params) {
		return nil, 0, 0, nil, fmt.Errorf("estimate: start point has %d values, want %d", len(start), len(p.Params))
	}
	s := newSearch(ctx, p)
	run := s.quasiNewton
	if opts.UseNelderMead {
		run = s.nelderMead
	}
	best, cost, trace, err := run(start, opts)
	return best, cost, s.evals, trace, err
}

// quasiNewton is a projected BFGS with backtracking line search and
// finite-difference gradients. A gradient's probes are scored as one batch,
// and the line search scores its step lengths in batches of lineWidth.
func (s *search) quasiNewton(start []float64, opts LocalOptions) ([]float64, float64, []TracePoint, error) {
	dim := len(start)
	x := s.project(append([]float64(nil), start...))
	fx, err := s.score(x)
	if err != nil {
		return nil, 0, nil, fmt.Errorf("estimate: local search start: %w", err)
	}

	grad := func(x []float64, fx float64) ([]float64, error) {
		// One-sided differences away from the nearer bound so probes stay
		// feasible: steps[i] is negative for a backward difference.
		steps := make([]float64, dim)
		probes := make([][]float64, dim)
		for i, ps := range s.params {
			h := opts.GradStep * math.Max(math.Abs(x[i]), 1e-3*(ps.Hi-ps.Lo))
			if h == 0 {
				h = opts.GradStep
			}
			if !(x[i]+h <= ps.Hi) {
				h = -h
			}
			steps[i] = h
			probes[i] = append([]float64(nil), x...)
			probes[i][i] = x[i] + h
		}
		costs, _, err := s.scoreAll(probes)
		if err != nil {
			return nil, err
		}
		g := make([]float64, dim)
		for i, h := range steps {
			if h > 0 {
				g[i] = (costs[i] - fx) / h
			} else {
				g[i] = (fx - costs[i]) / -h
			}
		}
		return g, nil
	}

	// H is the inverse Hessian approximation, initialised to identity scaled
	// by parameter ranges so step sizes are well-conditioned.
	H := make([][]float64, dim)
	for i := range H {
		H[i] = make([]float64, dim)
		span := s.params[i].Hi - s.params[i].Lo
		H[i][i] = span * span * 0.01
	}

	g, err := grad(x, fx)
	if err != nil {
		return nil, 0, nil, err
	}

	var trace []TracePoint
	record := func(iter int) {
		if opts.Trace {
			trace = append(trace, TracePoint{Phase: opts.Phase, Iter: iter, Params: append([]float64(nil), x...), Cost: fx})
		}
	}
	record(0)

	for iter := 1; iter <= opts.MaxIters; iter++ {
		// Search direction d = -H g.
		d := make([]float64, dim)
		for i := 0; i < dim; i++ {
			for j := 0; j < dim; j++ {
				d[i] -= H[i][j] * g[j]
			}
		}
		// Ensure descent; fall back to steepest descent otherwise.
		dg := 0.0
		for i := range d {
			dg += d[i] * g[i]
		}
		if dg >= 0 {
			for i := range d {
				span := s.params[i].Hi - s.params[i].Lo
				d[i] = -g[i] * span * span * 0.01
			}
		}

		xNew, fNew, err := s.lineSearch(x, d, fx)
		if err != nil {
			return nil, 0, nil, err
		}
		if xNew == nil {
			break
		}

		gNew, err := grad(xNew, fNew)
		if err != nil {
			return nil, 0, nil, err
		}

		// BFGS update on the inverse Hessian.
		step := make([]float64, dim)
		yv := make([]float64, dim)
		sy := 0.0
		for i := 0; i < dim; i++ {
			step[i] = xNew[i] - x[i]
			yv[i] = gNew[i] - g[i]
			sy += step[i] * yv[i]
		}
		if sy > 1e-12 {
			rho := 1 / sy
			// H = (I - rho s y^T) H (I - rho y s^T) + rho s s^T
			Hy := make([]float64, dim)
			for i := 0; i < dim; i++ {
				for j := 0; j < dim; j++ {
					Hy[i] += H[i][j] * yv[j]
				}
			}
			yHy := 0.0
			for i := 0; i < dim; i++ {
				yHy += yv[i] * Hy[i]
			}
			for i := 0; i < dim; i++ {
				for j := 0; j < dim; j++ {
					H[i][j] += (sy + yHy) * rho * rho * step[i] * step[j]
					H[i][j] -= rho * (Hy[i]*step[j] + step[i]*Hy[j])
				}
			}
		}

		delta := fx - fNew
		x, fx, g = xNew, fNew, gNew
		record(iter)
		if delta < opts.Tol {
			break
		}
	}
	return x, fx, trace, nil
}

// lineWidth is how many step lengths the line search scores at once: a
// constant, not the core count, so that CostEvals is the same on every host.
const lineWidth = 2

// lineSearch backtracks from x along d over the step lengths α = 1, ½, …,
// 2⁻²⁹ and returns the first candidate project(x + α·d), in that order, whose
// cost is below fx, or nil when none is. It scores lineWidth candidates at a
// time (α and α/2; halving is exact), so the step taken, and the error when a
// candidate fails before one improves, are those of a serial loop.
func (s *search) lineSearch(x, d []float64, fx float64) ([]float64, float64, error) {
	alpha := 1.0
	for bt := 0; bt < 30; bt += lineWidth {
		trial := make([][]float64, min(lineWidth, 30-bt))
		for k := range trial {
			trial[k] = make([]float64, len(x))
			for i := range x {
				trial[k][i] = x[i] + alpha*d[i]
			}
			s.project(trial[k])
			alpha *= 0.5
		}
		costs, done, err := s.scoreAll(trial)
		for k, c := range costs[:done] {
			if c < fx {
				return trial[k], c, nil
			}
		}
		if err != nil {
			return nil, 0, err
		}
	}
	return nil, 0, nil
}

// nelderMead is a bounded simplex search. The initial simplex and a shrink
// step are scored as batches; every other step scores one point.
func (s *search) nelderMead(start []float64, opts LocalOptions) ([]float64, float64, []TracePoint, error) {
	dim := len(start)
	// The start, and so the initial and shrunk vertices, may lie outside the
	// box; the objective is scored at their projection. mix clips its points.
	evalAll := func(xs [][]float64) ([]float64, error) {
		clipped := make([][]float64, len(xs))
		for k, x := range xs {
			clipped[k] = s.project(append([]float64(nil), x...))
		}
		costs, _, err := s.scoreAll(clipped)
		return costs, err
	}

	// Initial simplex: start plus a perturbed vertex per dimension.
	simplex := make([][]float64, dim+1)
	simplex[0] = append([]float64(nil), start...)
	for i := 0; i < dim; i++ {
		v := append([]float64(nil), start...)
		ps := s.params[i]
		step := 0.05 * (ps.Hi - ps.Lo)
		v[i] = clip(v[i]+step, ps.Lo, ps.Hi)
		if v[i] == start[i] { // was at the upper bound
			v[i] = clip(start[i]-step, ps.Lo, ps.Hi)
		}
		simplex[i+1] = v
	}
	costs, err := evalAll(simplex)
	if err != nil {
		return nil, 0, nil, fmt.Errorf("estimate: simplex init: %w", err)
	}

	order := func() {
		for i := 1; i < len(simplex); i++ {
			for j := i; j > 0 && costs[j] < costs[j-1]; j-- {
				costs[j], costs[j-1] = costs[j-1], costs[j]
				simplex[j], simplex[j-1] = simplex[j-1], simplex[j]
			}
		}
	}
	order()

	var trace []TracePoint
	record := func(iter int) {
		if opts.Trace {
			trace = append(trace, TracePoint{Phase: opts.Phase, Iter: iter, Params: append([]float64(nil), simplex[0]...), Cost: costs[0]})
		}
	}
	record(0)

	const (
		reflect  = 1.0
		expand   = 2.0
		contract = 0.5
		shrink   = 0.5
	)
	for iter := 1; iter <= opts.MaxIters*dim; iter++ {
		if costs[len(costs)-1]-costs[0] < opts.Tol {
			break
		}
		// Centroid of all but worst.
		centroid := make([]float64, dim)
		for _, v := range simplex[:len(simplex)-1] {
			for i := range centroid {
				centroid[i] += v[i]
			}
		}
		for i := range centroid {
			centroid[i] /= float64(dim)
		}
		worst := simplex[len(simplex)-1]

		mix := func(coef float64) []float64 {
			out := make([]float64, dim)
			for i := range out {
				out[i] = centroid[i] + coef*(centroid[i]-worst[i])
			}
			return s.project(out)
		}

		xr := mix(reflect)
		fr, err := s.score(xr)
		if err != nil {
			return nil, 0, nil, err
		}
		switch {
		case fr < costs[0]:
			xe := mix(expand)
			fe, err := s.score(xe)
			if err != nil {
				return nil, 0, nil, err
			}
			if fe < fr {
				simplex[len(simplex)-1], costs[len(costs)-1] = xe, fe
			} else {
				simplex[len(simplex)-1], costs[len(costs)-1] = xr, fr
			}
		case fr < costs[len(costs)-2]:
			simplex[len(simplex)-1], costs[len(costs)-1] = xr, fr
		default:
			xc := mix(-contract)
			fc, err := s.score(xc)
			if err != nil {
				return nil, 0, nil, err
			}
			if fc < costs[len(costs)-1] {
				simplex[len(simplex)-1], costs[len(costs)-1] = xc, fc
			} else {
				// Shrink toward the best vertex.
				for i := 1; i < len(simplex); i++ {
					for j := range simplex[i] {
						simplex[i][j] = simplex[0][j] + shrink*(simplex[i][j]-simplex[0][j])
					}
				}
				shrunk, err := evalAll(simplex[1:])
				if err != nil {
					return nil, 0, nil, err
				}
				copy(costs[1:], shrunk)
			}
		}
		order()
		record(iter)
	}
	return s.project(append([]float64(nil), simplex[0]...)), costs[0], trace, nil
}
