package estimate

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/timeseries"
)

// Options bundles the configuration of a full estimation run.
type Options struct {
	GA    GAOptions
	Local LocalOptions
	// Trace enables iteration traces in both phases.
	Trace bool
}

// EstimateSI runs the paper's Algorithm 2 (single-instance): Global Search
// to locate the basin, then gradient-based Local-after-Global to refine, and
// returns the fitted parameters with the training RMSE. Cancelling ctx
// stops the run within one objective evaluation per worker.
func EstimateSI(ctx context.Context, p *Problem, opts Options) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	opts.GA.Trace = opts.GA.Trace || opts.Trace
	opts.Local.Trace = opts.Local.Trace || opts.Trace

	gBest, _, gEvals, gTrace, err := GlobalSearch(ctx, p, opts.GA)
	if err != nil {
		return nil, fmt.Errorf("estimate: global search: %w", err)
	}
	opts.Local.Phase = "LaG"
	lBest, lCost, lEvals, lTrace, err := LocalSearch(ctx, p, gBest, opts.Local)
	if err != nil {
		return nil, fmt.Errorf("estimate: local search: %w", err)
	}
	res := p.resultFrom(lBest, lCost, gEvals+lEvals, append(gTrace, lTrace...), false)
	return res, nil
}

// EstimateLO runs Local-Only search from a warm start — the optimization the
// MI path applies once the similarity gate passes (same algorithm as LaG
// with different initial parameter values, per §6).
func EstimateLO(ctx context.Context, p *Problem, warmStart map[string]float64, opts Options) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	start := make([]float64, len(p.Params))
	for i, ps := range p.Params {
		v, ok := warmStart[ps.Name]
		if !ok {
			return nil, fmt.Errorf("estimate: warm start missing parameter %q", ps.Name)
		}
		start[i] = clip(v, ps.Lo, ps.Hi)
	}
	opts.Local.Trace = opts.Local.Trace || opts.Trace
	opts.Local.Phase = "LO"
	best, cost, evals, trace, err := LocalSearch(ctx, p, start, opts.Local)
	if err != nil {
		return nil, fmt.Errorf("estimate: local-only search: %w", err)
	}
	return p.resultFrom(best, cost, evals, trace, true), nil
}

// MIJob is one instance's estimation task inside a multi-instance run.
type MIJob struct {
	// Problem is the per-instance estimation problem.
	Problem *Problem
	// ModelID identifies the parent FMU; the MI shortcut only applies
	// between instances of the same parent model (Algorithm 3 line 8).
	ModelID string
}

// DefaultSimilarityThreshold is the paper's chosen MI gate: 20% relative L2
// dissimilarity (§8.1, justified by Figure 6).
const DefaultSimilarityThreshold = 0.20

// Dissimilarity computes the maximum relative L2 distance between the
// reference job's series and another job's, across all shared measured and
// input columns — the gate metric of Algorithm 3 line 11.
func Dissimilarity(ref, other *Problem) (float64, error) {
	maxDist := 0.0
	compared := 0
	compare := func(a, b map[string]*timeseries.Series) error {
		for name, sa := range a {
			sb, ok := b[name]
			if !ok {
				continue
			}
			// Resample onto the reference grid so differently sampled series
			// remain comparable.
			rb, err := sb.Resample(sa.Times, timeseries.Linear)
			if err != nil {
				return err
			}
			d, err := timeseries.RelativeL2Distance(sa, rb)
			if err != nil {
				return err
			}
			maxDist = math.Max(maxDist, d)
			compared++
		}
		return nil
	}
	if err := compare(ref.Measured, other.Measured); err != nil {
		return 0, err
	}
	if err := compare(ref.Inputs, other.Inputs); err != nil {
		return 0, err
	}
	if compared == 0 {
		return 0, fmt.Errorf("estimate: jobs share no measured or input series to compare")
	}
	return maxDist, nil
}

// EstimateMI runs the paper's Algorithm 3 over n jobs. The first job always
// gets the full G+LaG treatment; subsequent jobs of the same parent model
// whose measurements are within threshold of the first job's reuse its
// optimum as a warm start and run LO only. Dissimilar jobs (or jobs of a
// different model) fall back to the full SI path. threshold <= 0 picks
// DefaultSimilarityThreshold. The jobs after the first run concurrently
// (ForEach), and a failure reports the lowest-index failing job. Cancelling
// ctx stops the whole fan-out within one objective evaluation per worker.
func EstimateMI(ctx context.Context, jobs []*MIJob, threshold float64, opts Options) ([]*Result, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("estimate: no jobs")
	}
	if threshold <= 0 {
		threshold = DefaultSimilarityThreshold
	}
	results := make([]*Result, len(jobs))

	first, err := EstimateSI(ctx, jobs[0].Problem, opts)
	if err != nil {
		return nil, fmt.Errorf("estimate: MI job 0: %w", err)
	}
	results[0] = first

	// The remaining jobs are independent given the reference optimum (the
	// paper's §9 future work: FMU runs scheduled on every core).
	err = ForEach(len(jobs)-1, func(k int) error {
		i, job := k+1, jobs[k+1]
		useWarm := false
		if job.ModelID == jobs[0].ModelID {
			d, err := Dissimilarity(jobs[0].Problem, job.Problem)
			if err != nil {
				return fmt.Errorf("estimate: MI job %d similarity: %w", i, err)
			}
			useWarm = d < threshold
		}
		if useWarm {
			res, err := EstimateLO(ctx, job.Problem, first.Params, opts)
			if err != nil {
				return fmt.Errorf("estimate: MI job %d (LO): %w", i, err)
			}
			results[i] = res
			return nil
		}
		res, err := EstimateSI(ctx, job.Problem, opts)
		if err != nil {
			return fmt.Errorf("estimate: MI job %d (SI fallback): %w", i, err)
		}
		results[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return results, nil
}

// Apply writes a result's fitted parameters back into the problem's instance
// (Algorithm 2 line 8: update ModelInstanceValues with parsEstimated).
func Apply(p *Problem, r *Result) error {
	return p.Instance.SetParameters(r.Params)
}

// Validate computes the RMSE of the instance's *current* parameters against
// a hold-out window [t0, t1] — the model-validation step of the workflow.
func Validate(p *Problem, t0, t1 float64) (float64, error) {
	hold := &Problem{
		Instance: p.Instance,
		Params:   p.Params,
		Inputs:   p.Inputs,
		Measured: p.Measured,
		T0:       t0,
		T1:       t1,
		Method:   p.Method,
	}
	if err := hold.Validate(); err != nil {
		return 0, err
	}
	current := make([]float64, len(p.Params))
	for i, ps := range p.Params {
		v, err := p.Instance.GetReal(ps.Name)
		if err != nil {
			return 0, err
		}
		current[i] = v
	}
	return hold.Cost(current)
}

// ForEach runs fn(i) for every i in [0, n) on up to runtime.GOMAXPROCS(0)
// goroutines, the caller's included, and returns the error of the lowest
// failing index: the error a serial loop over i would have stopped at.
// Indices are claimed in increasing order and none is claimed after a
// failure, so every index below a failing one has run to completion.
func ForEach(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var next atomic.Int64
	var failed atomic.Bool
	work := func() {
		for !failed.Load() {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			if errs[i] = fn(i); errs[i] != nil {
				failed.Store(true)
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(runtime.GOMAXPROCS(0), n); w++ {
		wg.Add(1)
		go func() { defer wg.Done(); work() }()
	}
	work()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// search is one optimizer run's access to the objective: it polls ctx
// before every evaluation and counts the evaluations. cost is Problem.Cost.
type search struct {
	ctx    context.Context
	params []ParamSpec
	cost   func([]float64) (float64, error)
	evals  int
}

func newSearch(ctx context.Context, p *Problem) *search {
	if ctx == nil {
		ctx = context.Background()
	}
	return &search{ctx: ctx, params: p.Params, cost: p.Cost}
}

// project clips x into the bounds in place and returns it.
func (s *search) project(x []float64) []float64 {
	for i, ps := range s.params {
		x[i] = clip(x[i], ps.Lo, ps.Hi)
	}
	return x
}

// score evaluates one candidate.
func (s *search) score(x []float64) (float64, error) {
	costs, _, err := s.scoreAll([][]float64{x})
	return costs[0], err
}

// scoreAll evaluates a batch of candidates, all fixed before any is scored,
// on ForEach and returns their costs in candidate order: each cost depends on
// its candidate alone, so costs and error are those of a serial loop. done
// counts the leading candidates that were scored without error (all of them
// when err is nil); ForEach runs every index below the lowest failing one.
// The whole batch counts as evaluated, even when it fails.
func (s *search) scoreAll(xs [][]float64) (costs []float64, done int, err error) {
	costs = make([]float64, len(xs))
	ok := make([]bool, len(xs))
	err = ForEach(len(xs), func(i int) (err error) {
		if err = s.ctx.Err(); err == nil {
			costs[i], err = s.cost(xs[i])
		}
		ok[i] = err == nil
		return err
	})
	for done < len(xs) && ok[done] {
		done++
	}
	s.evals += len(xs)
	return costs, done, err
}
