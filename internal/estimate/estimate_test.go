package estimate

import (
	"context"
	"math"
	"runtime"
	"testing"

	"repro/internal/fmu"
	"repro/internal/timeseries"
)

// trueA/trueB/trueE are the ground-truth parameters used to synthesize
// measurements; estimation must recover them.
const (
	trueA = -0.4444
	trueB = 13.78
	trueE = 4.4444
)

const hpSource = `
model heatpump
  parameter Real A = 0 (min=-2, max=0.5);
  parameter Real B = 0 (min=0, max=30);
  parameter Real E = 0 (min=0, max=15);
  input Real u(start=0);
  Real x(start=20.0);
  output Real y;
equation
  der(x) = A*x + B*u + E;
  y = 7.8*u;
end heatpump;
`

// synthProblem builds an estimation problem whose measurements come from
// simulating the true model, optionally scaled by delta for MI tests.
func synthProblem(t *testing.T, delta float64) *Problem {
	t.Helper()
	unit, err := fmu.CompileModelica(hpSource)
	if err != nil {
		t.Fatal(err)
	}
	truth := unit.Instantiate("truth")
	for name, v := range map[string]float64{"A": trueA, "B": trueB, "E": trueE} {
		if err := truth.SetReal(name, v); err != nil {
			t.Fatal(err)
		}
	}
	// Varying input over 24 hours.
	u := timeseries.Uniform(0, 1, 25, func(tm float64) float64 {
		return 0.5 + 0.5*math.Sin(tm/4)
	})
	res, err := truth.Simulate(map[string]*timeseries.Series{"u": u}, 0, 24, &fmu.SimOptions{OutputStep: 1})
	if err != nil {
		t.Fatal(err)
	}
	measured, err := res.Series("x")
	if err != nil {
		t.Fatal(err)
	}
	measured = measured.Scale(delta)
	inputs := map[string]*timeseries.Series{"u": u.Scale(delta)}

	inst := unit.Instantiate("candidate")
	return &Problem{
		Instance: inst,
		Params: []ParamSpec{
			{Name: "A", Lo: -2, Hi: 0.5},
			{Name: "B", Lo: 0, Hi: 30},
			{Name: "E", Lo: 0, Hi: 15},
		},
		Inputs:   inputs,
		Measured: map[string]*timeseries.Series{"x": measured},
	}
}

func TestValidateFillsWindow(t *testing.T) {
	p := synthProblem(t, 1)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.T0 != 0 || p.T1 != 24 {
		t.Errorf("window = [%v, %v], want [0, 24]", p.T0, p.T1)
	}
}

func TestValidateErrors(t *testing.T) {
	base := synthProblem(t, 1)
	cases := []struct {
		name   string
		mutate func(*Problem)
	}{
		{"nil instance", func(p *Problem) { p.Instance = nil }},
		{"no params", func(p *Problem) { p.Params = nil }},
		{"unknown param", func(p *Problem) { p.Params = []ParamSpec{{Name: "zzz", Lo: 0, Hi: 1}} }},
		{"duplicate param", func(p *Problem) {
			p.Params = []ParamSpec{{Name: "A", Lo: 0, Hi: 1}, {Name: "A", Lo: 0, Hi: 1}}
		}},
		{"nan bounds", func(p *Problem) { p.Params = []ParamSpec{{Name: "A", Lo: math.NaN(), Hi: 1}} }},
		{"empty range", func(p *Problem) { p.Params = []ParamSpec{{Name: "A", Lo: 1, Hi: 1}} }},
		{"no measured", func(p *Problem) { p.Measured = nil }},
		{"measured not output", func(p *Problem) {
			p.Measured = map[string]*timeseries.Series{"u": p.Inputs["u"]}
		}},
		{"short measured", func(p *Problem) {
			p.Measured = map[string]*timeseries.Series{"x": timeseries.MustNew([]float64{0}, []float64{1})}
		}},
		{"reversed window", func(p *Problem) { p.T0, p.T1 = 10, 5 }},
	}
	for _, c := range cases {
		p := synthProblem(t, 1)
		*p = *base
		fresh := synthProblem(t, 1)
		c.mutate(fresh)
		if err := fresh.Validate(); err == nil {
			t.Errorf("%s: Validate should fail", c.name)
		}
	}
}

func TestCostZeroAtTruth(t *testing.T) {
	p := synthProblem(t, 1)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	cost, err := p.Cost([]float64{trueA, trueB, trueE})
	if err != nil {
		t.Fatal(err)
	}
	// The floor is interpolation noise between the data-generation grid and
	// the objective's solver grid, not estimation bias.
	if cost > 0.02 {
		t.Errorf("cost at truth = %v, want ~0", cost)
	}
	wrong, err := p.Cost([]float64{-1.5, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if wrong < cost*10 && wrong < 0.1 {
		t.Errorf("cost away from truth = %v, should be clearly worse than %v", wrong, cost)
	}
}

func TestCostArityError(t *testing.T) {
	p := synthProblem(t, 1)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Cost([]float64{1}); err == nil {
		t.Error("wrong arity should fail")
	}
}

func TestCostDoesNotMutateInstance(t *testing.T) {
	p := synthProblem(t, 1)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	before, _ := p.Instance.GetReal("A")
	if _, err := p.Cost([]float64{-1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	after, _ := p.Instance.GetReal("A")
	if before != after {
		t.Error("Cost must not mutate the problem instance")
	}
}

func TestGlobalSearchFindsBasin(t *testing.T) {
	p := synthProblem(t, 1)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	best, cost, evals, trace, err := GlobalSearch(context.Background(), p, GAOptions{Population: 24, Generations: 12, Seed: 7, Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if evals == 0 {
		t.Error("GA should report evaluations")
	}
	if len(trace) != 13 { // init + 12 generations
		t.Errorf("trace length = %d, want 13", len(trace))
	}
	if cost > 2.0 {
		t.Errorf("GA best cost = %v; expected to land in the basin (< 2)", cost)
	}
	if len(best) != 3 {
		t.Errorf("best dim = %d", len(best))
	}
	// Trace costs must be non-increasing (elitism).
	for i := 1; i < len(trace); i++ {
		if trace[i].Cost > trace[i-1].Cost+1e-12 {
			t.Errorf("GA best cost increased at generation %d: %v -> %v", i, trace[i-1].Cost, trace[i].Cost)
		}
	}
}

func TestGASeedReproducible(t *testing.T) {
	p1 := synthProblem(t, 1)
	p2 := synthProblem(t, 1)
	_ = p1.Validate()
	_ = p2.Validate()
	b1, c1, _, _, err := GlobalSearch(context.Background(), p1, GAOptions{Population: 10, Generations: 5, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b2, c2, _, _, err := GlobalSearch(context.Background(), p2, GAOptions{Population: 10, Generations: 5, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Errorf("same seed, different costs: %v vs %v", c1, c2)
	}
	for i := range b1 {
		if b1[i] != b2[i] {
			t.Errorf("same seed, different best[%d]: %v vs %v", i, b1[i], b2[i])
		}
	}
}

func TestLocalSearchRefines(t *testing.T) {
	p := synthProblem(t, 1)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	start := []float64{trueA + 0.1, trueB - 2, trueE + 1}
	best, cost, _, trace, err := LocalSearch(context.Background(), p, start, LocalOptions{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if cost > 0.05 {
		t.Errorf("local search cost = %v, want near 0", cost)
	}
	if math.Abs(best[0]-trueA) > 0.05 {
		t.Errorf("A = %v, want %v", best[0], trueA)
	}
	if len(trace) == 0 || trace[0].Phase != "LaG" {
		t.Errorf("trace = %+v", trace)
	}
}

func TestLocalSearchArityError(t *testing.T) {
	p := synthProblem(t, 1)
	_ = p.Validate()
	if _, _, _, _, err := LocalSearch(context.Background(), p, []float64{1}, LocalOptions{}); err == nil {
		t.Error("wrong start arity should fail")
	}
}

func TestNelderMeadRefines(t *testing.T) {
	p := synthProblem(t, 1)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	start := []float64{trueA + 0.2, trueB - 3, trueE + 2}
	_, cost, _, _, err := LocalSearch(context.Background(), p, start, LocalOptions{UseNelderMead: true, MaxIters: 80})
	if err != nil {
		t.Fatal(err)
	}
	if cost > 0.1 {
		t.Errorf("nelder-mead cost = %v, want near 0", cost)
	}
}

func TestEstimateSIRecoversParameters(t *testing.T) {
	p := synthProblem(t, 1)
	res, err := EstimateSI(context.Background(), p, Options{GA: GAOptions{Population: 24, Generations: 15, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	if res.RMSE > 0.02 {
		t.Errorf("SI RMSE = %v, want near 0", res.RMSE)
	}
	if math.Abs(res.Params["A"]-trueA) > 0.05 {
		t.Errorf("A = %v, want %v", res.Params["A"], trueA)
	}
	if math.Abs(res.Params["B"]-trueB) > 0.8 {
		t.Errorf("B = %v, want %v", res.Params["B"], trueB)
	}
	if math.Abs(res.Params["E"]-trueE) > 0.5 {
		t.Errorf("E = %v, want %v", res.Params["E"], trueE)
	}
	if res.UsedWarmStart {
		t.Error("SI result must not be marked warm-started")
	}
	if res.CostEvals == 0 {
		t.Error("CostEvals should be counted")
	}
}

func TestEstimateLOFromTruthBasin(t *testing.T) {
	p := synthProblem(t, 1)
	warm := map[string]float64{"A": trueA + 0.05, "B": trueB - 1, "E": trueE + 0.5}
	res, err := EstimateLO(context.Background(), p, warm, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.UsedWarmStart {
		t.Error("LO result must be marked warm-started")
	}
	if res.RMSE > 0.05 {
		t.Errorf("LO RMSE = %v, want near 0", res.RMSE)
	}
}

func TestEstimateLOMissingWarmParam(t *testing.T) {
	p := synthProblem(t, 1)
	if _, err := EstimateLO(context.Background(), p, map[string]float64{"A": 1}, Options{}); err == nil {
		t.Error("missing warm-start parameter should fail")
	}
}

func TestDissimilarity(t *testing.T) {
	ref := synthProblem(t, 1)
	same := synthProblem(t, 1)
	scaled := synthProblem(t, 1.1)
	_ = ref.Validate()
	_ = same.Validate()
	_ = scaled.Validate()

	d, err := Dissimilarity(ref, same)
	if err != nil || d > 1e-9 {
		t.Errorf("identical datasets dissimilarity = %v, %v", d, err)
	}
	d, err = Dissimilarity(ref, scaled)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-0.1) > 1e-6 {
		t.Errorf("scaled-by-1.1 dissimilarity = %v, want 0.1", d)
	}
	empty := &Problem{Instance: ref.Instance, Params: ref.Params,
		Measured: map[string]*timeseries.Series{}, Inputs: map[string]*timeseries.Series{}}
	if _, err := Dissimilarity(ref, empty); err == nil {
		t.Error("no shared series should fail")
	}
}

func TestEstimateMIUsesWarmStart(t *testing.T) {
	jobs := []*MIJob{
		{Problem: synthProblem(t, 1.0), ModelID: "hp"},
		{Problem: synthProblem(t, 1.05), ModelID: "hp"}, // within 20%
		{Problem: synthProblem(t, 1.0), ModelID: "other"},
	}
	opts := Options{GA: GAOptions{Population: 16, Generations: 8, Seed: 5}}
	results, err := EstimateMI(context.Background(), jobs, 0, opts) // 0 -> default threshold
	if err != nil {
		t.Fatal(err)
	}
	if results[0].UsedWarmStart {
		t.Error("first job must run full SI")
	}
	if !results[1].UsedWarmStart {
		t.Error("similar same-model job must use warm start")
	}
	if results[2].UsedWarmStart {
		t.Error("different-model job must not use warm start")
	}
	// Warm-started job must be much cheaper than the full run.
	if results[1].CostEvals >= results[0].CostEvals {
		t.Errorf("LO evals (%d) should be < SI evals (%d)", results[1].CostEvals, results[0].CostEvals)
	}
	// And still accurate (the paper reports identical accuracy).
	if results[1].RMSE > 0.2 {
		t.Errorf("warm-started RMSE = %v, want small", results[1].RMSE)
	}
}

func TestEstimateMIDissimilarFallsBack(t *testing.T) {
	jobs := []*MIJob{
		{Problem: synthProblem(t, 1.0), ModelID: "hp"},
		{Problem: synthProblem(t, 1.5), ModelID: "hp"}, // 50% off: beyond gate
	}
	opts := Options{GA: GAOptions{Population: 12, Generations: 6, Seed: 5}}
	results, err := EstimateMI(context.Background(), jobs, 0.2, opts)
	if err != nil {
		t.Fatal(err)
	}
	if results[1].UsedWarmStart {
		t.Error("dissimilar job must fall back to full SI")
	}
}

func TestEstimateMIEmptyJobs(t *testing.T) {
	if _, err := EstimateMI(context.Background(), nil, 0.2, Options{}); err == nil {
		t.Error("no jobs should fail")
	}
}

func TestApplyAndValidate(t *testing.T) {
	p := synthProblem(t, 1)
	res, err := EstimateSI(context.Background(), p, Options{GA: GAOptions{Population: 16, Generations: 8, Seed: 11}})
	if err != nil {
		t.Fatal(err)
	}
	if err := Apply(p, res); err != nil {
		t.Fatal(err)
	}
	got, _ := p.Instance.GetReal("A")
	if got != res.Params["A"] {
		t.Errorf("Apply did not write back: A = %v, want %v", got, res.Params["A"])
	}
	// Validation over a sub-window of the training data should also be small.
	rmse, err := Validate(p, 12, 24)
	if err != nil {
		t.Fatal(err)
	}
	if rmse > 0.1 {
		t.Errorf("validation RMSE = %v", rmse)
	}
}

func TestGACheaperThanLaGClaim(t *testing.T) {
	// The paper's Figure 6 discussion: G dominates cost (~90% of G+LaG) and
	// LO alone is far cheaper. Verify the eval-count relationship.
	p := synthProblem(t, 1)
	si, err := EstimateSI(context.Background(), p, Options{GA: GAOptions{Population: 24, Generations: 15, Seed: 3}})
	if err != nil {
		t.Fatal(err)
	}
	p2 := synthProblem(t, 1)
	lo, err := EstimateLO(context.Background(), p2, si.Params, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if lo.CostEvals*2 >= si.CostEvals {
		t.Errorf("LO evals = %d, SI evals = %d; LO should be at most half", lo.CostEvals, si.CostEvals)
	}
}

// TestEstimateMIParallelMatchesSequential: the follower jobs run
// concurrently, and each fits to the same bits as on one core.
func TestEstimateMIParallelMatchesSequential(t *testing.T) {
	build := func() []*MIJob {
		return []*MIJob{
			{Problem: synthProblem(t, 1.0), ModelID: "hp"},
			{Problem: synthProblem(t, 1.04), ModelID: "hp"},
			{Problem: synthProblem(t, 1.08), ModelID: "hp"},
			{Problem: synthProblem(t, 1.12), ModelID: "hp"},
		}
	}
	opts := Options{GA: GAOptions{Population: 12, Generations: 6, Seed: 5}}
	run := func(procs int) []*Result {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		res, err := EstimateMI(context.Background(), build(), 0.2, opts)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	seq, par := run(1), run(4)
	for i := range seq {
		if seq[i].UsedWarmStart != par[i].UsedWarmStart || seq[i].CostEvals != par[i].CostEvals {
			t.Errorf("job %d: warm %v/%v, evals %d/%d", i, seq[i].UsedWarmStart, par[i].UsedWarmStart, seq[i].CostEvals, par[i].CostEvals)
		}
		if math.Float64bits(seq[i].RMSE) != math.Float64bits(par[i].RMSE) {
			t.Errorf("job %d RMSE: 1 proc %v vs 4 procs %v", i, seq[i].RMSE, par[i].RMSE)
		}
		for k, v := range seq[i].Params {
			if math.Float64bits(par[i].Params[k]) != math.Float64bits(v) {
				t.Errorf("job %d param %s: 1 proc %v vs 4 procs %v", i, k, v, par[i].Params[k])
			}
		}
	}
}

func TestEstimateMIParallelPropagatesErrors(t *testing.T) {
	good := synthProblem(t, 1.0)
	bad := synthProblem(t, 3.0) // far outside gate -> full SI...
	bad.Params = nil            // ...which fails validation
	jobs := []*MIJob{
		{Problem: good, ModelID: "hp"},
		{Problem: bad, ModelID: "hp"},
		{Problem: synthProblem(t, 1.05), ModelID: "hp"},
	}
	opts := Options{GA: GAOptions{Population: 8, Generations: 3, Seed: 5}}
	if _, err := EstimateMI(context.Background(), jobs, 0.2, opts); err == nil {
		t.Error("parallel MI must propagate job errors")
	}
}

// TestEstimateMIReportsFirstFailingJob: two followers fail with different
// messages; the error is job 1's however the two finish.
func TestEstimateMIReportsFirstFailingJob(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const want = "estimate: MI job 1 (LO): estimate: no parameters to estimate"
	for round := 0; round < 5; round++ {
		lo := synthProblem(t, 1.05) // similar: the LO path...
		lo.Params = nil             // ...fails validation
		si := synthProblem(t, 1.0)  // another model: the SI path...
		si.Instance = nil           // ...fails validation
		jobs := []*MIJob{
			{Problem: synthProblem(t, 1.0), ModelID: "hp"},
			{Problem: lo, ModelID: "hp"},
			{Problem: si, ModelID: "other"},
		}
		_, err := EstimateMI(context.Background(), jobs, 0.2, Options{GA: GAOptions{Population: 4, Generations: 1, Seed: 5}})
		if err == nil || err.Error() != want {
			t.Fatalf("round %d: err = %v, want %q", round, err, want)
		}
	}
}

// TestCostDeterministicWithTwoMeasuredSeries: squared errors are summed in
// sorted variable order, not map order, so the objective of a problem with
// two measured series has one bit pattern however often it is evaluated.
func TestCostDeterministicWithTwoMeasuredSeries(t *testing.T) {
	p := synthProblem(t, 1)
	// y = 7.8*u is a pure output; measure it with an offset so that both
	// series contribute squared errors of different magnitudes.
	p.Measured["y"] = p.Inputs["u"].Scale(7.8).Shift(0.37)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	at := []float64{-0.5, 12, 5}
	seen := make(map[uint64]bool)
	for i := 0; i < 200; i++ {
		// A fresh problem each time: map iteration order is drawn per range.
		q := &Problem{Instance: p.Instance, Params: p.Params, Inputs: p.Inputs, Measured: p.Measured}
		if i%2 == 0 {
			if err := q.Validate(); err != nil {
				t.Fatal(err)
			}
		} else {
			q.T0, q.T1 = p.T0, p.T1 // unvalidated: Cost prepares for itself
		}
		c, err := q.Cost(at)
		if err != nil {
			t.Fatal(err)
		}
		seen[math.Float64bits(c)] = true
	}
	if len(seen) != 1 {
		t.Errorf("%d distinct objective values over 200 evaluations, want 1", len(seen))
	}
}
