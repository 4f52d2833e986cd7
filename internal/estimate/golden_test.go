package estimate

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fmu"
	"repro/internal/timeseries"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_fits.json from this checkout")

const goldenPath = "testdata/golden_fits.json"

// goldenFit freezes one calibration: the objective at three fixed points,
// and the evaluation count, fitted values and RMSE of a search — all float64s
// as %016x of their bits. A search that visits the same candidates in the
// same order and scores each to the same bit reproduces every field.
type goldenFit struct {
	Costs     []string          `json:"costs"`
	CostEvals int               `json:"cost_evals"`
	Params    map[string]string `json:"params"`
	RMSE      string            `json:"rmse"`
}

func bitsOf(v float64) string { return fmt.Sprintf("%016x", math.Float64bits(v)) }

// datasetProblem builds the problem fmu_parest solves for one generated
// dataset: every model input column is an input, measured is fitted.
func datasetProblem(t testing.TB, model, source string, cfg dataset.Config, measured string, pars []string) *Problem {
	t.Helper()
	frame, err := dataset.Generate(model, cfg)
	if err != nil {
		t.Fatal(err)
	}
	unit, err := fmu.CompileModelica(source)
	if err != nil {
		t.Fatal(err)
	}
	p := &Problem{
		Instance: unit.Instantiate(model),
		Inputs:   map[string]*timeseries.Series{},
		Measured: map[string]*timeseries.Series{},
	}
	for _, in := range unit.Model.Inputs {
		if p.Inputs[in.Name], err = frame.Series(in.Name); err != nil {
			t.Fatal(err)
		}
	}
	if p.Measured[measured], err = frame.Series(measured); err != nil {
		t.Fatal(err)
	}
	for _, name := range pars {
		mp, _ := unit.Model.Parameter(name)
		p.Params = append(p.Params, ParamSpec{Name: name, Lo: mp.Min, Hi: mp.Max})
	}
	return p
}

// hp1Problem and classroomProblem are the benchmark's two calibrations at
// its sizes: 24 h of hp1 data fitting Cp and R, 12 h of classroom data
// fitting all four parameters.
func hp1Problem(t testing.TB) *Problem {
	return datasetProblem(t, "hp1", dataset.HP1Source,
		dataset.Config{Hours: 24, Seed: 7, Delta: 1.1}, "x", []string{"Cp", "R"})
}

func classroomProblem(t testing.TB) *Problem {
	return datasetProblem(t, "classroom", dataset.ClassroomSource,
		dataset.Config{Hours: 12, Seed: 1003, Delta: 0.9}, "t", []string{"shgc", "tmass", "RExt", "occheff"})
}

func goldenFits(t *testing.T) map[string]goldenFit {
	t.Helper()
	opts := Options{GA: GAOptions{Population: 8, Generations: 4, Seed: 1}}
	out := make(map[string]goldenFit)
	record := func(name string, p *Problem, run func(*Problem) (*Result, error)) {
		res, err := run(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fit := goldenFit{CostEvals: res.CostEvals, RMSE: bitsOf(res.RMSE), Params: map[string]string{}}
		for k, v := range res.Params {
			fit.Params[k] = bitsOf(v)
		}
		// The objective at three points across the box.
		for _, frac := range []float64{0.2, 0.5, 0.8} {
			at := make([]float64, len(p.Params))
			for i, ps := range p.Params {
				at[i] = ps.Lo + frac*(ps.Hi-ps.Lo)
			}
			c, err := p.Cost(at)
			if err != nil {
				t.Fatalf("%s: cost at %v: %v", name, at, err)
			}
			fit.Costs = append(fit.Costs, bitsOf(c))
		}
		out[name] = fit
	}
	si := func(p *Problem) (*Result, error) { return EstimateSI(context.Background(), p, opts) }
	record("hp1/si", hp1Problem(t), si)
	record("classroom/si", classroomProblem(t), si)
	record("hp1/lo", hp1Problem(t), func(p *Problem) (*Result, error) {
		return EstimateLO(context.Background(), p, map[string]float64{"Cp": 1.7, "R": 1.3}, opts)
	})
	return out
}

// TestGoldenFits holds the calibration path to the parent commit's answers
// bit for bit: same candidates, same objective values, same CostEvals, same
// fitted parameters, at the test's GOMAXPROCS and again at 1 and 4, since
// the searches score their batches on every core. Regenerate with
// `go test ./internal/estimate -run TestGoldenFits -update` only for a change
// that is meant to alter the numerics or the search.
func TestGoldenFits(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("goldens are frozen on amd64; %s may fuse multiply-add", runtime.GOARCH)
	}
	got := goldenFits(t)
	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]goldenFit
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	if len(got) != len(want) {
		t.Errorf("%d fits, golden file has %d", len(got), len(want))
	}
	check := func(procs int, got map[string]goldenFit) {
		for _, name := range names {
			g, w := got[name], want[name]
			if fmt.Sprint(g) != fmt.Sprint(w) {
				t.Errorf("GOMAXPROCS %d, %s:\n got  %+v\n want %+v", procs, name, g, w)
			}
		}
	}
	check(runtime.GOMAXPROCS(0), got)
	for _, procs := range []int{1, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			check(procs, goldenFits(t))
		}()
	}
}

// BenchmarkCost times one objective evaluation — the unit fmu_parest repeats
// a few hundred times per calibration — on the paper's two calibrated models,
// and reports the solver's accepted and rejected steps and right-hand-side
// calls per evaluation. Profile it (-cpuprofile) to see where an evaluation
// goes.
func BenchmarkCost(b *testing.B) {
	for _, c := range []struct {
		name string
		p    *Problem
	}{{"hp1", hp1Problem(b)}, {"classroom", classroomProblem(b)}} {
		p := c.p
		if err := p.Validate(); err != nil {
			b.Fatal(err)
		}
		at := make([]float64, len(p.Params))
		for i, ps := range p.Params {
			at[i] = ps.Lo + 0.3*(ps.Hi-ps.Lo)
		}
		tr, _, err := p.simulate(at)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.Cost(at); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(tr.Stats.Accepted), "accepted/op")
			b.ReportMetric(float64(tr.Stats.Rejected), "rejected/op")
			b.ReportMetric(float64(tr.Stats.RHSCalls), "rhs/op")
		})
	}
}

// BenchmarkEstimateSI times one benchmark-sized SI calibration (hp1, 24 h,
// GA 8×4, Cp and R): GA generations and gradient probes are scored on every
// core, the line search one candidate at a time. Compare -cpu 1,2,4.
func BenchmarkEstimateSI(b *testing.B) {
	opts := Options{GA: GAOptions{Population: 8, Generations: 4, Seed: 1}}
	p := hp1Problem(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EstimateSI(context.Background(), p, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEstimateMI times one MI calibration of a classroom fleet of four
// (12 h each, the MI deltas): the reference's G+LaG, then the three warm
// followers concurrently.
func BenchmarkEstimateMI(b *testing.B) {
	opts := Options{GA: GAOptions{Population: 8, Generations: 4, Seed: 1}}
	var fleet []*MIJob
	for _, d := range dataset.MIDeltas(4) {
		p := datasetProblem(b, "classroom", dataset.ClassroomSource,
			dataset.Config{Hours: 12, Seed: 1003, Delta: d}, "t", []string{"shgc", "tmass", "RExt", "occheff"})
		fleet = append(fleet, &MIJob{Problem: p, ModelID: "classroom"})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EstimateMI(context.Background(), fleet, 0, opts); err != nil {
			b.Fatal(err)
		}
	}
}
