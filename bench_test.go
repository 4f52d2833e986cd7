package pgfmu

// Benchmark harness: one bench per table and figure of the paper's
// evaluation (§8), plus the ablation benches DESIGN.md calls out. Benches
// run the same code paths as cmd/experiments at a reduced scale so
// `go test -bench=. -benchmem` regenerates every result in minutes; pass
// paper-sized workloads through cmd/experiments -scale paper.

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/estimate"
	"repro/internal/experiments"
	"repro/internal/fmu"
	"repro/internal/solver"
	"repro/internal/timeseries"
)

// benchScale keeps calibration-heavy benches tractable.
var benchScale = experiments.Scale{
	Hours:     36,
	Instances: 4,
	GA:        estimate.GAOptions{Population: 10, Generations: 5, Seed: 3},
	Seed:      1,
}

// BenchmarkTable1_CodeLines regenerates the code-line inventory (static).
func BenchmarkTable1_CodeLines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tb := experiments.Table1()
		if len(tb.Rows) != 8 {
			b.Fatal("unexpected Table 1 shape")
		}
	}
}

// BenchmarkTable3_FMUVariables regenerates the fmu_variables output.
func BenchmarkTable3_FMUVariables(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table3(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable4_FMUSimulate regenerates the fmu_simulate excerpt.
func BenchmarkTable4_FMUSimulate(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table4(benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable7_SICalibration regenerates the single-instance calibration
// comparison across all three models and both stacks.
func BenchmarkTable7_SICalibration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table7(benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable8_WorkflowSteps regenerates the per-operation wall-time
// breakdown.
func BenchmarkTable8_WorkflowSteps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Table8(benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig5_IterationTraces regenerates the MI-optimization traces.
func BenchmarkFig5_IterationTraces(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5(benchScale); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6_ThresholdSweep regenerates the LO vs G+LaG dissimilarity
// sweep (three points at bench scale).
func BenchmarkFig6_ThresholdSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig6Sweep(benchScale, []float64{1.0, 1.1, 1.4})
		if err != nil {
			b.Fatal(err)
		}
		if rows[0].TimeWarm >= rows[0].TimeFull {
			b.Fatal("LO should be faster than G+LaG")
		}
	}
}

// BenchmarkFig7_MIScaling regenerates the multi-instance scaling point for
// HP1 at the bench instance count, reporting the pgFMU+ speedup.
func BenchmarkFig7_MIScaling(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig7Sweep("hp1", benchScale, []int{benchScale.Instances})
		if err != nil {
			b.Fatal(err)
		}
		r := rows[0]
		b.ReportMetric(r.Python.Seconds()/r.PgFMUPlus.Seconds(), "speedup_vs_python")
		b.ReportMetric(r.PgFMUMin.Seconds()/r.PgFMUPlus.Seconds(), "speedup_vs_pgfmu-")
	}
}

// BenchmarkFig8_Usability regenerates the simulated usability study.
func BenchmarkFig8_Usability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunStudy(30, 1)
		b.ReportMetric(res.Speedup, "dev_time_speedup")
	}
}

// BenchmarkMADlibCombination regenerates both §8.2 combined experiments.
func BenchmarkMADlibCombination(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.MADlibCombination(benchScale)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.ImprovementPercent, "rmse_improvement_%")
	}
}

// --- Ablation benches (DESIGN.md) ---

func benchProblem(b *testing.B, delta float64) *estimate.Problem {
	b.Helper()
	frame, err := dataset.GenerateHP1(dataset.Config{Hours: benchScale.Hours, Seed: 1, Delta: delta})
	if err != nil {
		b.Fatal(err)
	}
	unit, err := fmu.CompileModelica(dataset.HP1Source)
	if err != nil {
		b.Fatal(err)
	}
	x, err := frame.Series("x")
	if err != nil {
		b.Fatal(err)
	}
	u, err := frame.Series("u")
	if err != nil {
		b.Fatal(err)
	}
	return &estimate.Problem{
		Instance: unit.Instantiate("bench"),
		Params: []estimate.ParamSpec{
			{Name: "Cp", Lo: 0.5, Hi: 5},
			{Name: "R", Lo: 0.5, Hi: 5},
		},
		Inputs:   map[string]*timeseries.Series{"u": u},
		Measured: map[string]*timeseries.Series{"x": x},
	}
}

// BenchmarkAblationWarmStart compares full G+LaG calibration against
// LO-from-warm-start — the MI optimization in isolation.
func BenchmarkAblationWarmStart(b *testing.B) {
	opts := estimate.Options{GA: benchScale.GA}
	ref, err := estimate.EstimateSI(context.Background(), benchProblem(b, 1), opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("full_G+LaG", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := estimate.EstimateSI(context.Background(), benchProblem(b, 1.05), opts); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("LO_warm_start", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := estimate.EstimateLO(context.Background(), benchProblem(b, 1.05), ref.Params, opts); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationFMUReuse compares instantiating from the shared in-memory
// unit (pgFMU's FMU storage) against re-reading the .fmu file per instance
// (the traditional stack).
func BenchmarkAblationFMUReuse(b *testing.B) {
	unit, err := fmu.CompileModelica(dataset.HP1Source)
	if err != nil {
		b.Fatal(err)
	}
	path := b.TempDir() + "/hp1.fmu"
	if err := unit.WriteFile(path); err != nil {
		b.Fatal(err)
	}
	b.Run("shared_unit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			inst := unit.Instantiate(fmt.Sprintf("i%d", i))
			if inst == nil {
				b.Fatal("nil instance")
			}
		}
	})
	b.Run("reload_per_instance", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			u, err := fmu.Load(path)
			if err != nil {
				b.Fatal(err)
			}
			u.Instantiate(fmt.Sprintf("i%d", i))
		}
	})
}

// BenchmarkAblationPreparedQueries compares repeated query execution with
// the plan cache on (pgFMU's prepared statements) and off.
func BenchmarkAblationPreparedQueries(b *testing.B) {
	db, err := Open("")
	if err != nil {
		b.Fatal(err)
	}
	frame, err := dataset.GenerateHP1(dataset.Config{Hours: benchScale.Hours, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if err := dataset.LoadFrame(db.SQL(), "measurements", frame); err != nil {
		b.Fatal(err)
	}
	const q = `SELECT time, x, u FROM measurements WHERE x > 2 ORDER BY time`
	b.Run("plan_cache_on", func(b *testing.B) {
		db.SQL().EnablePlanCache(true)
		for i := 0; i < b.N; i++ {
			if _, err := db.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("plan_cache_off", func(b *testing.B) {
		db.SQL().EnablePlanCache(false)
		for i := 0; i < b.N; i++ {
			if _, err := db.Query(q); err != nil {
				b.Fatal(err)
			}
		}
		db.SQL().EnablePlanCache(true)
	})
}

// BenchmarkAblationSolver compares the adaptive RK45 default against fixed-
// step RK4 inside the simulation loop.
func BenchmarkAblationSolver(b *testing.B) {
	unit, err := fmu.CompileModelica(dataset.HP1Source)
	if err != nil {
		b.Fatal(err)
	}
	inst := unit.Instantiate("bench")
	u := timeseries.Uniform(0, 1, 37, func(t float64) float64 { return 0.5 })
	inputs := map[string]*timeseries.Series{"u": u}
	b.Run("adaptive_rk45", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := inst.Simulate(inputs, 0, 36, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fixed_rk4", func(b *testing.B) {
		rk4, err := solver.NewRK4(0.05)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < b.N; i++ {
			if _, err := inst.Simulate(inputs, 0, 36, &fmu.SimOptions{Method: rk4}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAblationSimilarityGate compares MI estimation with the gate at
// the paper's 20% against a gate of 0 (never warm-start): the cost of
// turning the similarity check's benefit off.
func BenchmarkAblationSimilarityGate(b *testing.B) {
	run := func(b *testing.B, threshold float64) {
		for i := 0; i < b.N; i++ {
			jobs := []*estimate.MIJob{
				{Problem: benchProblem(b, 1.0), ModelID: "hp1"},
				{Problem: benchProblem(b, 1.05), ModelID: "hp1"},
				{Problem: benchProblem(b, 1.1), ModelID: "hp1"},
			}
			if _, err := estimate.EstimateMI(context.Background(), jobs, threshold, estimate.Options{GA: benchScale.GA}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("gate_20pct", func(b *testing.B) { run(b, 0.20) })
	b.Run("gate_disabled", func(b *testing.B) { run(b, 1e-12) })
}

// --- Substrate micro-benchmarks ---

// BenchmarkFMUSimulateDay measures one day of HP1 simulation.
func BenchmarkFMUSimulateDay(b *testing.B) {
	unit, err := fmu.CompileModelica(dataset.HP1Source)
	if err != nil {
		b.Fatal(err)
	}
	inst := unit.Instantiate("bench")
	u := timeseries.Uniform(0, 1, 25, func(t float64) float64 { return 0.6 })
	inputs := map[string]*timeseries.Series{"u": u}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := inst.Simulate(inputs, 0, 24, &fmu.SimOptions{OutputStep: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLateralSimulation measures the paper's LATERAL multi-instance
// simulation query.
func BenchmarkLateralSimulation(b *testing.B) {
	s, err := core.NewSession(core.WithEstimateOptions(estimate.Options{GA: benchScale.GA}))
	if err != nil {
		b.Fatal(err)
	}
	frame, err := dataset.GenerateHP1(dataset.Config{Hours: 24, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if err := dataset.LoadFrame(s.DB(), "measurements", frame); err != nil {
		b.Fatal(err)
	}
	for i := 1; i <= 3; i++ {
		if _, err := s.Create(dataset.HP1Source, fmt.Sprintf("HP1Instance%d", i)); err != nil {
			b.Fatal(err)
		}
	}
	const q = `SELECT count(*) FROM generate_series(1, 3) AS id,
		LATERAL fmu_simulate('HP1Instance' || id::text, 'SELECT * FROM measurements') AS f`
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.DB().Query(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkModelicaCompile measures .mo -> FMU compilation.
func BenchmarkModelicaCompile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := fmu.CompileModelica(dataset.ClassroomSource); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFMUFileRoundTrip measures .fmu write+load.
func BenchmarkFMUFileRoundTrip(b *testing.B) {
	unit, err := fmu.CompileModelica(dataset.HP1Source)
	if err != nil {
		b.Fatal(err)
	}
	path := b.TempDir() + "/bench.fmu"
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := unit.WriteFile(path); err != nil {
			b.Fatal(err)
		}
		if _, err := fmu.Load(path); err != nil {
			b.Fatal(err)
		}
	}
}

// TestMain keeps bench temp dirs out of the repository.
func TestMain(m *testing.M) {
	os.Exit(m.Run())
}

// BenchmarkAblationParallelMI compares MI estimation on one core against four
// (the §9 multi-core future work: objective evaluations and follower jobs
// run on every core).
func BenchmarkAblationParallelMI(b *testing.B) {
	jobs := func() []*estimate.MIJob {
		out := make([]*estimate.MIJob, 4)
		for i, d := range []float64{1.0, 1.05, 1.1, 1.15} {
			frame, err := dataset.GenerateHP1(dataset.Config{Hours: benchScale.Hours, Seed: 1, Delta: d})
			if err != nil {
				b.Fatal(err)
			}
			unit, err := fmu.CompileModelica(dataset.HP1Source)
			if err != nil {
				b.Fatal(err)
			}
			x, _ := frame.Series("x")
			u, _ := frame.Series("u")
			out[i] = &estimate.MIJob{
				ModelID: "hp1",
				Problem: &estimate.Problem{
					Instance: unit.Instantiate("bench"),
					Params: []estimate.ParamSpec{
						{Name: "Cp", Lo: 0.5, Hi: 5},
						{Name: "R", Lo: 0.5, Hi: 5},
					},
					Inputs:   map[string]*timeseries.Series{"u": u},
					Measured: map[string]*timeseries.Series{"x": x},
				},
			}
		}
		return out
	}
	for _, procs := range []int{1, 4} {
		b.Run(fmt.Sprintf("gomaxprocs_%d", procs), func(b *testing.B) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			for i := 0; i < b.N; i++ {
				if _, err := estimate.EstimateMI(context.Background(), jobs(), 0.2, estimate.Options{GA: benchScale.GA}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
