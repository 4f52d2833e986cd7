package main

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	pgfmu "repro"
	"repro/internal/dataset"
	"repro/internal/estimate"
	"repro/internal/fmu"
	"repro/internal/timeseries"
)

// si_workflow: the paper's Table 8 single-instance workflow as four SQL
// statements through pgfmu.DB on an in-memory database. One op is one whole
// workflow on a fresh instance and its own seed-derived dataset.

type siSizes struct {
	Ops   int // workflows per round
	Hours int // length of each measurement series
	GA    pgfmu.GAOptions
}

func siSize(size sizeClass) siSizes {
	if size == sizeToy {
		return siSizes{Ops: 2, Hours: 12, GA: pgfmu.GAOptions{Population: 6, Generations: 2, Seed: 1}}
	}
	sz := siSizes{Ops: 16, Hours: 24, GA: pgfmu.GAOptions{Population: 8, Generations: 4, Seed: 1}}
	if size == sizeProbe {
		sz.Ops = 6
	}
	return sz
}

// siOp is one workflow: which δ scales its dataset and which seed draws its
// noise.
type siOp struct {
	Pool     int     `json:"pool"` // index into the dataset pool and siRefRMSE
	Instance string  `json:"instance"`
	Table    string  `json:"table"`
	Delta    float64 `json:"delta"`
	DataSeed int64   `json:"data_seed"`
}

// siPool is the number of distinct datasets: member k has δ spread evenly
// over [0.8, 1.2] and its own noise seed. Five rounds of sixteen visit each
// once.
const siPool = 80

// siPlan walks the dataset pool in the order the run's seed fixes (see
// roundID.poolWalk for why the datasets are a pool and not free draws).
func siPlan(id roundID, size sizeClass) any {
	sz := siSize(size)
	ops := make([]siOp, sz.Ops)
	for i, k := range id.poolWalk(siPool, sz.Ops) {
		ops[i] = siOp{
			Pool:     k,
			Instance: fmt.Sprintf("hp_%d", i),
			Table:    fmt.Sprintf("m_%d", i),
			Delta:    0.8 + 0.4*(float64(k)+0.5)/siPool,
			DataSeed: int64(1000 + k),
		}
	}
	return ops
}

// siOutcome is what one workflow returned, kept for untimed verification.
type siOutcome struct {
	rmse         float64
	simRows      int
	analysisN    int64
	analysisRMSE float64
}

// siWorkflow issues the four statements of one workflow, each in its own
// statement span.
func siWorkflow(db *pgfmu.DB, l *lane, parent, i int, op siOp) (siOutcome, error) {
	var out siOutcome
	err := l.stmt(parent, i, "fmu_create", "core", func() error {
		_, err := db.Query(`SELECT fmu_create($1, $2)`, dataset.HP1Source, op.Instance)
		return err
	})
	if err != nil {
		return out, err
	}
	err = l.stmt(parent, i, "fmu_parest", "estimate", func() error {
		rs, err := db.Query(fmt.Sprintf(
			`SELECT fmu_parest('{%s}', '{SELECT time, x, u FROM %s}', '{Cp, R}')`, op.Instance, op.Table))
		if err != nil {
			return err
		}
		out.rmse, err = parseBraceFloat(rs.Rows[0][0].AsText())
		return err
	})
	if err != nil {
		return out, err
	}
	err = l.stmt(parent, i, "fmu_simulate_store", "core", func() error {
		var err error
		out.simRows, err = db.Exec(fmt.Sprintf(
			`INSERT INTO predictions SELECT instanceid, simulationtime, varname, value
			   FROM fmu_simulate('%s', 'SELECT time, u FROM %s')`, op.Instance, op.Table))
		return err
	})
	if err != nil {
		return out, err
	}
	err = l.stmt(parent, i, "analyse", "sqldb", func() error {
		rs, err := db.Query(fmt.Sprintf(
			`SELECT count(*), sqrt(avg((p.value - m.x) * (p.value - m.x)))
			   FROM predictions p JOIN %s m ON p.time = m.time
			  WHERE p.instance = '%s' AND p.varname = 'x'`, op.Table, op.Instance))
		if err != nil {
			return err
		}
		if out.analysisN, err = rs.Rows[0][0].AsInt(); err != nil {
			return err
		}
		out.analysisRMSE, err = rs.Rows[0][1].AsFloat()
		return err
	})
	return out, err
}

func parseBraceFloat(s string) (float64, error) {
	return strconv.ParseFloat(strings.TrimSpace(strings.Trim(strings.TrimSpace(s), "{}")), 64)
}

func siRun(r *round) error {
	sz := siSize(r.size)
	ops := siPlan(r.id, r.size).([]siOp)
	l := r.newLane(0)

	// Set-up: open, generate and load every op's dataset, then one fixed
	// warm-up workflow (same input on every seed) so lazy initialisation is
	// done before the first timed op.
	t0 := time.Now()
	db, err := pgfmu.Open("", pgfmu.WithEstimatorOptions(pgfmu.EstimatorOptions{GA: sz.GA}))
	if err != nil {
		return err
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE predictions (instance text, time float, varname text, value float)`); err != nil {
		return err
	}
	frames := make([]*timeseries.Frame, len(ops))
	load := func(table string, delta float64, seed int64) (*timeseries.Frame, error) {
		fr, err := dataset.GenerateHP1(dataset.Config{Hours: sz.Hours, Seed: seed, Delta: delta})
		if err != nil {
			return nil, err
		}
		return fr, dataset.LoadFrame(db.SQL(), table, fr)
	}
	for i, op := range ops {
		if frames[i], err = load(op.Table, op.Delta, op.DataSeed); err != nil {
			return err
		}
	}
	warm := siOp{Instance: "hp_warm", Table: "m_warm", Delta: 1, DataSeed: 7}
	if _, err := load(warm.Table, warm.Delta, warm.DataSeed); err != nil {
		return err
	}
	if _, err := siWorkflow(db, quietLane(), 0, -1, warm); err != nil {
		return fmt.Errorf("warm-up workflow: %w", err)
	}
	r.setup = time.Since(t0)

	outcomes := make([]siOutcome, len(ops))
	done := make([]bool, len(ops))
	t1 := time.Now()
	for i, op := range ops {
		err := l.op(i, "workflow", func(parent int) error {
			var err error
			outcomes[i], err = siWorkflow(db, l, parent, i, op)
			return err
		})
		done[i] = err == nil
	}
	r.timed = time.Since(t1)

	// Verification, untimed.
	unit, err := fmu.CompileModelica(dataset.HP1Source)
	if err != nil {
		return err
	}
	for i, op := range ops {
		if !done[i] {
			continue
		}
		out := outcomes[i]
		if want := 2 * (sz.Hours + 1); out.simRows != want {
			l.fail(i, "fmu_simulate stored %d rows, want %d", out.simRows, want)
			continue
		}
		if out.analysisN != int64(sz.Hours+1) {
			l.fail(i, "analysis joined %d rows, want %d", out.analysisN, sz.Hours+1)
			continue
		}
		// The stored trajectory starts from the model's own x(start), the
		// calibration from the first measurement, so the two residuals
		// differ; the analysis value only has to be a sane number.
		if !(out.analysisRMSE > 0) || math.IsInf(out.analysisRMSE, 0) {
			l.fail(i, "analysis RMSE is %v", out.analysisRMSE)
			continue
		}
		fitted, err := fittedParams(db, op.Instance, []string{"Cp", "R"})
		if err != nil {
			l.fail(i, "%v", err)
			continue
		}
		p, err := hp1Problem(unit, op.Instance, frames[i])
		if err != nil {
			return err
		}
		ref := math.Inf(1) // the references hold for the frozen sizes only
		if r.size != sizeToy {
			ref = siRefRMSE[op.Pool]
		}
		if msg := checkCalibration(p, fitted, out.rmse, ref); msg != "" {
			l.fail(i, "%s (delta %.3f)", msg, op.Delta)
		}
	}
	return nil
}

func closeTo(a, b, rel float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= rel*math.Max(math.Abs(a), math.Abs(b))+1e-12
}

// fittedParams reads the current values of pars through fmu_variables and
// fails if any sits outside the model's bounds.
func fittedParams(db *pgfmu.DB, instance string, pars []string) (map[string]float64, error) {
	rs, err := db.Query(`SELECT varname, initialvalue, minvalue, maxvalue FROM fmu_variables($1) AS v WHERE v.vartype = 'parameter'`, instance)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, row := range rs.Rows {
		name := row[0].AsText()
		for _, p := range pars {
			if !strings.EqualFold(p, name) {
				continue
			}
			v, err := row[1].AsFloat()
			if err != nil {
				return nil, fmt.Errorf("parameter %s: %v", name, err)
			}
			lo, _ := row[2].AsFloat()
			hi, _ := row[3].AsFloat()
			if math.IsNaN(v) || v < lo || v > hi {
				return nil, fmt.Errorf("fitted %s = %v outside bounds [%v, %v]", name, v, lo, hi)
			}
			out[p] = v
		}
	}
	if len(out) != len(pars) {
		return nil, fmt.Errorf("fmu_variables(%s) returned %d of %d parameters", instance, len(out), len(pars))
	}
	return out, nil
}

// hp1Problem builds the calibration problem fmu_parest solves for one hp1
// dataset, so the harness can evaluate the objective itself.
func hp1Problem(unit *fmu.Unit, name string, fr *timeseries.Frame) (*estimate.Problem, error) {
	x, err := fr.Series("x")
	if err != nil {
		return nil, err
	}
	u, err := fr.Series("u")
	if err != nil {
		return nil, err
	}
	return &estimate.Problem{
		Instance: unit.Instantiate(name),
		Params:   paramSpecs(unit, []string{"Cp", "R"}),
		Inputs:   map[string]*timeseries.Series{"u": u},
		Measured: map[string]*timeseries.Series{"x": x},
	}, nil
}

func paramSpecs(unit *fmu.Unit, pars []string) []estimate.ParamSpec {
	specs := make([]estimate.ParamSpec, len(pars))
	for i, p := range pars {
		mp, _ := unit.Model.Parameter(p)
		specs[i] = estimate.ParamSpec{Name: p, Lo: mp.Min, Hi: mp.Max}
	}
	return specs
}

// checkCalibration is the gate that makes a "speed-up" which calibrates less
// fail. The RMSE fmu_parest reported must be the objective's value at the
// fitted parameters, evaluated here, and may not exceed by more than 5 % the
// RMSE the commit that froze the benchmark reached on the same dataset
// (reference.go). (The issue's gate, RMSE ≤ 1.25·σ·δ, rejects converged
// fits: on 24–48 h series the optimum itself reaches 1.6·σ·δ at δ = 0.8; see
// README.) It returns "" on success.
func checkCalibration(p *estimate.Problem, fitted map[string]float64, reported, ref float64) string {
	if err := p.Validate(); err != nil {
		return err.Error()
	}
	at := make([]float64, len(p.Params))
	for i, ps := range p.Params {
		at[i] = fitted[ps.Name]
	}
	cost, err := p.Cost(at)
	if err != nil {
		return fmt.Sprintf("objective at fitted parameters: %v", err)
	}
	if !closeTo(cost, reported, 1e-5) { // fmu_parest prints six decimals
		return fmt.Sprintf("reported RMSE %.8f but objective at fitted parameters is %.8f", reported, cost)
	}
	if reported > 1.05*ref {
		return fmt.Sprintf("calibrates less: RMSE %.6f, reference %.6f", reported, ref)
	}
	return ""
}
