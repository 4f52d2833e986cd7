package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"time"

	pgfmu "repro"
	"repro/internal/dataset"
	"repro/internal/estimate"
	"repro/internal/fmu"
	"repro/internal/timeseries"
)

// mi_fleet: the paper's Fig. 7 multi-instance scenario plus the fleet
// what-if: per op, create a fleet of classroom instances, calibrate the whole
// fleet in one fmu_parest (MI optimisation on, the shipped default), simulate
// every instance into predictions with one LATERAL statement, then run a
// parameter sweep on one instance as an async job and wait for it.

type miSizes struct {
	Ops   int // fleets per round
	Fleet int // instances per fleet
	Hours int
	Grid  int // sweep points per axis (Grid*Grid points)
	GA    pgfmu.GAOptions
}

func miSize(size sizeClass) miSizes {
	if size == sizeToy {
		return miSizes{Ops: 1, Fleet: 2, Hours: 12, Grid: 2, GA: pgfmu.GAOptions{Population: 6, Generations: 2, Seed: 1}}
	}
	sz := miSizes{Ops: 8, Fleet: 4, Hours: 12, Grid: 4, GA: pgfmu.GAOptions{Population: 8, Generations: 4, Seed: 1}}
	if size == sizeProbe {
		sz.Ops = 2
	}
	return sz
}

var classroomPars = []string{"shgc", "tmass", "RExt", "occheff"}

const classroomInputs = "solrad, tout, occ, dpos, vpos"

// miOp is one fleet: instance i is calibrated against a dataset scaled by
// Deltas[i] (dataset.MIDeltas: the reference first, the rest inside the 20 %
// similarity gate), all drawn with one noise seed as in the paper's §8.1.
type miOp struct {
	Pool     int       `json:"pool"` // index into the fleet pool and miRefRMSE
	Fleet    int       `json:"fleet"`
	DataSeed int64     `json:"data_seed"`
	Deltas   []float64 `json:"deltas"`
	SweepOn  int       `json:"sweep_on"` // fleet member the what-if sweeps
	Grid     string    `json:"grid"`
}

// miPool is the number of distinct fleet datasets: member k draws its noise
// with seed 1000+k. Five rounds of eight visit each once.
const miPool = 40

// miPlan walks the fleet-dataset pool in the order the run's seed fixes (see
// roundID.poolWalk); the sweep's target and grid are free draws.
func miPlan(id roundID, size sizeClass) any {
	sz := miSize(size)
	rng := rand.New(rand.NewSource(id.seed()))
	ops := make([]miOp, sz.Ops)
	for i, k := range id.poolWalk(miPool, sz.Ops) {
		lo, hi := 2+rng.Float64(), 5+rng.Float64()
		ops[i] = miOp{
			Pool:     k,
			Fleet:    i,
			DataSeed: int64(1000 + k),
			Deltas:   dataset.MIDeltas(sz.Fleet),
			SweepOn:  rng.Intn(sz.Fleet),
			Grid:     fmt.Sprintf("{RExt=%.3f:%.3f:%d, tmass=30:70:%d}", lo, hi, sz.Grid, sz.Grid),
		}
	}
	return ops
}

func (op miOp) instance(i int) string { return fmt.Sprintf("cls_%d_%d", op.Fleet, i) }
func (op miOp) table(i int) string    { return fmt.Sprintf("c_%d_%d", op.Fleet, i) }

type miOutcome struct {
	rmse        []float64
	warm        []bool
	lateralRows int
	jobState    string
	jobResult   string
}

// miFleet issues one fleet's statements.
func miFleet(db *pgfmu.DB, l *lane, parent, i int, op miOp) (miOutcome, error) {
	var out miOutcome
	n := len(op.Deltas)
	ids := make([]string, n)
	sqls := make([]string, n)
	for k := range ids {
		ids[k] = op.instance(k)
		sqls[k] = fmt.Sprintf("SELECT time, t, %s FROM %s", classroomInputs, op.table(k))
	}
	err := l.stmt(parent, i, "fleet_create", "core", func() error {
		if _, err := db.Query(`SELECT fmu_create($1, $2)`, dataset.ClassroomSource, ids[0]); err != nil {
			return err
		}
		for _, id := range ids[1:] {
			if _, err := db.Query(`SELECT fmu_copy($1, $2)`, ids[0], id); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return out, err
	}
	err = l.stmt(parent, i, "fleet_parest", "estimate", func() error {
		rs, err := db.Query(fmt.Sprintf(`SELECT instanceid, rmse, warm_start FROM fmu_parest_report('{%s}', '{%s}', '{%s}')`,
			strings.Join(ids, ", "), strings.Join(sqls, ", "), strings.Join(classroomPars, ", ")))
		if err != nil {
			return err
		}
		if len(rs.Rows) != n {
			return fmt.Errorf("fmu_parest_report returned %d rows for %d instances", len(rs.Rows), n)
		}
		for _, row := range rs.Rows {
			rmse, err := row[1].AsFloat()
			if err != nil {
				return err
			}
			warm, err := row[2].AsBool()
			if err != nil {
				return err
			}
			out.rmse = append(out.rmse, rmse)
			out.warm = append(out.warm, warm)
		}
		return nil
	})
	if err != nil {
		return out, err
	}
	err = l.stmt(parent, i, "fleet_lateral", "core", func() error {
		var err error
		out.lateralRows, err = db.Exec(fmt.Sprintf(
			`INSERT INTO predictions SELECT f.instanceid, f.simulationtime, f.varname, f.value
			   FROM generate_series(0, %d) AS id,
			        LATERAL fmu_simulate('cls_%d_' || id::text, 'SELECT time, %s FROM c_%d_' || id::text) AS f`,
			n-1, op.Fleet, classroomInputs, op.Fleet))
		return err
	})
	if err != nil {
		return out, err
	}
	var job int64
	err = l.stmt(parent, i, "sweep_submit", "core", func() error {
		rs, err := db.Query(`SELECT fmu_sweep($1, $2, $3)`, op.instance(op.SweepOn), op.Grid,
			fmt.Sprintf("SELECT time, %s FROM %s", classroomInputs, op.table(op.SweepOn)))
		if err != nil {
			return err
		}
		job, err = rs.Rows[0][0].AsInt()
		return err
	})
	if err != nil {
		return out, err
	}
	err = l.stmt(parent, i, "sweep_wait", "core", func() error {
		var err error
		out.jobState, out.jobResult, err = waitJob(db, job)
		return err
	})
	return out, err
}

// waitJob polls fmu_jobs() until the job reaches a terminal state.
func waitJob(db *pgfmu.DB, job int64) (state, result string, err error) {
	deadline := time.Now().Add(30 * time.Second)
	for {
		rs, err := db.Query(`SELECT state, result FROM fmu_jobs() AS j WHERE j.jobid = $1`, job)
		if err != nil {
			return "", "", err
		}
		if len(rs.Rows) == 1 {
			switch st := rs.Rows[0][0].AsText(); st {
			case "done", "error", "cancelled", "interrupted":
				return st, rs.Rows[0][1].AsText(), nil
			}
		}
		if time.Now().After(deadline) {
			return "", "", fmt.Errorf("job %d did not finish within 30 s", job)
		}
		time.Sleep(500 * time.Microsecond)
	}
}

func miRun(r *round) error { return miRunWith(r, true) }

// miRunWith runs one round; mi=false is used by one per-layer probe only
// (core.mi_speedup), the workload itself runs the shipped default.
func miRunWith(r *round, mi bool) error {
	sz := miSize(r.size)
	ops := miPlan(r.id, r.size).([]miOp)
	l := r.newLane(0)

	t0 := time.Now()
	opts := []pgfmu.Option{pgfmu.WithEstimatorOptions(pgfmu.EstimatorOptions{GA: sz.GA})}
	if !mi {
		opts = append(opts, pgfmu.WithMIOptimization(false))
	}
	db, err := pgfmu.Open("", opts...)
	if err != nil {
		return err
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE predictions (instance text, time float, varname text, value float)`); err != nil {
		return err
	}
	load := func(op miOp) ([]*timeseries.Frame, error) {
		frames := make([]*timeseries.Frame, len(op.Deltas))
		for k, d := range op.Deltas {
			fr, err := dataset.GenerateClassroom(dataset.Config{Hours: sz.Hours, Seed: op.DataSeed, Delta: d})
			if err != nil {
				return nil, err
			}
			if err := dataset.LoadFrame(db.SQL(), op.table(k), fr); err != nil {
				return nil, err
			}
			frames[k] = fr
		}
		return frames, nil
	}
	frames := make([][]*timeseries.Frame, len(ops))
	for i, op := range ops {
		if frames[i], err = load(op); err != nil {
			return err
		}
	}
	// Fixed warm-up fleet of two (same input on every seed): compiles the
	// model, starts the job pool and touches every statement shape once.
	warm := miOp{Fleet: 9999, DataSeed: 7, Deltas: dataset.MIDeltas(2), Grid: "{RExt=2:6:2, tmass=30:70:2}"}
	if _, err := load(warm); err != nil {
		return err
	}
	if _, err := miFleet(db, quietLane(), 0, -1, warm); err != nil {
		return fmt.Errorf("warm-up fleet: %w", err)
	}
	r.setup = time.Since(t0)

	outcomes := make([]miOutcome, len(ops))
	done := make([]bool, len(ops))
	t1 := time.Now()
	for i, op := range ops {
		err := l.op(i, "fleet", func(parent int) error {
			var err error
			outcomes[i], err = miFleet(db, l, parent, i, op)
			return err
		})
		done[i] = err == nil
	}
	r.timed = time.Since(t1)

	// Verification, untimed.
	unit, err := fmu.CompileModelica(dataset.ClassroomSource)
	if err != nil {
		return err
	}
	warmN, fitted := 0, 0
	for i, op := range ops {
		if !done[i] {
			continue
		}
		out := outcomes[i]
		if want := len(op.Deltas) * (sz.Hours + 1); out.lateralRows != want {
			l.fail(i, "LATERAL fmu_simulate stored %d rows, want %d", out.lateralRows, want)
			continue
		}
		var sweep struct{ Done, Points int }
		if err := json.Unmarshal([]byte(out.jobResult), &sweep); err != nil ||
			out.jobState != "done" || sweep.Points != sz.Grid*sz.Grid || sweep.Done != sweep.Points {
			l.fail(i, "sweep job ended %q with result %q, want %d points done", out.jobState, out.jobResult, sz.Grid*sz.Grid)
			continue
		}
		for k := range op.Deltas {
			fitted++
			if out.warm[k] {
				warmN++
			}
			pars, err := fittedParams(db, op.instance(k), classroomPars)
			if err != nil {
				l.fail(i, "%v", err)
				break
			}
			p, err := classroomProblem(unit, op.instance(k), frames[i][k])
			if err != nil {
				return err
			}
			// The references hold for the frozen sizes with the shipped MI
			// optimisation only.
			ref := math.Inf(1)
			if mi && r.size != sizeToy {
				ref = miRefRMSE[op.Pool][k]
			}
			msg := checkCalibration(p, pars, out.rmse[k], ref)
			if msg != "" {
				l.fail(i, "%s: %s", op.instance(k), msg)
				break
			}
		}
	}
	if fitted > 0 {
		r.setExtra("mi_warm_share", float64(warmN)/float64(fitted))
	}
	r.setExtra("jobs_failed", float64(db.JobStats().Failed))
	return nil
}

func classroomProblem(unit *fmu.Unit, name string, fr *timeseries.Frame) (*estimate.Problem, error) {
	t, err := fr.Series("t")
	if err != nil {
		return nil, err
	}
	inputs := make(map[string]*timeseries.Series)
	for _, c := range strings.Split(classroomInputs, ", ") {
		if inputs[c], err = fr.Series(c); err != nil {
			return nil, err
		}
	}
	return &estimate.Problem{
		Instance: unit.Instantiate(name),
		Params:   paramSpecs(unit, classroomPars),
		Inputs:   inputs,
		Measured: map[string]*timeseries.Series{"t": t},
	}, nil
}
