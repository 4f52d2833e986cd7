package main

import (
	"bytes"
	"context"
	"database/sql"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	pgfmu "repro"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/estimate"
	"repro/internal/fmu"
	"repro/internal/pystack"
	"repro/internal/server/wire"
	"repro/internal/solver"
	"repro/internal/sqldb"
	"repro/internal/timeseries"
)

// The per-layer numbers of a traced run. Every traced run emits every
// per-layer metric, whichever workload it ran beside, so all of them come
// from here: the entry-point ladder, direct probes of single layers through
// their public calls and counters, and one traced probe-size round of each
// workload for the statement spans. README.md says which end-to-end metric
// on which workload each number is expected to move.

type probeSet struct {
	root  string
	seed  int64
	toy   bool
	tr    *tracer
	m     map[string]metric
	notes []string
	// conflicts counts write-conflict errors seen by the storage probe and
	// the served_mix probe round (sqldb.write_conflicts).
	conflicts int
}

func (p *probeSet) put(name string, v float64, unit string) { p.m[name] = metric{v, unit} }

// reps scales a probe's repetition count down for the test size.
func (p *probeSet) reps(n int) int {
	if p.toy {
		return max(3, n/20)
	}
	return n
}

func (p *probeSet) scratch(name string) (string, error) {
	dir := filepath.Join(p.root, "bench", "out", fmt.Sprintf("probe-%d-%s", os.Getpid(), name))
	os.RemoveAll(dir)
	return dir, os.MkdirAll(dir, 0o755)
}

// class is the size the direct probes borrow from the workloads; roundClass
// the size of the traced workload rounds (fewer ops than a measured round).
func (p *probeSet) class() sizeClass {
	if p.toy {
		return sizeToy
	}
	return sizeFull
}

func (p *probeSet) roundClass() sizeClass {
	if p.toy {
		return sizeToy
	}
	return sizeProbe
}

func runProbes(root string, seed int64, size sizeClass, tr *tracer) (map[string]metric, []string, error) {
	p := &probeSet{root: root, seed: seed, toy: size == sizeToy, tr: tr, m: make(map[string]metric)}
	for _, step := range []struct {
		name string
		fn   func() error
	}{
		{"ladder", p.ladder},
		{"fmu", p.fmuLayer},
		{"estimate", p.estimateLayer},
		{"sqldb statements", p.sqldbStatements},
		{"sqldb storage", p.sqldbStorage},
		{"simcache", p.simCache},
		{"rounds", p.workloadRounds},
		{"pystack", p.pystackLayer},
		{"loc", p.loc},
	} {
		t0 := time.Now()
		if err := step.fn(); err != nil {
			return nil, nil, fmt.Errorf("probe %s: %w", step.name, err)
		}
		p.notes = append(p.notes, fmt.Sprintf("probe %s took %.2f s", step.name, time.Since(t0).Seconds()))
	}
	return p.m, p.notes, nil
}

// timeN calls fn n times and returns each call's duration.
func timeN(n int, fn func(i int) error) ([]time.Duration, error) {
	out := make([]time.Duration, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if err := fn(i); err != nil {
			return nil, err
		}
		out[i] = time.Since(t0)
	}
	return out, nil
}

func p50us(ds []time.Duration) float64 { return median(durationsUs(ds)) }
func p50ms(ds []time.Duration) float64 { return median(durationsMs(ds)) }

// ---- entry-point ladder --------------------------------------------------

// ladderProbe is one request replayed at every level it can enter.
var ladderProbes = []struct {
	name string
	sql  string
}{
	{"select1", `SELECT 1`},
	{"point_read", `SELECT v FROM lad WHERE k = $1`},
	{"insert", `INSERT INTO lad_ins VALUES ($1, $2)`},
	{"simulate", `SELECT * FROM fmu_simulate('lad_hp', 'SELECT time, u FROM lad_in', 0, $1)`},
}

const ladderRows, ladderHours = 10000, 24

// ladderLoad fills one engine with the ladder's tables and instance.
func ladderLoad(exec execFn, fr *timeseries.Frame) error {
	for _, ddl := range []string{
		`CREATE TABLE lad (k integer, v float)`,
		`CREATE TABLE lad_ins (k integer, v float)`,
		`CREATE TABLE lad_in (time float, u float)`,
	} {
		if err := exec(ddl); err != nil {
			return err
		}
	}
	if err := exec(`BEGIN`); err != nil {
		return err
	}
	for k := 0; k < ladderRows; k++ {
		if err := exec(`INSERT INTO lad VALUES ($1, $2)`, k, float64(k)*0.25); err != nil {
			return err
		}
	}
	for j, t := range fr.Times {
		if err := exec(`INSERT INTO lad_in VALUES ($1, $2)`, t, fr.Data["u"][j]); err != nil {
			return err
		}
	}
	if err := exec(`COMMIT`); err != nil {
		return err
	}
	if err := exec(`CREATE INDEX lad_k ON lad (k)`); err != nil {
		return err
	}
	return exec(`SELECT fmu_create($1, 'lad_hp')`, dataset.HP1Source)
}

// ladder replays four probes at every level they can enter. Two chains,
// because the server calls pgfmu.DB directly, not database/sql:
//
//	A: fmu.Instance.Simulate -> core.Session.Simulate -> pgfmu.DB -> database/sql
//	B: pgfmu.DB -> HTTP client
//
// Each replay's span is parented to the same replay one level up in its
// chain, and a layer's self time is the median of its level minus the median
// of the level below. Every level fetches the whole result; the simulate
// probe uses a distinct window per replay and level so no level is served
// from the simulation cache.
func (p *probeSet) ladder() error {
	ctx := context.Background()
	fr, err := dataset.GenerateHP1(dataset.Config{Hours: ladderHours, Seed: 7})
	if err != nil {
		return err
	}
	// Engine 1 serves the fmu/core/pgfmu levels and sits behind the server;
	// engine 2 is the one database/sql opens for itself.
	eng, err := pgfmu.Open("")
	if err != nil {
		return err
	}
	defer eng.Close()
	if err := ladderLoad(func(q string, a ...any) error { _, err := eng.Exec(q, a...); return err }, fr); err != nil {
		return err
	}
	sqlDB, err := sql.Open("pgfmu", "")
	if err != nil {
		return err
	}
	defer sqlDB.Close()
	sqlDB.SetMaxOpenConns(1)
	if err := ladderLoad(func(q string, a ...any) error { _, err := sqlDB.Exec(q, a...); return err }, fr); err != nil {
		return err
	}
	env := &servedEnv{db: eng}
	if err := env.serve(); err != nil {
		return err
	}
	defer env.stop()
	sess, err := env.cl.NewSession(ctx)
	if err != nil {
		return err
	}

	unit, err := fmu.CompileModelica(dataset.HP1Source)
	if err != nil {
		return err
	}
	inst := unit.Instantiate("lad_direct")
	u, err := fr.Series("u")
	if err != nil {
		return err
	}
	inputs := map[string]*timeseries.Series{"u": u}

	n := p.reps(200)
	levels := []string{"fmu", "core", "pgfmu", "driver", "pgfmu_b", "server"}
	dur := make(map[string]map[string][]time.Duration) // probe -> level -> replays
	for _, pr := range ladderProbes {
		dur[pr.name] = make(map[string][]time.Duration)
	}
	// window gives every (level, replay) of the simulate probe its own key.
	window := func(level, i int) float64 { return ladderHours - float64(level*n+i+1)*1e-6 }
	args := func(probe string, level, i int) []any {
		switch probe {
		case "point_read":
			return []any{(i * 7919) % ladderRows}
		case "insert":
			return []any{level*n + i, float64(i)}
		case "simulate":
			return []any{window(level, i)}
		}
		return nil
	}
	drainSQL := func(q string, a []any) error {
		rows, err := sqlDB.Query(q, a...)
		if err != nil {
			return err
		}
		_, _, err = foldRows(rows)
		return err
	}
	call := func(probe, q string, level, i int) error {
		a := args(probe, level, i)
		switch levels[level] {
		case "fmu":
			t1 := window(level, i)
			_, err := inst.Simulate(inputs, 0, t1, &fmu.SimOptions{OutputStep: t1 / ladderHours})
			return err
		case "core":
			t0, t1 := 0.0, window(level, i)
			_, err := eng.Session().Simulate(core.SimulateRequest{
				InstanceID: "lad_hp", InputSQL: "SELECT time, u FROM lad_in", TimeFrom: &t0, TimeTo: &t1})
			return err
		case "pgfmu", "pgfmu_b":
			_, err := eng.Query(q, a...)
			return err
		case "driver":
			if probe == "insert" {
				_, err := sqlDB.Exec(q, a...)
				return err
			}
			return drainSQL(q, a)
		default: // server
			rows, err := sess.Query(ctx, q, a...)
			if err != nil {
				return err
			}
			_, err = rows.Drain()
			return err
		}
	}
	for w := 0; w < 3; w++ { // warm every level of every probe
		for _, pr := range ladderProbes {
			for lv := range levels {
				if lv < 2 && pr.name != "simulate" {
					continue
				}
				if err := call(pr.name, pr.sql, lv, n+w); err != nil {
					return fmt.Errorf("%s at %s: %w", pr.name, levels[lv], err)
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		for _, pr := range ladderProbes {
			// Chain A top-down, then chain B, so each span exists before
			// its child names it as parent.
			parent := 0
			for _, lv := range []int{3, 2, 1, 0, 5, 4} {
				if lv < 2 && pr.name != "simulate" {
					continue
				}
				if lv == 5 {
					parent = 0
				}
				id := p.tr.begin(parent, "ladder."+pr.name, levels[lv], i)
				t0 := time.Now()
				err := call(pr.name, pr.sql, lv, i)
				d := time.Since(t0)
				p.tr.end(id)
				if err != nil {
					return fmt.Errorf("%s at %s: %w", pr.name, levels[lv], err)
				}
				dur[pr.name][levels[lv]] = append(dur[pr.name][levels[lv]], d)
				parent = id
			}
		}
	}
	for _, pr := range ladderProbes {
		d := dur[pr.name]
		base := p50us(append(append([]time.Duration(nil), d["pgfmu"]...), d["pgfmu_b"]...))
		p.put("pgfmu.stmt_us_p50."+pr.name, base, "us")
		p.put("driver.self_us."+pr.name, p50us(d["driver"])-p50us(d["pgfmu"]), "us")
		p.put("server.self_us."+pr.name, p50us(d["server"])-p50us(d["pgfmu_b"]), "us")
	}
	sim := dur["simulate"]
	p.put("core.self_us.simulate", p50us(sim["core"])-p50us(sim["fmu"]), "us")
	p.notes = append(p.notes, fmt.Sprintf("ladder simulate medians (us): fmu %.1f, core %.1f, pgfmu %.1f, database/sql %.1f, server %.1f",
		p50us(sim["fmu"]), p50us(sim["core"]), p50us(sim["pgfmu"]), p50us(sim["driver"]), p50us(sim["server"])))

	// driver.scan_ns_per_row: rows.Next+Scan over 10k rows minus draining
	// the engine's own RowIter over the same rows.
	const scanSQL = `SELECT k, v FROM lad`
	viaSQL, err := timeN(p.reps(20), func(int) error {
		rows, err := sqlDB.Query(scanSQL)
		if err != nil {
			return err
		}
		defer rows.Close()
		var k int64
		var v float64
		for rows.Next() {
			if err := rows.Scan(&k, &v); err != nil {
				return err
			}
		}
		return rows.Err()
	})
	if err != nil {
		return err
	}
	viaIter, err := timeN(p.reps(20), func(int) error {
		it, err := eng.QueryRows(scanSQL)
		if err != nil {
			return err
		}
		defer it.Close()
		var k int64
		var v float64
		for it.Next() {
			if err := it.Scan(&k, &v); err != nil {
				return err
			}
		}
		return it.Err()
	})
	if err != nil {
		return err
	}
	p.put("driver.scan_ns_per_row", (p50us(viaSQL)-p50us(viaIter))*1000/ladderRows, "ns")

	// server.session_open_us_p50 and server.wire_bytes_per_row.
	opens, err := timeN(p.reps(100), func(int) error {
		s, err := env.cl.NewSession(ctx)
		if err != nil {
			return err
		}
		return s.Close(ctx)
	})
	if err != nil {
		return err
	}
	p.put("server.session_open_us_p50", p50us(opens), "us")
	body, _ := json.Marshal(wire.QueryRequest{SQL: scanSQL})
	resp, err := http.Post(env.url+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	nBytes, err := io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if err != nil {
		return err
	}
	p.put("server.wire_bytes_per_row", float64(nBytes)/ladderRows, "B")

	// pgfmu.open_ms: Open+Close of an empty database, volatile and durable.
	mem, err := timeN(p.reps(20), func(int) error {
		db, err := pgfmu.Open("")
		if err != nil {
			return err
		}
		return db.Close()
	})
	if err != nil {
		return err
	}
	base, err := p.scratch("open")
	if err != nil {
		return err
	}
	defer os.RemoveAll(base)
	dur2, err := timeN(p.reps(20), func(i int) error {
		db, err := pgfmu.Open(filepath.Join(base, fmt.Sprint(i)))
		if err != nil {
			return err
		}
		return db.Close()
	})
	if err != nil {
		return err
	}
	p.put("pgfmu.open_ms.mem", p50ms(mem), "ms")
	p.put("pgfmu.open_ms.durable", p50ms(dur2), "ms")
	return nil
}

// ---- fmu, solver, modelica -----------------------------------------------

func (p *probeSet) fmuLayer() error {
	n := p.reps(200)
	compile, err := timeN(n, func(int) error {
		_, err := fmu.CompileModelica(dataset.HP1Source)
		return err
	})
	if err != nil {
		return err
	}
	p.put("modelica.compile_us_p50", p50us(compile), "us")

	for _, model := range []string{"hp1", "classroom"} {
		src, _ := dataset.Source(model)
		unit, err := fmu.CompileModelica(src)
		if err != nil {
			return err
		}
		fr, err := dataset.Generate(model, dataset.Config{Hours: 24, Seed: 7})
		if err != nil {
			return err
		}
		inputs := make(map[string]*timeseries.Series)
		for _, in := range unit.Model.Inputs {
			if inputs[in.Name], err = fr.Series(in.Name); err != nil {
				return err
			}
		}
		inst := unit.Instantiate("probe")
		sims, err := timeN(n, func(int) error {
			_, err := inst.Simulate(inputs, 0, 24, &fmu.SimOptions{OutputStep: 1})
			return err
		})
		if err != nil {
			return err
		}
		p.put("fmu.simulate_us_p50."+model, p50us(sims), "us")
		if model != "hp1" {
			continue
		}
		// With no output grid the result holds the solver's own steps.
		steps := 0
		raw, err := timeN(n, func(int) error {
			res, err := inst.Simulate(inputs, 0, 24, nil)
			if err == nil {
				steps = res.Frame.Len() - 1
			}
			return err
		})
		if err != nil {
			return err
		}
		p.put("fmu.ns_per_step", p50us(raw)*1000/float64(steps), "ns")
		clones, err := timeN(n, func(i int) error {
			inst.Clone(fmt.Sprint("c", i))
			return nil
		})
		if err != nil {
			return err
		}
		p.put("fmu.clone_us_p50", p50us(clones), "us")
		dir, err := p.scratch("fmu")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		path := filepath.Join(dir, "hp1.fmu")
		if err := unit.WriteFile(path); err != nil {
			return err
		}
		loads, err := timeN(p.reps(100), func(int) error {
			_, err := fmu.Load(path)
			return err
		})
		if err != nil {
			return err
		}
		p.put("fmu.load_file_us_p50", p50us(loads), "us")

		// solver.ns_per_step: hp1's ODE written in Go, through the solver
		// package directly, with the same input series.
		u := inputs["u"]
		truth := dataset.TruthHP1
		ode := func(t float64, x, dx []float64) error {
			uv, err := u.At(t, timeseries.Linear)
			if err != nil {
				return err
			}
			rc := truth["R"] * truth["Cp"]
			dx[0] = -x[0]/rc + 7.8*2.65/truth["Cp"]*uv + -10/rc
			return nil
		}
		method := solver.NewDormandPrince(0, 0)
		solverSteps := 0
		solves, err := timeN(n, func(int) error {
			res, err := method.Integrate(ode, 0, 24, []float64{20})
			if err == nil {
				solverSteps = len(res.Times) - 1
			}
			return err
		})
		if err != nil {
			return err
		}
		p.put("solver.ns_per_step", p50us(solves)*1000/float64(solverSteps), "ns")
	}
	return nil
}

// ---- estimate ------------------------------------------------------------

func (p *probeSet) estimateLayer() error {
	sz := siSize(p.class())
	unit, err := fmu.CompileModelica(dataset.HP1Source)
	if err != nil {
		return err
	}
	opts := estimate.Options{GA: sz.GA}
	n := 5 // problems
	if p.toy {
		n = 3
	}
	var si, lo []time.Duration
	var evalsSI, evalsLO int
	var ratios []float64
	var ref *estimate.Result
	for i := 0; i < n; i++ {
		delta := 0.9 + 0.05*float64(i)
		fr, err := dataset.GenerateHP1(dataset.Config{Hours: sz.Hours, Seed: p.seed*100 + int64(i) + 1, Delta: delta})
		if err != nil {
			return err
		}
		prob, err := hp1Problem(unit, fmt.Sprint("si", i), fr)
		if err != nil {
			return err
		}
		t0 := time.Now()
		res, err := estimate.EstimateSI(context.Background(), prob, opts)
		if err != nil {
			return err
		}
		si = append(si, time.Since(t0))
		evalsSI += res.CostEvals
		ratios = append(ratios, res.RMSE/(dataset.NoiseSigma["hp1"]*delta))
		if ref == nil {
			ref = res
		}
		prob2, err := hp1Problem(unit, fmt.Sprint("lo", i), fr)
		if err != nil {
			return err
		}
		t0 = time.Now()
		warm, err := estimate.EstimateLO(context.Background(), prob2, ref.Params, opts)
		if err != nil {
			return err
		}
		lo = append(lo, time.Since(t0))
		evalsLO += warm.CostEvals
	}
	total := 0.0
	for _, d := range append(append([]time.Duration(nil), si...), lo...) {
		total += us(d)
	}
	p.put("estimate.si_ms_p50", p50ms(si), "ms")
	p.put("estimate.lo_ms_p50", p50ms(lo), "ms")
	p.put("estimate.cost_evals.si", float64(evalsSI), "count")
	p.put("estimate.cost_evals.lo", float64(evalsLO), "count")
	p.put("estimate.us_per_eval", total/float64(evalsSI+evalsLO), "us")
	p.put("estimate.rmse_over_sigma", median(ratios), "ratio")
	return nil
}

// ---- sqldb: parse, plan, execute ------------------------------------------

func (p *probeSet) sqldbStatements() error {
	sz := trajSize(p.class())
	if !p.toy {
		sz.Instances, sz.HotKeys = 16, 16 // a third of the workload's rows keeps this probe short
	}
	d, err := trajGenerate(p.seed, sz)
	if err != nil {
		return err
	}
	t0 := time.Now()
	if _, err := trajGenerate(p.seed+1, trajSizes{Instances: 4, Hours: sz.Hours}); err != nil {
		return err
	}
	p.put("dataset.generate_ms", ms(time.Since(t0))/4, "ms")

	db, err := pgfmu.Open("")
	if err != nil {
		return err
	}
	defer db.Close()
	exec := func(q string, a ...any) error { _, err := db.Exec(q, a...); return err }
	t0 = time.Now()
	if err := dataset.LoadFrame(db.SQL(), "load_probe", d.frames[0]); err != nil {
		return err
	}
	p.put("dataset.load_rows_per_s", float64(d.frames[0].Len())/time.Since(t0).Seconds(), "1/s")
	err = trajLoad(d, exec, func(d *trajData) error {
		for i, fr := range d.frames {
			for j, t := range fr.Times {
				if err := db.SQL().InsertRow("measurements", rid(i, j), i, t, fr.Data["x"][j], fr.Data["y"][j], fr.Data["u"][j]); err != nil {
					return err
				}
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	train, err := timeN(p.reps(20), func(int) error {
		return exec(`SELECT linregr_train('measurements', 'lr_probe', 'x', 'u, t')`)
	})
	if err != nil {
		return err
	}
	p.put("ml.linregr_train_ms_p50", p50ms(train), "ms")

	// One argument list per template, from the workload's own generator.
	argsOf := make(map[int][]any)
	for _, op := range trajOps(p.seed, sz) {
		if _, ok := argsOf[op.Kind]; !ok {
			argsOf[op.Kind] = op.Args
		}
	}
	n := p.reps(100)
	var parse, plan, cached []time.Duration
	var kinds []string
	for k, tpl := range trajTemplates {
		args := argsOf[k]
		for i := 0; i < n/len(trajTemplates)+1; i++ {
			text := inline(k*1000+i, tpl.sql, args)
			t0 := time.Now()
			if _, err := sqldb.Parse(text); err != nil {
				return fmt.Errorf("parse %s: %w", tpl.name, err)
			}
			parse = append(parse, time.Since(t0))
			st, err := db.Prepare(text)
			if err != nil {
				return err
			}
			t0 = time.Now()
			if err := st.Plan(); err != nil {
				return fmt.Errorf("plan %s: %w", tpl.name, err)
			}
			plan = append(plan, time.Since(t0))
			t0 = time.Now()
			if err := st.Plan(); err != nil {
				return err
			}
			cached = append(cached, time.Since(t0))
		}
		st, err := db.Prepare(tpl.sql)
		if err != nil {
			return err
		}
		kind, err := st.ExecutorKind()
		if err != nil {
			return err
		}
		kinds = append(kinds, tpl.name+"="+kind)
		if k > 5 {
			continue // the six table templates; sim/lateral/linregr are core's and ml's
		}
		runs, err := timeN(n, func(int) error {
			_, err := st.Query(args...)
			return err
		})
		if err != nil {
			return fmt.Errorf("exec %s: %w", tpl.name, err)
		}
		p.put("sqldb.exec_us_p50."+tpl.name, p50us(runs), "us")
	}
	p.put("sqldb.parse_us_p50", p50us(parse), "us")
	p.put("sqldb.plan_us_p50", p50us(plan), "us")
	p.put("sqldb.plan_cached_us_p50", p50us(cached), "us")
	p.notes = append(p.notes, "executor kinds: "+strings.Join(kinds, ", "))

	// sqldb.bulk_insert_rows_per_s: cdb's TestBulkInsert shape, single-row
	// INSERT statements with literals, then COUNT(*), in memory.
	bulk, err := pgfmu.Open("")
	if err != nil {
		return err
	}
	defer bulk.Close()
	if _, err := bulk.Exec(`CREATE TABLE t (id integer, name text, score float)`); err != nil {
		return err
	}
	rows := p.reps(100000)
	t0 = time.Now()
	for i := 0; i < rows; i++ {
		if _, err := bulk.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, 'name%d', %d.5)", i, i, i%97)); err != nil {
			return err
		}
	}
	rs, err := bulk.Query(`SELECT count(*) FROM t`)
	if err != nil {
		return err
	}
	if got, _ := rs.Rows[0][0].AsInt(); got != int64(rows) {
		return fmt.Errorf("bulk insert: COUNT(*) = %d, want %d", got, rows)
	}
	p.put("sqldb.bulk_insert_rows_per_s", float64(rows)/time.Since(t0).Seconds(), "1/s")
	return nil
}

// ---- sqldb: WAL, commits, readers beside a writer --------------------------

func (p *probeSet) sqldbStorage() error {
	n := p.reps(300)
	base, err := p.scratch("storage")
	if err != nil {
		return err
	}
	defer os.RemoveAll(base)
	open := func(dir string) (*pgfmu.DB, error) {
		db, err := pgfmu.Open(dir)
		if err != nil {
			return nil, err
		}
		if _, err := db.Exec(`CREATE TABLE w (k integer, v float)`); err != nil {
			return nil, err
		}
		if _, err := db.Exec(`CREATE INDEX w_k ON w (k)`); err != nil {
			return nil, err
		}
		return db, nil
	}
	inserts := func(db *pgfmu.DB, from int) ([]time.Duration, error) {
		st, err := db.SQL().Prepare(`INSERT INTO w VALUES ($1, $2)`)
		if err != nil {
			return nil, err
		}
		return timeN(n, func(i int) error {
			_, err := st.Exec(from+i, float64(i))
			return err
		})
	}
	mem, err := open("")
	if err != nil {
		return err
	}
	defer mem.Close()
	memIns, err := inserts(mem, 0)
	if err != nil {
		return err
	}
	dur, err := open(filepath.Join(base, "db"))
	if err != nil {
		return err
	}
	defer dur.Close()
	durIns, err := inserts(dur, 0)
	if err != nil {
		return err
	}
	p.put("sqldb.insert_us_p50.mem", p50us(memIns), "us")
	p.put("sqldb.insert_us_p50.durable", p50us(durIns), "us")
	p.put("sqldb.wal_commit_us_p50", p50us(durIns)-p50us(memIns), "us")

	var commits []time.Duration
	for i := 0; i < n/3; i++ {
		tx, err := dur.Begin()
		if err != nil {
			return err
		}
		for j := 0; j < 2; j++ {
			if _, err := tx.Exec(`INSERT INTO w VALUES ($1, $2)`, 100000+2*i+j, 1.0); err != nil {
				tx.Rollback()
				return err
			}
		}
		t0 := time.Now()
		if err := tx.Commit(); err != nil {
			return err
		}
		commits = append(commits, time.Since(t0))
	}
	p.put("sqldb.tx_commit_us_p50", p50us(commits), "us")

	// Point reads alone, then beside one writer committing as fast as it can.
	read, err := dur.SQL().Prepare(`SELECT v FROM w WHERE k = $1`)
	if err != nil {
		return err
	}
	reads := func() ([]time.Duration, error) {
		return timeN(n, func(i int) error {
			rs, err := read.Query(i % n)
			if err == nil && len(rs.Rows) != 1 {
				err = fmt.Errorf("point read of key %d returned %d rows", i%n, len(rs.Rows))
			}
			return err
		})
	}
	alone, err := reads()
	if err != nil {
		return err
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var conflicts int
	var writeErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_, err := dur.Exec(`INSERT INTO w VALUES ($1, $2)`, 200000+i, 2.0)
			if errors.Is(err, pgfmu.ErrWriteConflict) {
				conflicts++
			} else if err != nil {
				writeErr = err
				return
			}
		}
	}()
	beside, err := reads()
	close(stop)
	wg.Wait()
	if err == nil {
		err = writeErr
	}
	if err != nil {
		return err
	}
	p.put("sqldb.read_us_p50.alone", p50us(alone), "us")
	p.put("sqldb.read_us_p50.beside_writer", p50us(beside), "us")
	p.conflicts += conflicts
	return nil
}

// ---- core: simulation cache and job round trip ------------------------------

func (p *probeSet) simCache() error {
	sz := trajSize(p.class())
	if !p.toy {
		// 16 hot keys fit the 128-entry cache; 16 instances x 11 windows =
		// 176 cold keys exceed it.
		sz.Instances, sz.HotKeys = 16, 16
	}
	d, err := trajGenerate(p.seed, sz)
	if err != nil {
		return err
	}
	db, err := pgfmu.Open("")
	if err != nil {
		return err
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE measurements (instance_id integer, t float, u float)`); err != nil {
		return err
	}
	for i, fr := range d.frames {
		for j, t := range fr.Times {
			if err := db.SQL().InsertRow("measurements", i, t, fr.Data["u"][j]); err != nil {
				return err
			}
		}
		if _, err := db.CreateModel(dataset.HP1Source, fmt.Sprintf("hp_%d", i)); err != nil {
			return err
		}
	}
	if _, err := db.Exec(`CREATE INDEX m_i ON measurements (instance_id)`); err != nil {
		return err
	}
	st, err := db.Prepare(trajTemplates[6].sql)
	if err != nil {
		return err
	}
	sim := func(inst int, t1 float64) (time.Duration, bool, error) {
		before := db.SimCacheStats()
		t0 := time.Now()
		_, err := st.Query(fmt.Sprintf("hp_%d", inst), simInputSQL(inst), t1)
		d := time.Since(t0)
		return d, db.SimCacheStats().Hits > before.Hits, err
	}
	pattern := func(keys int, key func(k int) (int, float64)) (hits, total int, hit, miss []time.Duration, err error) {
		for pass := 0; pass < 3; pass++ {
			for k := 0; k < keys; k++ {
				inst, t1 := key(k)
				d, wasHit, err := sim(inst, t1)
				if err != nil {
					return 0, 0, nil, nil, err
				}
				if pass == 0 {
					continue // first sight of every key is a miss in both patterns
				}
				total++
				if wasHit {
					hits++
					hit = append(hit, d)
				} else {
					miss = append(miss, d)
				}
			}
		}
		return
	}
	hotHits, hotN, hit, _, err := pattern(sz.HotKeys, func(k int) (int, float64) { return k, float64(sz.SimHours) })
	if err != nil {
		return err
	}
	coldHits, coldN, _, miss, err := pattern(sz.Instances*sz.ColdWins, func(k int) (int, float64) {
		return k % sz.Instances, sz.coldWindow(k / sz.Instances)
	})
	if err != nil {
		return err
	}
	if len(hit) == 0 || len(miss) == 0 {
		if !p.toy {
			return fmt.Errorf("simulation cache probe saw %d hits and %d misses", len(hit), len(miss))
		}
		hit, miss = append(hit, 0), append(miss, 0)
	}
	p.put("core.simulate_hit_us_p50", p50us(hit), "us")
	p.put("core.simulate_miss_us_p50", p50us(miss), "us")
	p.put("core.simcache_hit_ratio.hot", float64(hotHits)/float64(hotN), "ratio")
	p.put("core.simcache_hit_ratio.cold", float64(coldHits)/float64(coldN), "ratio")
	p.put("core.simcache_evictions", float64(db.SimCacheStats().Evictions), "count")

	// core.job_roundtrip_ms_p50: submit -> done for a job whose body is a
	// cache hit, so what is left is scheduling latency.
	if _, _, err := sim(0, float64(sz.SimHours)); err != nil {
		return err
	}
	trips, err := timeN(p.reps(40), func(int) error {
		t0, t1 := "0", fmt.Sprint(float64(sz.SimHours))
		rs, err := db.Query(`SELECT fmu_submit('simulate', 'hp_0', $1, $2, $3)`, simInputSQL(0), t0, t1)
		if err != nil {
			return err
		}
		job, err := rs.Rows[0][0].AsInt()
		if err != nil {
			return err
		}
		state, _, err := waitJob(db, job)
		if err == nil && state != "done" {
			err = fmt.Errorf("job %d ended %s", job, state)
		}
		return err
	})
	if err != nil {
		return err
	}
	p.put("core.job_roundtrip_ms_p50", p50ms(trips), "ms")
	return nil
}

// ---- one traced round of each workload --------------------------------------

// workloadRounds runs one traced round of each workload (the frozen round
// size, or the test size) and reads the statement spans and round counters
// the per-layer list names. mi_fleet runs a second time with the MI
// optimisation off for core.mi_speedup.
func (p *probeSet) workloadRounds() error {
	spans := func(name string, mi bool) (map[string][]time.Duration, *round, error) {
		tr := newTracer()
		w := findWorkload(name)
		run := w.run
		if !mi {
			run = func(r *round) error { return miRunWith(r, false) }
		}
		r, err := runRound(&workload{name: name, run: run}, p.root, roundID{p.seed, 500}, p.roundClass(), tr)
		if err != nil {
			return nil, nil, err
		}
		if _, failed, _, failures := r.counts(); failed > 0 {
			return nil, nil, fmt.Errorf("%s probe round failed verification: %v", name, failures)
		}
		if mi && p.tr != nil { // keep the spans in the run's trace file
			p.tr.mu.Lock()
			off := len(p.tr.spans)
			for _, s := range tr.spans {
				s.ID += off
				if s.Parent != 0 {
					s.Parent += off
				}
				s.Name = name + "/" + s.Name
				p.tr.spans = append(p.tr.spans, s)
			}
			p.tr.mu.Unlock()
		}
		if mi {
			p.notes = append(p.notes, shareNote(name, tr))
		}
		return tr.byName(false), r, nil
	}

	si, _, err := spans("si_workflow", true)
	if err != nil {
		return err
	}
	p.put("core.fmu_create_ms_p50", p50ms(si["fmu_create"]), "ms")
	p.put("core.fmu_parest_ms_p50", p50ms(si["fmu_parest"]), "ms")
	p.put("core.fmu_simulate_store_ms_p50", p50ms(si["fmu_simulate_store"]), "ms")
	p.put("core.analyse_ms_p50", p50ms(si["analyse"]), "ms")

	mi, r, err := spans("mi_fleet", true)
	if err != nil {
		return err
	}
	sz := miSize(p.class())
	var sweeps []time.Duration
	for i, d := range mi["sweep_submit"] {
		sweeps = append(sweeps, d+mi["sweep_wait"][i])
	}
	p.put("core.fleet_parest_ms_p50", p50ms(mi["fleet_parest"]), "ms")
	p.put("core.fleet_lateral_ms_p50", p50ms(mi["fleet_lateral"]), "ms")
	p.put("core.sweep_ms_p50", p50ms(sweeps), "ms")
	p.put("core.sweep_points_per_s", float64(sz.Grid*sz.Grid)/(p50ms(sweeps)/1000), "1/s")
	p.put("core.jobs_failed", r.extra["jobs_failed"], "count")
	p.put("core.mi_warm_share", r.extra["mi_warm_share"], "ratio")
	off, _, err := spans("mi_fleet", false)
	if err != nil {
		return err
	}
	p.put("core.mi_speedup", p50ms(off["fleet_parest"])/p50ms(mi["fleet_parest"]), "ratio")

	if _, _, err := spans("traj_analytics", true); err != nil {
		return err
	}

	_, r, err = spans("served_mix", true)
	if err != nil {
		return err
	}
	for _, k := range []string{"wal_records_per_commit", "wal_bytes_per_user_byte", "disk_bytes_per_user_byte"} {
		p.put("sqldb."+k, r.extra[k], "ratio")
	}
	p.put("sqldb.write_conflicts", float64(p.conflicts)+r.extra["write_conflicts"], "count")
	p.put("server.stalled_ops", r.extra["stalled_ops"], "count")
	p.put("sqldb.checkpoint_ms", r.extra["checkpoint_ms"], "ms")
	p.put("sqldb.recovery_ms", r.extra["recovery_ms"], "ms")
	return nil
}

// shareNote reports each statement's share of the time spent in ops: the
// traced evidence for the README's layer-share table.
func shareNote(workload string, tr *tracer) string {
	ops, stmts := tr.byName(true), tr.byName(false)
	if len(stmts) == 0 { // traj_analytics: an op is one statement
		stmts = ops
	}
	sum := func(ds []time.Duration) (s float64) {
		for _, d := range ds {
			s += ms(d)
		}
		return s
	}
	total := 0.0
	for _, ds := range ops {
		total += sum(ds)
	}
	var parts []string
	for name, ds := range stmts {
		parts = append(parts, fmt.Sprintf("%s %.1f%%", name, 100*sum(ds)/total))
	}
	sort.Strings(parts)
	return fmt.Sprintf("%s statement shares of op time: %s", workload, strings.Join(parts, ", "))
}

// ---- pystack: the paper's baseline on identical inputs ------------------------

func (p *probeSet) pystackLayer() error {
	sz := siSize(p.class())
	dir, err := p.scratch("pystack")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	unit, err := fmu.CompileModelica(dataset.HP1Source)
	if err != nil {
		return err
	}
	fmuPath := filepath.Join(dir, "hp1.fmu")
	if err := unit.WriteFile(fmuPath); err != nil {
		return err
	}
	est := pgfmu.EstimatorOptions{GA: sz.GA}
	n := 4
	deltas := dataset.MIDeltas(n)

	// Both sides read the same tables of one database; pgFMU works in it,
	// the baseline exports, calibrates outside and imports.
	db, err := pgfmu.Open("", pgfmu.WithEstimatorOptions(est))
	if err != nil {
		return err
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE predictions (instance text, time float, varname text, value float)`); err != nil {
		return err
	}
	for i := 0; i < n; i++ {
		fr, err := dataset.GenerateHP1(dataset.Config{Hours: sz.Hours, Seed: p.seed*10 + 3, Delta: deltas[i]})
		if err != nil {
			return err
		}
		if err := dataset.LoadFrame(db.SQL(), fmt.Sprintf("m_%d", i), fr); err != nil {
			return err
		}
	}
	w := &pystack.Workflow{
		DB: db.SQL(), FMUPath: fmuPath, WorkDir: dir, EstOpts: est,
		Params: paramSpecs(unit, []string{"Cp", "R"}), MeasuredColumns: []string{"x"}, InputColumns: []string{"u"},
	}
	ids := make([]string, n)
	sqls := make([]string, n)
	for i := range ids {
		ids[i] = fmt.Sprintf("py_%d", i)
		sqls[i] = fmt.Sprintf("SELECT time, x, u FROM m_%d", i)
	}
	var pySI, pgSI []time.Duration
	for i := 0; i < n; i++ {
		t0 := time.Now()
		if _, err := w.RunSingleInstance(ids[i], sqls[i], "py_predictions"); err != nil {
			return err
		}
		pySI = append(pySI, time.Since(t0))
		op := siOp{Instance: fmt.Sprintf("pg_%d", i), Table: fmt.Sprintf("m_%d", i)}
		t0 = time.Now()
		if _, err := siWorkflow(db, quietLane(), 0, i, op); err != nil {
			return err
		}
		pgSI = append(pgSI, time.Since(t0))
	}
	p.put("pystack.si_workflow_ms_p50", p50ms(pySI), "ms")
	p.put("pystack.ratio.si", p50ms(pySI)/p50ms(pgSI), "ratio")

	// MI: the baseline calibrates every instance from scratch; pgFMU
	// calibrates the fleet in one fmu_parest with warm starts.
	t0 := time.Now()
	if _, err := w.RunMultiInstance(ids, sqls, "py_predictions"); err != nil {
		return err
	}
	py := time.Since(t0)
	t0 = time.Now()
	fleet := make([]string, n)
	for i := range fleet {
		fleet[i] = fmt.Sprintf("fl_%d", i)
		if _, err := db.CreateModel(dataset.HP1Source, fleet[i]); err != nil {
			return err
		}
	}
	if _, err := db.Calibrate(fleet, sqls, []string{"Cp", "R"}); err != nil {
		return err
	}
	for i, id := range fleet {
		if _, err := db.Exec(fmt.Sprintf(
			`INSERT INTO predictions SELECT instanceid, simulationtime, varname, value FROM fmu_simulate('%s', 'SELECT time, u FROM m_%d')`, id, i)); err != nil {
			return err
		}
	}
	if _, err := db.Query(`SELECT varname, avg(value), min(value), max(value) FROM predictions GROUP BY varname`); err != nil {
		return err
	}
	pg := time.Since(t0)
	p.put("pystack.ratio.mi", py.Seconds()/pg.Seconds(), "ratio")
	return nil
}
