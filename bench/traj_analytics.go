package main

import (
	"database/sql"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"time"

	_ "repro/driver"
	"repro/internal/dataset"
	"repro/internal/fmu"
	"repro/internal/timeseries"
)

// traj_analytics: read-only analytics over stored measurements and simulated
// trajectories through database/sql and the driver package, with the siren
// idioms (db.Prepare -> stmt.Query, QueryRow().Scan). Three quarters of the
// queries run as prepared statements; a quarter arrive as fresh text with
// literals inlined and a unique leading comment, so the plan cache misses and
// parse and plan show.

type trajSizes struct {
	Instances int // hp1 instances, each with Hours+1 measurement rows
	Hours     int
	PerKind   int // queries per template per round
	HotKeys   int // distinct sim_hot keys: fits the 128-entry simulation cache
	ColdWins  int // windows per instance for sim_cold: Instances*ColdWins keys exceed it
	SimHours  int // horizon of sim_hot / lateral_fleet simulations
}

func trajSize(size sizeClass) trajSizes {
	if size == sizeToy {
		return trajSizes{Instances: 4, Hours: 24, PerKind: 2, HotKeys: 2, ColdWins: 3, SimHours: 12}
	}
	sz := trajSizes{Instances: 48, Hours: 336, PerKind: 100, HotKeys: 32, ColdWins: 11, SimHours: 168}
	if size == sizeProbe {
		sz.PerKind = 25
	}
	return sz
}

// coldWindow is the horizon of the win-th sim_cold window: each is a little
// shorter than sim_hot's, so every (instance, window) pair is its own key.
func (sz trajSizes) coldWindow(win int) float64 {
	return float64(sz.SimHours) * (1 - float64(win+1)/float64(4*sz.ColdWins))
}

// trajTemplates are the ten query shapes, in the order ops cycle through them.
var trajTemplates = []struct {
	name string
	sql  string
}{
	{"scan_filter", `SELECT count(*), sum(x) FROM measurements WHERE x > $1 AND u < $2`},
	{"group_agg", `SELECT instance_id, count(*), avg(x), max(y) FROM measurements WHERE t >= $1 GROUP BY instance_id`},
	{"join_residual", `SELECT p.instance_id, sqrt(avg((p.value - m.x) * (p.value - m.x))) FROM predictions p JOIN measurements m ON p.rid = m.rid WHERE p.instance_id BETWEEN $1 AND $2 GROUP BY p.instance_id`},
	{"window_ma", `SELECT t, avg(x) OVER (ORDER BY t ROWS BETWEEN 5 PRECEDING AND CURRENT ROW) FROM measurements WHERE instance_id = $1`},
	{"index_point", `SELECT x, y, u FROM measurements WHERE rid = $1`},
	{"index_range", `SELECT count(*), avg(x) FROM measurements WHERE rid BETWEEN $1 AND $2`},
	{"sim_hot", `SELECT count(*), avg(value) FROM fmu_simulate($1, $2, 0, $3) WHERE varname = 'x'`},
	{"sim_cold", `SELECT count(*), avg(value) FROM fmu_simulate($1, $2, 0, $3) WHERE varname = 'x'`},
	{"lateral_fleet", `SELECT id, avg(f.value) FROM generate_series($1, $2) AS id, LATERAL fmu_simulate('hp_' || id::text, 'SELECT t AS time, u FROM measurements WHERE instance_id = ' || id::text, 0, $3) AS f WHERE f.varname = 'x' GROUP BY id`},
	{"linregr", `SELECT count(*), avg(linregr_predict('lr_x', m.u, m.t) - m.x) FROM measurements m WHERE m.instance_id = $1`},
}

// trajOp is one query: its template, its arguments, and whether it runs as a
// prepared statement or as fresh text.
type trajOp struct {
	Kind     int   `json:"kind"`
	Args     []any `json:"args"`
	Prepared bool  `json:"prepared"`
}

// rid packs (instance, hour) into the indexed integer key.
func rid(instance, hour int) int { return instance*10000 + hour }

func simInputSQL(instance int) string {
	return "SELECT t AS time, u FROM measurements WHERE instance_id = " + strconv.Itoa(instance)
}

// trajPlan fixes the composition (PerKind of each template, every fourth op
// unprepared) and lets the seed choose order and arguments, so two seeds do
// the same amount of each kind of work.
func trajPlan(id roundID, size sizeClass) any { return trajOps(id.seed(), trajSize(size)) }

// trajOps is trajPlan for explicit sizes (the per-layer probes run the
// templates over fewer instances).
func trajOps(seed int64, sz trajSizes) []trajOp {
	rng := rand.New(rand.NewSource(seed))
	n := sz.PerKind * len(trajTemplates)
	ops := make([]trajOp, 0, n)
	cold := rng.Intn(sz.Instances * sz.ColdWins) // where this round enters the cold key cycle
	for i := 0; i < n; i++ {
		k := i % len(trajTemplates)
		op := trajOp{Kind: k}
		inst := rng.Intn(sz.Instances)
		switch trajTemplates[k].name {
		case "scan_filter":
			op.Args = []any{18 + 4*rng.Float64(), 0.4 + 0.4*rng.Float64()}
		case "group_agg":
			op.Args = []any{float64(rng.Intn(sz.Hours / 2))}
		case "join_residual":
			a := rng.Intn(sz.Instances - 1)
			op.Args = []any{a, a + 1}
		case "window_ma", "linregr":
			op.Args = []any{inst}
		case "index_point":
			op.Args = []any{rid(inst, rng.Intn(sz.Hours+1))}
		case "index_range":
			span := min(47, sz.Hours)
			h := rng.Intn(sz.Hours - span + 1)
			op.Args = []any{rid(inst, h), rid(inst, h+span)}
		case "sim_hot":
			hot := rng.Intn(sz.HotKeys)
			op.Args = []any{"hp_" + strconv.Itoa(hot), simInputSQL(hot), float64(sz.SimHours)}
		case "sim_cold":
			key := cold % (sz.Instances * sz.ColdWins)
			cold++
			ci, win := key%sz.Instances, key/sz.Instances
			op.Args = []any{"hp_" + strconv.Itoa(ci), simInputSQL(ci), sz.coldWindow(win)}
		case "lateral_fleet":
			a := rng.Intn(max(1, sz.HotKeys-3))
			op.Args = []any{a, min(a+3, sz.HotKeys-1), float64(sz.SimHours)}
		}
		ops = append(ops, op)
	}
	rng.Shuffle(len(ops), func(i, j int) { ops[i], ops[j] = ops[j], ops[i] })
	for i := range ops {
		ops[i].Prepared = i%4 != 3
	}
	return ops
}

// inline renders a template as fresh text: literals in place of $n and a
// unique leading comment, the way an application tags ad-hoc queries.
func inline(tag int, text string, args []any) string {
	for i := len(args); i >= 1; i-- {
		var lit string
		switch v := args[i-1].(type) {
		case string:
			lit = "'" + strings.ReplaceAll(v, "'", "''") + "'"
		case float64:
			lit = strconv.FormatFloat(v, 'g', -1, 64)
			if !strings.ContainsAny(lit, ".e") {
				lit += ".0"
			}
		default:
			lit = fmt.Sprint(v)
		}
		text = strings.ReplaceAll(text, "$"+strconv.Itoa(i), lit)
	}
	return fmt.Sprintf("/* q%d */ %s", tag, text)
}

// trajData is the generated input, kept so results can be recomputed in Go.
type trajData struct {
	sz     trajSizes
	frames []*timeseries.Frame
	cp     []float64 // per-instance Cp set with fmu_set_initial
	pred   [][]float64
}

// trajGenerate builds the per-instance hp1 series from the seed.
func trajGenerate(seed int64, sz trajSizes) (*trajData, error) {
	d := &trajData{sz: sz}
	for i := 0; i < sz.Instances; i++ {
		fr, err := dataset.GenerateHP1(dataset.Config{Hours: sz.Hours, Seed: seed*1000 + int64(i) + 1})
		if err != nil {
			return nil, err
		}
		d.frames = append(d.frames, fr)
		d.cp = append(d.cp, 1.2+0.6*float64(i)/float64(sz.Instances))
	}
	return d, nil
}

// execFn runs one statement for its side effects; it lets the loader work
// through database/sql (the workload) and through pgfmu.DB (the probes).
type execFn func(sql string, args ...any) error

// trajLoad creates and fills measurements, the instances (parameterised with
// fmu_set_initial, no fmu_parest), predictions (one LATERAL fmu_simulate over
// every instance) and the regression model. insertMeasurements loads the
// rows, because the fast path differs per entry point.
func trajLoad(d *trajData, exec execFn, insertMeasurements func(d *trajData) error) error {
	sz := d.sz
	if err := exec(`CREATE TABLE measurements (rid integer, instance_id integer, t float, x float, y float, u float)`); err != nil {
		return err
	}
	if err := insertMeasurements(d); err != nil {
		return err
	}
	for _, ddl := range []string{
		`CREATE INDEX measurements_rid ON measurements (rid)`,
		`CREATE INDEX measurements_instance ON measurements (instance_id)`,
		`CREATE TABLE predictions (rid integer, instance_id integer, t float, value float)`,
	} {
		if err := exec(ddl); err != nil {
			return err
		}
	}
	for i := 0; i < sz.Instances; i++ {
		var err error
		if i == 0 {
			err = exec(`SELECT fmu_create($1, 'hp_0')`, dataset.HP1Source)
		} else {
			err = exec(fmt.Sprintf(`SELECT fmu_copy('hp_0', 'hp_%d')`, i))
		}
		if err == nil {
			err = exec(fmt.Sprintf(`SELECT fmu_set_initial('hp_%d', 'Cp', $1)`, i), d.cp[i])
		}
		if err != nil {
			return err
		}
	}
	if err := exec(fmt.Sprintf(
		`INSERT INTO predictions SELECT id * 10000 + f.simulationtime::integer, id, f.simulationtime, f.value
		   FROM generate_series(0, %d) AS id,
		        LATERAL fmu_simulate('hp_' || id::text, 'SELECT t AS time, u FROM measurements WHERE instance_id = ' || id::text) AS f
		  WHERE f.varname = 'x'`, sz.Instances-1)); err != nil {
		return err
	}
	if err := exec(`CREATE INDEX predictions_rid ON predictions (rid)`); err != nil {
		return err
	}
	return exec(`SELECT linregr_train('measurements', 'lr_x', 'x', 'u, t')`)
}

func trajRun(r *round) error {
	sz := trajSize(r.size)
	ops := trajPlan(r.id, r.size).([]trajOp)
	l := r.newLane(0)

	t0 := time.Now()
	d, err := trajGenerate(r.id.seed(), sz)
	if err != nil {
		return err
	}
	db, err := sql.Open("pgfmu", "")
	if err != nil {
		return err
	}
	defer db.Close()
	db.SetMaxOpenConns(1) // one client, one connection
	exec := func(q string, args ...any) error {
		_, err := db.Exec(q, args...)
		return err
	}
	err = trajLoad(d, exec, func(d *trajData) error {
		tx, err := db.Begin()
		if err != nil {
			return err
		}
		defer tx.Rollback()
		for i, fr := range d.frames {
			for j, t := range fr.Times {
				if _, err := tx.Exec(`INSERT INTO measurements VALUES ($1, $2, $3, $4, $5, $6)`,
					rid(i, j), i, t, fr.Data["x"][j], fr.Data["y"][j], fr.Data["u"][j]); err != nil {
					return err
				}
			}
		}
		return tx.Commit()
	})
	if err != nil {
		return err
	}
	stmts := make([]*sql.Stmt, len(trajTemplates))
	for k, tpl := range trajTemplates {
		if stmts[k], err = db.Prepare(tpl.sql); err != nil {
			return fmt.Errorf("prepare %s: %w", tpl.name, err)
		}
		defer stmts[k].Close()
	}
	// Warm-up: each template once with fixed arguments.
	warmed := make([]bool, len(trajTemplates))
	for _, op := range trajPlan(roundID{Run: 7}, r.size).([]trajOp) {
		if warmed[op.Kind] {
			continue
		}
		warmed[op.Kind] = true
		if _, _, err := trajQuery(stmts[op.Kind], op.Args); err != nil {
			return fmt.Errorf("warm-up %s: %w", trajTemplates[op.Kind].name, err)
		}
	}
	r.setup = time.Since(t0)

	type outcome struct {
		rows int
		sum  float64
		ok   bool
	}
	outcomes := make([]outcome, len(ops))
	t1 := time.Now()
	for i, op := range ops {
		tpl := trajTemplates[op.Kind]
		err := l.op(i, tpl.name, func(int) error {
			var err error
			if op.Prepared {
				outcomes[i].rows, outcomes[i].sum, err = trajQuery(stmts[op.Kind], op.Args)
			} else {
				outcomes[i].rows, outcomes[i].sum, err = trajQueryText(db, inline(i, tpl.sql, op.Args))
			}
			return err
		})
		outcomes[i].ok = err == nil
	}
	r.timed = time.Since(t1)

	// Verification, untimed: recompute in Go from the generated frames
	// where that is cheap, compare repeats of one query otherwise, and
	// re-simulate a sample of the fmu_simulate queries directly.
	if err := d.readPredictions(db); err != nil {
		return err
	}
	unit, err := fmu.CompileModelica(dataset.HP1Source)
	if err != nil {
		return err
	}
	seen := make(map[string]outcome)
	resim := 8
	for i, op := range ops {
		if !outcomes[i].ok {
			continue
		}
		got := outcomes[i]
		name := trajTemplates[op.Kind].name
		wantRows, wantSum, known := d.expect(name, op.Args)
		if known {
			if got.rows != wantRows || !closeTo(got.sum, wantSum, 1e-9) {
				l.fail(i, "%s%v returned %d rows, checksum %.12g; recomputed %d rows, %.12g", name, op.Args, got.rows, got.sum, wantRows, wantSum)
			}
			continue
		}
		key := name + fmt.Sprint(op.Args)
		if first, ok := seen[key]; ok {
			if got.rows != first.rows || got.sum != first.sum {
				l.fail(i, "%s%v returned %d rows, checksum %.12g; its first run returned %d, %.12g", name, op.Args, got.rows, got.sum, first.rows, first.sum)
			}
			continue
		}
		seen[key] = got
		if strings.HasPrefix(name, "sim_") && resim > 0 {
			resim--
			want, err := d.simulate(unit, op.Args)
			if err != nil {
				return err
			}
			if !closeTo(got.sum, want, 1e-9) {
				l.fail(i, "%s%v checksum %.12g, direct simulation gives %.12g", name, op.Args, got.sum, want)
			}
		}
	}
	return nil
}

// trajQuery runs a prepared template and folds the result into a row count
// and a float checksum (the sum of every numeric cell).
func trajQuery(st *sql.Stmt, args []any) (int, float64, error) {
	rows, err := st.Query(args...)
	if err != nil {
		return 0, 0, err
	}
	return foldRows(rows)
}

func trajQueryText(db *sql.DB, text string) (int, float64, error) {
	rows, err := db.Query(text)
	if err != nil {
		return 0, 0, err
	}
	return foldRows(rows)
}

func foldRows(rows *sql.Rows) (int, float64, error) {
	defer rows.Close()
	cols, err := rows.Columns()
	if err != nil {
		return 0, 0, err
	}
	cells := make([]any, len(cols))
	ptrs := make([]any, len(cols))
	for i := range cells {
		ptrs[i] = &cells[i]
	}
	n, sum := 0, 0.0
	for rows.Next() {
		if err := rows.Scan(ptrs...); err != nil {
			return 0, 0, err
		}
		n++
		for _, c := range cells {
			switch v := c.(type) {
			case float64:
				sum += v
			case int64:
				sum += float64(v)
			}
		}
	}
	return n, sum, rows.Err()
}

// readPredictions loads the stored trajectories back so join_residual can be
// recomputed in Go.
func (d *trajData) readPredictions(db *sql.DB) error {
	rows, err := db.Query(`SELECT instance_id, t, value FROM predictions`)
	if err != nil {
		return err
	}
	defer rows.Close()
	d.pred = make([][]float64, d.sz.Instances)
	for i := range d.pred {
		d.pred[i] = make([]float64, d.sz.Hours+1)
	}
	n := 0
	for rows.Next() {
		var inst int
		var t, v float64
		if err := rows.Scan(&inst, &t, &v); err != nil {
			return err
		}
		d.pred[inst][int(math.Round(t))] = v
		n++
	}
	if want := d.sz.Instances * (d.sz.Hours + 1); n != want {
		return fmt.Errorf("predictions holds %d rows, want %d", n, want)
	}
	return rows.Err()
}

// expect recomputes a query's row count and checksum from the generated
// frames; known is false for templates verified another way.
func (d *trajData) expect(name string, args []any) (rows int, sum float64, known bool) {
	sz := d.sz
	switch name {
	case "scan_filter":
		xMin, uMax := args[0].(float64), args[1].(float64)
		n, s := 0, 0.0
		for _, fr := range d.frames {
			for j, x := range fr.Data["x"] {
				if x > xMin && fr.Data["u"][j] < uMax {
					n++
					s += x
				}
			}
		}
		return 1, float64(n) + s, true
	case "group_agg":
		tMin := args[0].(float64)
		for i, fr := range d.frames {
			n, s, mx := 0, 0.0, math.Inf(-1)
			for j, t := range fr.Times {
				if t >= tMin {
					n++
					s += fr.Data["x"][j]
					mx = math.Max(mx, fr.Data["y"][j])
				}
			}
			if n > 0 {
				rows++
				sum += float64(i) + float64(n) + s/float64(n) + mx
			}
		}
		return rows, sum, true
	case "join_residual":
		for i := args[0].(int); i <= args[1].(int); i++ {
			s := 0.0
			for j, x := range d.frames[i].Data["x"] {
				e := d.pred[i][j] - x
				s += e * e
			}
			rows++
			sum += float64(i) + math.Sqrt(s/float64(sz.Hours+1))
		}
		return rows, sum, true
	case "window_ma":
		fr := d.frames[args[0].(int)]
		xs := fr.Data["x"]
		for j := range xs {
			lo := max(0, j-5)
			s := 0.0
			for _, x := range xs[lo : j+1] {
				s += x
			}
			sum += fr.Times[j] + s/float64(j+1-lo)
		}
		return len(xs), sum, true
	case "index_point":
		key := args[0].(int)
		fr := d.frames[key/10000]
		j := key % 10000
		return 1, fr.Data["x"][j] + fr.Data["y"][j] + fr.Data["u"][j], true
	case "index_range":
		lo, hi := args[0].(int), args[1].(int)
		fr := d.frames[lo/10000]
		n, s := 0, 0.0
		for j := lo % 10000; j <= hi%10000; j++ {
			n++
			s += fr.Data["x"][j]
		}
		return 1, float64(n) + s/float64(n), true
	}
	return 0, 0, false
}

// simulate recomputes a sim_hot/sim_cold checksum with fmu.Instance.Simulate,
// bypassing SQL, core and the simulation cache.
func (d *trajData) simulate(unit *fmu.Unit, args []any) (float64, error) {
	i, err := strconv.Atoi(strings.TrimPrefix(args[0].(string), "hp_"))
	if err != nil {
		return 0, err
	}
	inst := unit.Instantiate("check")
	if err := inst.SetReal("Cp", d.cp[i]); err != nil {
		return 0, err
	}
	u, err := d.frames[i].Series("u")
	if err != nil {
		return 0, err
	}
	t1 := args[2].(float64)
	res, err := inst.Simulate(map[string]*timeseries.Series{"u": u}, 0, t1,
		&fmu.SimOptions{OutputStep: t1 / float64(d.sz.Hours)})
	if err != nil {
		return 0, err
	}
	x, err := res.Series("x")
	if err != nil {
		return 0, err
	}
	mean, err := x.Mean()
	if err != nil {
		return 0, err
	}
	return float64(x.Len()) + mean, nil
}
