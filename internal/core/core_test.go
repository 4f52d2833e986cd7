package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/estimate"
	"repro/internal/fmu"
	"repro/internal/sqldb"
	"repro/internal/timeseries"
	"repro/internal/variant"
)

// hpSource is the running-example heat pump with bounded parameters, in the
// hour time base used by the test datasets.
const hpSource = `
model heatpump
  parameter Real A = 0 (min=-2, max=0.5);
  parameter Real B = 0 (min=0, max=30);
  parameter Real E = 0 (min=0, max=15);
  input Real u(start=0, min=0, max=1);
  Real x(start=20.0);
  output Real y;
equation
  der(x) = A*x + B*u + E;
  y = 7.8*u;
end heatpump;
`

const (
	hpTrueA = -0.4444
	hpTrueB = 13.78
	hpTrueE = 4.4444
)

func newTestSession(t *testing.T, opts ...Option) *Session {
	t.Helper()
	// Fast estimator settings for tests.
	opts = append([]Option{WithEstimateOptions(estimate.Options{
		GA: estimate.GAOptions{Population: 16, Generations: 10, Seed: 2},
	})}, opts...)
	s, err := NewSession(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// loadMeasurements simulates the true model and loads (time, x, y, u) rows
// into a measurement table, scaled by delta.
func loadMeasurements(t *testing.T, s *Session, table string, delta float64) {
	t.Helper()
	unit, err := fmu.CompileModelica(hpSource)
	if err != nil {
		t.Fatal(err)
	}
	truth := unit.Instantiate("truth")
	for name, v := range map[string]float64{"A": hpTrueA, "B": hpTrueB, "E": hpTrueE} {
		if err := truth.SetReal(name, v); err != nil {
			t.Fatal(err)
		}
	}
	u := timeseries.Uniform(0, 1, 25, func(tm float64) float64 {
		return 0.5 + 0.5*math.Sin(tm/4)
	})
	res, err := truth.Simulate(map[string]*timeseries.Series{"u": u}, 0, 24, &fmu.SimOptions{OutputStep: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.DB().Exec(fmt.Sprintf(
		`CREATE TABLE %s (time float, x float, y float, u float)`, table)); err != nil {
		t.Fatal(err)
	}
	xs, _ := res.Series("x")
	ys, _ := res.Series("y")
	for i, tm := range xs.Times {
		uv, _ := u.At(tm, timeseries.Linear)
		if err := s.DB().InsertRow(table,
			tm, xs.Values[i]*delta, ys.Values[i]*delta, uv*delta); err != nil {
			t.Fatal(err)
		}
	}
}

func TestCreateFromInlineModelica(t *testing.T) {
	s := newTestSession(t)
	id, err := s.Create(hpSource, "HP1Instance1")
	if err != nil {
		t.Fatal(err)
	}
	if id != "HP1Instance1" {
		t.Errorf("id = %q", id)
	}
	// Catalogue rows exist.
	rs, err := s.DB().Query(`SELECT count(*) FROM model`)
	if err != nil || rs.Rows[0][0].Int() != 1 {
		t.Errorf("model rows = %v, %v", rs, err)
	}
	rs, _ = s.DB().Query(`SELECT count(*) FROM modelvariable`)
	if rs.Rows[0][0].Int() != 6 { // A, B, E, u, x, y
		t.Errorf("modelvariable rows = %v", rs.Rows[0][0])
	}
	rs, _ = s.DB().Query(`SELECT count(*) FROM modelinstance`)
	if rs.Rows[0][0].Int() != 1 {
		t.Errorf("modelinstance rows = %v", rs.Rows[0][0])
	}
	rs, _ = s.DB().Query(`SELECT count(*) FROM modelinstancevalues WHERE instanceid = 'HP1Instance1'`)
	if rs.Rows[0][0].Int() != 6 {
		t.Errorf("modelinstancevalues rows = %v", rs.Rows[0][0])
	}
}

func TestCreateFromFMUFile(t *testing.T) {
	s := newTestSession(t)
	unit, err := fmu.CompileModelica(hpSource)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "hp1.fmu")
	if err := unit.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	// The paper's exact query shape: SELECT fmu_create('/tmp/hp1.fmu', 'HP1Instance1');
	rs, err := s.DB().Query(`SELECT fmu_create($1, 'HP1Instance1')`, path)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][0].AsText() != "HP1Instance1" {
		t.Errorf("fmu_create returned %v", rs.Rows[0][0])
	}
}

func TestCreateFromMoFile(t *testing.T) {
	s := newTestSession(t)
	path := filepath.Join(t.TempDir(), "model.mo")
	if err := writeFile(path, hpSource); err != nil {
		t.Fatal(err)
	}
	id, err := s.Create(path, "")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(id, "heatpump") {
		t.Errorf("generated id = %q", id)
	}
}

func TestCreateSwappedArguments(t *testing.T) {
	// The paper writes fmu_create('HP0Instance1', '/tmp/model.mo') in §5;
	// argument order is detected.
	s := newTestSession(t)
	path := filepath.Join(t.TempDir(), "model.mo")
	if err := writeFile(path, hpSource); err != nil {
		t.Fatal(err)
	}
	rs, err := s.DB().Query(`SELECT fmu_create('HP0Instance1', $1)`, path)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][0].AsText() != "HP0Instance1" {
		t.Errorf("swapped-arg create = %v", rs.Rows[0][0])
	}
}

func TestCreateErrors(t *testing.T) {
	s := newTestSession(t)
	if _, err := s.Create("garbage", ""); err == nil {
		t.Error("bad model ref should fail")
	}
	if _, err := s.Create("/missing/file.fmu", ""); err == nil {
		t.Error("missing fmu should fail")
	}
	if _, err := s.Create("/missing/file.mo", ""); err == nil {
		t.Error("missing mo should fail")
	}
	if _, err := s.Create(hpSource, "dup"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create(hpSource, "dup"); err == nil {
		t.Error("duplicate instance should fail")
	}
}

func TestFMUStorageReuse(t *testing.T) {
	// Creating a second instance of the same model must not add a second
	// Model row — the paper's single-FMU-storage optimization.
	s := newTestSession(t)
	if _, err := s.Create(hpSource, "i1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create(hpSource, "i2"); err != nil {
		t.Fatal(err)
	}
	rs, _ := s.DB().Query(`SELECT count(*) FROM model`)
	if rs.Rows[0][0].Int() != 1 {
		t.Errorf("model rows = %v, want 1 (FMU reuse)", rs.Rows[0][0])
	}
	rs, _ = s.DB().Query(`SELECT count(*) FROM modelinstance`)
	if rs.Rows[0][0].Int() != 2 {
		t.Errorf("instances = %v", rs.Rows[0][0])
	}
}

func TestCopy(t *testing.T) {
	s := newTestSession(t)
	if _, err := s.Create(hpSource, "HP1Instance1"); err != nil {
		t.Fatal(err)
	}
	if err := s.SetInitial("HP1Instance1", "A", -0.9); err != nil {
		t.Fatal(err)
	}
	// Paper query: SELECT fmu_copy('HP1Instance1', 'HP1Instance2');
	rs, err := s.DB().Query(`SELECT fmu_copy('HP1Instance1', 'HP1Instance2')`)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][0].AsText() != "HP1Instance2" {
		t.Errorf("copy id = %v", rs.Rows[0][0])
	}
	// Copy carries the modified value.
	initial, _, _, err := s.Get("HP1Instance2", "A")
	if err != nil {
		t.Fatal(err)
	}
	if f, _ := initial.AsFloat(); f != -0.9 {
		t.Errorf("copied A = %v", initial)
	}
	// But is independent afterwards.
	if err := s.SetInitial("HP1Instance2", "A", 0.3); err != nil {
		t.Fatal(err)
	}
	orig, _, _, _ := s.Get("HP1Instance1", "A")
	if f, _ := orig.AsFloat(); f != -0.9 {
		t.Errorf("original A changed to %v", orig)
	}
	if _, err := s.Copy("missing", ""); err == nil {
		t.Error("copy of missing instance should fail")
	}
	if _, err := s.Copy("HP1Instance1", "HP1Instance2"); err == nil {
		t.Error("copy onto existing id should fail")
	}
}

func TestVariablesQuery(t *testing.T) {
	s := newTestSession(t)
	if _, err := s.Create(hpSource, "HP1Instance1"); err != nil {
		t.Fatal(err)
	}
	// Paper query (Table 3): SELECT * FROM fmu_variables('HP1Instance1') AS f
	// WHERE f.varType = 'parameter'.
	rs, err := s.DB().Query(
		`SELECT * FROM fmu_variables('HP1Instance1') AS f WHERE f.varType = 'parameter'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 3 { // A, B, E
		t.Fatalf("parameter rows = %d, want 3", len(rs.Rows))
	}
	if rs.Columns[0].Name != "instanceId" || rs.Columns[1].Name != "varName" {
		t.Errorf("columns = %+v", rs.Columns)
	}
	// Check the A row values against the Modelica bounds.
	for _, r := range rs.Rows {
		if r[1].AsText() == "A" {
			if minV, _ := r[4].AsFloat(); minV != -2 {
				t.Errorf("A minValue = %v", r[4])
			}
			if maxV, _ := r[5].AsFloat(); maxV != 0.5 {
				t.Errorf("A maxValue = %v", r[5])
			}
		}
	}
}

func TestSettersAndGet(t *testing.T) {
	s := newTestSession(t)
	if _, err := s.Create(hpSource, "i"); err != nil {
		t.Fatal(err)
	}
	// Paper queries: fmu_set_initial / fmu_set_minimum / fmu_set_maximum.
	for _, q := range []string{
		`SELECT fmu_set_initial('i', 'A', 0)`,
		`SELECT fmu_set_minimum('i', 'A', -10)`,
		`SELECT fmu_set_maximum('i', 'A', 10)`,
	} {
		if _, err := s.DB().Query(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	rs, err := s.DB().Query(`SELECT * FROM fmu_get('i', 'A')`)
	if err != nil {
		t.Fatal(err)
	}
	r := rs.Rows[0]
	if f, _ := r[0].AsFloat(); f != 0 {
		t.Errorf("initial = %v", r[0])
	}
	if f, _ := r[1].AsFloat(); f != -10 {
		t.Errorf("min = %v", r[1])
	}
	if f, _ := r[2].AsFloat(); f != 10 {
		t.Errorf("max = %v", r[2])
	}
	// Errors.
	if err := s.SetInitial("i", "zzz", 1); err == nil {
		t.Error("setting unknown variable should fail")
	}
	if err := s.SetMinimum("i", "zzz", 1); err == nil {
		t.Error("min of unknown variable should fail")
	}
	if _, _, _, err := s.Get("i", "zzz"); err == nil {
		t.Error("get of unknown variable should fail")
	}
	if _, _, _, err := s.Get("missing", "A"); err == nil {
		t.Error("get on missing instance should fail")
	}
}

func TestReset(t *testing.T) {
	s := newTestSession(t)
	if _, err := s.Create(hpSource, "i"); err != nil {
		t.Fatal(err)
	}
	_ = s.SetInitial("i", "A", -1.7)
	if _, err := s.DB().Query(`SELECT fmu_reset('i')`); err != nil {
		t.Fatal(err)
	}
	initial, _, _, _ := s.Get("i", "A")
	if f, _ := initial.AsFloat(); f != 0 { // model default
		t.Errorf("after reset A = %v", initial)
	}
	// Catalogue mirrors the reset.
	rs, _ := s.DB().Query(`SELECT value FROM modelinstancevalues WHERE instanceid = 'i' AND varname = 'A'`)
	if f, _ := rs.Rows[0][0].AsFloat(); f != 0 {
		t.Errorf("catalogue A after reset = %v", rs.Rows[0][0])
	}
}

func TestDeleteInstanceAndModel(t *testing.T) {
	s := newTestSession(t)
	if _, err := s.Create(hpSource, "i1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create(hpSource, "i2"); err != nil {
		t.Fatal(err)
	}
	rs, err := s.DB().Query(`SELECT modelid FROM modelinstance WHERE instanceid = 'i1'`)
	if err != nil || len(rs.Rows) != 1 {
		t.Fatalf("modelinstance row of i1 = %v, %v", rs, err)
	}
	modelID := rs.Rows[0][0].AsText()
	instances := func() []sqldb.Row {
		rs, err := s.DB().Query(`SELECT instanceid FROM modelinstance`)
		if err != nil {
			t.Fatal(err)
		}
		return rs.Rows
	}
	if _, err := s.DB().Query(`SELECT fmu_delete_instance('i1')`); err != nil {
		t.Fatal(err)
	}
	if got := instances(); len(got) != 1 {
		t.Errorf("instances after delete = %v", got)
	}
	// Deleting the model cascades to remaining instances (paper §5).
	if _, err := s.DB().Query(`SELECT fmu_delete_model($1)`, modelID); err != nil {
		t.Fatal(err)
	}
	if got := instances(); len(got) != 0 {
		t.Errorf("instances after model delete = %v", got)
	}
	rs, _ = s.DB().Query(`SELECT count(*) FROM modelvariable`)
	if rs.Rows[0][0].Int() != 0 {
		t.Error("modelvariable rows should cascade away")
	}
	if err := s.DeleteInstance("gone"); err == nil {
		t.Error("deleting missing instance should fail")
	}
	if err := s.DeleteModel("gone"); err == nil {
		t.Error("deleting missing model should fail")
	}
}

func TestSimulateSQL(t *testing.T) {
	s := newTestSession(t)
	loadMeasurements(t, s, "measurements", 1)
	if _, err := s.Create(hpSource, "HP1Instance1"); err != nil {
		t.Fatal(err)
	}
	// Set true parameters so simulation matches the data.
	_ = s.SetInitial("HP1Instance1", "A", hpTrueA)
	_ = s.SetInitial("HP1Instance1", "B", hpTrueB)
	_ = s.SetInitial("HP1Instance1", "E", hpTrueE)

	// Paper query (Table 4 shape).
	rs, err := s.DB().Query(`
		SELECT simulationTime, instanceId, varName, value
		FROM fmu_simulate('HP1Instance1', 'SELECT * FROM measurements')
		WHERE varName IN ('y', 'x')`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) == 0 {
		t.Fatal("no simulation rows")
	}
	if len(rs.Columns) != 4 {
		t.Errorf("columns = %+v", rs.Columns)
	}
	names := map[string]bool{}
	for _, r := range rs.Rows {
		names[r[2].AsText()] = true
		if r[1].AsText() != "HP1Instance1" {
			t.Fatalf("instanceId = %v", r[1])
		}
	}
	if !names["x"] || !names["y"] || len(names) != 2 {
		t.Errorf("varNames = %v", names)
	}
	// Simulated x at t=0 equals the measured start (20.75...? measured x0 is
	// model start 20 since data generated with x(start=20)).
	var x0 float64
	for _, r := range rs.Rows {
		tv, _ := r[0].AsFloat()
		if tv == 0 && r[2].AsText() == "x" {
			x0, _ = r[3].AsFloat()
		}
	}
	if math.Abs(x0-20) > 1e-9 {
		t.Errorf("x(0) = %v, want 20", x0)
	}
}

func TestSimulateDefaultsAndErrors(t *testing.T) {
	s := newTestSession(t)
	if _, err := s.Create(hpSource, "i"); err != nil {
		t.Fatal(err)
	}
	// No input SQL: default experiment window (0..86400 s).
	rs, err := s.Simulate(SimulateRequest{InstanceID: "i"})
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) == 0 {
		t.Error("default simulate returned nothing")
	}
	// Explicit window.
	from, to := 0.0, 10.0
	rs, err = s.Simulate(SimulateRequest{InstanceID: "i", TimeFrom: &from, TimeTo: &to, OutputStep: 1})
	if err != nil {
		t.Fatal(err)
	}
	// 11 communication points × 2 variables.
	if len(rs.Rows) != 22 {
		t.Errorf("rows = %d, want 22", len(rs.Rows))
	}
	// Incomplete interval errors (paper: system raises an error).
	if _, err := s.DB().Query(`SELECT * FROM fmu_simulate('i', NULL, 5)`); err == nil {
		t.Error("incomplete interval should fail")
	}
	if _, err := s.Simulate(SimulateRequest{InstanceID: "missing"}); err == nil {
		t.Error("missing instance should fail")
	}
	bad := 5.0
	if _, err := s.Simulate(SimulateRequest{InstanceID: "i", TimeFrom: &bad}); err == nil {
		t.Error("half-open interval should fail")
	}
}

func TestSimulateLateralMultiInstance(t *testing.T) {
	s := newTestSession(t)
	loadMeasurements(t, s, "measurements", 1)
	for i := 1; i <= 3; i++ {
		if _, err := s.Create(hpSource, fmt.Sprintf("HP1Instance%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// Paper query: LATERAL multi-instance simulation.
	rs, err := s.DB().Query(`
		SELECT * FROM generate_series(1, 3) AS id,
		LATERAL fmu_simulate('HP1Instance' || id::text, 'SELECT * FROM measurements') AS f`)
	if err != nil {
		t.Fatal(err)
	}
	// Every instance contributes rows.
	counts := map[string]int{}
	for _, r := range rs.Rows {
		counts[r[2].AsText()]++
	}
	if len(counts) != 3 {
		t.Errorf("instances in result = %v", counts)
	}
}

func TestParestSQLRecoversParameters(t *testing.T) {
	s := newTestSession(t)
	loadMeasurements(t, s, "measurements", 1)
	if _, err := s.Create(hpSource, "HP1Instance1"); err != nil {
		t.Fatal(err)
	}
	// Paper query: SELECT fmu_parest('{HP1Instance1}', '{SELECT * FROM
	// measurements}', '{A, B}') — here estimating all three.
	rs, err := s.DB().Query(
		`SELECT fmu_parest('{HP1Instance1}', '{SELECT * FROM measurements}', '{A, B, E}')`)
	if err != nil {
		t.Fatal(err)
	}
	text := rs.Rows[0][0].AsText()
	if !strings.HasPrefix(text, "{") || !strings.HasSuffix(text, "}") {
		t.Errorf("estimation errors = %q", text)
	}
	// The catalogue now holds fitted values close to the truth.
	initial, _, _, err := s.Get("HP1Instance1", "A")
	if err != nil {
		t.Fatal(err)
	}
	a, _ := initial.AsFloat()
	if math.Abs(a-hpTrueA) > 0.08 {
		t.Errorf("fitted A = %v, want ≈ %v", a, hpTrueA)
	}
	rs, _ = s.DB().Query(`SELECT value FROM modelinstancevalues WHERE instanceid = 'HP1Instance1' AND varname = 'A'`)
	catA, _ := rs.Rows[0][0].AsFloat()
	if catA != a {
		t.Errorf("catalogue A = %v, instance A = %v", catA, a)
	}
}

func TestParestMIWarmStart(t *testing.T) {
	s := newTestSession(t) // MI on by default (pgFMU+)
	loadMeasurements(t, s, "measurements", 1)
	loadMeasurements(t, s, "measurements2", 1.05) // within the 20% gate
	if _, err := s.Create(hpSource, "HP1Instance1"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create(hpSource, "HP1Instance2"); err != nil {
		t.Fatal(err)
	}
	// Paper's MI query with two input SQLs in one brace list.
	rs, err := s.DB().Query(`SELECT * FROM fmu_parest_report(
		'{HP1Instance1, HP1Instance2}',
		'{SELECT * FROM measurements, SELECT * FROM measurements2}',
		'{A, B, E}')`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 {
		t.Fatalf("report rows = %d", len(rs.Rows))
	}
	warm0, _ := rs.Rows[0][2].AsBool()
	warm1, _ := rs.Rows[1][2].AsBool()
	if warm0 {
		t.Error("first instance must not warm-start")
	}
	if !warm1 {
		t.Error("second similar instance must warm-start (MI optimization)")
	}
}

func TestParestMIOffNeverWarmStarts(t *testing.T) {
	s := newTestSession(t, WithMIOptimization(false)) // pgFMU-
	loadMeasurements(t, s, "measurements", 1)
	if _, err := s.Create(hpSource, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create(hpSource, "b"); err != nil {
		t.Fatal(err)
	}
	results, err := s.Parest(
		[]string{"a", "b"},
		[]string{"SELECT * FROM measurements"},
		[]string{"A", "B", "E"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.UsedWarmStart {
			t.Error("pgFMU- must not warm-start")
		}
	}
}

// TestParestSameBitsAtAnyGOMAXPROCS: pgFMU+ and pgFMU- both fan the
// instances out over every core; each fits the same bits as on one core.
func TestParestSameBitsAtAnyGOMAXPROCS(t *testing.T) {
	for _, mi := range []bool{true, false} {
		var fits []string
		for _, procs := range []int{1, 4} {
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				s := newTestSession(t, WithMIOptimization(mi))
				loadMeasurements(t, s, "m1", 1)
				loadMeasurements(t, s, "m2", 1.05)
				loadMeasurements(t, s, "m3", 1.1)
				ids := []string{"a", "b", "c"}
				for _, id := range ids {
					if _, err := s.Create(hpSource, id); err != nil {
						t.Fatal(err)
					}
				}
				results, err := s.Parest(ids,
					[]string{"SELECT * FROM m1", "SELECT * FROM m2", "SELECT * FROM m3"},
					[]string{"A", "B", "E"})
				if err != nil {
					t.Fatal(err)
				}
				fit := ""
				for _, r := range results {
					fit += fmt.Sprintf("%s warm=%v evals=%d rmse=%x", r.InstanceID, r.UsedWarmStart, r.CostEvals, math.Float64bits(r.RMSE))
					for _, name := range []string{"A", "B", "E"} {
						fit += fmt.Sprintf(" %s=%x", name, math.Float64bits(r.Params[name]))
					}
					fit += "\n"
				}
				fits = append(fits, fit)
			}()
		}
		if fits[0] != fits[1] {
			t.Errorf("MI %v:\n1 proc:\n%s4 procs:\n%s", mi, fits[0], fits[1])
		}
	}
}

func TestParestErrors(t *testing.T) {
	s := newTestSession(t)
	loadMeasurements(t, s, "measurements", 1)
	if _, err := s.Create(hpSource, "i"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Parest(nil, nil, nil); err == nil {
		t.Error("no instances should fail")
	}
	if _, err := s.Parest([]string{"i"}, []string{"a", "b"}, nil); err == nil {
		t.Error("count mismatch should fail")
	}
	if _, err := s.Parest([]string{"missing"}, []string{"SELECT * FROM measurements"}, nil); err == nil {
		t.Error("missing instance should fail")
	}
	if _, err := s.Parest([]string{"i"}, []string{"SELECT garbage FROM"}, nil); err == nil {
		t.Error("bad input SQL should fail")
	}
	if _, err := s.Parest([]string{"i"}, []string{"SELECT * FROM measurements"}, []string{"x"}); err == nil {
		t.Error("estimating a non-parameter should fail")
	}
	// Input with no matching measured columns.
	if _, err := s.DB().Exec(`CREATE TABLE noisy (time float, qqq float)`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DB().Exec(`INSERT INTO noisy VALUES (0, 1), (1, 2)`); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Parest([]string{"i"}, []string{"SELECT * FROM noisy"}, nil); err == nil {
		t.Error("no measured columns should fail")
	}
}

func TestParestUnboundedParameterFails(t *testing.T) {
	src := `
model nb
  parameter Real k = 1;
  Real x(start=0);
equation
  der(x) = k;
end nb;
`
	s := newTestSession(t)
	if _, err := s.Create(src, "i"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DB().Exec(`CREATE TABLE m (time float, x float)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= 5; i++ {
		if err := s.DB().InsertRow("m", float64(i), 2*float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Parest([]string{"i"}, []string{"SELECT * FROM m"}, nil); err == nil {
		t.Error("unbounded parameter should fail with a helpful error")
	}
	// After setting bounds it works and recovers k=2.
	if err := s.SetMinimum("i", "k", 0); err != nil {
		t.Fatal(err)
	}
	if err := s.SetMaximum("i", "k", 5); err != nil {
		t.Fatal(err)
	}
	results, err := s.Parest([]string{"i"}, []string{"SELECT * FROM m"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(results[0].Params["k"]-2) > 0.01 {
		t.Errorf("fitted k = %v, want 2", results[0].Params["k"])
	}
}

func TestValidateInstance(t *testing.T) {
	s := newTestSession(t)
	loadMeasurements(t, s, "measurements", 1)
	if _, err := s.Create(hpSource, "i"); err != nil {
		t.Fatal(err)
	}
	_ = s.SetInitial("i", "A", hpTrueA)
	_ = s.SetInitial("i", "B", hpTrueB)
	_ = s.SetInitial("i", "E", hpTrueE)
	rmse, err := s.ValidateInstance("i", "SELECT * FROM measurements", []string{"A", "B", "E"})
	if err != nil {
		t.Fatal(err)
	}
	if rmse > 0.05 {
		t.Errorf("validation RMSE at truth = %v", rmse)
	}
	// SQL form.
	rs, err := s.DB().Query(`SELECT fmu_validate('i', 'SELECT * FROM measurements', '{A, B, E}')`)
	if err != nil {
		t.Fatal(err)
	}
	if f, _ := rs.Rows[0][0].AsFloat(); f > 0.05 {
		t.Errorf("fmu_validate = %v", f)
	}
}

func TestTimestampTimeAxis(t *testing.T) {
	// Measurements keyed by SQL timestamps must simulate and emit
	// timestamps back (Table 4: 08:00 28/02/2015 ...).
	s := newTestSession(t)
	if _, err := s.Create(hpSource, "i"); err != nil {
		t.Fatal(err)
	}
	_ = s.SetInitial("i", "A", hpTrueA)
	_ = s.SetInitial("i", "B", hpTrueB)
	_ = s.SetInitial("i", "E", hpTrueE)
	if _, err := s.DB().Exec(`CREATE TABLE tm (ts timestamp, u float)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= 6; i++ {
		if _, err := s.DB().Exec(
			`INSERT INTO tm VALUES ($1, $2)`,
			fmt.Sprintf("2015-02-01 %02d:00:00", i), 0.5); err != nil {
			t.Fatal(err)
		}
	}
	rs, err := s.DB().Query(`SELECT * FROM fmu_simulate('i', 'SELECT * FROM tm')`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) == 0 {
		t.Fatal("no rows")
	}
	if rs.Rows[0][0].Kind() != variant.Time {
		t.Errorf("simulationTime kind = %v, want timestamp", rs.Rows[0][0].Kind())
	}
}

func TestLongFormatInput(t *testing.T) {
	// The paper's combined query feeds fmu_simulate with
	// (time, varName, value) rows.
	s := newTestSession(t)
	if _, err := s.Create(hpSource, "i"); err != nil {
		t.Fatal(err)
	}
	_ = s.SetInitial("i", "A", hpTrueA)
	_ = s.SetInitial("i", "B", hpTrueB)
	_ = s.SetInitial("i", "E", hpTrueE)
	if _, err := s.DB().Exec(`CREATE TABLE longin (time float, varname text, value float)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= 10; i++ {
		if _, err := s.DB().Exec(`INSERT INTO longin VALUES ($1, 'u', 1.0)`, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	rs, err := s.DB().Query(`SELECT * FROM fmu_simulate('i', 'SELECT * FROM longin')`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) == 0 {
		t.Error("long-format input produced no rows")
	}
}

func TestSplitBraceList(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{`{A, B}`, []string{"A", "B"}},
		{`{HP1Instance1}`, []string{"HP1Instance1"}},
		{`{}`, nil},
		{`plain`, []string{"plain"}},
		{`{SELECT * FROM measurements}`, []string{"SELECT * FROM measurements"}},
		{`{SELECT * FROM m1, SELECT * FROM m2}`, []string{"SELECT * FROM m1", "SELECT * FROM m2"}},
		{`{SELECT a, b FROM m1; SELECT c FROM m2}`, []string{"SELECT a, b FROM m1", "SELECT c FROM m2"}},
		{`{SELECT a, b FROM m WHERE x IN (1, 2)}`, []string{"SELECT a, b FROM m WHERE x IN (1, 2)"}},
	}
	for _, c := range cases {
		got := splitBraceList(c.in)
		if len(got) != len(c.want) {
			t.Errorf("splitBraceList(%q) = %v, want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("splitBraceList(%q)[%d] = %q, want %q", c.in, i, got[i], c.want[i])
			}
		}
	}
}

func TestModelsAndInstancesUDFs(t *testing.T) {
	s := newTestSession(t)
	if _, err := s.Create(hpSource, "i1"); err != nil {
		t.Fatal(err)
	}
	rs, err := s.DB().Query(`SELECT * FROM fmu_models()`)
	if err != nil || len(rs.Rows) != 1 {
		t.Errorf("fmu_models = %v, %v", rs, err)
	}
	rs, err = s.DB().Query(`SELECT * FROM fmu_instances()`)
	if err != nil || len(rs.Rows) != 1 {
		t.Errorf("fmu_instances = %v, %v", rs, err)
	}
}

func writeFile(path, content string) error {
	return osWriteFile(path, content)
}

// osWriteFile indirection keeps the os import local to this helper.
func osWriteFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

// TestRecoveryTxnRollbackRestoresSessionState verifies that ROLLBACK undoes
// everything a reader sees of the session's FMU state (instances, variable
// values), not just the catalogue rows.
func TestRecoveryTxnRollbackRestoresSessionState(t *testing.T) {
	s := newTestSession(t)
	db := s.DB()

	// Rolled-back fmu_create leaves no instance behind...
	if _, err := db.Query(`BEGIN`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(`SELECT fmu_create($1, 'i1')`, hpSource); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(`ROLLBACK`); err != nil {
		t.Fatal(err)
	}
	rs, err := db.Query(`SELECT count(*) FROM modelinstance`)
	if err != nil || rs.Rows[0][0].Int() != 0 {
		t.Fatalf("catalogue after rollback = %v, %v", rs, err)
	}
	// ...so re-creating the same id must succeed.
	if _, err := db.Query(`SELECT fmu_create($1, 'i1')`, hpSource); err != nil {
		t.Fatalf("recreate after rolled-back create: %v", err)
	}

	// Rolled-back value change restores the live value.
	before, _, _, err := s.Get("i1", "A")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(`BEGIN`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(`SELECT fmu_set_initial('i1', 'A', -1.5)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(`ROLLBACK`); err != nil {
		t.Fatal(err)
	}
	after, _, _, err := s.Get("i1", "A")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := before.AsFloat()
	a, _ := after.AsFloat()
	if a != b {
		t.Fatalf("live value after rolled-back set_initial = %v, want %v", a, b)
	}

	// Rolled-back delete keeps the instance alive and simulable.
	if _, err := db.Query(`BEGIN`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(`SELECT fmu_delete_instance('i1')`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(`ROLLBACK`); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.snapshot(context.Background(), db, "i1"); err != nil {
		t.Fatalf("instance gone after rolled-back delete: %v", err)
	}
}

// TestCommittedCatalogueDMLReachesModel: a committed UPDATE of
// modelinstancevalues is the instance's new value for every reader, and
// reopening the directory changes nothing a reader sees.
func TestCommittedCatalogueDMLReachesModel(t *testing.T) {
	dir := t.TempDir()
	read := func(s *Session) (string, float64) {
		t.Helper()
		rs, err := s.DB().Query(`SELECT initialValue FROM fmu_get('a', 'A')`)
		if err != nil {
			t.Fatal(err)
		}
		a := rs.Rows[0][0].AsText()
		rs, err = s.DB().Query(`SELECT sum(value) FROM fmu_simulate('a') WHERE varName = 'x'`)
		if err != nil {
			t.Fatal(err)
		}
		sum, _ := rs.Rows[0][0].AsFloat()
		return a, sum
	}
	s, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create(hpSource, "a"); err != nil {
		t.Fatal(err)
	}
	_, sum0 := read(s)
	if _, err := s.DB().Exec(
		`UPDATE modelinstancevalues SET value = -1.5 WHERE instanceid = 'a' AND varname = 'A'`); err != nil {
		t.Fatal(err)
	}
	a1, sum1 := read(s)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	a2, sum2 := read(s)
	if a1 != "-1.5" || sum1 == sum0 {
		t.Errorf("after the committed UPDATE: A = %s, sum(x) = %v (was %v); want A = -1.5 and a new trajectory", a1, sum1, sum0)
	}
	if a2 != a1 || sum2 != sum1 {
		t.Errorf("after reopen: A = %s, sum(x) = %v; before reopen A = %s, sum(x) = %v", a2, sum2, a1, sum1)
	}
}

// TestGeneratedInstanceIDAfterReopen: a generated instance id skips the ids
// the catalogue already holds, also after the session is reopened.
func TestGeneratedInstanceIDAfterReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Create(hpSource, "")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	second, err := s.Create(hpSource, "")
	if err != nil {
		t.Fatalf("first generated id after reopen: %v", err)
	}
	if second == first {
		t.Errorf("generated id %q twice", first)
	}
	rs, err := s.DB().Query(`SELECT count(*) FROM modelinstance`)
	if err != nil || rs.Rows[0][0].Int() != 2 {
		t.Errorf("modelinstance rows = %v, %v; want 2", rs, err)
	}
}

// TestCreateSameIDInTwoTransactions: of two open transactions creating the
// same instance id, the second is refused (it loses on the modelinstance
// write latch); once the first commits, the id is taken.
func TestCreateSameIDInTwoTransactions(t *testing.T) {
	s := newTestSession(t)
	defer s.Close()
	if _, err := s.Create(hpSource, "base"); err != nil {
		t.Fatal(err)
	}
	tx1, err := s.DB().Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx1.Exec(`SELECT fmu_create($1, 'x')`, hpSource); err != nil {
		t.Fatal(err)
	}
	tx2, err := s.DB().Begin()
	if err != nil {
		t.Fatal(err)
	}
	refused := func(err error) bool {
		return errors.Is(err, sqldb.ErrWriteConflict) || (err != nil && strings.Contains(err.Error(), "already exists"))
	}
	if _, err := tx2.Exec(`SELECT fmu_create($1, 'x')`, hpSource); !refused(err) {
		t.Errorf("second open fmu_create of x: %v, want it refused", err)
	}
	if _, err := s.Create(hpSource, "x"); !refused(err) {
		t.Errorf("typed Create of x beside the open transaction: %v, want it refused", err)
	}
	if err := tx2.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DB().Query(`SELECT fmu_create($1, 'x')`, hpSource); err == nil || !strings.Contains(err.Error(), "already exists") {
		t.Errorf("fmu_create of x after the commit: %v, want already exists", err)
	}
	rs, err := s.DB().Query(`SELECT count(*) FROM modelinstance WHERE instanceid = 'x'`)
	if err != nil || rs.Rows[0][0].Int() != 1 {
		t.Errorf("modelinstance rows of x = %v, %v; want 1", rs, err)
	}
}

// TestSimulatePointCountOnInexactWindow: 25 samples over 23 h make the
// derived step 23/24 h, which does not accumulate to 23 exactly; the result
// must still have one row per sample and variable, not one extra.
func TestSimulatePointCountOnInexactWindow(t *testing.T) {
	s := newTestSession(t)
	if _, err := s.DB().Exec(`CREATE TABLE m23 (time float, u float)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i <= 24; i++ {
		if err := s.DB().InsertRow("m23", float64(i)*23/24, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Create(hpSource, "i"); err != nil {
		t.Fatal(err)
	}
	rs, err := s.DB().Query(`SELECT count(*) FROM fmu_simulate('i', 'SELECT * FROM m23')`)
	if err != nil {
		t.Fatal(err)
	}
	if got := rs.Rows[0][0].Int(); got != 50 { // 25 points × {x, y}
		t.Errorf("count(*) = %d, want 50", got)
	}
}

// TestCreateRejectsUnknownFunction: fmu_create fails on an equation that
// could never be evaluated, and leaves no catalogue rows behind.
func TestCreateRejectsUnknownFunction(t *testing.T) {
	s := newTestSession(t)
	src := strings.Replace(hpSource, "A*x + B*u + E", "A*x + frobnicate(u) + E", 1)
	_, err := s.DB().Query(`SELECT fmu_create($1, 'bad')`, src)
	if err == nil || !strings.Contains(err.Error(), `unknown function "frobnicate"`) {
		t.Fatalf("fmu_create: %v, want unknown function", err)
	}
	rs, err := s.DB().Query(`SELECT count(*) FROM model`)
	if err != nil || rs.Rows[0][0].Int() != 0 {
		t.Errorf("model rows after failed create = %v, %v", rs, err)
	}
}

// TestSimulateVectorizedScan runs fmu_simulate through SQL with a WHERE
// clause on the function scan itself and checks it agrees with the same
// query over a subquery source, which drains the stream at open and filters
// the drained rows.
func TestSimulateVectorizedScan(t *testing.T) {
	s := newTestSession(t)
	if _, err := s.Create(hpSource, "i"); err != nil {
		t.Fatal(err)
	}
	_ = s.SetInitial("i", "A", hpTrueA)
	_ = s.SetInitial("i", "B", hpTrueB)
	_ = s.SetInitial("i", "E", hpTrueE)

	const q = `SELECT simulationTime, varName, value
		FROM fmu_simulate('i', NULL, 0, 10) WHERE varName = 'x' AND value > 0`
	rs, err := s.DB().Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) == 0 {
		t.Fatal("no rows from filtered fmu_simulate")
	}
	rs2, err := s.DB().Query(`SELECT simulationTime, varName, value
		FROM (SELECT * FROM fmu_simulate('i', NULL, 0, 10)) AS r WHERE varName = 'x' AND value > 0`)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(rs.Rows) != fmt.Sprint(rs2.Rows) {
		t.Fatalf("function scan/subquery mismatch over fmu_simulate:\n  scan: %v\n  subquery: %v", rs.Rows, rs2.Rows)
	}
}
