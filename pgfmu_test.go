package pgfmu

import (
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/estimate"
)

func openFast(t *testing.T, opts ...Option) *DB {
	t.Helper()
	opts = append([]Option{WithEstimatorOptions(EstimatorOptions{
		GA: GAOptions{Population: 14, Generations: 8, Seed: 5},
	})}, opts...)
	db, err := Open("", opts...)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func loadHP1(t *testing.T, db *DB, table string, delta float64) {
	t.Helper()
	frame, err := dataset.GenerateHP1(dataset.Config{Hours: 48, Seed: 2, NoiseSigma: 0.05, Delta: delta})
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.LoadFrame(db.SQL(), table, frame); err != nil {
		t.Fatal(err)
	}
}

func TestEndToEndSQLWorkflow(t *testing.T) {
	// The full running example (§2/§5–§7) through the SQL API alone.
	db := openFast(t)
	loadHP1(t, db, "measurements", 1)

	// 1. Create.
	if _, err := db.Query(`SELECT fmu_create($1, 'HP1Instance1')`, dataset.HP1Source); err != nil {
		t.Fatal(err)
	}
	// 2. Inspect variables (Table 3).
	rs, err := db.Query(`SELECT * FROM fmu_variables('HP1Instance1') AS f WHERE f.varType = 'parameter'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 5 { // Cp, R, P, eta, thetaA
		t.Fatalf("parameters = %d", len(rs.Rows))
	}
	// 3. Calibrate Cp and R (Table 7).
	rs, err = db.Query(`SELECT fmu_parest('{HP1Instance1}', '{SELECT * FROM measurements}', '{Cp, R}')`)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(rs.Rows[0][0].AsText(), "{") {
		t.Errorf("parest result = %v", rs.Rows[0][0])
	}
	// 4. Fitted values near truth.
	initial, _, _, err := db.Get("HP1Instance1", "Cp")
	if err != nil {
		t.Fatal(err)
	}
	cp, _ := initial.AsFloat()
	if math.Abs(cp-dataset.TruthHP1["Cp"]) > 0.35 {
		t.Errorf("Cp = %v, want ≈ %v", cp, dataset.TruthHP1["Cp"])
	}
	// 5. Simulate (Table 4) and filter with plain SQL.
	rs, err = db.Query(`
		SELECT simulationTime, instanceId, varName, value
		FROM fmu_simulate('HP1Instance1', 'SELECT * FROM measurements')
		WHERE varName IN ('y', 'x')`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) == 0 {
		t.Fatal("no simulation output")
	}
	// 6. Analysis: aggregate predictions in-DBMS.
	rs, err = db.Query(`
		SELECT varName, avg(value) FROM fmu_simulate('HP1Instance1',
		'SELECT * FROM measurements') GROUP BY varName ORDER BY varName`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 {
		t.Errorf("aggregated rows = %d", len(rs.Rows))
	}
}

func TestGoAPIWorkflow(t *testing.T) {
	db := openFast(t)
	loadHP1(t, db, "measurements", 1)

	id, err := db.CreateModel(dataset.HP1Source, "hp")
	if err != nil {
		t.Fatal(err)
	}
	results, err := db.Calibrate([]string{id}, []string{"SELECT * FROM measurements"}, []string{"Cp", "R"})
	if err != nil {
		t.Fatal(err)
	}
	if results[0].RMSE > 0.3 {
		t.Errorf("RMSE = %v", results[0].RMSE)
	}
	rmse, err := db.Validate(id, "SELECT * FROM measurements", []string{"Cp", "R"})
	if err != nil || rmse > 0.3 {
		t.Errorf("validation = %v, %v", rmse, err)
	}
	rows, err := db.Simulate(SimulateOptions{InstanceID: id, InputSQL: "SELECT * FROM measurements"})
	if err != nil || len(rows.Rows) == 0 {
		t.Errorf("simulate = %v, %v", rows, err)
	}

	// Copy / set / get / reset / delete round trip.
	cp, err := db.CopyInstance(id, "hp2")
	if err != nil || cp != "hp2" {
		t.Fatal(err)
	}
	if err := db.SetInitial("hp2", "Cp", 2.2); err != nil {
		t.Fatal(err)
	}
	if err := db.SetMinimum("hp2", "Cp", 0.1); err != nil {
		t.Fatal(err)
	}
	if err := db.SetMaximum("hp2", "Cp", 9); err != nil {
		t.Fatal(err)
	}
	initial, minV, maxV, err := db.Get("hp2", "Cp")
	if err != nil {
		t.Fatal(err)
	}
	iv, _ := initial.AsFloat()
	mn, _ := minV.AsFloat()
	mx, _ := maxV.AsFloat()
	if iv != 2.2 || mn != 0.1 || mx != 9 {
		t.Errorf("get = %v %v %v", iv, mn, mx)
	}
	if err := db.ResetInstance("hp2"); err != nil {
		t.Fatal(err)
	}
	if err := db.DeleteInstance("hp2"); err != nil {
		t.Fatal(err)
	}
	rs, err := db.Query(`SELECT modelid FROM modelinstance WHERE instanceid = $1`, id)
	if err != nil || len(rs.Rows) != 1 {
		t.Fatalf("modelinstance row of %s = %v, %v", id, rs, err)
	}
	if err := db.DeleteModel(rs.Rows[0][0].AsText()); err != nil {
		t.Fatal(err)
	}
}

func TestCombinedFMUAndMLQuery(t *testing.T) {
	// pgFMU + MADlib-style ML in one database (§8.2).
	db := openFast(t)
	loadHP1(t, db, "measurements", 1)
	if _, err := db.Query(
		`SELECT arima_train('measurements', 'x_model', 'time', 'x', 2, 0, 0)`); err != nil {
		t.Fatal(err)
	}
	rs, err := db.Query(`SELECT * FROM arima_forecast('x_model', 3)`)
	if err != nil || len(rs.Rows) != 3 {
		t.Errorf("forecast = %v, %v", rs, err)
	}

	// An ML-predicted series as FMU input: the *_predict functions are pure,
	// so such a query passes the read-only input_sql check.
	if _, err := db.Query(`SELECT linregr_train('measurements', 'lr_u', 'u', 'time')`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateModel(dataset.HP1Source, "hp"); err != nil {
		t.Fatal(err)
	}
	rs, err = db.Query(`SELECT count(*) FROM fmu_simulate('hp',
		'SELECT time, linregr_predict(''lr_u'', time) AS u FROM measurements')`)
	if err != nil || rs.Rows[0][0].Int() == 0 {
		t.Errorf("simulate on predicted input = %v, %v", rs, err)
	}
	if _, err := db.Query(`SELECT count(*) FROM fmu_simulate('hp',
		'SELECT time, linregr_train(''measurements'', ''lr2'', ''u'', ''time'') AS u FROM measurements')`); err == nil || !strings.Contains(err.Error(), "input_sql") {
		t.Errorf("training inside input_sql: error %v, want one naming input_sql", err)
	}
}

func TestMIConfigurationOptions(t *testing.T) {
	plus := openFast(t) // default: MI on
	minus := openFast(t, WithMIOptimization(false))
	loadHP1(t, plus, "m1", 1)
	loadHP1(t, plus, "m2", 1.05)
	loadHP1(t, minus, "m1", 1)
	loadHP1(t, minus, "m2", 1.05)

	for _, db := range []*DB{plus, minus} {
		if _, err := db.CreateModel(dataset.HP1Source, "a"); err != nil {
			t.Fatal(err)
		}
		if _, err := db.CreateModel(dataset.HP1Source, "b"); err != nil {
			t.Fatal(err)
		}
	}
	rp, err := plus.Calibrate([]string{"a", "b"}, []string{"SELECT * FROM m1", "SELECT * FROM m2"}, []string{"Cp", "R"})
	if err != nil {
		t.Fatal(err)
	}
	rm, err := minus.Calibrate([]string{"a", "b"}, []string{"SELECT * FROM m1", "SELECT * FROM m2"}, []string{"Cp", "R"})
	if err != nil {
		t.Fatal(err)
	}
	if !rp[1].UsedWarmStart {
		t.Error("pgFMU+ should warm-start the similar instance")
	}
	if rm[1].UsedWarmStart {
		t.Error("pgFMU- must never warm-start")
	}
	// Warm start is cheaper.
	if rp[1].CostEvals >= rm[1].CostEvals {
		t.Errorf("pgFMU+ evals (%d) should be < pgFMU- evals (%d)", rp[1].CostEvals, rm[1].CostEvals)
	}
}

func TestWithSimilarityThreshold(t *testing.T) {
	// A tiny threshold turns the warm start off even for similar data.
	db := openFast(t, WithSimilarityThreshold(1e-9))
	loadHP1(t, db, "m1", 1)
	loadHP1(t, db, "m2", 1.05)
	if _, err := db.CreateModel(dataset.HP1Source, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.CreateModel(dataset.HP1Source, "b"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Calibrate([]string{"a", "b"}, []string{"SELECT * FROM m1", "SELECT * FROM m2"}, []string{"Cp", "R"})
	if err != nil {
		t.Fatal(err)
	}
	if res[1].UsedWarmStart {
		t.Error("sub-epsilon threshold must disable the warm start")
	}
}

func TestEstimatorOptionsAreUsed(t *testing.T) {
	db, err := Open("", WithEstimatorOptions(estimate.Options{
		GA: estimate.GAOptions{Population: 6, Generations: 2, Seed: 1},
	}))
	if err != nil {
		t.Fatal(err)
	}
	loadHP1(t, db, "measurements", 1)
	if _, err := db.CreateModel(dataset.HP1Source, "i"); err != nil {
		t.Fatal(err)
	}
	res, err := db.Calibrate([]string{"i"}, []string{"SELECT * FROM measurements"}, []string{"Cp", "R"})
	if err != nil {
		t.Fatal(err)
	}
	// 6×2 GA + local: well under a hundred evals.
	if res[0].CostEvals > 400 {
		t.Errorf("evals = %d; estimator options not honoured?", res[0].CostEvals)
	}
}

func TestControlFacade(t *testing.T) {
	db := openFast(t)
	if _, err := db.CreateModel(dataset.HP1Source, "hp"); err != nil {
		t.Fatal(err)
	}
	rows, err := db.Control(ControlOptions{
		InstanceID: "hp", Target: "x", Setpoint: 16, TimeTo: 12, Steps: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows.Rows) == 0 {
		t.Fatal("no control rows")
	}
	// Control values respect the input's declared [0, 1] range.
	for _, r := range rows.Rows {
		if r[1].AsText() != "u" {
			continue
		}
		v, _ := r[2].AsFloat()
		if v < 0 || v > 1 {
			t.Errorf("control %v outside declared bounds", v)
		}
	}
}
