package ml

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sqldb"
)

func TestSolveLinearSystem(t *testing.T) {
	a := [][]float64{{2, 1}, {1, 3}}
	b := []float64{5, 10}
	x, err := solveLinearSystem(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(x[0]-1) > 1e-9 || math.Abs(x[1]-3) > 1e-9 {
		t.Errorf("x = %v, want [1 3]", x)
	}
	if _, err := solveLinearSystem([][]float64{{0, 0}, {0, 0}}, []float64{1, 1}); err == nil {
		t.Error("singular system should fail")
	}
	if _, err := solveLinearSystem(nil, nil); err == nil {
		t.Error("empty system should fail")
	}
	if _, err := solveLinearSystem([][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Error("non-square should fail")
	}
}

func TestFitLinearExact(t *testing.T) {
	// y = 3 + 2a - b exactly.
	var x [][]float64
	var y []float64
	for a := 0.0; a < 5; a++ {
		for b := 0.0; b < 5; b++ {
			x = append(x, []float64{a, b})
			y = append(y, 3+2*a-b)
		}
	}
	m, err := FitLinear(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Intercept-3) > 1e-6 || math.Abs(m.Coef[0]-2) > 1e-6 || math.Abs(m.Coef[1]+1) > 1e-6 {
		t.Errorf("model = %+v", m)
	}
	if m.R2 < 0.9999 {
		t.Errorf("R2 = %v", m.R2)
	}
	if got := m.Predict([]float64{1, 1}); math.Abs(got-4) > 1e-6 {
		t.Errorf("Predict = %v", got)
	}
	if _, err := FitLinear(nil, nil); err == nil {
		t.Error("empty fit should fail")
	}
}

func TestFitLinearRecoversNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var x [][]float64
	var y []float64
	for i := 0; i < 500; i++ {
		a := rng.Float64() * 10
		x = append(x, []float64{a})
		y = append(y, 1.5+0.8*a+rng.NormFloat64()*0.1)
	}
	m, err := FitLinear(x, y)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.Intercept-1.5) > 0.1 || math.Abs(m.Coef[0]-0.8) > 0.05 {
		t.Errorf("noisy fit = %+v", m)
	}
}

func TestFitLogisticSeparatesClasses(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var x [][]float64
	var y []bool
	for i := 0; i < 400; i++ {
		v := rng.Float64()*10 - 5
		x = append(x, []float64{v})
		// True boundary at v = 1 with mild noise.
		y = append(y, v+rng.NormFloat64()*0.5 > 1)
	}
	m, err := FitLogistic(x, y, 0)
	if err != nil {
		t.Fatal(err)
	}
	acc := m.Accuracy(x, y)
	if acc < 0.9 {
		t.Errorf("accuracy = %v, want > 0.9", acc)
	}
	// Boundary: P(y|v=1) should be near 0.5, far sides decisive.
	if p := m.Prob([]float64{-4}); p > 0.05 {
		t.Errorf("P(-4) = %v", p)
	}
	if p := m.Prob([]float64{5}); p < 0.95 {
		t.Errorf("P(5) = %v", p)
	}
	if m.Iterations == 0 {
		t.Error("iterations should be counted")
	}
}

func TestFitLogisticErrors(t *testing.T) {
	if _, err := FitLogistic([][]float64{{1}}, []bool{true, false}, 0); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := FitLogistic([][]float64{{1}}, []bool{true}, 0); err == nil {
		t.Error("too few samples should fail")
	}
	if _, err := FitLogistic([][]float64{{1}, {1, 2}}, []bool{true, false}, 0); err == nil {
		t.Error("ragged features should fail")
	}
}

func TestSigmoidProperties(t *testing.T) {
	f := func(z float64) bool {
		if math.IsNaN(z) || math.IsInf(z, 0) {
			return true
		}
		p := sigmoid(z)
		q := sigmoid(-z)
		return p >= 0 && p <= 1 && math.Abs(p+q-1) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestARIMAFitsAR1(t *testing.T) {
	// z_t = 2 + 0.7 z_{t-1} + noise.
	rng := rand.New(rand.NewSource(3))
	series := make([]float64, 600)
	series[0] = 6.7 // steady state 2/(1-0.7)
	for i := 1; i < len(series); i++ {
		series[i] = 2 + 0.7*series[i-1] + rng.NormFloat64()*0.1
	}
	m, err := FitARIMA(series, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.AR[0]-0.7) > 0.05 {
		t.Errorf("phi = %v, want 0.7", m.AR[0])
	}
	if math.Abs(m.Constant-2) > 0.4 {
		t.Errorf("c = %v, want 2", m.Constant)
	}
	fc, err := m.Forecast(5)
	if err != nil {
		t.Fatal(err)
	}
	// Forecast should stay near the steady state ≈ 6.67.
	for _, v := range fc {
		if v < 5.5 || v > 8 {
			t.Errorf("forecast %v out of plausible band", v)
		}
	}
	rmse, err := m.RMSEOnSeries(series)
	if err != nil || rmse > 0.15 {
		t.Errorf("in-sample RMSE = %v, %v", rmse, err)
	}
}

func TestARIMAWithDifferencing(t *testing.T) {
	// Linear trend + AR noise: d=1 makes it stationary.
	rng := rand.New(rand.NewSource(5))
	series := make([]float64, 400)
	for i := 1; i < len(series); i++ {
		series[i] = series[i-1] + 0.5 + rng.NormFloat64()*0.05
	}
	m, err := FitARIMA(series, 1, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	fc, err := m.Forecast(10)
	if err != nil {
		t.Fatal(err)
	}
	last := series[len(series)-1]
	// Forecast must continue the upward trend ~0.5/step.
	if fc[9] < last+3 || fc[9] > last+7 {
		t.Errorf("trend forecast = %v from %v", fc[9], last)
	}
}

func TestARIMAWithMA(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	eps := make([]float64, 501)
	for i := range eps {
		eps[i] = rng.NormFloat64() * 0.2
	}
	series := make([]float64, 500)
	for i := 1; i < len(series); i++ {
		series[i] = 1 + 0.5*series[i-1] + eps[i] + 0.4*eps[i-1]
	}
	m, err := FitARIMA(series, 1, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.AR[0]-0.5) > 0.15 {
		t.Errorf("phi = %v, want ≈0.5", m.AR[0])
	}
	// CSS refinement should land theta in a plausible band.
	if m.MA[0] < 0 || m.MA[0] > 0.9 {
		t.Errorf("theta = %v, want ≈0.4", m.MA[0])
	}
}

func TestARIMAErrors(t *testing.T) {
	if _, err := FitARIMA([]float64{1, 2, 3}, 5, 0, 0); err == nil {
		t.Error("short series should fail")
	}
	if _, err := FitARIMA(make([]float64, 100), -1, 0, 0); err == nil {
		t.Error("negative order should fail")
	}
	if _, err := FitARIMA(make([]float64, 100), 0, 0, 0); err == nil {
		t.Error("p=q=0 should fail")
	}
	m, err := FitARIMA([]float64{1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2}, 1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Forecast(0); err == nil {
		t.Error("zero steps should fail")
	}
}

func TestDifference(t *testing.T) {
	z := difference([]float64{1, 3, 6, 10}, 1)
	want := []float64{2, 3, 4}
	for i := range want {
		if z[i] != want[i] {
			t.Errorf("d1 = %v", z)
		}
	}
	z2 := difference([]float64{1, 3, 6, 10}, 2)
	if len(z2) != 2 || z2[0] != 1 || z2[1] != 1 {
		t.Errorf("d2 = %v", z2)
	}
}

func TestUDFArimaTrainAndForecast(t *testing.T) {
	db := sqldb.New()
	RegisterUDFs(db)
	if _, err := db.Exec(`CREATE TABLE occupants (time float, value float)`); err != nil {
		t.Fatal(err)
	}
	// Slow daily-like oscillation.
	for i := 0; i < 200; i++ {
		v := 20 + 10*math.Sin(float64(i)/8)
		if err := db.InsertRow("occupants", float64(i), v); err != nil {
			t.Fatal(err)
		}
	}
	// The paper's query: SELECT arima_train('occupants', 'occupants_output',
	// 'time', 'value');
	if _, err := db.Query(`SELECT arima_train('occupants', 'occupants_output', 'time', 'value', 2, 0, 0)`); err != nil {
		t.Fatal(err)
	}
	// Summary table exists.
	rs, err := db.Query(`SELECT count(*) FROM occupants_output`)
	if err != nil || rs.Rows[0][0].Int() < 3 {
		t.Errorf("summary rows = %v, %v", rs, err)
	}
	rs, err = db.Query(`SELECT * FROM arima_forecast('occupants_output', 5)`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 5 {
		t.Errorf("forecast rows = %d", len(rs.Rows))
	}
	if _, err := db.Query(`SELECT * FROM arima_forecast('untrained', 5)`); err == nil {
		t.Error("untrained forecast should fail")
	}
}

func TestUDFArimaTrainJoinsTxHandle(t *testing.T) {
	// The summary table's DROP/CREATE/INSERT run inside the calling Tx
	// handle's transaction, so rolling it back takes the table with it.
	db := sqldb.New()
	RegisterUDFs(db)
	if _, err := db.Exec(`CREATE TABLE s (time float, value float)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if err := db.InsertRow("s", float64(i), math.Sin(float64(i)/5)); err != nil {
			t.Fatal(err)
		}
	}
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Query(`SELECT arima_train('s', 's_out', 'time', 'value', 1, 0, 0)`); err != nil {
		t.Fatal(err)
	}
	if rs, err := tx.Query(`SELECT count(*) FROM s_out`); err != nil || rs.Rows[0][0].Int() < 3 {
		t.Errorf("summary inside the transaction = %v, %v", rs, err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if db.HasTable("s_out") {
		t.Error("summary table survived the rollback")
	}
}

func TestUDFLogisticRoundTrip(t *testing.T) {
	db := sqldb.New()
	RegisterUDFs(db)
	if _, err := db.Exec(`CREATE TABLE d (label boolean, f1 float, f2 float)`); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(13))
	for i := 0; i < 300; i++ {
		a := rng.Float64()*4 - 2
		b := rng.Float64()*4 - 2
		label := a+b > 0
		if err := db.InsertRow("d", label, a, b); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Query(`SELECT logregr_train('d', 'm', 'label', 'f1, f2')`); err != nil {
		t.Fatal(err)
	}
	rs, err := db.Query(`SELECT logregr_accuracy('m', 'd', 'label', 'f1, f2')`)
	if err != nil {
		t.Fatal(err)
	}
	if acc, _ := rs.Rows[0][0].AsFloat(); acc < 0.95 {
		t.Errorf("accuracy = %v", acc)
	}
	rs, err = db.Query(`SELECT logregr_predict('m', 2.0, 2.0)`)
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := rs.Rows[0][0].AsFloat(); p < 0.9 {
		t.Errorf("P(2,2) = %v", p)
	}
	if _, err := db.Query(`SELECT logregr_predict('nope', 1.0)`); err == nil {
		t.Error("untrained predict should fail")
	}
}

func TestUDFLinearRoundTrip(t *testing.T) {
	db := sqldb.New()
	RegisterUDFs(db)
	if _, err := db.Exec(`CREATE TABLE d (y float, f float)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		f := float64(i)
		if err := db.InsertRow("d", 2*f+1, f); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.Query(`SELECT linregr_train('d', 'lm', 'y', 'f')`); err != nil {
		t.Fatal(err)
	}
	rs, err := db.Query(`SELECT linregr_predict('lm', 10.0)`)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := rs.Rows[0][0].AsFloat(); math.Abs(v-21) > 1e-6 {
		t.Errorf("predict = %v, want 21", v)
	}
}

func TestUDFArgErrors(t *testing.T) {
	db := sqldb.New()
	RegisterUDFs(db)
	// A one-feature linear model, a two-feature logistic one, and tables
	// that are not model tables.
	for _, q := range []string{
		`CREATE TABLE d (label boolean, y float, f1 float, f2 float)`,
		`INSERT INTO d VALUES (true, 1, 1, 0), (false, 2, 2, 1), (true, 3, 3, 0), (false, 5, 4, 1), (true, 4, 2, 0)`,
		`SELECT linregr_train('d', 'lm', 'y', 'f1')`,
		`SELECT logregr_train('d', 'lg', 'label', 'f1, f2')`,
		`CREATE TABLE no_intercept (param text, value float)`,
		`INSERT INTO no_intercept VALUES ('r2', 1), ('coef1', 2)`,
		`CREATE TABLE coef_gap (param text, value float)`,
		`INSERT INTO coef_gap VALUES ('r2', 1), ('intercept', 0), ('coef1', 2), ('coef3', 4)`,
		`CREATE TABLE text_values (param text, value text)`,
		`INSERT INTO text_values VALUES ('r2', '1'), ('intercept', 'zero'), ('coef1', '2')`,
		`CREATE TABLE short_arima (param text, value float)`,
		`INSERT INTO short_arima VALUES ('p', 2), ('d', 1), ('q', 0), ('constant', 0), ('ar1', 0.5), ('sigma2', 1), ('tail1', 1)`,
	} {
		if _, err := db.Exec(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	bad := []string{
		`SELECT arima_train('a')`,
		`SELECT arima_train('a', 'b', 'c', 'd', 1, 1)`,
		`SELECT logregr_train('a', 'b')`,
		`SELECT logregr_predict('m')`,
		`SELECT linregr_train('a', 'b', 'c')`,
		`SELECT linregr_predict('m')`,
		`SELECT logregr_accuracy('m', 's', 'l')`,
		// Wrong feature counts.
		`SELECT linregr_predict('lm', 1.0, 2.0)`,
		`SELECT logregr_predict('lg', 1.0)`,
		`SELECT logregr_predict('lg', 1.0, 2.0, 3.0)`,
		`SELECT logregr_accuracy('lg', 'd', 'label', 'f1')`,
		// Tables that hold no model, or another kind of model.
		`SELECT linregr_predict('d', 1.0)`,
		`SELECT linregr_predict('no_intercept', 1.0)`,
		`SELECT linregr_predict('coef_gap', 1.0)`,
		`SELECT linregr_predict('text_values', 1.0)`,
		`SELECT * FROM arima_forecast('short_arima', 3)`,
		`SELECT * FROM arima_forecast('lm', 3)`,
		`SELECT logregr_predict('lm', 1.0)`,
	}
	for _, q := range bad {
		if _, err := db.Query(q); err == nil {
			t.Errorf("%s should fail", q)
		} else if errors.Is(err, sqldb.ErrInternal) {
			t.Errorf("%s panicked: %v", q, err)
		}
	}
}

// BenchmarkLinregrPredictStatement times one statement that predicts for
// each of 337 rows: the model is decoded once per statement, so a row costs
// a memo lookup.
func BenchmarkLinregrPredictStatement(b *testing.B) {
	db := sqldb.New()
	RegisterUDFs(db)
	if _, err := db.Exec(`CREATE TABLE m (x float, u float, t float)`); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 337; i++ {
		u := math.Sin(float64(i) / 9)
		if err := db.InsertRow("m", 20+2*u+0.01*float64(i), u, float64(i)); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := db.Exec(`SELECT linregr_train('m', 'lr_x', 'x', 'u, t')`); err != nil {
		b.Fatal(err)
	}
	const q = `SELECT count(*), avg(linregr_predict('lr_x', m.u, m.t) - m.x) FROM m`
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs, err := db.Query(q)
		if err != nil || rs.Rows[0][0].Int() != 337 {
			b.Fatalf("%v, %v", rs, err)
		}
	}
}
