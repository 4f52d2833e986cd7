package experiments

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/estimate"
)

// tinyScale keeps experiment tests fast while exercising the full pipeline.
var tinyScale = Scale{
	Hours:     36,
	Instances: 3,
	GA:        estimate.GAOptions{Population: 10, Generations: 5, Seed: 3},
	Seed:      1,
}

func renderOK(t *testing.T, tb *Table) string {
	t.Helper()
	var buf bytes.Buffer
	if err := tb.Render(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestTable1(t *testing.T) {
	tb := Table1()
	out := renderOK(t, tb)
	if !strings.Contains(out, "88") || !strings.Contains(out, "22x") {
		t.Errorf("Table1 output missing paper totals:\n%s", out)
	}
	if len(tb.Rows) != 8 { // 7 operations + total
		t.Errorf("rows = %d", len(tb.Rows))
	}
}

func TestTable2(t *testing.T) {
	tb := Table2()
	out := renderOK(t, tb)
	if !strings.Contains(out, "FMU simulation") {
		t.Errorf("Table2 output:\n%s", out)
	}
}

func TestTable3(t *testing.T) {
	tb, err := Table3()
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 5 { // Cp, R, P, eta, thetaA
		t.Errorf("rows = %d, want 5", len(tb.Rows))
	}
	out := renderOK(t, tb)
	if !strings.Contains(out, "HP1Instance1") || !strings.Contains(out, "parameter") {
		t.Errorf("Table3 output:\n%s", out)
	}
}

func TestTable4(t *testing.T) {
	tb, err := Table4(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 6 {
		t.Errorf("rows = %d, want 6 (LIMIT 6)", len(tb.Rows))
	}
	out := renderOK(t, tb)
	if !strings.Contains(out, "varName") {
		t.Errorf("Table4 output:\n%s", out)
	}
}

func TestTable5AndTable6(t *testing.T) {
	tb := Table5()
	if len(tb.Rows) != 3 {
		t.Errorf("Table5 rows = %d", len(tb.Rows))
	}
	tb6, err := Table6(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb6.Rows) != 4 { // 2 rows × 2 datasets
		t.Errorf("Table6 rows = %d", len(tb6.Rows))
	}
}

func TestTable7ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration sweep")
	}
	tb, err := Table7(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	// 3 models × 2 configurations.
	if len(tb.Rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(tb.Rows))
	}
	out := renderOK(t, tb)
	for _, model := range []string{"hp0", "hp1", "classroom"} {
		if !strings.Contains(out, model) {
			t.Errorf("Table7 missing model %s", model)
		}
	}
}

func TestTable8ShapeHolds(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration sweep")
	}
	tb, err := Table8(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != 21 { // 3 models × 7 operations
		t.Fatalf("rows = %d, want 21", len(tb.Rows))
	}
}

func TestFig5Traces(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration sweep")
	}
	tb, err := Fig5(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	phases := map[string]bool{}
	for _, r := range tb.Rows {
		phases[r[1]] = true
	}
	for _, want := range []string{"G", "LaG", "LO"} {
		if !phases[want] {
			t.Errorf("Fig5 missing phase %s (have %v)", want, phases)
		}
	}
}

func TestFig6SweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration sweep")
	}
	rows, err := Fig6Sweep(tinyScale, []float64{1.0, 1.1, 1.4})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	// Warm start must be cheaper than the full run at every point: counted
	// in objective evaluations, which wall time on a shared host is not.
	for _, r := range rows {
		if r.EvalsWarm >= r.EvalsFull {
			t.Errorf("dissim %.0f%%: LO (%d evaluations) should need fewer than G+LaG (%d)",
				r.Dissimilarity*100, r.EvalsWarm, r.EvalsFull)
		}
	}
	// At zero dissimilarity the RMSEs must agree closely.
	if rel := (rows[0].RMSEWarm - rows[0].RMSEFull) / rows[0].RMSEFull; rel > 0.25 {
		t.Errorf("at 0%% dissimilarity RMSE LO (%v) should match G+LaG (%v)",
			rows[0].RMSEWarm, rows[0].RMSEFull)
	}
}

func TestFig7SweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-instance sweep")
	}
	rows, err := Fig7Sweep("hp1", tinyScale, []int{3})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	// pgFMU+ must beat pgFMU- and Python on multi-instance workloads,
	// counted in objective evaluations: its warm starts against the full
	// fits of both. Wall time on a shared host is too noisy to assert.
	if r.EvalsPlus >= r.EvalsMin {
		t.Errorf("pgFMU+ (%d evaluations) should need fewer than pgFMU- (%d)", r.EvalsPlus, r.EvalsMin)
	}
	if r.EvalsPlus >= r.EvalsPython {
		t.Errorf("pgFMU+ (%d evaluations) should need fewer than Python (%d)", r.EvalsPlus, r.EvalsPython)
	}
	t.Logf("pgFMU+ %d evaluations in %v, pgFMU- %d in %v, Python %d in %v",
		r.EvalsPlus, r.PgFMUPlus, r.EvalsMin, r.PgFMUMin, r.EvalsPython, r.Python)
}

func TestFig8(t *testing.T) {
	tb := Fig8()
	if len(tb.Rows) != 31 { // 30 users + mean
		t.Errorf("rows = %d", len(tb.Rows))
	}
	out := renderOK(t, tb)
	if !strings.Contains(out, "speedup") {
		t.Errorf("Fig8 output:\n%s", out)
	}
}

func TestMADlibCombination(t *testing.T) {
	if testing.Short() {
		t.Skip("calibration sweep")
	}
	res, err := MADlibCombination(tinyScale)
	if err != nil {
		t.Fatal(err)
	}
	// ARIMA-informed occupancy must improve (reduce) the validation RMSE.
	if res.RMSEWithOccupancy >= res.RMSEWithoutOccupancy {
		t.Errorf("occupancy forecast should reduce RMSE: %v -> %v",
			res.RMSEWithoutOccupancy, res.RMSEWithOccupancy)
	}
	if res.ImprovementPercent <= 0 {
		t.Errorf("improvement = %v%%", res.ImprovementPercent)
	}
	// The FMU temperature feature must not hurt the classifier.
	if res.AccuracyWithTemp < res.AccuracyBase-0.02 {
		t.Errorf("accuracy with temp = %v, base = %v", res.AccuracyWithTemp, res.AccuracyBase)
	}
}

func TestRunDispatchAndAll(t *testing.T) {
	for _, id := range []string{"table1", "table2", "table5", "fig8"} {
		tb, err := Run(id, tinyScale)
		if err != nil || tb == nil {
			t.Errorf("Run(%s): %v", id, err)
		}
	}
	if _, err := Run("nope", tinyScale); err == nil {
		t.Error("unknown experiment should fail")
	}
	if len(All) != 13 {
		t.Errorf("All = %d entries", len(All))
	}
}
