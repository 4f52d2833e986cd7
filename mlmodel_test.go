package pgfmu

import (
	"context"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

// loadMLSamples fills table s with 80 deterministic rows for the three
// model kinds: y ≈ 1 + 2·f1 - f2, a label that mostly follows f1 + f2/2,
// and y as a series over time.
func loadMLSamples(t *testing.T, db *DB) {
	t.Helper()
	if _, err := db.Exec(`CREATE TABLE s (time float, y float, f1 float, f2 float, label boolean)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 80; i++ {
		x := float64(i)
		f1, f2 := math.Sin(x/7), math.Cos(x/5)
		y := 1 + 2*f1 - f2 + 0.1*math.Sin(1.3*x)
		if err := db.SQL().InsertRow("s", x, y, f1, f2, f1+f2/2+0.3*math.Sin(2.1*x) > 0); err != nil {
			t.Fatal(err)
		}
	}
}

// trainAll trains one model of each kind from s.
func trainAll(t *testing.T, db *DB) {
	t.Helper()
	for _, q := range []string{
		`SELECT linregr_train('s', 'lm', 'y', 'f1, f2')`,
		`SELECT logregr_train('s', 'gm', 'label', 'f1, f2')`,
		`SELECT arima_train('s', 'am', 'time', 'y')`,
	} {
		if _, err := db.Query(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
}

// predictAll returns every value the three models' readers produce.
func predictAll(t *testing.T, db *DB) []float64 {
	t.Helper()
	var out []float64
	for _, q := range []string{
		`SELECT linregr_predict('lm', 0.5, -0.25)`,
		`SELECT logregr_predict('gm', 0.5, -0.25)`,
		`SELECT logregr_accuracy('gm', 's', 'label', 'f1, f2')`,
		`SELECT forecast FROM arima_forecast('am', 5)`,
	} {
		rs, err := db.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		for _, r := range rs.Rows {
			v, err := r[0].AsFloat()
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, v)
		}
	}
	return out
}

func TestTrainedModelRollbackLeavesNone(t *testing.T) {
	db := openFast(t)
	defer db.Close()
	loadMLSamples(t, db)
	if _, err := db.Exec(`BEGIN`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(`SELECT linregr_train('s', 'lm', 'y', 'f1, f2')`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(`SELECT linregr_predict('lm', 3.0, 1.0)`); err != nil {
		t.Fatalf("predict inside the training transaction: %v", err)
	}
	if _, err := db.Exec(`ROLLBACK`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(`SELECT linregr_predict('lm', 3.0, 1.0)`); err == nil || !strings.Contains(err.Error(), "no trained model") {
		t.Errorf("predict after rollback: error %v, want no trained model", err)
	}
	if db.SQL().HasTable("lm") {
		t.Error("the rolled-back model's table survived")
	}
}

func TestTrainedModelSurvivesReopen(t *testing.T) {
	for _, checkpoint := range []bool{false, true} {
		name := "wal"
		if checkpoint {
			name = "checkpoint"
		}
		t.Run(name, func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "db")
			db := openDurableFast(t, dir)
			loadMLSamples(t, db)
			trainAll(t, db)
			want := predictAll(t, db)
			if checkpoint {
				if err := db.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			re := openDurableFast(t, dir)
			defer re.Close()
			got := predictAll(t, re)
			if len(got) != len(want) {
				t.Fatalf("after reopen: %d values, want %d", len(got), len(want))
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Errorf("value %d after reopen = %v, want %v", i, got[i], want[i])
				}
			}
		})
	}
}

func TestTrainedModelInvisibleUntilCommit(t *testing.T) {
	db := openFast(t)
	defer db.Close()
	loadMLSamples(t, db)
	ctx := context.Background()
	a, b := db.Conn(), db.Conn()
	defer a.Close()
	defer b.Close()
	const predict = `SELECT logregr_predict('gm', 0.5, -0.25)`
	if _, err := a.ExecContext(ctx, `BEGIN`); err != nil {
		t.Fatal(err)
	}
	if _, err := a.QueryContext(ctx, `SELECT logregr_train('s', 'gm', 'label', 'f1, f2')`); err != nil {
		t.Fatal(err)
	}
	mine, err := a.QueryContext(ctx, predict)
	if err != nil {
		t.Fatalf("the training connection's predict: %v", err)
	}
	if _, err := b.QueryContext(ctx, predict); err == nil || !strings.Contains(err.Error(), "no trained model") {
		t.Errorf("another connection's predict before commit: error %v, want no trained model", err)
	}
	if _, err := a.ExecContext(ctx, `COMMIT`); err != nil {
		t.Fatal(err)
	}
	theirs, err := b.QueryContext(ctx, predict)
	if err != nil {
		t.Fatalf("another connection's predict after commit: %v", err)
	}
	if got, want := theirs.Rows[0][0].Float(), mine.Rows[0][0].Float(); got != want {
		t.Errorf("committed model predicts %v, the training transaction saw %v", got, want)
	}
}
