package pgfmu

// Cancellation-behaviour tests for the context-aware API: a cancelled
// context must stop work promptly (bounded by one search iteration / one
// batch of row scans), roll the enclosing transaction back, and leave the
// database fully consistent and usable.

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro/internal/dataset"
)

func cancelTestDB(t testing.TB, hours int) *DB {
	t.Helper()
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	frame, err := dataset.GenerateHP1(dataset.Config{Hours: hours, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := dataset.LoadFrame(db.SQL(), "measurements", frame); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(`SELECT fmu_create($1, 'HP1Instance1')`, dataset.HP1Source); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestCancelMidCalibrate cancels fmu_parest shortly after it starts: the
// call must return the context error promptly, the write-back must roll
// back (parameters keep their pre-call values), and the DB stays usable.
func TestCancelMidCalibrate(t *testing.T) {
	db := cancelTestDB(t, 24)

	cpBefore, _, _, err := db.Get("HP1Instance1", "Cp")
	if err != nil {
		t.Fatal(err)
	}
	rBefore, _, _, err := db.Get("HP1Instance1", "R")
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err = db.CalibrateContext(ctx, []string{"HP1Instance1"},
		[]string{"SELECT * FROM measurements"}, []string{"Cp", "R"})
	elapsed := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("CalibrateContext returned %v, want context.Canceled", err)
	}
	// Cancellation is polled once per objective evaluation (one model
	// simulation), so the return must be fast compared to a full
	// calibration (hundreds of evaluations).
	if elapsed > 10*time.Second {
		t.Fatalf("CalibrateContext took %v after cancellation", elapsed)
	}

	// The aborted calibration rolled back: parameter values are unchanged,
	// read through Get and from the catalogue table.
	cpAfter, _, _, err := db.Get("HP1Instance1", "Cp")
	if err != nil {
		t.Fatal(err)
	}
	rAfter, _, _, err := db.Get("HP1Instance1", "R")
	if err != nil {
		t.Fatal(err)
	}
	if !cpBefore.Equal(cpAfter) || !rBefore.Equal(rAfter) {
		t.Fatalf("parameters changed after cancelled calibration: Cp %v -> %v, R %v -> %v",
			cpBefore, cpAfter, rBefore, rAfter)
	}
	rs, err := db.Query(`SELECT value FROM modelinstancevalues WHERE varname = 'Cp'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 || !rs.Rows[0][0].Equal(cpBefore) {
		t.Fatalf("catalogue Cp diverged after rollback: %v", rs.Rows)
	}

	// The database remains fully usable: a fresh (uncancelled) calibration
	// succeeds.
	if _, err := db.Calibrate([]string{"HP1Instance1"},
		[]string{"SELECT * FROM measurements"}, []string{"Cp", "R"}); err != nil {
		t.Fatalf("calibration after cancelled calibration: %v", err)
	}
}

// TestCancelMidLargeQuery cancels iteration over a huge lazily produced
// result: Next must stop within one poll interval and report the
// cancellation through Err.
func TestCancelMidLargeQuery(t *testing.T) {
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	it, err := db.QueryRowsContext(ctx, `SELECT gs * gs FROM generate_series(1, 2000000000) AS gs`)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	for i := 0; i < 10; i++ {
		if !it.Next() {
			t.Fatalf("iterator ended after %d rows: %v", i, it.Err())
		}
	}
	cancel()
	extra := 0
	for it.Next() {
		extra++
		if extra > 1000 {
			t.Fatal("iterator kept producing long after cancellation")
		}
	}
	if !errors.Is(it.Err(), context.Canceled) {
		t.Fatalf("Err() = %v, want context.Canceled", it.Err())
	}

	// Materializing queries observe cancellation too.
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := db.QueryContext(ctx2, `SELECT count(*) FROM generate_series(1, 10)`); !errors.Is(err, context.Canceled) {
		t.Fatalf("QueryContext on cancelled ctx: %v", err)
	}
}

// TestCancelledTxRollsBack: statements rejected by a cancelled context do
// not leak partial state, and Rollback restores the pre-transaction view.
func TestCancelledTxRollsBack(t *testing.T) {
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CREATE TABLE t (a int)`); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	tx, err := db.BeginTx(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.ExecContext(ctx, `INSERT INTO t VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	cancel()
	if _, err := tx.ExecContext(ctx, `INSERT INTO t VALUES (2)`); !errors.Is(err, context.Canceled) {
		t.Fatalf("exec on cancelled ctx: %v", err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); !errors.Is(err, ErrTxDone) {
		t.Fatalf("second rollback: %v", err)
	}
	rs, err := db.Query(`SELECT count(*) FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := rs.Rows[0][0].AsInt(); n != 0 {
		t.Fatalf("count = %d after rollback, want 0", n)
	}
}

// TestCancelMidSimulate cancels a simulation through SQL: fmu_simulate must
// abort during integration stepping and surface the context error.
func TestCancelMidSimulate(t *testing.T) {
	db := cancelTestDB(t, 24)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := db.QueryContext(ctx,
		`SELECT * FROM fmu_simulate('HP1Instance1', 'SELECT * FROM measurements')`)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled fmu_simulate: %v", err)
	}
	// The engine is still consistent: the same simulation succeeds without
	// the cancelled context.
	rs, err := db.Query(`SELECT count(*) FROM fmu_simulate('HP1Instance1', 'SELECT * FROM measurements')`)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := rs.Rows[0][0].AsInt(); n == 0 {
		t.Fatal("no rows from follow-up simulation")
	}
}
