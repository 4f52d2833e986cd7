package core

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/estimate"
	"repro/internal/sqldb"
)

// instanceValuesDump renders modelinstancevalues in a stable order.
func instanceValuesDump(t *testing.T, s *Session) string {
	t.Helper()
	rs, err := s.DB().Query(
		`SELECT instanceid, varname, value FROM modelinstancevalues ORDER BY instanceid, varname`)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, r := range rs.Rows {
		fmt.Fprintf(&b, "%s.%s=%s\n", r[0].AsText(), r[1].AsText(), r[2].AsText())
	}
	return b.String()
}

// walBytes sums the sizes of the WAL files of a durable session directory.
func walBytes(t *testing.T, dir string) int64 {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no WAL under %s: %v", dir, err)
	}
	var n int64
	for _, f := range files {
		fi, err := os.Stat(f)
		if err != nil {
			t.Fatal(err)
		}
		n += fi.Size()
	}
	return n
}

// TestSimulateWritesNothing: on a durable session, every way of simulating,
// validating or steering an instance leaves the WAL, the commit and record
// counters, and the catalogued instance values exactly as they were.
func TestSimulateWritesNothing(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDurable(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	loadMeasurements(t, s, "m", 1)
	for _, id := range []string{"hp", "hp2"} {
		if _, err := s.Create(hpSource, id); err != nil {
			t.Fatal(err)
		}
	}
	for name, v := range map[string]float64{"A": hpTrueA, "B": hpTrueB, "E": hpTrueE} {
		if err := s.SetInitial("hp", name, v); err != nil {
			t.Fatal(err)
		}
	}

	for _, sql := range []string{
		`SELECT count(*) FROM fmu_simulate('hp', 'SELECT * FROM m')`,
		`SELECT fmu_validate('hp', 'SELECT * FROM m')`,
		`SELECT count(*) FROM fmu_control('hp', 'x', 25.0, 0, 24, 2)`,
	} {
		if ro, err := s.DB().IsReadOnly(sql); err != nil || !ro {
			t.Errorf("IsReadOnly(%s) = %v, %v; want the shared statement path", sql, ro, err)
		}
	}

	dump0, stats0, wal0 := instanceValuesDump(t, s), s.DB().EngineStats(), walBytes(t, dir)
	from, to := 0.0, 24.0
	for i := 0; i < 5; i++ {
		rs, err := s.DB().Query(`SELECT count(*) FROM fmu_simulate('hp', 'SELECT * FROM m')`)
		if err != nil || rs.Rows[0][0].Int() == 0 {
			t.Fatalf("fmu_simulate: %v, %v", rs, err)
		}
		rs, err = s.DB().Query(`SELECT count(*) FROM generate_series(1, 2) AS g,
			LATERAL fmu_simulate('hp', 'SELECT * FROM m') AS f`)
		if err != nil || rs.Rows[0][0].Int() == 0 {
			t.Fatalf("LATERAL fmu_simulate: %v, %v", rs, err)
		}
		if _, err := s.Simulate(SimulateRequest{InstanceID: "hp2", TimeFrom: &from, TimeTo: &to}); err != nil {
			t.Fatalf("typed Simulate: %v", err)
		}
		if _, err := s.jobs.execSimulate(context.Background(), []string{"hp", "SELECT * FROM m"}); err != nil {
			t.Fatalf("simulate job body: %v", err)
		}
		if _, err := s.DB().Query(`SELECT fmu_validate('hp', 'SELECT * FROM m')`); err != nil {
			t.Fatalf("fmu_validate: %v", err)
		}
		if _, err := s.ValidateInstance("hp", "SELECT * FROM m", nil); err != nil {
			t.Fatalf("typed ValidateInstance: %v", err)
		}
		if _, err := s.DB().Query(`SELECT count(*) FROM fmu_control('hp', 'x', 25.0, 0, 24, 2)`); err != nil {
			t.Fatalf("fmu_control: %v", err)
		}
		if _, err := s.Control(ControlRequest{InstanceID: "hp", Setpoint: 25, TimeFrom: 0, TimeTo: 24, Steps: 2}); err != nil {
			t.Fatalf("typed Control: %v", err)
		}
	}
	stats1 := s.DB().EngineStats()
	if stats1.Commits != stats0.Commits || stats1.WALRecords != stats0.WALRecords {
		t.Errorf("commits %d -> %d, WAL records %d -> %d; want both unchanged",
			stats0.Commits, stats1.Commits, stats0.WALRecords, stats1.WALRecords)
	}
	if wal1 := walBytes(t, dir); wal1 != wal0 {
		t.Errorf("WAL grew from %d to %d bytes", wal0, wal1)
	}
	if dump1 := instanceValuesDump(t, s); dump1 != dump0 {
		t.Errorf("modelinstancevalues changed:\n%s\nwas:\n%s", dump1, dump0)
	}

	// A whole simulate job writes its own fmujobs rows, and nothing else.
	id, err := s.SubmitJob("simulate", "hp", "SELECT * FROM m")
	if err != nil {
		t.Fatal(err)
	}
	if state := waitJobState(t, s, id); state != JobDone {
		t.Fatalf("simulate job: %v", jobRow(t, s, id))
	}
	if dump1 := instanceValuesDump(t, s); dump1 != dump0 {
		t.Errorf("modelinstancevalues changed by a simulate job:\n%s\nwas:\n%s", dump1, dump0)
	}
}

// TestSimulateBesideOpenWriter: an open transaction holding the
// modelinstancevalues latch — an uncommitted fmu_set_initial, or plain DML —
// does not get in the way of simulating another instance, and the
// uncommitted write is a real part of its transaction: invisible outside it
// (to the catalogue, fmu_get and fmu_variables alike), and undone by its
// rollback.
func TestSimulateBesideOpenWriter(t *testing.T) {
	for _, write := range []string{
		`SELECT fmu_set_initial('a', 'A', -1.5)`,
		`UPDATE modelinstancevalues SET value = -1.5 WHERE instanceid = 'a' AND varname = 'A'`,
	} {
		s := newTestSession(t)
		for _, id := range []string{"a", "b"} {
			if _, err := s.Create(hpSource, id); err != nil {
				t.Fatal(err)
			}
		}
		dump0 := instanceValuesDump(t, s)
		tx, err := s.DB().Begin()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tx.Exec(write); err != nil {
			t.Fatalf("%s: %v", write, err)
		}
		if dump := instanceValuesDump(t, s); dump != dump0 {
			t.Errorf("%s: uncommitted write visible outside its transaction:\n%s", write, dump)
		}
		if v, _, _, err := s.Get("a", "A"); err != nil || v.AsText() != "0" {
			t.Errorf("%s: Get(a, A) outside the open transaction = %v, %v; want 0", write, v, err)
		}
		rs, err := s.DB().Query(`SELECT initialValue FROM fmu_variables('a') WHERE varName = 'A'`)
		if err != nil || len(rs.Rows) != 1 || rs.Rows[0][0].AsText() != "0" {
			t.Errorf("%s: fmu_variables('a') outside the open transaction = %v, %v; want A = 0", write, rs, err)
		}

		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		t0 := time.Now()
		rs, err = s.DB().QueryContext(ctx, `SELECT count(*) FROM fmu_simulate('b')`)
		cancel()
		if err != nil || rs.Rows[0][0].Int() == 0 {
			t.Errorf("%s: fmu_simulate beside the open writer: %v, %v", write, rs, err)
		}
		if d := time.Since(t0); d > 500*time.Millisecond {
			t.Errorf("%s: fmu_simulate beside the open writer took %v", write, d)
		}

		if err := tx.Rollback(); err != nil {
			t.Fatal(err)
		}
		if dump := instanceValuesDump(t, s); dump != dump0 {
			t.Errorf("%s: catalogue after rollback:\n%s", write, dump)
		}
		if v, _, _, err := s.Get("a", "A"); err != nil || v.AsText() != "0" {
			t.Errorf("%s: live a.A after rollback = %v, %v; want the model default 0", write, v, err)
		}
		s.Close()
	}
}

// retryConflict runs op until it stops losing write-write races.
func retryConflict(op func() error) error {
	for {
		if err := op(); !errors.Is(err, sqldb.ErrWriteConflict) {
			return err
		}
		time.Sleep(time.Millisecond)
	}
}

// TestSessionLockIsLeaf mixes every kind of session user on one session:
// long calibrations (typed and as a job), SQL simulations, value updates and
// instance churn. No user may stall behind another's calibration, nothing
// fails other than by a retryable write conflict, and the fits equal a serial
// run's. Run under -race.
func TestSessionLockIsLeaf(t *testing.T) {
	const calibrations, shortOps = 3, 60
	opts := []Option{WithEstimateOptions(estimate.Options{
		GA: estimate.GAOptions{Population: 8, Generations: 4, Seed: 2},
	})}
	setup := func() *Session {
		s, err := NewSession(opts...)
		if err != nil {
			t.Fatal(err)
		}
		loadMeasurements(t, s, "m", 1)
		for _, id := range []string{"typed", "job", "sim", "set", "base"} {
			if _, err := s.Create(hpSource, id); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	calibrateTyped := func(s *Session) error {
		return retryConflict(func() error {
			_, err := s.Parest([]string{"typed"}, []string{"SELECT * FROM m"}, nil)
			return err
		})
	}
	calibrateJob := func(s *Session) error {
		id, err := s.SubmitJob("parest", "{job}", "{SELECT * FROM m}")
		if err != nil {
			return err
		}
		if state, err := s.WaitJob(context.Background(), id); err != nil || state != JobDone {
			return fmt.Errorf("parest job %d: state %q, %v", id, state, err)
		}
		return nil
	}
	fitted := func(s *Session) string {
		rs, err := s.DB().Query(`SELECT instanceid, varname, value FROM modelinstancevalues
			WHERE instanceid IN ('typed', 'job') ORDER BY instanceid, varname`)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, r := range rs.Rows {
			live, _, _, err := s.Get(r[0].AsText(), r[1].AsText())
			if err != nil || live.AsText() != r[2].AsText() {
				t.Errorf("%s.%s: live %v (%v), catalogue %v", r[0].AsText(), r[1].AsText(), live, err, r[2])
			}
			fmt.Fprintf(&b, "%s.%s=%s\n", r[0].AsText(), r[1].AsText(), r[2].AsText())
		}
		return b.String()
	}

	serial := setup()
	for i := 0; i < calibrations; i++ {
		if err := calibrateTyped(serial); err != nil {
			t.Fatal(err)
		}
		if err := calibrateJob(serial); err != nil {
			t.Fatal(err)
		}
	}
	want := fitted(serial)
	serial.Close()

	s := setup()
	defer s.Close()
	var wg sync.WaitGroup
	var mu sync.Mutex
	var slowest time.Duration
	run := func(n int, timed bool, op func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				t0 := time.Now()
				if err := op(i); err != nil {
					t.Error(err)
					return
				}
				if d := time.Since(t0); timed {
					mu.Lock()
					if d > slowest {
						slowest = d
					}
					mu.Unlock()
				}
			}
		}()
	}
	query := func(sql string, args ...any) error {
		return retryConflict(func() error {
			_, err := s.DB().Query(sql, args...)
			return err
		})
	}
	run(calibrations, false, func(int) error { return calibrateTyped(s) })
	run(calibrations, false, func(int) error { return calibrateJob(s) })
	run(shortOps, true, func(int) error {
		return query(`SELECT count(*) FROM fmu_simulate('sim', 'SELECT * FROM m')`)
	})
	run(shortOps, true, func(i int) error {
		return query(`SELECT fmu_set_initial('set', 'x', $1)`, 15.0+float64(i%10))
	})
	run(shortOps, true, func(i int) error {
		id := fmt.Sprintf("tmp%d", i)
		if err := query(`SELECT fmu_copy('base', $1)`, id); err != nil {
			return err
		}
		return query(`SELECT fmu_delete_instance($1)`, id)
	})
	wg.Wait()

	if got := fitted(s); got != want {
		t.Errorf("fits under concurrency:\n%s\nserial run:\n%s", got, want)
	}
	if slowest > 500*time.Millisecond {
		t.Errorf("slowest short op took %v beside running calibrations; want < 500ms", slowest)
	}
}

// TestInputSQLMustBeReadOnly: every function that takes an input_sql refuses
// DML and side-effecting functions in it, names input_sql in the error, and
// has run none of it.
func TestInputSQLMustBeReadOnly(t *testing.T) {
	s := newTestSession(t)
	defer s.Close()
	loadMeasurements(t, s, "m", 1)
	if _, err := s.Create(hpSource, "hp"); err != nil {
		t.Fatal(err)
	}
	if err := s.SetInitial("hp", "x", 21); err != nil {
		t.Fatal(err)
	}
	for _, input := range []string{
		`DELETE FROM m`,
		`SELECT fmu_reset(''hp'') AS time, 1.0 AS u`,
	} {
		calls := map[string]string{
			"fmu_simulate": `SELECT count(*) FROM fmu_simulate('hp', '` + input + `')`,
			"fmu_validate": `SELECT fmu_validate('hp', '` + input + `')`,
			"fmu_control":  `SELECT count(*) FROM fmu_control('hp', 'x', 25.0, 0, 24, 2, '` + input + `')`,
			"fmu_parest":   `SELECT fmu_parest('{hp}', '{` + input + `}')`,
		}
		for name, sql := range calls {
			if _, err := s.DB().Query(sql); err == nil || !strings.Contains(err.Error(), "input_sql") {
				t.Errorf("%s with input_sql %q: error %v, want one naming input_sql", name, input, err)
			}
		}
		rs, err := s.DB().Query(`SELECT fmu_sweep('hp', '{B=0:20:2}', '` + input + `')`)
		if err != nil {
			t.Fatalf("fmu_sweep submit: %v", err)
		}
		id, _ := rs.Rows[0][0].AsInt()
		if state := waitJobState(t, s, id); state != JobError || !strings.Contains(jobRow(t, s, id)["error"], "input_sql") {
			t.Errorf("fmu_sweep with input_sql %q: %v, want an error naming input_sql", input, jobRow(t, s, id))
		}

		if rs, err := s.DB().Query(`SELECT count(*) FROM m`); err != nil || rs.Rows[0][0].Int() != 25 {
			t.Errorf("after input_sql %q: m has %v rows (%v), want 25", input, rs, err)
		}
		if v, _, _, err := s.Get("hp", "x"); err != nil || v.AsText() != "21" {
			t.Errorf("after input_sql %q: hp.x = %v (%v), want 21", input, v, err)
		}
	}
}
