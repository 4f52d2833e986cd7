package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sqldb"
	"repro/internal/variant"
)

// The check-then-write races a database-wide lock used to close: each
// writer latches what it checks before pinning its snapshot, and fmu_cancel
// writes through a conditional UPDATE under first-updater-wins. Run them
// with -race -count=20.

// createTwice runs two SQL fmu_create statements at once, each on a Conn of
// its own, and returns their errors.
func createTwice(t *testing.T, s *Session, id1, id2 string) [2]error {
	t.Helper()
	var errs [2]error
	var wg sync.WaitGroup
	for i, id := range []string{id1, id2} {
		wg.Add(1)
		go func(i int, id string) {
			defer wg.Done()
			_, errs[i] = s.DB().Conn().QueryContext(context.Background(), `SELECT fmu_create($1, $2)`, hpSource, id)
		}(i, id)
	}
	wg.Wait()
	return errs
}

func count(t *testing.T, s *Session, sql string, args ...any) int64 {
	t.Helper()
	rs, err := s.DB().Query(sql, args...)
	if err != nil {
		t.Fatal(err)
	}
	return rs.Rows[0][0].Int()
}

// TestConcurrentCreateOneInstance: of two concurrent fmu_creates of one
// instance id, one succeeds and the other finds the id taken; one
// modelinstance row exists.
func TestConcurrentCreateOneInstance(t *testing.T) {
	s := newTestSession(t, WithLockWaitTimeout(time.Minute))
	defer s.Close()
	errs := createTwice(t, s, "hp", "hp")
	if (errs[0] == nil) == (errs[1] == nil) {
		t.Fatalf("errors %v, want exactly one failure", errs)
	}
	for _, err := range errs {
		if err != nil && !strings.Contains(err.Error(), "already exists") {
			t.Fatalf("the losing create failed with %v", err)
		}
	}
	if n := count(t, s, `SELECT count(*) FROM modelinstance WHERE instanceid = 'hp'`); n != 1 {
		t.Fatalf("%d modelinstance rows for hp, want 1", n)
	}
}

// TestConcurrentCreateOneModel: one model created twice at once, under two
// instance ids, is stored once: one model row, and one modelvariable row
// per variable.
func TestConcurrentCreateOneModel(t *testing.T) {
	s := newTestSession(t, WithLockWaitTimeout(time.Minute))
	defer s.Close()
	if errs := createTwice(t, s, "a", "b"); errs[0] != nil || errs[1] != nil {
		t.Fatal(errs)
	}
	if n := count(t, s, `SELECT count(*) FROM model`); n != 1 {
		t.Fatalf("%d model rows, want 1", n)
	}
	if n := count(t, s, `SELECT count(*) FROM fmustorage`); n != 1 {
		t.Fatalf("%d fmustorage rows, want 1", n)
	}
	vars := count(t, s, `SELECT count(*) FROM modelinstancevalues WHERE instanceid = 'a'`)
	if n := count(t, s, `SELECT count(*) FROM modelvariable`); n != vars {
		t.Fatalf("%d modelvariable rows for %d variables", n, vars)
	}
}

// TestConcurrentCreatesAllSucceed: creates of different ids queue on the
// catalogue latches behind writers that hold them for 60 ms each, and each
// waits its turn however long the queue: with a lock-wait timeout of
// 150 ms, far shorter than the queue, every one succeeds.
func TestConcurrentCreatesAllSucceed(t *testing.T) {
	s := newTestSession(t, WithLockWaitTimeout(150*time.Millisecond))
	defer s.Close()
	s.DB().RegisterScalar("hold_catalog", func(context.Context, *sqldb.Tx, []variant.Value) (variant.Value, error) {
		time.Sleep(60 * time.Millisecond)
		return variant.NewNull(), nil
	}, false, catalogTables...)
	const holders, creates = 4, 16
	errs := make([]error, holders+creates)
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("c%d", i)
			switch {
			case i < holders:
				_, errs[i] = s.DB().Conn().QueryContext(context.Background(), `SELECT hold_catalog()`)
			case i%2 == 0:
				_, errs[i] = s.Create(hpSource, id)
			default:
				_, errs[i] = s.DB().Conn().QueryContext(context.Background(), `SELECT fmu_create($1, $2)`, hpSource, id)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("writer %d: %v", i, err)
		}
	}
	if got := count(t, s, `SELECT count(*) FROM modelinstance`); got != creates {
		t.Fatalf("%d modelinstance rows, want %d", got, creates)
	}
}

// raceCancels submits jobs and cancels each as it is claimed, run and
// finished, through SQL and the typed API in turn. fmu_cancel either
// reports the job's terminal state, fails with a write conflict, or
// returns cancelled — and then the job ends cancelled, never done. check
// sees each job's id and final state.
func raceCancels(t *testing.T, s *Session, check func(id int64, final string)) {
	t.Helper()
	for i := 0; i < 40; i++ {
		rs, err := s.DB().Query(`SELECT fmu_submit('simulate', 'hp')`)
		if err != nil {
			t.Fatal(err)
		}
		id, _ := rs.Rows[0][0].AsInt()
		if i%2 == 1 {
			time.Sleep(time.Duration(i) * 20 * time.Microsecond)
		}
		var state string
		if i%4 < 2 {
			rs, err = s.DB().Query(`SELECT fmu_cancel($1)`, id)
			if err == nil {
				state = rs.Rows[0][0].AsText()
			}
		} else {
			state, err = s.CancelJob(id)
		}
		switch {
		case errors.Is(err, sqldb.ErrWriteConflict):
		case err != nil:
			t.Fatalf("job %d: cancel: %v", id, err)
		case state != JobCancelled && state != JobDone:
			t.Fatalf("job %d: cancel returned %q", id, state)
		}
		final := waitJobState(t, s, id)
		if state != "" && final != state {
			t.Fatalf("job %d: cancel returned %q, and the job ended %q (row %v)", id, state, final, jobRow(t, s, id))
		}
		check(id, final)
	}
}

// TestCancelRacingClaim: cancels racing jobs that write nothing.
func TestCancelRacingClaim(t *testing.T) {
	s := newTestSession(t, WithJobWorkers(1))
	defer s.Close()
	s.jobs.body = func(context.Context, *liveJob, string, []string) (string, error) {
		return `"ok"`, nil
	}
	raceCancels(t, s, func(int64, string) {})
}

// TestCancelRacingCommit: cancels racing jobs that commit a row, as a
// calibration commits its fit: a job that ends cancelled committed nothing,
// and one that ends done committed its row.
func TestCancelRacingCommit(t *testing.T) {
	s := newTestSession(t, WithJobWorkers(1))
	defer s.Close()
	if _, err := s.DB().Exec(`CREATE TABLE marks (jobid int)`); err != nil {
		t.Fatal(err)
	}
	s.jobs.body = func(ctx context.Context, lj *liveJob, _ string, _ []string) (string, error) {
		return `"ok"`, s.jobs.inJobTx(ctx, lj, func(tx *sqldb.Tx) error {
			_, err := tx.Exec(`INSERT INTO marks VALUES ($1)`, lj.id)
			time.Sleep(500 * time.Microsecond) // a cancel may land here
			return err
		})
	}
	raceCancels(t, s, func(id int64, final string) {
		n := count(t, s, `SELECT count(*) FROM marks WHERE jobid = $1`, id)
		if (final == JobDone) != (n == 1) || n > 1 {
			t.Fatalf("job %d ended %q with %d rows committed", id, final, n)
		}
	})
}

// TestJobIDsNotReissuedAfterRestart: an id a rolled-back fmu_submit took is
// not handed out again after a crash and reopen.
func TestJobIDsNotReissuedAfterRestart(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDurable(dir, WithJobWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	tx, err := s.DB().Begin()
	if err != nil {
		t.Fatal(err)
	}
	rs, err := tx.Query(`SELECT fmu_submit('simulate', 'hp')`)
	if err != nil {
		t.Fatal(err)
	}
	rolledBack, _ := rs.Rows[0][0].AsInt()
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	s.DB().SimulateCrash()
	s.Close()

	re, err := OpenDurable(dir, WithJobWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	id, err := re.SubmitJob("simulate", "hp")
	if err != nil {
		t.Fatal(err)
	}
	if id == rolledBack {
		t.Fatalf("job id %d reissued after a restart", id)
	}
}
