package core

import (
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/estimate"
	"repro/internal/sqldb"
)

// waitJobState polls fmu_jobs() until job id reaches a terminal state.
func waitJobState(t *testing.T, s *Session, id int64) string {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	state, err := s.WaitJob(ctx, id)
	if err != nil {
		t.Fatalf("waiting for job %d: %v", id, err)
	}
	return state
}

// jobRow fetches one fmu_jobs() row by id.
func jobRow(t *testing.T, s *Session, id int64) map[string]string {
	t.Helper()
	rs, err := s.DB().Query(`SELECT * FROM fmu_jobs()`)
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rs.Rows {
		rid, _ := row[0].AsInt()
		if rid != id {
			continue
		}
		out := make(map[string]string)
		for i, col := range rs.Columns {
			out[col.Name] = row[i].AsText()
		}
		return out
	}
	t.Fatalf("job %d not in fmu_jobs()", id)
	return nil
}

func TestJobSubmitRunPollDone(t *testing.T) {
	s := newTestSession(t)
	defer s.Close()
	if _, err := s.Create(hpSource, "hp"); err != nil {
		t.Fatal(err)
	}
	loadMeasurements(t, s, "meas", 1.0)

	rs, err := s.DB().Query(
		`SELECT fmu_submit('simulate', 'hp', 'SELECT time, u FROM meas')`)
	if err != nil {
		t.Fatal(err)
	}
	id, err := rs.Rows[0][0].AsInt()
	if err != nil || id <= 0 {
		t.Fatalf("job id = %v, %v", rs.Rows[0][0], err)
	}

	if state := waitJobState(t, s, id); state != JobDone {
		t.Fatalf("state = %q, want done (row: %v)", state, jobRow(t, s, id))
	}
	row := jobRow(t, s, id)
	if row["kind"] != "simulate" {
		t.Errorf("kind = %q", row["kind"])
	}
	if row["progress"] != "1" {
		t.Errorf("progress = %q, want 1", row["progress"])
	}
	if row["started"] == "" || row["finished"] == "" {
		t.Errorf("missing timestamps: %v", row)
	}
	var result struct {
		Instance string `json:"instance"`
		Points   int    `json:"points"`
		Vars     int    `json:"vars"`
	}
	if err := json.Unmarshal([]byte(row["result"]), &result); err != nil {
		t.Fatalf("result %q: %v", row["result"], err)
	}
	if result.Instance != "hp" || result.Points < 2 || result.Vars < 1 {
		t.Errorf("result = %+v", result)
	}

	js := s.JobStats()
	if js.Submitted < 1 || js.Completed < 1 {
		t.Errorf("stats = %+v", js)
	}
}

func TestJobSubmitRollbackNeverRuns(t *testing.T) {
	s := newTestSession(t)
	defer s.Close()
	if _, err := s.Create(hpSource, "hp"); err != nil {
		t.Fatal(err)
	}
	db := s.DB()
	if _, err := db.Exec(`BEGIN`); err != nil {
		t.Fatal(err)
	}
	rs, err := db.Query(`SELECT fmu_submit('simulate', 'hp')`)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := rs.Rows[0][0].AsInt()
	if _, err := db.Exec(`ROLLBACK`); err != nil {
		t.Fatal(err)
	}
	// The insert rolled back: the job row must never appear, and the
	// dispatcher must never run it.
	time.Sleep(200 * time.Millisecond)
	rows, err := db.Query(`SELECT count(*) FROM fmujobs WHERE jobid = $1`, id)
	if err != nil {
		t.Fatal(err)
	}
	if n := rows.Rows[0][0].Int(); n != 0 {
		t.Errorf("rolled-back job row count = %d, want 0", n)
	}
}

func TestJobCancelMidParest(t *testing.T) {
	// A deliberately heavy estimator keeps the parest job busy long enough
	// to cancel it mid-run.
	s := newTestSession(t, WithEstimateOptions(estimate.Options{
		GA: estimate.GAOptions{Population: 200, Generations: 500, Seed: 2},
	}))
	defer s.Close()
	if _, err := s.Create(hpSource, "hp"); err != nil {
		t.Fatal(err)
	}
	loadMeasurements(t, s, "meas", 1.0)

	rs, err := s.DB().Query(
		`SELECT fmu_submit('parest', '{hp}', '{SELECT * FROM meas}', '{A, B, E}')`)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := rs.Rows[0][0].AsInt()

	// Wait until the worker has actually claimed it.
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatalf("job %d never started (row: %v)", id, jobRow(t, s, id))
		}
		if jobRow(t, s, id)["state"] == JobRunning {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}

	crs, err := s.DB().Query(`SELECT fmu_cancel($1)`, id)
	if err != nil {
		t.Fatal(err)
	}
	if got := crs.Rows[0][0].AsText(); got != JobCancelled {
		t.Fatalf("fmu_cancel = %q", got)
	}
	if state := waitJobState(t, s, id); state != JobCancelled {
		t.Fatalf("state = %q, want cancelled", state)
	}
	// A cancelled calibration must not have committed fitted parameters.
	vrs, err := s.DB().Query(
		`SELECT value FROM modelinstancevalues WHERE instanceid = 'hp' AND varname = 'A'`)
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := vrs.Rows[0][0].AsFloat(); v != 0 {
		t.Errorf("A = %v after cancelled parest, want the initial 0", v)
	}
}

func TestJobCancelQueued(t *testing.T) {
	s := newTestSession(t, WithJobWorkers(1))
	defer s.Close()
	if _, err := s.Create(hpSource, "hp"); err != nil {
		t.Fatal(err)
	}
	// Occupy the single worker, then cancel a still-queued job behind it.
	rs, err := s.DB().Query(`SELECT fmu_sweep('hp', '{B=0:20:200, E=0:10:20}')`)
	if err != nil {
		t.Fatal(err)
	}
	busy, _ := rs.Rows[0][0].AsInt()
	rs, err = s.DB().Query(`SELECT fmu_submit('simulate', 'hp')`)
	if err != nil {
		t.Fatal(err)
	}
	queued, _ := rs.Rows[0][0].AsInt()

	crs, err := s.DB().Query(`SELECT fmu_cancel($1)`, queued)
	if err != nil {
		t.Fatal(err)
	}
	if got := crs.Rows[0][0].AsText(); got != JobCancelled {
		t.Fatalf("fmu_cancel = %q", got)
	}
	if row := jobRow(t, s, queued); row["state"] != JobCancelled {
		t.Fatalf("queued job state = %q, want cancelled", row["state"])
	}
	if _, err := s.DB().Query(`SELECT fmu_cancel($1)`, busy); err != nil {
		t.Fatal(err)
	}
	waitJobState(t, s, busy)
}

// TestJobTerminalStateBehindOpenTransaction: a job's final state waits out an
// open transaction that holds the fmujobs latch instead of being dropped, and
// the job that transaction submitted runs once it commits.
func TestJobTerminalStateBehindOpenTransaction(t *testing.T) {
	s := newTestSession(t, WithJobWorkers(1))
	defer s.Close()
	if _, err := s.Create(hpSource, "hp"); err != nil {
		t.Fatal(err)
	}
	rs, err := s.DB().Query(`SELECT fmu_sweep('hp', '{B=0:20:200, E=0:10:20}')`)
	if err != nil {
		t.Fatal(err)
	}
	sweep, _ := rs.Rows[0][0].AsInt()
	deadline := time.Now().Add(10 * time.Second)
	for jobRow(t, s, sweep)["state"] != JobRunning {
		if time.Now().After(deadline) {
			t.Fatalf("sweep never started: %v", jobRow(t, s, sweep))
		}
		time.Sleep(5 * time.Millisecond)
	}

	tx, err := s.DB().BeginTx(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	defer tx.Rollback()
	rs, err = tx.Query(`SELECT fmu_submit('simulate', 'hp')`)
	if err != nil {
		t.Fatal(err)
	}
	inner, _ := rs.Rows[0][0].AsInt()
	crs, err := s.DB().Query(`SELECT fmu_cancel($1)`, sweep)
	if err != nil {
		t.Fatal(err)
	}
	if got := crs.Rows[0][0].AsText(); got != JobCancelled {
		t.Fatalf("fmu_cancel = %q, want cancelled", got)
	}
	for s.JobStats().Cancelled != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("the worker never saw the cancellation: %+v", s.JobStats())
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(300 * time.Millisecond)
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if state, err := s.WaitJob(ctx, sweep); err != nil || state != JobCancelled {
		t.Fatalf("sweep = %q, %v; want cancelled (row: %v)", state, err, jobRow(t, s, sweep))
	}
	if state := waitJobState(t, s, inner); state != JobDone {
		t.Fatalf("job submitted in the transaction = %q, want done", state)
	}
}

// TestJobConcurrentSubmittersEachRunOnce: jobs committed from several
// goroutines at once each reach the pool exactly once.
func TestJobConcurrentSubmittersEachRunOnce(t *testing.T) {
	s := newTestSession(t, WithJobWorkers(2))
	defer s.Close()
	if _, err := s.Create(hpSource, "hp"); err != nil {
		t.Fatal(err)
	}
	const submitters, each = 4, 3
	ids := make(chan int64, submitters*each)
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				id, err := s.SubmitJob("simulate", "hp")
				if err != nil {
					t.Error(err)
					return
				}
				ids <- id
			}
		}()
	}
	wg.Wait()
	close(ids)
	for id := range ids {
		if state := waitJobState(t, s, id); state != JobDone {
			t.Errorf("job %d state = %q, want done", id, state)
		}
	}
	if js := s.JobStats(); js.Completed != submitters*each {
		t.Errorf("stats = %+v, want %d completed", js, submitters*each)
	}
}

func TestJobPoolSaturationOrdering(t *testing.T) {
	s := newTestSession(t, WithJobWorkers(1), WithSimCacheEntries(0))
	defer s.Close()
	if _, err := s.Create(hpSource, "hp"); err != nil {
		t.Fatal(err)
	}
	var ids []int64
	for i := 0; i < 4; i++ {
		rs, err := s.DB().Query(`SELECT fmu_submit('simulate', 'hp')`)
		if err != nil {
			t.Fatal(err)
		}
		id, _ := rs.Rows[0][0].AsInt()
		ids = append(ids, id)
	}
	for _, id := range ids {
		if state := waitJobState(t, s, id); state != JobDone {
			t.Fatalf("job %d state = %q", id, state)
		}
	}
	// One worker + jobid-ordered dispatch: start times must be monotone in
	// submission order.
	var prev time.Time
	for i, id := range ids {
		row := jobRow(t, s, id)
		started, err := time.Parse(time.RFC3339Nano, row["started"])
		if err != nil {
			t.Fatalf("job %d started %q: %v", id, row["started"], err)
		}
		if i > 0 && started.Before(prev) {
			t.Errorf("job %d started %v before its predecessor %v", id, started, prev)
		}
		prev = started
	}
}

func TestSweepGridWithConcurrentInserts(t *testing.T) {
	s := newTestSession(t, WithJobWorkers(4))
	defer s.Close()
	if _, err := s.Create(hpSource, "hp"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.DB().Exec(`CREATE TABLE audit (n int)`); err != nil {
		t.Fatal(err)
	}

	// The acceptance scenario: a parameter sweep running while concurrent
	// inserts proceed and fmu_jobs() reports progress. 10 000 points, so the
	// sweep outlasts the progress poll below even on a loaded two-core host
	// (1000 compiled-kernel simulations finish within one poll).
	rs, err := s.DB().Query(`SELECT fmu_sweep('hp', '{B=0:20:100, E=0:10:100}')`)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := rs.Rows[0][0].AsInt()

	var wg sync.WaitGroup
	stop := make(chan struct{})
	var insertErr error
	var inserted int
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := s.DB().Exec(`INSERT INTO audit VALUES ($1)`, i); err != nil {
				insertErr = err
				return
			}
			inserted++
		}
	}()

	sawProgress := false
	for {
		row := jobRow(t, s, id)
		if p := row["progress"]; row["state"] == JobRunning && p != "0" && p != "1" {
			sawProgress = true
		}
		if row["state"] == JobDone || row["state"] == JobError || row["state"] == JobCancelled {
			break
		}
		time.Sleep(time.Millisecond)
	}
	close(stop)
	wg.Wait()
	if insertErr != nil {
		t.Fatalf("concurrent insert failed: %v", insertErr)
	}
	if inserted == 0 {
		t.Error("no concurrent inserts completed during the sweep")
	}

	row := jobRow(t, s, id)
	if row["state"] != JobDone {
		t.Fatalf("sweep state = %q (error %q)", row["state"], row["error"])
	}
	if !sawProgress {
		t.Error("fmu_jobs() never reported intermediate progress")
	}
	var result struct {
		Points int     `json:"points"`
		Done   int     `json:"done"`
		Metric string  `json:"metric"`
		Min    float64 `json:"min"`
		Max    float64 `json:"max"`
	}
	if err := json.Unmarshal([]byte(row["result"]), &result); err != nil {
		t.Fatalf("result %q: %v", row["result"], err)
	}
	if result.Points != 10000 || result.Done != 10000 {
		t.Errorf("sweep covered %d/%d points, want 10000/10000", result.Done, result.Points)
	}
	if result.Metric != "y" {
		t.Errorf("metric = %q, want the model output y", result.Metric)
	}
	if !(result.Min <= result.Max) {
		t.Errorf("summary min %v > max %v", result.Min, result.Max)
	}
}

func TestSweepBadGrid(t *testing.T) {
	s := newTestSession(t)
	defer s.Close()
	if _, err := s.Create(hpSource, "hp"); err != nil {
		t.Fatal(err)
	}
	for _, spec := range []string{"", "{B}", "{B=1:2}", "{B=1:2:0}", "{B=a:b:3}"} {
		if _, err := s.DB().Query(`SELECT fmu_sweep('hp', $1)`, spec); err == nil {
			t.Errorf("fmu_sweep(%q) did not reject the grid", spec)
		}
	}
}

func TestJobRecoveryAfterCrash(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenDurable(dir, WithJobWorkers(1), WithEstimateOptions(estimate.Options{
		GA: estimate.GAOptions{Population: 16, Generations: 10, Seed: 2},
	}))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Create(hpSource, "hp"); err != nil {
		t.Fatal(err)
	}

	// Job 1 is a long sweep that will be mid-run at the crash; jobs 2 and 3
	// sit queued behind the single worker.
	rs, err := s.DB().Query(`SELECT fmu_sweep('hp', '{B=0:20:500, E=0:10:40}')`)
	if err != nil {
		t.Fatal(err)
	}
	sweepID, _ := rs.Rows[0][0].AsInt()
	var queuedIDs []int64
	for i := 0; i < 2; i++ {
		rs, err := s.DB().Query(`SELECT fmu_submit('simulate', 'hp')`)
		if err != nil {
			t.Fatal(err)
		}
		id, _ := rs.Rows[0][0].AsInt()
		queuedIDs = append(queuedIDs, id)
	}

	deadline := time.Now().Add(30 * time.Second)
	for jobRow(t, s, sweepID)["state"] != JobRunning {
		if time.Now().After(deadline) {
			t.Fatalf("sweep never started: %v", jobRow(t, s, sweepID))
		}
		time.Sleep(5 * time.Millisecond)
	}

	// kill -9: descriptors drop without checkpoint, close, or unlock.
	s.DB().SimulateCrash()
	s.Close() // reap the orphaned pool goroutines; the WAL is already gone

	re, err := OpenDurable(dir, WithJobWorkers(1), WithEstimateOptions(estimate.Options{
		GA: estimate.GAOptions{Population: 16, Generations: 10, Seed: 2},
	}))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()

	if row := jobRow(t, re, sweepID); row["state"] != JobInterrupted {
		t.Fatalf("crashed sweep state = %q, want interrupted (row %v)", row["state"], row)
	} else if !strings.Contains(row["error"], "interrupted") {
		t.Errorf("interrupted error = %q", row["error"])
	}
	// The queued jobs survived the crash and run to completion on the
	// recovered session.
	for _, id := range queuedIDs {
		if state := waitJobState(t, re, id); state != JobDone {
			t.Fatalf("recovered job %d state = %q, want done", id, state)
		}
	}
	// New submissions allocate past the recovered ids.
	nrs, err := re.DB().Query(`SELECT fmu_submit('simulate', 'hp')`)
	if err != nil {
		t.Fatal(err)
	}
	newID, _ := nrs.Rows[0][0].AsInt()
	if newID <= queuedIDs[len(queuedIDs)-1] {
		t.Errorf("post-recovery job id %d not past recovered ids %v", newID, queuedIDs)
	}
	if state := waitJobState(t, re, newID); state != JobDone {
		t.Fatalf("post-recovery job state = %q", state)
	}
}

func TestSimCacheHitMissInvalidation(t *testing.T) {
	s := newTestSession(t)
	defer s.Close()
	if _, err := s.Create(hpSource, "hp"); err != nil {
		t.Fatal(err)
	}
	loadMeasurements(t, s, "meas", 1.0)

	req := SimulateRequest{InstanceID: "hp", InputSQL: "SELECT time, u FROM meas"}
	first, err := s.Simulate(req)
	if err != nil {
		t.Fatal(err)
	}
	cs := s.SimCacheStats()
	if cs.Hits != 0 || cs.Misses != 1 || cs.Entries != 1 {
		t.Fatalf("after cold run: %+v", cs)
	}

	second, err := s.Simulate(req)
	if err != nil {
		t.Fatal(err)
	}
	cs = s.SimCacheStats()
	if cs.Hits != 1 || cs.Misses != 1 {
		t.Fatalf("after warm run: %+v", cs)
	}
	if len(first.Rows) != len(second.Rows) {
		t.Fatalf("cached result shape differs: %d vs %d rows", len(first.Rows), len(second.Rows))
	}
	for i := range first.Rows {
		for j := range first.Rows[i] {
			if first.Rows[i][j].AsText() != second.Rows[i][j].AsText() {
				t.Fatalf("row %d col %d differs: %v vs %v", i, j,
					first.Rows[i][j], second.Rows[i][j])
			}
		}
	}

	// Different window -> different key -> miss.
	from, to := 0.0, 12.0
	if _, err := s.Simulate(SimulateRequest{InstanceID: "hp", InputSQL: req.InputSQL,
		TimeFrom: &from, TimeTo: &to}); err != nil {
		t.Fatal(err)
	}
	cs = s.SimCacheStats()
	if cs.Misses != 2 {
		t.Fatalf("after different window: %+v", cs)
	}

	// Recalibration invalidates the instance's cached trajectories.
	if _, err := s.Parest([]string{"hp"}, []string{"SELECT * FROM meas"}, []string{"A", "B", "E"}); err != nil {
		t.Fatal(err)
	}
	cs = s.SimCacheStats()
	if cs.Invalidations == 0 || cs.Entries != 0 {
		t.Fatalf("after parest: %+v", cs)
	}
	// And the next run recomputes with the fitted parameters: a miss.
	if _, err := s.Simulate(req); err != nil {
		t.Fatal(err)
	}
	cs = s.SimCacheStats()
	if cs.Misses != 3 || cs.Hits != 1 {
		t.Fatalf("after post-parest run: %+v", cs)
	}
}

func TestSimCacheDisabled(t *testing.T) {
	s := newTestSession(t, WithSimCacheEntries(0))
	defer s.Close()
	if _, err := s.Create(hpSource, "hp"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := s.Simulate(SimulateRequest{InstanceID: "hp"}); err != nil {
			t.Fatal(err)
		}
	}
	if cs := s.SimCacheStats(); cs.Hits != 0 || cs.Entries != 0 {
		t.Fatalf("disabled cache recorded activity: %+v", cs)
	}
}

func TestSimCacheLRUEviction(t *testing.T) {
	s := newTestSession(t, WithSimCacheEntries(2))
	defer s.Close()
	if _, err := s.Create(hpSource, "hp"); err != nil {
		t.Fatal(err)
	}
	windows := [][2]float64{{0, 6}, {0, 12}, {0, 18}}
	for _, w := range windows {
		from, to := w[0], w[1]
		if _, err := s.Simulate(SimulateRequest{InstanceID: "hp", TimeFrom: &from, TimeTo: &to}); err != nil {
			t.Fatal(err)
		}
	}
	cs := s.SimCacheStats()
	if cs.Entries != 2 || cs.Evictions != 1 {
		t.Fatalf("after 3 distinct runs into cap-2 cache: %+v", cs)
	}
	// The evicted (oldest) window recomputes: a miss, not a hit.
	from, to := windows[0][0], windows[0][1]
	if _, err := s.Simulate(SimulateRequest{InstanceID: "hp", TimeFrom: &from, TimeTo: &to}); err != nil {
		t.Fatal(err)
	}
	if cs := s.SimCacheStats(); cs.Hits != 0 || cs.Misses != 4 {
		t.Fatalf("evicted entry was served as a hit: %+v", cs)
	}
}

func TestJobUnknownKindRejected(t *testing.T) {
	s := newTestSession(t)
	defer s.Close()
	if _, err := s.DB().Query(`SELECT fmu_submit('mine_bitcoin', 'hp')`); err == nil {
		t.Fatal("unknown job kind accepted")
	} else if !strings.Contains(err.Error(), "sweep") {
		t.Errorf("unknown-kind error %q does not name 'sweep'", err)
	}
	if _, err := s.DB().Query(`SELECT fmu_cancel(99999)`); err == nil {
		t.Fatal("cancelling a nonexistent job did not error")
	}
}

func TestParseGridCrossProduct(t *testing.T) {
	points, names, err := parseGrid("{A=0:1:3, B=5, C=10:20:2}")
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(names) != "[A B C]" {
		t.Errorf("names = %v", names)
	}
	if len(points) != 6 {
		t.Fatalf("got %d points, want 6", len(points))
	}
	seen := make(map[string]bool)
	for _, p := range points {
		if p["B"] != 5 {
			t.Errorf("pinned B = %v", p["B"])
		}
		seen[fmt.Sprintf("%v/%v", p["A"], p["C"])] = true
	}
	for _, a := range []float64{0, 0.5, 1} {
		for _, c := range []float64{10, 20} {
			if !seen[fmt.Sprintf("%v/%v", a, c)] {
				t.Errorf("missing grid point A=%v C=%v", a, c)
			}
		}
	}
}

// TestJobBodyRetryConflictsUntilDone: a job body that keeps losing write
// conflicts is retried, like the claim and the final-state write, until it
// commits; it does not end 'error' after a fixed number of attempts.
func TestJobBodyRetryConflictsUntilDone(t *testing.T) {
	s := newTestSession(t)
	defer s.Close()
	if _, err := s.Create(hpSource, "hp"); err != nil {
		t.Fatal(err)
	}
	loadMeasurements(t, s, "meas", 1.0)
	attempts := 0
	s.jobs.body = func(context.Context, *liveJob, string, []string) (string, error) {
		if attempts++; attempts <= 15 {
			return "", fmt.Errorf("attempt %d: %w", attempts, sqldb.ErrWriteConflict)
		}
		return `"ok"`, nil
	}
	rs, err := s.DB().Query(`SELECT fmu_submit('simulate', 'hp', 'SELECT time, u FROM meas')`)
	if err != nil {
		t.Fatal(err)
	}
	id, _ := rs.Rows[0][0].AsInt()
	if state := waitJobState(t, s, id); state != JobDone {
		t.Fatalf("state = %q after %d attempts, want done (row: %v)", state, attempts, jobRow(t, s, id))
	}
	if attempts != 16 {
		t.Fatalf("body ran %d times, want 15 conflicts and one success", attempts)
	}
}
