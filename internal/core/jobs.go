package core

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fmu"
	"repro/internal/sqldb"
	"repro/internal/variant"
)

// The async job subsystem: fmu_submit enqueues long-running parest/simulate
// work as a row in the fmujobs catalogue table, and the commit that makes the
// row visible hands its id to a bounded worker pool (Tx.OnCommit), so jobs
// start in commit order and a rolled-back submission never runs. fmu_jobs()
// exposes state/progress/error as a system table, and fmu_cancel aborts by
// id. Job rows ride the engine's WAL like every other catalogue write, so a
// kill -9 recovers them: still-queued jobs re-queue on the next open, jobs
// that died mid-run surface as 'interrupted'.
//
// Lock ordering: jm.mu is a leaf — never held across a database call.
// Workers run their transactions with jm.mu released; fmu_jobs/fmu_cancel
// take jm.mu only for map reads; OnCommit closures run with no latch held.
// idMu is held across the statement that records a job id, which latches
// only fmujobids; nothing waits for idMu holding that latch.

// jobTablesSQL creates the job table and the one-row table holding the
// last job id handed out (see newID).
var jobTablesSQL = []string{`CREATE TABLE IF NOT EXISTS fmujobs (
	jobid int, kind text, args text, state text, progress float,
	error text, result text, submitted text, started text, finished text)`,
	`CREATE TABLE IF NOT EXISTS fmujobids (reserved int)`,
	`INSERT INTO fmujobids SELECT 0 FROM (SELECT count(*) AS n FROM fmujobids) AS c WHERE c.n = 0`}

// defaultJobWorkers bounds the pool when WithJobWorkers is not given.
const defaultJobWorkers = 4

// Job states.
const (
	JobQueued      = "queued"
	JobRunning     = "running"
	JobDone        = "done"
	JobError       = "error"
	JobCancelled   = "cancelled"
	JobInterrupted = "interrupted"
)

// JobStats is a point-in-time snapshot of the job subsystem counters.
type JobStats struct {
	Workers   int
	Submitted uint64
	Completed uint64
	Failed    uint64
	Cancelled uint64
	Running   int
}

type jobManager struct {
	s       *Session
	workers int

	mu      sync.Mutex
	ready   sync.Cond          // signalled when queue grows or the pool stops
	queue   []int64            // committed queued jobs, in commit order
	live    map[int64]*liveJob // running jobs, by id
	stopped bool

	// idMu guards nextID, the last id handed out.
	idMu   sync.Mutex
	nextID int64

	stop chan struct{} // closed by shutdown; ends retryConflicts' backoff
	wg   sync.WaitGroup

	// body runs a claimed job's work: execute, which tests replace.
	body func(ctx context.Context, lj *liveJob, kind string, args []string) (string, error)

	submitted, completed, failed, cancelled atomic.Uint64
}

type liveJob struct {
	id       int64
	cancel   context.CancelFunc
	progress atomic.Uint64 // math.Float64bits
	outcome  atomic.Pointer[string]
}

// settle decides the job's terminal state unless fmu_cancel or the worker
// decided it first, and returns the state that stands. A job that writes
// settles done just before its commit (inJobTx), so a job reported
// cancelled commits nothing, and one whose writes commit ends done.
func (lj *liveJob) settle(state string) string {
	if lj.outcome.CompareAndSwap(nil, &state) {
		return state
	}
	return *lj.outcome.Load()
}

func (lj *liveJob) setProgress(f float64) { lj.progress.Store(math.Float64bits(f)) }
func (lj *liveJob) getProgress() float64  { return math.Float64frombits(lj.progress.Load()) }

// newJobManager launches the worker pool; it idles until a commit (or
// recoverJobs) enqueues a job.
func newJobManager(s *Session, workers int) *jobManager {
	if workers < 1 {
		workers = defaultJobWorkers
	}
	jm := &jobManager{
		s:       s,
		workers: workers,
		live:    make(map[int64]*liveJob),
		stop:    make(chan struct{}),
	}
	jm.body = jm.execute
	jm.ready.L = &jm.mu
	jm.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go jm.work()
	}
	return jm
}

// shutdown cancels live jobs and stops the pool. Queued rows stay queued in
// the table (a later open re-queues them).
func (jm *jobManager) shutdown() {
	jm.mu.Lock()
	if jm.stopped {
		jm.mu.Unlock()
		return
	}
	jm.stopped = true
	for _, lj := range jm.live {
		lj.cancel()
	}
	jm.ready.Broadcast()
	jm.mu.Unlock()
	close(jm.stop)
	jm.wg.Wait()
}

// enqueue hands a committed queued job to the pool. It never blocks; once
// the pool has stopped the row stays queued for the next open.
func (jm *jobManager) enqueue(id int64) {
	jm.mu.Lock()
	if !jm.stopped {
		jm.queue = append(jm.queue, id)
		jm.ready.Signal()
	}
	jm.mu.Unlock()
}

// work runs queued jobs in the order their submissions committed until the
// pool stops.
func (jm *jobManager) work() {
	defer jm.wg.Done()
	for {
		jm.mu.Lock()
		for len(jm.queue) == 0 && !jm.stopped {
			jm.ready.Wait()
		}
		if jm.stopped {
			jm.mu.Unlock()
			return
		}
		id := jm.queue[0]
		jm.queue = jm.queue[1:]
		jm.mu.Unlock()
		jm.runJob(id)
	}
}

func jobNow() string { return time.Now().UTC().Format(time.RFC3339Nano) }

// errJobSkipped reports a claim that found the job no longer queued (a
// concurrent fmu_cancel won) or the pool stopping.
var errJobSkipped = errors.New("core: job no longer queued")

// retryConflicts runs attempt until it ends in something other than a write
// conflict, with backoff from 1 ms doubling to 50 ms between tries and no
// attempt limit. It gives up, returning the conflict, only when ctx is done
// or the pool stops. A conflict (a bounded latch wait lost against a long
// writer, or a first-updater-wins loss) rolls the attempt's
// transaction back cleanly, so for the pool it is a reason to retry, never a
// job's outcome.
func (jm *jobManager) retryConflicts(ctx context.Context, attempt func() error) error {
	backoff := time.Millisecond
	for {
		err := attempt()
		if !errors.Is(err, sqldb.ErrWriteConflict) {
			return err
		}
		select {
		case <-ctx.Done():
			return err
		case <-jm.stop:
			return err
		case <-time.After(backoff):
		}
		backoff = min(2*backoff, 50*time.Millisecond)
	}
}

// write runs fn in a transaction until it commits. Every fmujobs write the
// pool makes goes through it, as an UPDATE conditional on the job's state;
// a latch wait behind an open transaction and a state committed after the
// snapshot both fail with a write conflict, which write retries. It gives
// up only when the pool stops (a row left 'running' then reads
// 'interrupted' at the next open).
func (jm *jobManager) write(fn func(tx *sqldb.Tx) error) error {
	return jm.retryConflicts(context.Background(), func() error {
		return jm.s.inTx(context.Background(), fn)
	})
}

// runJob claims one queued job and drives it to a terminal state.
func (jm *jobManager) runJob(id int64) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	lj := &liveJob{id: id, cancel: cancel}
	var kind, rawArgs string
	claimErr := jm.write(func(tx *sqldb.Tx) error {
		n, err := tx.Exec(`UPDATE fmujobs SET state = $1, started = $2 WHERE jobid = $3 AND state = $4`,
			JobRunning, jobNow(), id, JobQueued)
		if err != nil || n == 0 {
			return cmp.Or(err, errJobSkipped)
		}
		rs, err := tx.Query(`SELECT kind, args FROM fmujobs WHERE jobid = $1`, id)
		if err != nil {
			return err
		}
		kind, rawArgs = rs.Rows[0][0].AsText(), rs.Rows[0][1].AsText()
		// Live before the claim commits: an fmu_cancel whose snapshot holds
		// the claim finds the job live.
		jm.mu.Lock()
		defer jm.mu.Unlock()
		if jm.stopped {
			return errJobSkipped
		}
		jm.live[id] = lj
		tx.OnRollback(func() { jm.forget(id) })
		return nil
	})
	if claimErr != nil {
		return // cancelled before start, or the pool stopped
	}
	defer jm.forget(id)
	var args []string
	if err := json.Unmarshal([]byte(rawArgs), &args); err != nil {
		jm.failed.Add(1)
		jm.finish(id, JobError, "", fmt.Sprintf("malformed job args: %v", err))
		return
	}

	var result string
	err := jm.retryConflicts(ctx, func() (err error) {
		lj.setProgress(0)
		result, err = jm.body(ctx, lj, kind, args)
		return err
	})
	state := JobDone
	switch {
	case ctx.Err() != nil || errors.Is(err, context.Canceled):
		state = JobCancelled
	case err != nil:
		state = JobError
	}
	// The first decision stands, except that a body that settled done and
	// then failed to commit ends as its error says.
	if won := lj.settle(state); err == nil || won != JobDone {
		state = won
	}
	switch state {
	case JobDone:
		jm.completed.Add(1)
		jm.finish(id, JobDone, result, "")
	case JobCancelled:
		jm.cancelled.Add(1)
		jm.finish(id, JobCancelled, "", "cancelled")
	default:
		jm.failed.Add(1)
		jm.finish(id, JobError, "", err.Error())
	}
}

// forget drops a job from the live set.
func (jm *jobManager) forget(id int64) {
	jm.mu.Lock()
	delete(jm.live, id)
	jm.mu.Unlock()
}

// finish writes the terminal state.
func (jm *jobManager) finish(id int64, state, result, errText string) {
	_ = jm.write(func(tx *sqldb.Tx) error {
		_, err := tx.Exec(
			`UPDATE fmujobs SET state = $1, progress = $2, result = $3, error = $4, finished = $5
			 WHERE jobid = $6 AND state = $7`,
			state, 1.0, result, errText, jobNow(), id, JobRunning)
		return err
	})
}

func (jm *jobManager) execute(ctx context.Context, lj *liveJob, kind string, args []string) (string, error) {
	switch kind {
	case "parest":
		return jm.execParest(ctx, lj, args)
	case "simulate":
		return jm.execSimulate(ctx, args)
	case "sweep":
		return jm.execSweep(ctx, lj, args)
	default:
		return "", fmt.Errorf("core: unknown job kind %q", kind)
	}
}

// execParest runs a 'parest' job: its arguments are fmu_parest's, stored as
// text ("" for NULL), and decode the same way.
func (jm *jobManager) execParest(ctx context.Context, lj *liveJob, args []string) (string, error) {
	vals := make([]variant.Value, len(args))
	for i, a := range args {
		if a != "" {
			vals[i] = variant.NewText(a)
		}
	}
	var results []ParestResult
	err := jm.inJobTx(ctx, lj, func(tx *sqldb.Tx) (err error) {
		results, err = jm.s.parestFromArgs(ctx, tx, vals)
		return err
	})
	if err != nil {
		return "", err
	}
	ids := make([]string, len(results))
	rmse := make([]float64, len(results))
	for i, r := range results {
		ids[i], rmse[i] = r.InstanceID, r.RMSE
	}
	out, _ := json.Marshal(map[string]any{"instances": ids, "rmse": rmse})
	return string(out), nil
}

// inJobTx runs fn, a job's writes, in a transaction that commits only if
// the job settles done first: else fmu_cancel won, and it rolls back.
func (jm *jobManager) inJobTx(ctx context.Context, lj *liveJob, fn func(tx *sqldb.Tx) error) error {
	return jm.s.inTx(ctx, func(tx *sqldb.Tx) error {
		if err := fn(tx); err != nil {
			return err
		}
		if lj.settle(JobDone) != JobDone {
			return context.Canceled
		}
		return nil
	})
}

// jobWindow decodes a job's optional time_from/time_to arguments at
// args[i], args[i+1]; the window is explicit only when both are given.
func jobWindow(args []string, i int) (from, to *float64, err error) {
	if len(args) < i+2 || args[i] == "" || args[i+1] == "" {
		return nil, nil, nil
	}
	f, err := strconv.ParseFloat(args[i], 64)
	if err != nil {
		return nil, nil, fmt.Errorf("time_from: %w", err)
	}
	t, err := strconv.ParseFloat(args[i+1], 64)
	if err != nil {
		return nil, nil, fmt.Errorf("time_to: %w", err)
	}
	return &f, &t, nil
}

func (jm *jobManager) execSimulate(ctx context.Context, args []string) (string, error) {
	if len(args) < 1 {
		return "", fmt.Errorf("core: simulate job needs an instanceId")
	}
	req := SimulateRequest{InstanceID: args[0]}
	if len(args) >= 2 {
		req.InputSQL = args[1]
	}
	var err error
	if req.TimeFrom, req.TimeTo, err = jobWindow(args, 2); err != nil {
		return "", err
	}
	res, _, err := jm.s.simulateFrame(ctx, jm.s.db, req)
	if err != nil {
		return "", err
	}
	out, _ := json.Marshal(map[string]any{"instance": req.InstanceID,
		"points": len(res.Frame.Times), "vars": len(res.Frame.Columns)})
	return string(out), nil
}

// gridPoint is one parameter assignment of a sweep.
type gridPoint map[string]float64

// parseGrid decodes '{name=lo:hi:n, ...}' into the cross-product of the
// per-parameter ranges (n samples linearly spaced over [lo, hi]; n = 1 pins
// lo). A bare name=value pins a single value.
func parseGrid(spec string) ([]gridPoint, []string, error) {
	dims := splitBraceList(spec)
	if len(dims) == 0 {
		return nil, nil, fmt.Errorf("core: empty sweep grid")
	}
	names := make([]string, 0, len(dims))
	values := make([][]float64, 0, len(dims))
	total := 1
	for _, d := range dims {
		eq := strings.IndexByte(d, '=')
		if eq <= 0 {
			return nil, nil, fmt.Errorf("core: sweep grid entry %q: want name=lo:hi:n or name=value", d)
		}
		name := strings.TrimSpace(d[:eq])
		rhs := strings.TrimSpace(d[eq+1:])
		parts := strings.Split(rhs, ":")
		var vals []float64
		switch len(parts) {
		case 1:
			v, err := strconv.ParseFloat(parts[0], 64)
			if err != nil {
				return nil, nil, fmt.Errorf("core: sweep grid %s: %w", name, err)
			}
			vals = []float64{v}
		case 3:
			lo, err1 := strconv.ParseFloat(parts[0], 64)
			hi, err2 := strconv.ParseFloat(parts[1], 64)
			n, err3 := strconv.Atoi(parts[2])
			if err1 != nil || err2 != nil || err3 != nil || n < 1 {
				return nil, nil, fmt.Errorf("core: sweep grid %s: want lo:hi:n with n >= 1", name)
			}
			vals = make([]float64, n)
			for i := range vals {
				vals[i] = lo + (hi-lo)*float64(i)/float64(max(n-1, 1))
			}
		default:
			return nil, nil, fmt.Errorf("core: sweep grid entry %q: want name=lo:hi:n or name=value", d)
		}
		names = append(names, name)
		values = append(values, vals)
		total *= len(vals)
		if total > 1<<20 {
			return nil, nil, fmt.Errorf("core: sweep grid too large (> %d points)", 1<<20)
		}
	}
	points := make([]gridPoint, total)
	for i := range points {
		p := make(gridPoint, len(names))
		idx := i
		for d := len(names) - 1; d >= 0; d-- {
			vals := values[d]
			p[names[d]] = vals[idx%len(vals)]
			idx /= len(vals)
		}
		points[i] = p
	}
	return points, names, nil
}

// execSweep runs a parameter-grid scenario sweep: each grid point simulates
// an ephemeral clone of the base instance (no catalogue writes, so points
// parallelize freely across the pool width), and the job reports progress as
// points complete.
func (jm *jobManager) execSweep(ctx context.Context, lj *liveJob, args []string) (string, error) {
	if len(args) < 2 {
		return "", fmt.Errorf("core: sweep job needs an instanceId and a grid")
	}
	instanceID := args[0]
	points, _, err := parseGrid(args[1])
	if err != nil {
		return "", err
	}

	// Resolve the base values, the shared inputs and the window once, from
	// committed data; the points then need no lock at all.
	s := jm.s
	base, _, err := s.snapshot(ctx, s.db, instanceID)
	if err != nil {
		return "", err
	}
	unit := base.Unit()
	inputSQL := ""
	if len(args) >= 3 {
		inputSQL = args[2]
	}
	from, to, err := jobWindow(args, 3)
	if err != nil {
		return "", err
	}
	in, err := s.loadInput(ctx, s.db, unit, inputSQL)
	if err != nil {
		return "", err
	}
	t0, t1, step, err := in.grid(unit, from, to, 0)
	if err != nil {
		return "", err
	}

	// The summary metric: the final value of the model's first output (or
	// first state when the model declares no outputs).
	metric := ""
	if len(unit.Model.Outputs) > 0 {
		metric = unit.Model.Outputs[0].Name
	} else if len(unit.Model.States) > 0 {
		metric = unit.Model.States[0].Name
	}

	// point simulates grid point i on an ephemeral clone and returns the
	// metric's final value (NaN when the run has none).
	point := func(i int) (float64, error) {
		clone := base.Clone(fmt.Sprintf("%s#%d", instanceID, i))
		for name, v := range points[i] {
			if err := clone.SetReal(name, v); err != nil {
				return 0, err
			}
		}
		res, err := clone.Simulate(in.series, t0, t1, &fmu.SimOptions{OutputStep: step, Ctx: ctx})
		if err != nil {
			return 0, err
		}
		if data := res.Frame.Data[metric]; len(data) > 0 {
			return data[len(data)-1], nil
		}
		return math.NaN(), nil
	}
	finals := make([]float64, len(points))
	var done atomic.Int64
	var firstErr atomic.Value
	idxCh := make(chan int)
	nw := min(jm.workers, len(points))
	var wg sync.WaitGroup
	wg.Add(nw)
	for w := 0; w < nw; w++ {
		go func() {
			defer wg.Done()
			for i := range idxCh {
				if ctx.Err() != nil {
					continue
				}
				f, err := point(i)
				if err != nil {
					if ctx.Err() == nil {
						firstErr.CompareAndSwap(nil, fmt.Errorf("core: sweep point %d: %w", i, err))
					}
					continue
				}
				finals[i] = f
				lj.setProgress(float64(done.Add(1)) / float64(len(points)))
			}
		}()
	}
	for i := range points {
		if ctx.Err() != nil {
			break
		}
		idxCh <- i
	}
	close(idxCh)
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return "", err
	}
	if e, ok := firstErr.Load().(error); ok {
		return "", e
	}
	// Every point completed.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, f := range finals {
		if !math.IsNaN(f) {
			lo, hi = min(lo, f), max(hi, f)
		}
	}
	summary := map[string]any{
		"instance": instanceID,
		"points":   len(points),
		"done":     len(points),
		"metric":   metric,
	}
	if !math.IsInf(lo, 1) {
		summary["min"], summary["max"] = lo, hi
	}
	out, _ := json.Marshal(summary)
	return string(out), nil
}

func (jm *jobManager) statsSnapshot() JobStats {
	jm.mu.Lock()
	running := len(jm.live)
	jm.mu.Unlock()
	return JobStats{
		Workers:   jm.workers,
		Submitted: jm.submitted.Load(),
		Completed: jm.completed.Load(),
		Failed:    jm.failed.Load(),
		Cancelled: jm.cancelled.Load(),
		Running:   running,
	}
}

// submit validates and encodes a job, inserts its row in tx, the invoking
// statement's transaction, and returns the id. The job reaches the pool when
// that transaction commits; a rollback un-submits it.
func (jm *jobManager) submit(ctx context.Context, tx *sqldb.Tx, kind string, args []string) (int64, error) {
	switch kind {
	case "parest":
		if len(args) < 2 || len(args) > 4 {
			return 0, fmt.Errorf("fmu_submit('parest', instanceIds, input_sqls [, pars [, threshold]]) expects 2–4 job arguments")
		}
	case "simulate":
		if len(args) < 1 || len(args) > 4 {
			return 0, fmt.Errorf("fmu_submit('simulate', instanceId [, input_sql [, time_from, time_to]]) expects 1–4 job arguments")
		}
		if len(args) == 3 {
			return 0, fmt.Errorf("core: incomplete simulation time interval: both time_from and time_to are required")
		}
	case "sweep":
		if len(args) < 2 || len(args) > 5 {
			return 0, fmt.Errorf("fmu_sweep(instanceId, grid [, input_sql [, time_from, time_to]]) expects 2–5 arguments")
		}
		if _, _, err := parseGrid(args[1]); err != nil {
			return 0, err
		}
	default:
		return 0, fmt.Errorf("core: unknown job kind %q (want 'parest', 'simulate' or 'sweep')", kind)
	}
	encoded, err := json.Marshal(args)
	if err != nil {
		return 0, err
	}
	id, err := jm.newID(ctx)
	if err != nil {
		return 0, err
	}
	if _, err := tx.QueryContext(ctx,
		`INSERT INTO fmujobs VALUES ($1, $2, $3, $4, $5, $6, $7, $8, $9, $10)`,
		id, kind, string(encoded), JobQueued, 0.0, "", "", jobNow(), "", ""); err != nil {
		return 0, err
	}
	jm.submitted.Add(1)
	tx.OnCommit(func() { jm.enqueue(id) })
	return id, nil
}

// newID hands out the next job id after recording it in fmujobids by a
// statement of its own, which commits whatever becomes of the caller's
// transaction, as a PostgreSQL sequence does, so an id is never reissued,
// also after a restart.
func (jm *jobManager) newID(ctx context.Context) (int64, error) {
	jm.idMu.Lock()
	defer jm.idMu.Unlock()
	if _, err := jm.s.db.Conn().ExecContext(ctx, `UPDATE fmujobids SET reserved = $1`, jm.nextID+1); err != nil {
		return 0, err
	}
	jm.nextID++
	return jm.nextID, nil
}

// cancel aborts a job and returns its resulting state. A job running here
// settles cancelled unless its worker settled it first, and the state that
// stands is returned; the worker records it. Otherwise a queued or running
// row flips to cancelled in tx, the invoking statement's transaction, by a
// conditional UPDATE. tx's snapshot was pinned before the lookup of live
// jobs, so a claim the lookup missed committed after that snapshot: the
// UPDATE fails with a write conflict (first-updater-wins) instead of
// cancelling a running job's row, and the job, live now, is looked up again.
func (jm *jobManager) cancel(ctx context.Context, tx *sqldb.Tx, id int64) (string, error) {
	for retried := false; ; retried = true {
		jm.mu.Lock()
		lj := jm.live[id]
		jm.mu.Unlock()
		if lj != nil {
			state := lj.settle(JobCancelled)
			if state == JobCancelled {
				lj.cancel()
			}
			return state, nil
		}
		n, err := tx.ExecContext(ctx,
			`UPDATE fmujobs SET state = $1, finished = $2, error = $3 WHERE jobid = $4 AND state IN ($5, $6)`,
			JobCancelled, jobNow(), "cancelled", id, JobQueued, JobRunning)
		switch {
		case errors.Is(err, sqldb.ErrWriteConflict) && !retried:
			continue
		case err != nil:
			return "", err
		case n > 0:
			tx.OnCommit(func() { jm.cancelled.Add(1) })
			return JobCancelled, nil
		}
		rs, err := tx.QueryContext(ctx, `SELECT state FROM fmujobs WHERE jobid = $1`, id)
		if err != nil {
			return "", err
		}
		if len(rs.Rows) == 0 {
			return "", fmt.Errorf("core: no such job %d", id)
		}
		return rs.Rows[0][0].AsText(), nil // already terminal
	}
}

// jobsTable renders fmujobs with live in-memory progress merged over the
// committed rows.
func (jm *jobManager) jobsTable(ctx context.Context, q querier) (*sqldb.ResultSet, error) {
	rs, err := q.QueryContext(ctx,
		`SELECT jobid, kind, state, progress, error, result, submitted, started, finished
		 FROM fmujobs ORDER BY jobid`)
	if err != nil {
		return nil, err
	}
	jm.mu.Lock()
	progress := make(map[int64]float64, len(jm.live))
	for id, lj := range jm.live {
		progress[id] = lj.getProgress()
	}
	jm.mu.Unlock()
	for _, row := range rs.Rows {
		if id, err := row[0].AsInt(); err == nil {
			if p, ok := progress[id]; ok && row[2].AsText() == JobRunning {
				row[3] = variant.NewFloat(p)
			}
		}
	}
	return rs, nil
}

// recoverJobs is the open-time crash protocol for durable sessions: jobs
// that died mid-run surface as 'interrupted' (their worker is gone and any
// partial transaction already rolled back at WAL replay), queued jobs are
// enqueued in jobid order, and the id allocator resumes after the largest id
// committed or handed out. It runs before the session is shared.
func (s *Session) recoverJobs() error {
	for _, q := range jobTablesSQL {
		if _, err := s.db.Exec(q); err != nil {
			return fmt.Errorf("core: ensuring the job tables: %w", err)
		}
	}
	if _, err := s.db.Exec(
		`UPDATE fmujobs SET state = $1, error = $2, finished = $3 WHERE state = $4`,
		JobInterrupted, "interrupted by restart", jobNow(), JobRunning); err != nil {
		return fmt.Errorf("core: marking interrupted jobs: %w", err)
	}
	rs, err := s.db.Query(`SELECT jobid, state FROM fmujobs ORDER BY jobid`)
	if err != nil {
		return fmt.Errorf("core: reading queued jobs: %w", err)
	}
	for _, row := range rs.Rows {
		id := row[0].Int()
		s.jobs.nextID = max(s.jobs.nextID, id)
		if row[1].AsText() == JobQueued {
			s.jobs.enqueue(id)
		}
	}
	if rs, err = s.db.Query(`SELECT max(reserved) FROM fmujobids`); err != nil {
		return fmt.Errorf("core: reading the last job id: %w", err)
	}
	s.jobs.nextID = max(s.jobs.nextID, rs.Rows[0][0].Int())
	return nil
}

// registerJobUDFs wires the job subsystem's SQL surface; called from
// registerUDFs.
func (s *Session) registerJobUDFs() {
	db := s.db

	// fmu_submit(kind, ...) -> job id. The row is inserted through the
	// invoking statement's transaction: it becomes runnable at commit.
	db.RegisterScalar("fmu_submit", func(ctx context.Context, tx *sqldb.Tx, args []variant.Value) (variant.Value, error) {
		if len(args) < 2 {
			return variant.Value{}, fmt.Errorf("fmu_submit(kind, ...) expects at least 2 arguments")
		}
		kind := strings.ToLower(strings.TrimSpace(args[0].AsText()))
		rest := make([]string, len(args)-1)
		for i, a := range args[1:] {
			if !a.IsNull() {
				rest[i] = a.AsText()
			}
		}
		id, err := s.jobs.submit(ctx, tx, kind, rest)
		if err != nil {
			return variant.Value{}, err
		}
		return variant.NewInt(id), nil
	}, false)

	// fmu_sweep(instanceId, grid [, input_sql [, time_from, time_to]])
	//   -> job id for a parameter-grid scenario sweep.
	db.RegisterScalar("fmu_sweep", func(ctx context.Context, tx *sqldb.Tx, args []variant.Value) (variant.Value, error) {
		rest := make([]string, len(args))
		for i, a := range args {
			if a.IsNull() {
				continue
			}
			if i == 3 || i == 4 { // time bounds normalize through timeArg
				f, err := timeArg(a)
				if err != nil {
					return variant.Value{}, err
				}
				rest[i] = strconv.FormatFloat(f, 'g', -1, 64)
				continue
			}
			rest[i] = a.AsText()
		}
		id, err := s.jobs.submit(ctx, tx, "sweep", rest)
		if err != nil {
			return variant.Value{}, err
		}
		return variant.NewInt(id), nil
	}, false)

	// fmu_cancel(jobId) -> resulting state.
	db.RegisterScalar("fmu_cancel", func(ctx context.Context, tx *sqldb.Tx, args []variant.Value) (variant.Value, error) {
		if len(args) != 1 {
			return variant.Value{}, fmt.Errorf("fmu_cancel(jobId) expects 1 argument")
		}
		id, err := args[0].AsInt()
		if err != nil {
			return variant.Value{}, fmt.Errorf("jobId: %w", err)
		}
		state, err := s.jobs.cancel(ctx, tx, id)
		if err != nil {
			return variant.Value{}, err
		}
		return variant.NewText(state), nil
	}, false)

	// fmu_jobs() -> system table of job state/progress.
	db.RegisterTable("fmu_jobs", func(ctx context.Context, tx *sqldb.Tx, args []variant.Value) (sqldb.RowStream, error) {
		if len(args) != 0 {
			return nil, fmt.Errorf("fmu_jobs() expects no arguments")
		}
		return asStream(s.jobs.jobsTable(ctx, tx))
	}, true)
}

// SubmitJob is the typed-API fmu_submit.
func (s *Session) SubmitJob(kind string, args ...string) (int64, error) {
	var id int64
	ctx := context.Background()
	err := s.inTx(ctx, func(tx *sqldb.Tx) (err error) {
		id, err = s.jobs.submit(ctx, tx, kind, args)
		return err
	})
	return id, err
}

// CancelJob is the typed-API fmu_cancel.
func (s *Session) CancelJob(id int64) (string, error) {
	v, err := s.call(`SELECT fmu_cancel($1)`, id)
	return v.AsText(), err
}

// WaitJob blocks until job id reaches a terminal state (or ctx expires) and
// returns that state. Poll-based; intended for tests and simple clients.
func (s *Session) WaitJob(ctx context.Context, id int64) (string, error) {
	for {
		rs, err := s.db.Query(`SELECT state FROM fmujobs WHERE jobid = $1`, id)
		if err != nil {
			return "", err
		}
		if len(rs.Rows) == 0 {
			return "", fmt.Errorf("core: no such job %d", id)
		}
		switch st := rs.Rows[0][0].AsText(); st {
		case JobDone, JobError, JobCancelled, JobInterrupted:
			return st, nil
		}
		select {
		case <-ctx.Done():
			return "", ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}
