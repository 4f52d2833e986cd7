package core

import (
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
// work as a row in the fmujobs catalogue table, a bounded worker pool drains
// the queue, fmu_jobs() exposes state/progress/error as a system table, and
// fmu_cancel aborts by id. Job rows ride the engine's WAL like every other
// catalogue write, so a kill -9 recovers them: still-queued jobs re-queue on
// the next open, jobs that died mid-run surface as 'interrupted'.
//
// Lock ordering: jm.mu is a leaf — it is never held across a database call.
// Workers run their transactions with jm.mu released; fmu_jobs/fmu_cancel
// run under the statement's database lock and take jm.mu only for map
// reads/ctx cancellation.

const fmujobsDDL = `CREATE TABLE IF NOT EXISTS fmujobs (
	jobid int, kind text, args text, state text, progress float,
	error text, result text, submitted text, started text, finished text)`

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
	live    map[int64]*liveJob // running jobs, by id
	claimed map[int64]struct{} // dispatched but not yet finished
	started bool
	stopped bool

	nextID atomic.Int64
	nudge  chan struct{}
	stop   chan struct{}
	queue  chan int64
	wg     sync.WaitGroup

	submitted, completed, failed, cancelled atomic.Uint64
}

type liveJob struct {
	id       int64
	cancel   context.CancelFunc
	progress atomic.Uint64 // math.Float64bits
}

func (lj *liveJob) setProgress(f float64) { lj.progress.Store(math.Float64bits(f)) }
func (lj *liveJob) getProgress() float64  { return math.Float64frombits(lj.progress.Load()) }

func newJobManager(s *Session, workers int) *jobManager {
	if workers < 1 {
		workers = defaultJobWorkers
	}
	return &jobManager{
		s:       s,
		workers: workers,
		live:    make(map[int64]*liveJob),
		claimed: make(map[int64]struct{}),
		nudge:   make(chan struct{}, 1),
		stop:    make(chan struct{}),
		queue:   make(chan int64, 1024),
	}
}

// start seeds the id allocator from the recovered table and launches the
// dispatcher and workers. Idempotent.
func (jm *jobManager) start() {
	jm.mu.Lock()
	if jm.started || jm.stopped {
		jm.mu.Unlock()
		return
	}
	jm.started = true
	jm.mu.Unlock()

	if rs, err := jm.s.db.Query(`SELECT max(jobid) FROM fmujobs`); err == nil &&
		len(rs.Rows) > 0 && !rs.Rows[0][0].IsNull() {
		if id, err := rs.Rows[0][0].AsInt(); err == nil {
			jm.nextID.Store(id)
		}
	}

	jm.wg.Add(1 + jm.workers)
	go jm.dispatch()
	for i := 0; i < jm.workers; i++ {
		go jm.work()
	}
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
	wasStarted := jm.started
	for _, lj := range jm.live {
		lj.cancel()
	}
	jm.mu.Unlock()
	close(jm.stop)
	if wasStarted {
		jm.wg.Wait()
	}
}

// dispatch polls for committed queued rows — submissions become visible here
// only once their enclosing transaction commits, so a rolled-back fmu_submit
// never runs — and hands unclaimed ids to the workers in jobid order.
func (jm *jobManager) dispatch() {
	defer jm.wg.Done()
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-jm.stop:
			return
		case <-jm.nudge:
		case <-tick.C:
		}
		rs, err := jm.s.db.Query(`SELECT jobid FROM fmujobs WHERE state = $1 ORDER BY jobid`, JobQueued)
		if err != nil {
			continue
		}
		for _, row := range rs.Rows {
			id, err := row[0].AsInt()
			if err != nil {
				continue
			}
			jm.mu.Lock()
			_, busy := jm.claimed[id]
			if !busy {
				jm.claimed[id] = struct{}{}
			}
			jm.mu.Unlock()
			if busy {
				continue
			}
			select {
			case jm.queue <- id:
			case <-jm.stop:
				return
			}
		}
	}
}

func (jm *jobManager) work() {
	defer jm.wg.Done()
	for {
		select {
		case <-jm.stop:
			return
		case id := <-jm.queue:
			jm.runJob(id)
		}
	}
}

func jobNow() string { return time.Now().UTC().Format(time.RFC3339Nano) }

// errJobSkipped reports a claim that found the job no longer queued (a
// concurrent fmu_cancel won, or a duplicate dispatch).
var errJobSkipped = errors.New("core: job no longer queued")

// runJob claims one queued job and drives it to a terminal state. All
// fmujobs writes run in Exclusive transactions: a Concurrent one would hold
// the table latch while it waits for db.mu, and collide with UDF statements
// (which hold the exclusive lock the latch holder needs), surfacing spurious
// write conflicts to fmu_submit callers.
func (jm *jobManager) runJob(id int64) {
	defer func() {
		jm.mu.Lock()
		delete(jm.claimed, id)
		jm.mu.Unlock()
	}()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	lj := &liveJob{id: id, cancel: cancel}
	var kind, rawArgs string
	claimErr := jm.s.inTx(context.Background(), sqldb.Exclusive, func(tx *sqldb.Tx) error {
		rs, err := tx.Query(
			`SELECT state, kind, args FROM fmujobs WHERE jobid = $1`, id)
		if err != nil {
			return err
		}
		if len(rs.Rows) == 0 || rs.Rows[0][0].AsText() != JobQueued {
			return errJobSkipped
		}
		kind, rawArgs = rs.Rows[0][1].AsText(), rs.Rows[0][2].AsText()
		if _, err = tx.Exec(
			`UPDATE fmujobs SET state = $1, started = $2 WHERE jobid = $3`,
			JobRunning, jobNow(), id); err != nil {
			return err
		}
		// Live before the claim commits: fmu_cancel needs db.mu, so it
		// finds the job running only once it can cancel it.
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
		return // skipped, or transient conflict: the dispatcher re-polls
	}
	defer jm.forget(id)
	var args []string
	if err := json.Unmarshal([]byte(rawArgs), &args); err != nil {
		jm.failed.Add(1)
		jm.finish(id, JobError, "", fmt.Sprintf("malformed job args: %v", err))
		return
	}

	// A write conflict (bounded lock wait lost against a burst of exclusive
	// statements, or a first-updater-wins loss) rolls the body's transaction
	// back cleanly — for an async job that is a reason to retry, not a
	// terminal error. Backoff keeps retries from re-joining the same burst.
	var result string
	var err error
	for attempt := 0; ; attempt++ {
		result, err = jm.execute(ctx, lj, kind, args)
		if err == nil || ctx.Err() != nil || !errors.Is(err, sqldb.ErrWriteConflict) || attempt >= 10 {
			break
		}
		lj.setProgress(0)
		select {
		case <-ctx.Done():
		case <-time.After(time.Duration(attempt+1) * 25 * time.Millisecond):
		}
	}
	switch {
	case err == nil:
		jm.completed.Add(1)
		jm.finish(id, JobDone, result, "")
	case ctx.Err() != nil || errors.Is(err, context.Canceled):
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

// finish writes the terminal state (exclusive, like every fmujobs write),
// retrying briefly around conflicts with concurrent calibration latches.
func (jm *jobManager) finish(id int64, state, result, errText string) {
	for attempt := 0; attempt < 20; attempt++ {
		err := jm.s.inTx(context.Background(), sqldb.Exclusive, func(tx *sqldb.Tx) error {
			_, e := tx.Exec(
				`UPDATE fmujobs SET state = $1, progress = $2, result = $3, error = $4, finished = $5
				 WHERE jobid = $6 AND state = $7`,
				state, 1.0, result, errText, jobNow(), id, JobRunning)
			return e
		})
		if err == nil || !errors.Is(err, sqldb.ErrWriteConflict) {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (jm *jobManager) execute(ctx context.Context, lj *liveJob, kind string, args []string) (string, error) {
	switch kind {
	case "parest":
		return jm.execParest(ctx, args)
	case "simulate":
		return jm.execSimulate(ctx, args)
	case "sweep":
		return jm.execSweep(ctx, lj, args)
	default:
		return "", fmt.Errorf("core: unknown job kind %q", kind)
	}
}

func (jm *jobManager) execParest(ctx context.Context, args []string) (string, error) {
	if len(args) < 2 {
		return "", fmt.Errorf("core: parest job needs instanceIds and input_sqls")
	}
	ids := splitBraceList(args[0])
	sqls := splitBraceList(args[1])
	var pars []string
	if len(args) >= 3 && args[2] != "" {
		pars = splitBraceList(args[2])
	}
	threshold := jm.s.threshold
	if len(args) >= 4 && args[3] != "" {
		var err error
		if threshold, err = strconv.ParseFloat(args[3], 64); err != nil {
			return "", fmt.Errorf("threshold: %w", err)
		}
	}
	var results []ParestResult
	err := jm.s.inTx(ctx, sqldb.Concurrent, func(tx *sqldb.Tx) (err error) {
		results, err = jm.s.parest(ctx, tx, ids, sqls, pars, threshold)
		return err
	})
	if err != nil {
		return "", err
	}
	rmse := make([]float64, len(results))
	for i, r := range results {
		rmse[i] = r.RMSE
	}
	out, _ := json.Marshal(map[string]any{"instances": ids, "rmse": rmse})
	return string(out), nil
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
			for i := 0; i < n; i++ {
				if n == 1 {
					vals[i] = lo
				} else {
					vals[i] = lo + (hi-lo)*float64(i)/float64(n-1)
				}
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

	type pointResult struct {
		ok    bool
		final float64
	}
	results := make([]pointResult, len(points))
	var done atomic.Int64
	var firstErr atomic.Value
	idxCh := make(chan int)
	nw := jm.workers
	if nw > len(points) {
		nw = len(points)
	}
	var wg sync.WaitGroup
	wg.Add(nw)
	for w := 0; w < nw; w++ {
		go func() {
			defer wg.Done()
			for i := range idxCh {
				if ctx.Err() != nil {
					continue
				}
				clone := base.Clone(fmt.Sprintf("%s#%d", instanceID, i))
				bad := false
				for name, v := range points[i] {
					if err := clone.SetReal(name, v); err != nil {
						firstErr.CompareAndSwap(nil, error(fmt.Errorf("core: sweep point %d: %w", i, err)))
						bad = true
						break
					}
				}
				if bad {
					continue
				}
				res, serr := clone.Simulate(in.series, t0, t1, &fmu.SimOptions{OutputStep: step, Ctx: ctx})
				if serr != nil {
					if ctx.Err() == nil {
						firstErr.CompareAndSwap(nil, error(fmt.Errorf("core: sweep point %d: %w", i, serr)))
					}
					continue
				}
				if data, ok := res.Frame.Data[metric]; ok && len(data) > 0 {
					results[i] = pointResult{ok: true, final: data[len(data)-1]}
				} else {
					results[i] = pointResult{ok: true, final: math.NaN()}
				}
				n := done.Add(1)
				lj.setProgress(float64(n) / float64(len(points)))
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
	if e, ok := firstErr.Load().(error); ok && e != nil {
		return "", e
	}

	completed := 0
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, r := range results {
		if !r.ok {
			continue
		}
		completed++
		if !math.IsNaN(r.final) {
			if r.final < lo {
				lo = r.final
			}
			if r.final > hi {
				hi = r.final
			}
		}
	}
	summary := map[string]any{
		"instance": instanceID,
		"points":   len(points),
		"done":     completed,
		"metric":   metric,
	}
	if completed > 0 && !math.IsInf(lo, 1) {
		summary["min"] = lo
		summary["max"] = hi
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

// wake nudges the dispatcher without blocking.
func (jm *jobManager) wake() {
	select {
	case jm.nudge <- struct{}{}:
	default:
	}
}

// submit validates and encodes a job, inserts its row in tx, the invoking
// statement's transaction (so a rollback un-submits it), and returns the id.
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
		return 0, fmt.Errorf("core: unknown job kind %q (want 'parest' or 'simulate')", kind)
	}
	encoded, err := json.Marshal(args)
	if err != nil {
		return 0, err
	}
	id := jm.nextID.Add(1)
	if _, err := tx.QueryContext(ctx,
		`INSERT INTO fmujobs VALUES ($1, $2, $3, $4, $5, $6, $7, $8, $9, $10)`,
		id, kind, string(encoded), JobQueued, 0.0, "", "", jobNow(), "", ""); err != nil {
		return 0, err
	}
	jm.submitted.Add(1)
	jm.wake()
	return id, nil
}

// cancel aborts a job: a running job's context is cancelled (the worker
// records the terminal state), a queued job's row flips to cancelled inside
// the invoking statement's transaction, tx. Returns the resulting state.
func (jm *jobManager) cancel(ctx context.Context, tx *sqldb.Tx, id int64) (string, error) {
	jm.mu.Lock()
	lj, isLive := jm.live[id]
	jm.mu.Unlock()
	if isLive {
		lj.cancel()
		return JobCancelled, nil
	}
	rs, err := tx.QueryContext(ctx, `SELECT state FROM fmujobs WHERE jobid = $1`, id)
	if err != nil {
		return "", err
	}
	if len(rs.Rows) == 0 {
		return "", fmt.Errorf("core: no such job %d", id)
	}
	state := rs.Rows[0][0].AsText()
	if state != JobQueued {
		return state, nil // already terminal (or running on another node)
	}
	if _, err := tx.QueryContext(ctx,
		`UPDATE fmujobs SET state = $1, finished = $2, error = $3 WHERE jobid = $4 AND state = $5`,
		JobCancelled, jobNow(), "cancelled before start", id, JobQueued); err != nil {
		return "", err
	}
	jm.cancelled.Add(1)
	return JobCancelled, nil
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
// partial transaction already rolled back at WAL replay), queued jobs stay
// queued and re-dispatch once the pool starts.
func (s *Session) recoverJobs() error {
	if _, err := s.db.Exec(fmujobsDDL); err != nil {
		return fmt.Errorf("core: ensuring fmujobs table: %w", err)
	}
	if _, err := s.db.Exec(
		`UPDATE fmujobs SET state = $1, error = $2, finished = $3 WHERE state = $4`,
		JobInterrupted, "interrupted by restart", jobNow(), JobRunning); err != nil {
		return fmt.Errorf("core: marking interrupted jobs: %w", err)
	}
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
		if len(args) < 2 || len(args) > 5 {
			return variant.Value{}, fmt.Errorf("fmu_sweep(instanceId, grid [, input_sql [, time_from, time_to]]) expects 2–5 arguments")
		}
		rest := make([]string, len(args))
		for i, a := range args {
			if a.IsNull() {
				continue
			}
			if i >= 3 { // time bounds normalize through timeArg
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
	err := s.inTx(ctx, sqldb.Exclusive, func(tx *sqldb.Tx) (err error) {
		id, err = s.jobs.submit(ctx, tx, kind, args)
		return err
	})
	return id, err
}

// CancelJob is the typed-API fmu_cancel.
func (s *Session) CancelJob(id int64) (string, error) {
	var state string
	ctx := context.Background()
	err := s.inTx(ctx, sqldb.Exclusive, func(tx *sqldb.Tx) (err error) {
		state, err = s.jobs.cancel(ctx, tx, id)
		return err
	})
	return state, err
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
