// Package loadtest drives a running pgfmu-server with N concurrent
// clients through a mixed read / write / FMU-simulation workload and
// reports latency percentiles — the acceptance harness for the network
// front end (cmd/pgfmu-loadtest wraps it; the smoke test keeps it honest
// in CI).
//
// Every client verifies its own reads: a client counts the rows it has
// committed and cross-checks each read against that count, so a dropped,
// truncated, or stale response is counted as corruption, not latency.
package loadtest

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/server/client"
	"repro/internal/server/wire"
)

// Mix weights the workload: each op draws read / write / fmu with these
// relative weights. Zero-weight kinds never run.
type Mix struct {
	Read  int
	Write int
	FMU   int
	// Jobs ops submit an async simulation through fmu_submit and poll
	// fmu_jobs() until it reaches a terminal state — exercising the job
	// scheduler and the content-addressed result cache under load.
	Jobs int
}

// DefaultMix is read-heavy with a simulation tail, shaped like the paper's
// monitoring-plus-what-if workloads.
var DefaultMix = Mix{Read: 6, Write: 3, FMU: 1}

// Options configures a run.
type Options struct {
	// URL and Token locate the server (client.New).
	URL   string
	Token string
	// Clients is the number of concurrent sessions (default 8).
	Clients int
	// Duration bounds the run (default 5s).
	Duration time.Duration
	// Mix weights op kinds (default DefaultMix).
	Mix Mix
	// TxEvery wraps every nth write in BEGIN/COMMIT with two inserts
	// (default 4; 0 disables transactional writes).
	TxEvery int
	// Seed makes client op sequences reproducible (default 1).
	Seed int64
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

// Report is the outcome of a run.
type Report struct {
	Clients  int
	Duration time.Duration
	Ops      int
	Reads    int
	Writes   int
	FMUs     int
	Jobs     int
	// Conflicts counts ErrWriteConflict retries (expected under load,
	// not failures).
	Conflicts int
	// Errors counts terminal op failures — timeouts, transport errors,
	// truncated streams. A clean run has zero.
	Errors int
	// Corrupted counts verification failures: a read that did not match
	// the client's own committed writes, or a simulation that returned no
	// trajectory. A clean run has zero.
	Corrupted int

	P50, P95, P99, Max time.Duration
	Throughput         float64 // ops/sec
}

// String renders the report in the shape CHANGES.md records.
func (r *Report) String() string {
	ms := func(d time.Duration) string {
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	}
	return fmt.Sprintf(
		"clients=%d duration=%s ops=%d (reads=%d writes=%d fmu=%d jobs=%d) throughput=%.0f ops/s\n"+
			"latency p50=%s p95=%s p99=%s max=%s\n"+
			"conflicts=%d errors=%d corrupted=%d",
		r.Clients, r.Duration.Round(time.Millisecond), r.Ops, r.Reads, r.Writes, r.FMUs, r.Jobs, r.Throughput,
		ms(r.P50), ms(r.P95), ms(r.P99), ms(r.Max), r.Conflicts, r.Errors, r.Corrupted)
}

// clientStats is one worker's tally, merged after the run.
type clientStats struct {
	lat                       []time.Duration
	reads, writes, fmus, jobs int
	conflicts, errors         int
	corrupted                 int
}

// Run executes the workload and returns its report. The server must be
// reachable at o.URL; Run provisions its own tables (lt_kv, lt_meas) and
// FMU instances (lt_m<i>), so point it at a scratch database.
func Run(ctx context.Context, o Options) (*Report, error) {
	if o.Clients <= 0 {
		o.Clients = 8
	}
	if o.Duration <= 0 {
		o.Duration = 5 * time.Second
	}
	if o.Mix == (Mix{}) {
		o.Mix = DefaultMix
	}
	if o.TxEvery == 0 {
		o.TxEvery = 4
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	logf := o.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	c := client.New(o.URL, o.Token)

	fmuClients := 0
	if o.Mix.FMU > 0 || o.Mix.Jobs > 0 {
		// Each simulating client gets a private instance: concurrent
		// stepping of one shared FMU instance is not part of the engine's
		// contract. Cap the copies; clients above the cap share the read/
		// write mix only.
		fmuClients = o.Clients
		if fmuClients > 8 {
			fmuClients = 8
		}
	}
	if err := setup(ctx, c, fmuClients, logf); err != nil {
		return nil, fmt.Errorf("loadtest setup: %w", err)
	}

	logf("starting %d clients for %s (mix r=%d w=%d f=%d j=%d)",
		o.Clients, o.Duration, o.Mix.Read, o.Mix.Write, o.Mix.FMU, o.Mix.Jobs)
	stopAt := time.Now().Add(o.Duration)
	runCtx, cancel := context.WithDeadline(ctx, stopAt.Add(10*time.Second))
	defer cancel()

	stats := make([]clientStats, o.Clients)
	var wg sync.WaitGroup
	t0 := time.Now()
	for i := 0; i < o.Clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			withFMU := o.Mix.FMU > 0 && id < fmuClients
			runClient(runCtx, c, id, o, withFMU, stopAt, &stats[id])
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(t0)

	rep := &Report{Clients: o.Clients, Duration: elapsed}
	var all []time.Duration
	for i := range stats {
		s := &stats[i]
		rep.Reads += s.reads
		rep.Writes += s.writes
		rep.FMUs += s.fmus
		rep.Jobs += s.jobs
		rep.Conflicts += s.conflicts
		rep.Errors += s.errors
		rep.Corrupted += s.corrupted
		all = append(all, s.lat...)
	}
	rep.Ops = len(all)
	if len(all) > 0 {
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		rep.P50 = percentile(all, 50)
		rep.P95 = percentile(all, 95)
		rep.P99 = percentile(all, 99)
		rep.Max = all[len(all)-1]
		rep.Throughput = float64(len(all)) / elapsed.Seconds()
	}
	return rep, nil
}

// setup provisions the workload schema and FMU instances, tolerating
// leftovers from a previous run against the same database.
func setup(ctx context.Context, c *client.Client, fmuClients int, logf func(string, ...any)) error {
	s, err := c.NewSession(ctx)
	if err != nil {
		return err
	}
	defer s.Close(context.WithoutCancel(ctx))

	exec := func(sql string, args ...any) error {
		_, err := s.Exec(ctx, sql, args...)
		return err
	}
	ignoreExisting := func(err error) error {
		if err != nil && strings.Contains(err.Error(), "exists") {
			return nil
		}
		return err
	}
	if err := ignoreExisting(exec(`CREATE TABLE lt_kv (client integer, seq integer, val float)`)); err != nil {
		return err
	}
	if err := ignoreExisting(exec(`CREATE INDEX lt_kv_client ON lt_kv (client)`)); err != nil {
		return err
	}
	if err := ignoreExisting(exec(`CREATE TABLE lt_meas (time float, x float, u float)`)); err != nil {
		return err
	}
	rows, err := s.Query(ctx, `SELECT count(*) FROM lt_meas`)
	if err != nil {
		return err
	}
	count := 0.0
	if rows.Next() && len(rows.Row()) == 1 {
		if f, ok := rows.Row()[0].(float64); ok {
			count = f
		}
	}
	rows.Close()
	if count == 0 {
		// 24 hourly measurement rows: enough to make fmu_simulate real
		// work without dominating the mix.
		for h := 0; h < 24; h++ {
			if err := exec(`INSERT INTO lt_meas VALUES ($1, $2, $3)`,
				float64(h)*3600, 20.0+float64(h%5), 0.5); err != nil {
				return err
			}
		}
	}
	if fmuClients > 0 {
		if _, err := s.Exec(ctx, `SELECT fmu_create($1, 'lt_base')`, dataset.HP1Source); err != nil {
			if !strings.Contains(err.Error(), "exists") {
				return err
			}
		}
		for i := 0; i < fmuClients; i++ {
			inst := fmt.Sprintf("lt_m%d", i)
			if _, err := s.Exec(ctx, fmt.Sprintf(`SELECT fmu_copy('lt_base', '%s')`, inst)); err != nil {
				if !strings.Contains(err.Error(), "exists") {
					return err
				}
			}
		}
		logf("provisioned %d FMU instances", fmuClients)
	}
	return nil
}

// runClient is one worker: its own session, its own rng, its own verify
// state.
func runClient(ctx context.Context, c *client.Client, id int, o Options, withFMU bool, stopAt time.Time, st *clientStats) {
	s, err := c.NewSession(ctx)
	if err != nil {
		st.errors++
		return
	}
	defer s.Close(context.WithoutCancel(ctx))

	rng := rand.New(rand.NewSource(o.Seed + int64(id)*7919))
	total := o.Mix.Read + o.Mix.Write
	if withFMU {
		total += o.Mix.FMU + o.Mix.Jobs
	}
	committed := 0 // rows this client has durably committed to lt_kv
	seq := 0
	writesSinceTx := 0

	for time.Now().Before(stopAt) && ctx.Err() == nil {
		pick := rng.Intn(total)
		t0 := time.Now()
		switch {
		case pick < o.Mix.Read:
			n, ok := readOwn(ctx, s, id)
			st.reads++
			if !ok {
				st.errors++
			} else if n != committed {
				st.corrupted++
			}
		case pick < o.Mix.Read+o.Mix.Write:
			useTx := o.TxEvery > 0 && writesSinceTx >= o.TxEvery-1
			n, conflicts, ok := doWrite(ctx, s, id, &seq, rng, useTx)
			st.writes++
			st.conflicts += conflicts
			if ok {
				committed += n
				writesSinceTx++
				if useTx {
					writesSinceTx = 0
				}
			} else {
				st.errors++
			}
		case pick < o.Mix.Read+o.Mix.Write+o.Mix.FMU:
			conflicts, err := doFMU(ctx, s, id)
			st.fmus++
			st.tally(ctx, conflicts, err)
		default:
			conflicts, err := doJob(ctx, s, id)
			st.jobs++
			st.tally(ctx, conflicts, err)
		}
		st.lat = append(st.lat, time.Since(t0))
	}
}

// readOwn counts the client's rows; false on transport/engine error.
func readOwn(ctx context.Context, s *client.Session, id int) (int, bool) {
	rows, err := s.Query(ctx, `SELECT count(*) FROM lt_kv WHERE client = $1`, id)
	if err != nil {
		return 0, false
	}
	defer rows.Close()
	if !rows.Next() || len(rows.Row()) != 1 {
		return 0, false
	}
	f, ok := rows.Row()[0].(float64)
	if !ok {
		return 0, false
	}
	// Drain the trailer; a truncated stream turns into an error here.
	for rows.Next() {
	}
	if rows.Err() != nil {
		return 0, false
	}
	return int(f), true
}

// doWrite inserts one row — or, transactionally, two — returning the
// committed row count. Write conflicts roll back and retry (bounded).
func doWrite(ctx context.Context, s *client.Session, id int, seq *int, rng *rand.Rand, useTx bool) (n, conflicts int, ok bool) {
	for attempt := 0; attempt < 3; attempt++ {
		if !useTx {
			*seq++
			_, err := s.Exec(ctx, `INSERT INTO lt_kv VALUES ($1, $2, $3)`, id, *seq, rng.Float64())
			if err == nil {
				return 1, conflicts, true
			}
			if isConflict(err) {
				conflicts++
				continue
			}
			return 0, conflicts, false
		}
		err := func() error {
			if _, err := s.Exec(ctx, `BEGIN`); err != nil {
				return err
			}
			for i := 0; i < 2; i++ {
				*seq++
				if _, err := s.Exec(ctx, `INSERT INTO lt_kv VALUES ($1, $2, $3)`, id, *seq, rng.Float64()); err != nil {
					_, _ = s.Exec(ctx, `ROLLBACK`)
					return err
				}
			}
			if _, err := s.Exec(ctx, `COMMIT`); err != nil {
				return err
			}
			return nil
		}()
		if err == nil {
			return 2, conflicts, true
		}
		if isConflict(err) {
			conflicts++
			continue
		}
		return 0, conflicts, false
	}
	return 0, conflicts, false
}

// errCorrupted marks a reply that arrived intact but failed verification.
var errCorrupted = errors.New("loadtest: reply failed verification")

// tally books the outcome of an FMU or job op. An op cut off by the run
// deadline (ctx cancelled) was abandoned, not failed — only a live-run
// failure counts.
func (st *clientStats) tally(ctx context.Context, conflicts int, err error) {
	st.conflicts += conflicts
	switch {
	case err == nil || ctx.Err() != nil:
	case errors.Is(err, errCorrupted):
		st.corrupted++
	default:
		st.errors++
	}
}

// queryRetry runs one statement and hands its rows to read, retrying the
// whole exchange while the server answers write_conflict — the documented
// retry-me reply — with a 1 ms pause, at most conflictRetries times.
func queryRetry(ctx context.Context, s *client.Session, sql string, read func(*client.Rows) error) (conflicts int, err error) {
	const conflictRetries = 20
	for {
		err = func() error {
			rows, err := s.Query(ctx, sql)
			if err != nil {
				return err
			}
			defer rows.Close()
			if err := read(rows); err != nil {
				return err
			}
			return rows.Err()
		}()
		if !isConflict(err) || conflicts == conflictRetries || ctx.Err() != nil {
			return conflicts, err
		}
		conflicts++
		time.Sleep(time.Millisecond)
	}
}

// doFMU streams a bounded simulation slice; corruption = empty trajectory.
func doFMU(ctx context.Context, s *client.Session, id int) (conflicts int, err error) {
	return queryRetry(ctx, s, fmt.Sprintf(
		`SELECT simulationTime, varName, value FROM fmu_simulate('lt_m%d', 'SELECT * FROM lt_meas') LIMIT 20`, id),
		func(rows *client.Rows) error {
			n := 0
			for rows.Next() {
				if len(rows.Row()) != 3 {
					return errCorrupted
				}
				n++
			}
			if n == 0 && rows.Err() == nil {
				return errCorrupted
			}
			return nil
		})
}

// doJob submits an async simulation and polls fmu_jobs() until it reaches a
// terminal state; corruption = the job never turning terminal or ending in
// error. Repeated submissions of the same instance hit the simulation cache,
// so job throughput under load also exercises the cache path.
func doJob(ctx context.Context, s *client.Session, id int) (conflicts int, err error) {
	var jobID float64
	conflicts, err = queryRetry(ctx, s, fmt.Sprintf(
		`SELECT fmu_submit('simulate', 'lt_m%d', 'SELECT * FROM lt_meas')`, id),
		func(rows *client.Rows) error {
			ok := rows.Next() && len(rows.Row()) == 1
			if ok {
				jobID, ok = rows.Row()[0].(float64)
			}
			if !ok && rows.Err() == nil {
				return errCorrupted
			}
			return nil
		})
	if err != nil {
		return conflicts, err
	}
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		state := ""
		n, err := queryRetry(ctx, s, fmt.Sprintf(
			`SELECT state FROM fmu_jobs() WHERE jobid = %d`, int64(jobID)),
			func(rows *client.Rows) error {
				if rows.Next() && len(rows.Row()) == 1 {
					state, _ = rows.Row()[0].(string)
				}
				return nil
			})
		conflicts += n
		if err != nil {
			return conflicts, err
		}
		switch state {
		case "done":
			return conflicts, nil
		case "error", "cancelled", "interrupted":
			return conflicts, errCorrupted
		}
		time.Sleep(20 * time.Millisecond)
	}
	return conflicts, errCorrupted
}

func isConflict(err error) bool {
	var we *wire.Error
	return errors.As(err, &we) && we.Code == wire.CodeConflict
}

func percentile(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := (len(sorted)*p + 99) / 100
	if idx > 0 {
		idx--
	}
	return sorted[idx]
}
