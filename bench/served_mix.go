package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	pgfmu "repro"
	"repro/internal/dataset"
	"repro/internal/server"
	"repro/internal/server/client"
	"repro/internal/server/wire"
)

// served_mix: small durable writes beside point reads, concurrently, over
// the network front end. internal/server runs in-process on 127.0.0.1 over
// pgfmu.Open(<fresh dir>) with the default durability — fsync on every
// commit — and two client sessions each replay their own op list. The
// latency measured is the sandbox's file system's, not a device's.

type servedSizes struct {
	Clients  int
	Preload  int // rows loaded before timing
	PerLane  int // ops per client per round
	SimWins  int // distinct fmu_simulate windows per client: all fit the cache
	SimHours int
}

func servedSize(size sizeClass) servedSizes {
	if size == sizeToy {
		return servedSizes{Clients: 2, Preload: 400, PerLane: 100, SimWins: 2, SimHours: 12}
	}
	sz := servedSizes{Clients: 2, Preload: 20000, PerLane: 1200, SimWins: 8, SimHours: 24}
	if size == sizeProbe {
		sz.PerLane = 500
	}
	return sz
}

// Keys: client c owns the keys k with k % Clients == c. Preloaded keys are
// 0..Preload-1; keys below updatable are the only ones UPDATE touches, range
// reads stay above them; keys a client inserts start at insertBase.
const (
	updatable  = 200
	insertBase = 1_000_000
	rangeSpan  = 20
)

// stallAfter is the latency from which a request counts as stalled: the usual
// request takes under a millisecond, the slowest percent 10-20 ms.
const stallAfter = 500 * time.Millisecond

func preloadVal(k int) float64 { return float64(k) * 0.5 }

type servedKind int

const (
	opPoint servedKind = iota
	opRange
	opInsert
	opInsertTx
	opUpdate
	opSimulate
	opSubmit
)

var servedKindNames = []string{"point_read", "range_read", "insert", "insert_tx", "update", "simulate", "submit_poll"}

// servedOp is one request; the generator tracks each client's own keys, so
// every read carries the value it must return.
type servedOp struct {
	Kind servedKind `json:"kind"`
	Key  int        `json:"key,omitempty"`
	Key2 int        `json:"key2,omitempty"`
	Val  float64    `json:"val,omitempty"`
	Val2 float64    `json:"val2,omitempty"`
	Want float64    `json:"want,omitempty"`
}

// servedPlan builds one op list per client with a fixed composition: 55 %
// reads (40 % point, 15 % short range), 30 % single-row INSERT statements
// (every fourth as BEGIN + 2 inserts + COMMIT), 5 % UPDATE, 8 % fmu_simulate
// + aggregate, 2 % fmu_submit + poll. The seed chooses order, keys and values.
func servedPlan(id roundID, size sizeClass) any {
	seed := id.seed()
	sz := servedSize(size)
	lists := make([][]servedOp, sz.Clients)
	for c := range lists {
		rng := rand.New(rand.NewSource(seed*31 + int64(c)))
		n := sz.PerLane
		counts := []int{
			opPoint: n * 40 / 100, opRange: n * 15 / 100,
			opInsert: n * 30 / 100 * 3 / 4, opInsertTx: n * 30 / 100 / 4,
			opUpdate: n * 5 / 100, opSimulate: n * 8 / 100, opSubmit: n * 2 / 100,
		}
		kinds := make([]servedKind, 0, n)
		for k, cnt := range counts {
			for i := 0; i < cnt; i++ {
				kinds = append(kinds, servedKind(k))
			}
		}
		for len(kinds) < n {
			kinds = append(kinds, opPoint)
		}
		rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })

		// own mirrors what this client's rows must hold after each op.
		own := make(map[int]float64)
		var ownKeys []int
		for k := c; k < sz.Preload; k += sz.Clients {
			own[k] = preloadVal(k)
			ownKeys = append(ownKeys, k)
		}
		next := insertBase + c
		insert := func() (int, float64) {
			k, v := next, float64(rng.Intn(1_000_000))/8
			next += sz.Clients
			own[k] = v
			ownKeys = append(ownKeys, k)
			return k, v
		}
		ops := make([]servedOp, n)
		for i, kind := range kinds {
			op := servedOp{Kind: kind}
			switch kind {
			case opPoint:
				op.Key = ownKeys[rng.Intn(len(ownKeys))]
				op.Want = own[op.Key]
			case opRange:
				op.Key = updatable + rng.Intn(sz.Preload-updatable-rangeSpan)
				op.Key2 = op.Key + rangeSpan
				for k := op.Key; k <= op.Key2; k++ {
					op.Want += 1 + preloadVal(k) // count(*) + sum(val)
				}
			case opInsert:
				op.Key, op.Val = insert()
			case opInsertTx:
				op.Key, op.Val = insert()
				op.Key2, op.Val2 = insert()
			case opUpdate:
				op.Key = c + sz.Clients*rng.Intn(updatable/sz.Clients)
				op.Val = float64(rng.Intn(1_000_000)) / 8
				own[op.Key] = op.Val
			case opSimulate:
				op.Key = rng.Intn(sz.SimWins)
			}
			ops[i] = op
		}
		lists[c] = ops
	}
	return lists
}

// servedEnv is one round's running system.
type servedEnv struct {
	sz  servedSizes
	db  *pgfmu.DB
	srv *server.Server
	url string
	cl  *client.Client
}

// serve starts the server on a loopback port over e.db.
func (e *servedEnv) serve() error {
	// The shipped logger writes one line per request; keep its formatting
	// cost, drop its output.
	e.srv = server.New(e.db, server.Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	addr, err := e.srv.Listen()
	if err != nil {
		return err
	}
	go e.srv.Serve()
	e.url = "http://" + addr.String()
	e.cl = client.New(e.url, "")
	return nil
}

// servedStart opens a fresh durable database, preloads it, creates one
// private hp1 instance per client and starts the server on loopback.
func servedStart(dir string, sz servedSizes) (*servedEnv, error) {
	db, err := pgfmu.Open(dir)
	if err != nil {
		return nil, err
	}
	e := &servedEnv{sz: sz, db: db}
	fail := func(err error) (*servedEnv, error) {
		db.Close()
		return nil, err
	}
	if _, err := db.Exec(`CREATE TABLE kv (client integer, k integer, val float, tag text)`); err != nil {
		return fail(err)
	}
	tx, err := db.Begin()
	if err != nil {
		return fail(err)
	}
	for k := 0; k < sz.Preload; k++ {
		if _, err := tx.Exec(`INSERT INTO kv VALUES ($1, $2, $3, 'preload')`, k%sz.Clients, k, preloadVal(k)); err != nil {
			tx.Rollback()
			return fail(err)
		}
	}
	if err := tx.Commit(); err != nil {
		return fail(err)
	}
	if _, err := db.Exec(`CREATE INDEX kv_k ON kv (k)`); err != nil {
		return fail(err)
	}
	fr, err := dataset.GenerateHP1(dataset.Config{Hours: sz.SimHours, Seed: 7})
	if err != nil {
		return fail(err)
	}
	if err := dataset.LoadFrame(db.SQL(), "sm_in", fr); err != nil {
		return fail(err)
	}
	for c := 0; c < sz.Clients; c++ {
		if _, err := db.CreateModel(dataset.HP1Source, fmt.Sprintf("sm_%d", c)); err != nil {
			return fail(err)
		}
	}
	if err := e.serve(); err != nil {
		return fail(err)
	}
	return e, nil
}

// servedSession is one client's connection with its prepared statements.
type servedSession struct {
	s          *client.Session
	point, rng *client.Stmt
	simFirst   map[int]float64
	instance   string
	simHours   int
	conflicts  int // write_conflict replies retried
}

func (e *servedEnv) session(ctx context.Context, c int) (*servedSession, error) {
	s, err := e.cl.NewSession(ctx)
	if err != nil {
		return nil, err
	}
	ss := &servedSession{s: s, simFirst: make(map[int]float64), instance: fmt.Sprintf("sm_%d", c), simHours: e.sz.SimHours}
	if ss.point, err = s.Prepare(ctx, `SELECT val FROM kv WHERE k = $1`); err != nil {
		return nil, err
	}
	if ss.rng, err = s.Prepare(ctx, `SELECT count(*), sum(val) FROM kv WHERE k BETWEEN $1 AND $2`); err != nil {
		return nil, err
	}
	return ss, nil
}

// firstRow drains a streamed result and returns its first row.
func firstRow(rows *client.Rows, err error) ([]any, error) {
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	var first []any
	for rows.Next() {
		if first == nil {
			first = append(first, rows.Row()...)
		}
	}
	if err := rows.Err(); err != nil {
		return nil, err
	}
	if first == nil {
		return nil, errors.New("no rows")
	}
	return first, nil
}

func cellFloat(row []any, i int) (float64, error) {
	if i >= len(row) {
		return 0, fmt.Errorf("row has %d cells", len(row))
	}
	f, ok := row[i].(float64)
	if !ok {
		return 0, fmt.Errorf("cell %d is %T, not a number", i, row[i])
	}
	return f, nil
}

func insertSQL(c int, k int, v float64) string {
	// cdb's TestBulkInsert statement shape: one row, literals in the text.
	return fmt.Sprintf("INSERT INTO kv VALUES (%d, %d, %g, 'c%d')", c, k, v, c)
}

// do performs one op, retrying it for as long as the server answers
// write_conflict — the documented client response: a statement could not get
// a table's write lock, a latch or the session lock in bounded time. Another
// client's job can hold a write lock for many round trips, so retries pause
// a millisecond and stop after five seconds; they stay inside the op's
// latency.
func (ss *servedSession) do(ctx context.Context, l *lane, parent, i int, op servedOp) error {
	deadline := time.Now().Add(5 * time.Second)
	for {
		err := ss.attempt(ctx, l, parent, i, op)
		var we *wire.Error
		if !errors.As(err, &we) || we.Code != wire.CodeConflict || time.Now().After(deadline) {
			return err
		}
		ss.conflicts++
		time.Sleep(time.Millisecond)
	}
}

// attempt performs one op once and checks its reply.
func (ss *servedSession) attempt(ctx context.Context, l *lane, parent, i int, op servedOp) error {
	c := l.client
	stmt := func(name string, fn func() error) error { return l.stmt(parent, i, name, "server", fn) }
	switch op.Kind {
	case opPoint:
		return stmt("point_read", func() error {
			row, err := firstRow(ss.point.Query(ctx, op.Key))
			if err != nil {
				return err
			}
			got, err := cellFloat(row, 0)
			if err == nil && got != op.Want {
				err = fmt.Errorf("key %d holds %v, want %v", op.Key, got, op.Want)
			}
			return err
		})
	case opRange:
		return stmt("range_read", func() error {
			row, err := firstRow(ss.rng.Query(ctx, op.Key, op.Key2))
			if err != nil {
				return err
			}
			n, err := cellFloat(row, 0)
			if err != nil {
				return err
			}
			sum, err := cellFloat(row, 1)
			if err == nil && n+sum != op.Want {
				err = fmt.Errorf("range %d..%d gave count+sum %v, want %v", op.Key, op.Key2, n+sum, op.Want)
			}
			return err
		})
	case opInsert:
		return stmt("insert", func() error {
			_, err := ss.s.Exec(ctx, insertSQL(c, op.Key, op.Val))
			return err
		})
	case opInsertTx:
		for _, step := range []struct{ name, sql string }{
			{"begin", "BEGIN"},
			{"insert", insertSQL(c, op.Key, op.Val)},
			{"insert", insertSQL(c, op.Key2, op.Val2)},
			{"commit", "COMMIT"},
		} {
			if err := stmt(step.name, func() error {
				_, err := ss.s.Exec(ctx, step.sql)
				return err
			}); err != nil {
				if step.name != "begin" {
					ss.s.Exec(ctx, "ROLLBACK")
				}
				return err
			}
		}
		return nil
	case opUpdate:
		return stmt("update", func() error {
			n, err := ss.s.Exec(ctx, `UPDATE kv SET val = $1 WHERE k = $2`, op.Val, op.Key)
			if err == nil && n != 1 {
				err = fmt.Errorf("UPDATE of key %d touched %d rows", op.Key, n)
			}
			return err
		})
	case opSimulate:
		return stmt("simulate", func() error {
			// The window is the input query's: hours 0..simHours-Key on the
			// hourly grid, one cache key per distinct Key.
			want := ss.simHours - op.Key + 1
			row, err := firstRow(ss.s.Query(ctx,
				`SELECT count(*), avg(value) FROM fmu_simulate($1, $2) WHERE varname = 'x'`,
				ss.instance, fmt.Sprintf("SELECT time, u FROM sm_in WHERE time < %d", want)))
			if err != nil {
				return err
			}
			n, err := cellFloat(row, 0)
			if err != nil {
				return err
			}
			avg, err := cellFloat(row, 1)
			if err != nil {
				return err
			}
			if int(n) != want {
				return fmt.Errorf("fmu_simulate returned %v points, want %d", n, want)
			}
			if first, ok := ss.simFirst[op.Key]; ok && first != avg {
				return fmt.Errorf("fmu_simulate window %d gave %v, first run gave %v", op.Key, avg, first)
			}
			ss.simFirst[op.Key] = avg
			return nil
		})
	case opSubmit:
		var job float64
		err := stmt("submit", func() error {
			row, err := firstRow(ss.s.Query(ctx, `SELECT fmu_submit('simulate', $1, 'SELECT time, u FROM sm_in')`, ss.instance))
			if err != nil {
				return err
			}
			job, err = cellFloat(row, 0)
			return err
		})
		if err != nil {
			return err
		}
		return stmt("poll", func() error {
			deadline := time.Now().Add(20 * time.Second)
			for {
				row, err := firstRow(ss.s.Query(ctx, `SELECT state FROM fmu_jobs() AS j WHERE j.jobid = $1`, int64(job)))
				if err != nil {
					return err
				}
				switch st, _ := row[0].(string); st {
				case "done":
					return nil
				case "error", "cancelled", "interrupted":
					return fmt.Errorf("job %d ended %s", int64(job), st)
				}
				if time.Now().After(deadline) {
					return fmt.Errorf("job %d did not finish within 20 s", int64(job))
				}
				time.Sleep(time.Millisecond)
			}
		})
	}
	return fmt.Errorf("unknown op kind %d", op.Kind)
}

func servedRun(r *round) error {
	sz := servedSize(r.size)
	lists := servedPlan(r.id, r.size).([][]servedOp)
	ctx := context.Background()
	r.notes = append(r.notes, "durability: shipped default, fsync on every commit; latency is this sandbox's file system's, not a device's")

	t0 := time.Now()
	dir := filepath.Join(r.scratch, "db")
	e, err := servedStart(dir, sz)
	if err != nil {
		return err
	}
	defer e.stop()
	sessions := make([]*servedSession, sz.Clients)
	lanes := make([]*lane, sz.Clients)
	for c := range sessions {
		if sessions[c], err = e.session(ctx, c); err != nil {
			return err
		}
		lanes[c] = r.newLane(c)
		// Warm-up: one fixed op of each kind on keys no timed op uses.
		for k, op := range []servedOp{
			{Kind: opPoint, Key: c, Want: preloadVal(c)},
			{Kind: opInsert, Key: insertBase/2 + c, Val: 1},
			{Kind: opInsertTx, Key: insertBase/2 + 10 + c, Val: 1, Key2: insertBase/2 + 20 + c, Val2: 1},
			{Kind: opSimulate, Key: 0},
			{Kind: opSubmit},
		} {
			ql := quietLane()
			ql.client = c
			if err := sessions[c].do(ctx, ql, 0, k, op); err != nil {
				return fmt.Errorf("warm-up %s: %w", servedKindNames[op.Kind], err)
			}
		}
	}
	r.setup = time.Since(t0)
	stats0 := e.db.EngineStats()
	wal0 := dirBytes(dir, "wal-")

	t1 := time.Now()
	parallel(sz.Clients, func(c int) {
		l := lanes[c]
		for i, op := range lists[c] {
			l.op(i, servedKindNames[op.Kind], func(parent int) error {
				return sessions[c].do(ctx, l, parent, i, op)
			})
		}
	})
	r.timed = time.Since(t1)

	conflicts := 0
	for _, ss := range sessions {
		conflicts += ss.conflicts
	}
	r.setExtra("write_conflicts", float64(conflicts))
	// A request that took half a second or longer sat in one of the
	// program's bounded lock waits (core's session lock gives up after one
	// second); the README's first readings say what they are.
	stalled := 0
	for _, l := range lanes {
		for _, d := range l.lat {
			if d >= stallAfter {
				stalled++
			}
		}
	}
	r.setExtra("stalled_ops", float64(stalled))

	// Untimed from here: every acknowledged write must be readable now, and
	// again after a simulated crash and recovery from the WAL alone.
	stats1 := e.db.EngineStats()
	userBytes := 0.0
	want := make([]map[int]float64, sz.Clients)
	for c, ops := range lists {
		want[c] = expectedRows(c, sz, ops)
		for _, op := range ops {
			switch op.Kind {
			case opInsert, opUpdate:
				userBytes += rowBytes
			case opInsertTx:
				userBytes += 2 * rowBytes
			}
		}
	}
	if commits := stats1.Commits - stats0.Commits; commits > 0 {
		r.setExtra("wal_records_per_commit", float64(stats1.WALRecords-stats0.WALRecords)/float64(commits))
	}
	r.setExtra("wal_bytes_per_user_byte", (dirBytes(dir, "wal-")-wal0)/userBytes)
	for c := range want {
		if msg := checkRows(e.db, c, want[c]); msg != "" {
			lanes[c].fail(-1, "before crash: %s", msg)
		}
	}
	e.db.SQL().SimulateCrash()
	e.stop()
	t2 := time.Now()
	db2, err := pgfmu.Open(dir)
	if err != nil {
		return fmt.Errorf("reopen after crash: %w", err)
	}
	defer db2.Close()
	r.setExtra("recovery_ms", ms(time.Since(t2)))
	for c := range want {
		if msg := checkRows(db2, c, want[c]); msg != "" {
			lanes[c].fail(-1, "after crash and recovery: %s", msg)
		}
	}
	t3 := time.Now()
	if err := db2.Checkpoint(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	r.setExtra("checkpoint_ms", ms(time.Since(t3)))
	total := 0
	for c := range want {
		total += len(want[c])
	}
	r.setExtra("disk_bytes_per_user_byte", dirBytes(dir, "")/(float64(total)*rowBytes))
	return nil
}

// rowBytes is the user data in one kv row: two integers, a float and a
// short tag.
const rowBytes = 8 + 8 + 8 + 8

// stop shuts the server down and closes the database; safe to call twice.
func (e *servedEnv) stop() {
	if e.srv != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		e.srv.Shutdown(ctx)
		cancel()
		e.srv = nil
	}
	if e.db != nil {
		e.db.Close()
		e.db = nil
	}
}

// expectedRows replays a client's op list into the rows it must own.
func expectedRows(c int, sz servedSizes, ops []servedOp) map[int]float64 {
	rows := make(map[int]float64)
	for k := c; k < sz.Preload; k += sz.Clients {
		rows[k] = preloadVal(k)
	}
	rows[insertBase/2+c], rows[insertBase/2+10+c], rows[insertBase/2+20+c] = 1, 1, 1 // warm-up
	for _, op := range ops {
		switch op.Kind {
		case opInsert, opUpdate:
			rows[op.Key] = op.Val
		case opInsertTx:
			rows[op.Key], rows[op.Key2] = op.Val, op.Val2
		}
	}
	return rows
}

// checkRows compares a client's rows in the database with want.
func checkRows(db *pgfmu.DB, c int, want map[int]float64) string {
	rs, err := db.Query(`SELECT k, val FROM kv WHERE client = $1`, c)
	if err != nil {
		return err.Error()
	}
	if len(rs.Rows) != len(want) {
		return fmt.Sprintf("client %d owns %d rows, want %d", c, len(rs.Rows), len(want))
	}
	for _, row := range rs.Rows {
		k, err := row[0].AsInt()
		if err != nil {
			return err.Error()
		}
		v, err := row[1].AsFloat()
		if err != nil {
			return err.Error()
		}
		if w, ok := want[int(k)]; !ok || w != v {
			return fmt.Sprintf("client %d key %d holds %v, want %v", c, k, v, w)
		}
	}
	return ""
}

// dirBytes sums the sizes of the files in dir whose names start with prefix.
func dirBytes(dir, prefix string) float64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	total := 0.0
	for _, ent := range entries {
		if strings.HasPrefix(ent.Name(), prefix) {
			if fi, err := ent.Info(); err == nil {
				total += float64(fi.Size())
			}
		}
	}
	return total
}
