package server

// End-to-end tests for the HTTP front end, driven through the real network
// stack (a listener on 127.0.0.1:0) and the Go client in
// internal/server/client — the same path cmd/pgfmu --url and the load
// tester use. Run with -race: session management, streaming, and shutdown
// are concurrency machinery first and HTTP handlers second.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	pgfmu "repro"
	"repro/internal/server/client"
	"repro/internal/server/wire"
)

// newTestServer boots a server on an ephemeral port over a fresh in-memory
// database and returns a connected client. The server is shut down and the
// database closed at test cleanup.
func newTestServer(t *testing.T, cfg Config, opts ...pgfmu.Option) (*Server, *client.Client) {
	t.Helper()
	return newTestServerAt(t, "", cfg, opts...)
}

// newTestServerAt is newTestServer over the database in dir ("" for one in
// memory).
func newTestServerAt(t *testing.T, dir string, cfg Config, opts ...pgfmu.Option) (*Server, *client.Client) {
	t.Helper()
	db, err := pgfmu.Open(dir, opts...)
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	srv := New(db, cfg)
	addr, err := srv.Listen()
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
		if err := <-done; err != nil {
			t.Errorf("Serve: %v", err)
		}
		if err := db.Close(); err != nil {
			t.Errorf("db.Close: %v", err)
		}
	})
	token := ""
	if len(cfg.AuthTokens) > 0 {
		token = cfg.AuthTokens[0]
	}
	return srv, client.New("http://"+addr.String(), token)
}

func wireCode(t *testing.T, err error) string {
	t.Helper()
	var we *wire.Error
	if !errors.As(err, &we) {
		t.Fatalf("error %v (%T) is not a *wire.Error", err, err)
	}
	return we.Code
}

func TestHealthzAndStats(t *testing.T) {
	srv, c := newTestServer(t, Config{AuthTokens: []string{"tok"}})
	ctx := context.Background()

	// /healthz needs no token even when auth is on.
	noAuth := client.New("http://"+srv.Addr().String(), "")
	h, err := noAuth.Health(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if h.Status != "ok" || h.Version == "" {
		t.Fatalf("health = %+v", h)
	}
	if h.Durable {
		t.Fatal("in-memory database reported durable")
	}

	if _, err := c.Query(ctx, `CREATE TABLE t (id integer)`); err != nil {
		t.Fatal(err)
	}
	st, err := c.Stats(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.StatementsRun == 0 || st.Requests == 0 {
		t.Fatalf("stats counters empty: %+v", st)
	}
	// The catalogue's own tables (fmu_* metadata) are listed too; the user
	// table must be among them.
	if st.Engine.Tables < 1 {
		t.Fatalf("engine tables = %d", st.Engine.Tables)
	}
	tables, err := c.Tables(ctx)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, name := range tables {
		if name == "t" {
			found = true
		}
	}
	if !found {
		t.Fatalf("created table missing from %v", tables)
	}
}

func TestAuthRejection(t *testing.T) {
	srv, _ := newTestServer(t, Config{AuthTokens: []string{"secret"}})
	ctx := context.Background()

	for _, tc := range []struct{ name, token string }{
		{"no token", ""},
		{"wrong token", "wrong"},
		{"prefix of the token", "secre"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := client.New("http://"+srv.Addr().String(), tc.token)
			_, err := bad.Stats(ctx)
			if err == nil {
				t.Fatal("request with bad credentials succeeded")
			}
			if code := wireCode(t, err); code != wire.CodeAuth {
				t.Fatalf("code = %q, want %q", code, wire.CodeAuth)
			}
		})
	}

	ok := client.New("http://"+srv.Addr().String(), "secret")
	if _, err := ok.Stats(ctx); err != nil {
		t.Fatalf("authorized request failed: %v", err)
	}
}

func TestSessionLifecycle(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()

	sess, err := c.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec(ctx, `CREATE TABLE kv (id integer, v float)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		if _, err := sess.Exec(ctx, `INSERT INTO kv VALUES ($1, $2)`, i, float64(i)/2); err != nil {
			t.Fatal(err)
		}
	}

	// Streaming SELECT: row count via iteration must agree with the trailer.
	rows, err := sess.Query(ctx, `SELECT id, v FROM kv`)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for rows.Next() {
		if len(rows.Row()) != 2 {
			t.Fatalf("row %d has %d columns", n, len(rows.Row()))
		}
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 300 || rows.Done() == nil || rows.Done().Rows != 300 {
		t.Fatalf("iterated %d rows, trailer %+v", n, rows.Done())
	}
	rows.Close()

	// Prepared statements: create, execute with args, close, stale handle 404s.
	st, err := sess.Prepare(ctx, `SELECT v FROM kv WHERE id = $1`)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := st.Query(ctx, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Next() {
		t.Fatalf("prepared lookup returned no rows: %v", r2.Err())
	}
	if got := r2.Row()[0].(float64); got != 21 {
		t.Fatalf("kv[42] = %v, want 21", got)
	}
	if _, err := r2.Drain(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Query(ctx, 1); err == nil {
		t.Fatal("closed prepared statement still executes")
	} else if code := wireCode(t, err); code != wire.CodeNoStmt {
		t.Fatalf("code = %q, want %q", code, wire.CodeNoStmt)
	}

	// Session close: subsequent use reports no such session.
	if err := sess.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec(ctx, `SELECT 1`); err == nil {
		t.Fatal("closed session still executes")
	} else if code := wireCode(t, err); code != wire.CodeNoSession {
		t.Fatalf("code = %q, want %q", code, wire.CodeNoSession)
	}
	if err := sess.Close(ctx); err == nil {
		t.Fatal("double close did not error")
	}
}

func TestSessionExpiryAndReap(t *testing.T) {
	srv, c := newTestServer(t, Config{SessionIdleTimeout: 80 * time.Millisecond})
	ctx := context.Background()

	if _, err := c.Query(ctx, `CREATE TABLE r (id integer)`); err != nil {
		t.Fatal(err)
	}

	// A session with an open transaction goes idle past the horizon: the
	// reaper must roll the transaction back, not leak it.
	sess, err := c.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec(ctx, `BEGIN`); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec(ctx, `INSERT INTO r VALUES (1)`); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(5 * time.Second)
	for srv.sm.count() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("session not reaped within 5s")
		}
		time.Sleep(20 * time.Millisecond)
		srv.sm.reapOnce(time.Now())
	}
	if got := srv.sm.reaped.Load(); got != 1 {
		t.Fatalf("reaped = %d, want 1", got)
	}

	// The reaped session's transaction rolled back: its insert is invisible.
	rows, err := c.Query(ctx, `SELECT count(*) FROM r`)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() || rows.Row()[0].(float64) != 0 {
		t.Fatalf("uncommitted insert survived the reap: %v", rows.Row())
	}
	rows.Close()

	// The client's handle is now stale.
	if _, err := sess.Exec(ctx, `SELECT 1`); err == nil {
		t.Fatal("reaped session still executes")
	} else if code := wireCode(t, err); code != wire.CodeNoSession {
		t.Fatalf("code = %q, want %q", code, wire.CodeNoSession)
	}

	// A busy session is never reaped: hold the session lock (as an in-flight
	// statement would) and reap with an ancient horizon.
	busy, err := c.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	held := srv.sm.acquire(busy.ID)
	if held == nil {
		t.Fatal("acquire failed")
	}
	held.lastUsed.Store(0) // pretend it idled for an eternity
	if n := srv.sm.reapOnce(time.Now()); n != 0 {
		t.Fatalf("reaped %d busy sessions", n)
	}
	srv.sm.release(held)
}

func TestTxIsolationAcrossSessions(t *testing.T) {
	// A short engine lock-wait keeps the conflict test fast.
	_, c := newTestServer(t, Config{}, pgfmu.WithLockWaitTimeout(100*time.Millisecond))
	ctx := context.Background()

	if _, err := c.Query(ctx, `CREATE TABLE acc (id integer, bal integer)`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Query(ctx, `INSERT INTO acc VALUES (1, 100)`); err != nil {
		t.Fatal(err)
	}

	s1, err := c.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := c.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}

	// Uncommitted writes are invisible across sessions (snapshot reads).
	if _, err := s1.Exec(ctx, `BEGIN`); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Exec(ctx, `INSERT INTO acc VALUES (2, 50)`); err != nil {
		t.Fatal(err)
	}
	rows, err := s2.Query(ctx, `SELECT count(*) FROM acc`)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() || rows.Row()[0].(float64) != 1 {
		t.Fatalf("s2 sees s1's uncommitted insert: %v", rows.Row())
	}
	rows.Close()
	if _, err := s1.Exec(ctx, `COMMIT`); err != nil {
		t.Fatal(err)
	}
	n, err := s2.Exec(ctx, `SELECT count(*) FROM acc WHERE bal > 0`)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("post-commit count query returned %d rows", n)
	}

	// Write-write conflict: both transactions update the same row; the
	// second updater fails with the conflict code and can roll back + retry.
	if _, err := s1.Exec(ctx, `BEGIN`); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Exec(ctx, `BEGIN`); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Exec(ctx, `UPDATE acc SET bal = bal + 10 WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	_, err = s2.Exec(ctx, `UPDATE acc SET bal = bal - 10 WHERE id = 1`)
	if err == nil {
		t.Fatal("conflicting update succeeded")
	}
	if code := wireCode(t, err); code != wire.CodeConflict {
		t.Fatalf("code = %q, want %q", code, wire.CodeConflict)
	}
	if _, err := s2.Exec(ctx, `ROLLBACK`); err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Exec(ctx, `COMMIT`); err != nil {
		t.Fatal(err)
	}

	// Transaction-state errors: COMMIT without BEGIN, double BEGIN.
	_, err = s2.Exec(ctx, `COMMIT`)
	if err == nil || wireCode(t, err) != wire.CodeTxState {
		t.Fatalf("bare COMMIT: %v", err)
	}
	if _, err := s2.Exec(ctx, `BEGIN`); err != nil {
		t.Fatal(err)
	}
	_, err = s2.Exec(ctx, `BEGIN`)
	if err == nil || wireCode(t, err) != wire.CodeTxState {
		t.Fatalf("double BEGIN: %v", err)
	}
	if _, err := s2.Exec(ctx, `ROLLBACK`); err != nil {
		t.Fatal(err)
	}

	// One-shot queries cannot carry transaction control.
	_, err = c.Query(ctx, `BEGIN`)
	if err == nil || wireCode(t, err) != wire.CodeTxState {
		t.Fatalf("one-shot BEGIN: %v", err)
	}
}

// TestTxControlSpellingsStayInSession: every spelling of BEGIN, COMMIT and
// ROLLBACK the engine parses — tabs, doubled spaces, comments, END, ABORT —
// maps onto the sending session's own transaction. None may reach the one
// transaction SQL BEGIN opens on the shared DB, which every other session
// would then join (and lose its writes with).
func TestTxControlSpellingsStayInSession(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	// A and B write different tables: an open transaction holds its
	// tables' write latches until it ends, and B must not wait on A's.
	for _, ddl := range []string{`CREATE TABLE mine (id integer)`, `CREATE TABLE spell (id integer)`} {
		if _, err := c.Query(ctx, ddl); err != nil {
			t.Fatal(err)
		}
	}
	a, err := c.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	count := func(table string, id int) int64 {
		t.Helper()
		rows, err := c.Query(ctx, `SELECT count(*) FROM `+table+` WHERE id = $1`, id)
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		if !rows.Next() {
			t.Fatalf("count(%d): no row: %v", id, rows.Err())
		}
		return int64(rows.Row()[0].(float64))
	}
	exec := func(s *client.Session, sql string, args ...any) {
		t.Helper()
		if _, err := s.Exec(ctx, sql, args...); err != nil {
			t.Fatalf("%q: %v", sql, err)
		}
	}

	id := 0
	for _, begin := range []string{"BEGIN\tTRANSACTION", "BEGIN -- open", "/* x */ BEGIN", "BEGIN  WORK"} {
		id++
		exec(a, begin)
		exec(a, `INSERT INTO mine VALUES ($1)`, id)
		exec(b, `INSERT INTO spell VALUES ($1)`, id)
		exec(a, "ROLLBACK -- undo")
		if got := count("spell", id); got != 1 {
			t.Errorf("after %q … ROLLBACK in session A, B's row reads %d times, want 1", begin, got)
		}
		if got := count("mine", id); got != 0 {
			t.Errorf("after %q … ROLLBACK, A's row reads %d times, want 0", begin, got)
		}
	}
	for _, end := range []struct {
		sql  string
		kept int64
	}{{"END", 1}, {"ABORT", 0}, {"end transaction;", 1}, {"abort work", 0}} {
		id++
		exec(a, "begin")
		exec(a, `INSERT INTO mine VALUES ($1)`, id)
		exec(b, `INSERT INTO spell VALUES ($1)`, id)
		exec(a, end.sql)
		if got := count("spell", id); got != 1 {
			t.Errorf("after %q in session A, B's row reads %d times, want 1", end.sql, got)
		}
		if got := count("mine", id); got != end.kept {
			t.Errorf("after %q, A's row reads %d times, want %d", end.sql, got, end.kept)
		}
	}

	// The one-shot endpoint refuses every spelling: it has no session to
	// hold the transaction.
	for _, sql := range []string{"BEGIN\tTRANSACTION", "BEGIN -- open", "/* x */ BEGIN", "BEGIN  WORK",
		"END", "ABORT", "ROLLBACK -- undo", "commit work"} {
		_, err := c.Query(ctx, sql)
		if err == nil || wireCode(t, err) != wire.CodeTxState {
			t.Errorf("one-shot %q: %v, want %s", sql, err, wire.CodeTxState)
		}
	}
}

func TestRequestTimeoutCancelsQuery(t *testing.T) {
	_, c := newTestServer(t, Config{RequestTimeout: 150 * time.Millisecond})
	ctx := context.Background()

	if _, err := c.Query(ctx, `CREATE TABLE big (id integer)`); err != nil {
		t.Fatal(err)
	}
	sess, err := c.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2000; i++ {
		if _, err := sess.Exec(ctx, `INSERT INTO big VALUES ($1)`, i); err != nil {
			t.Fatal(err)
		}
	}

	// A cross join of 2000×2000 rows takes far longer than 150ms; the
	// request timeout must cancel it server-side and report timeout, either
	// up front (error status) or mid-stream (trailer error).
	t0 := time.Now()
	rows, err := sess.Query(ctx, `SELECT count(*) FROM big a, big b WHERE a.id + b.id = -1`)
	if err == nil {
		_, err = rows.Drain()
	}
	elapsed := time.Since(t0)
	if err == nil {
		t.Fatal("4M-pair cross join finished under a 150ms request timeout")
	}
	if code := wireCode(t, err); code != wire.CodeTimeout {
		t.Fatalf("code = %q (err %v), want %q", code, err, wire.CodeTimeout)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation took %v, not prompt", elapsed)
	}

	// The session survives a timed-out statement.
	if _, err := sess.Exec(ctx, `SELECT count(*) FROM big`); err != nil {
		t.Fatalf("session unusable after timeout: %v", err)
	}
}

func TestGracefulShutdownDrains(t *testing.T) {
	db, err := pgfmu.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv := New(db, Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	addr, err := srv.Listen()
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve() }()
	c := client.New("http://"+addr.String(), "")
	ctx := context.Background()

	if _, err := c.Query(ctx, `CREATE TABLE d (id integer)`); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		if _, err := c.Query(ctx, `INSERT INTO d VALUES ($1)`, i); err != nil {
			t.Fatal(err)
		}
	}

	// Leave one session with an open transaction un-drained: Shutdown must
	// roll it back rather than leak it into the engine.
	orphan, err := c.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := orphan.Exec(ctx, `BEGIN`); err != nil {
		t.Fatal(err)
	}
	if _, err := orphan.Exec(ctx, `INSERT INTO d VALUES (9999)`); err != nil {
		t.Fatal(err)
	}

	// Start a streaming read and hold it mid-stream, then shut down: the
	// stream must complete (trailer and all), not be cut off.
	rows, err := c.Query(ctx, `SELECT id FROM d`)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatalf("no first row: %v", rows.Err())
	}

	var wg sync.WaitGroup
	wg.Add(1)
	shutdownErr := make(chan error, 1)
	go func() {
		defer wg.Done()
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- srv.Shutdown(sctx)
	}()

	// Give Shutdown a moment to flip into draining, then finish the read.
	time.Sleep(50 * time.Millisecond)
	n := 1
	for rows.Next() {
		n++
	}
	if err := rows.Err(); err != nil {
		t.Fatalf("in-flight stream broken by shutdown: %v", err)
	}
	if rows.Done() == nil || rows.Done().Rows != 1000 {
		t.Fatalf("drained %d rows, trailer %+v", n, rows.Done())
	}
	rows.Close()

	wg.Wait()
	if err := <-shutdownErr; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve: %v", err)
	}

	// The orphaned transaction rolled back; the database is still usable by
	// its owner (Shutdown does not close it).
	rs, err := db.Query(`SELECT count(*) FROM d`)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][0].String() != "1000" {
		t.Fatalf("post-shutdown count = %s, want 1000 (orphan rolled back)", rs.Rows[0][0].String())
	}
}

func TestDrainingRefusesNewSessions(t *testing.T) {
	srv, c := newTestServer(t, Config{})
	ctx := context.Background()

	srv.draining.Store(true)
	defer srv.draining.Store(false)
	_, err := c.NewSession(ctx)
	if err == nil {
		t.Fatal("session created while draining")
	}
	if code := wireCode(t, err); code != wire.CodeShutdown {
		t.Fatalf("code = %q, want %q", code, wire.CodeShutdown)
	}
}

func TestSessionLimit(t *testing.T) {
	_, c := newTestServer(t, Config{MaxSessions: 2})
	ctx := context.Background()

	s1, err := c.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.NewSession(ctx); err != nil {
		t.Fatal(err)
	}
	_, err = c.NewSession(ctx)
	if err == nil {
		t.Fatal("third session admitted over a limit of 2")
	}
	if code := wireCode(t, err); code != wire.CodeLimit {
		t.Fatalf("code = %q, want %q", code, wire.CodeLimit)
	}
	// Closing one frees a slot.
	if err := s1.Close(ctx); err != nil {
		t.Fatal(err)
	}
	if _, err := c.NewSession(ctx); err != nil {
		t.Fatalf("session after freeing a slot: %v", err)
	}
}

func TestBadRequests(t *testing.T) {
	srv, c := newTestServer(t, Config{})
	ctx := context.Background()

	// Unknown table and syntax errors map to bad_request.
	_, err := c.Query(ctx, `SELECT * FROM nonexistent`)
	if err == nil || wireCode(t, err) != wire.CodeBadRequest {
		t.Fatalf("unknown table: %v", err)
	}
	_, err = c.Query(ctx, `SELEC 1`)
	if err == nil || wireCode(t, err) != wire.CodeBadRequest {
		t.Fatalf("syntax error: %v", err)
	}

	// Raw HTTP: empty SQL and malformed JSON are rejected up front.
	for _, body := range []string{`{}`, `{"sql": "  "}`, `{"sql":`} {
		resp, err := http.Post("http://"+srv.Addr().String()+"/v1/query",
			"application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("body %q: status %d, want 400", body, resp.StatusCode)
		}
	}

	// Unknown session id.
	resp, err := http.Post("http://"+srv.Addr().String()+"/v1/sessions/nope/query",
		"application/json", strings.NewReader(`{"sql": "SELECT 1"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session: status %d, want 404", resp.StatusCode)
	}
}

// TestConcurrentSessions hammers one server with parallel sessions doing
// transactional writes and streaming reads — the e2e shape of the load
// test, sized for CI.
func TestConcurrentSessions(t *testing.T) {
	_, c := newTestServer(t, Config{}, pgfmu.WithLockWaitTimeout(200*time.Millisecond))
	ctx := context.Background()

	if _, err := c.Query(ctx, `CREATE TABLE w (client integer, seq integer)`); err != nil {
		t.Fatal(err)
	}

	const clients = 8
	const perClient = 25
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			sess, err := c.NewSession(ctx)
			if err != nil {
				errs <- err
				return
			}
			defer sess.Close(ctx)
			for seq := 0; seq < perClient; seq++ {
				for attempt := 0; ; attempt++ {
					_, err := sess.Exec(ctx, `INSERT INTO w VALUES ($1, $2)`, id, seq)
					if err == nil {
						break
					}
					var we *wire.Error
					if errors.As(err, &we) && we.Code == wire.CodeConflict && attempt < 5 {
						continue
					}
					errs <- fmt.Errorf("client %d seq %d: %w", id, seq, err)
					return
				}
				if seq%10 == 0 {
					rows, err := sess.Query(ctx, `SELECT count(*) FROM w WHERE client = $1`, id)
					if err != nil {
						errs <- err
						return
					}
					if !rows.Next() || int(rows.Row()[0].(float64)) != seq+1 {
						errs <- fmt.Errorf("client %d: read own writes mismatch at seq %d: %v", id, seq, rows.Row())
						rows.Close()
						return
					}
					rows.Close()
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	rows, err := c.Query(ctx, `SELECT count(*) FROM w`)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() || int(rows.Row()[0].(float64)) != clients*perClient {
		t.Fatalf("total rows = %v, want %d", rows.Row(), clients*perClient)
	}
	rows.Close()
}

// TestNonFiniteArgsRoundTrip: NaN and ±Inf bound as statement arguments
// cross the protocol as wire.NonFinite's strings, which INSERT coerces into
// the float column, and read back as the same bits. A comparison with such
// an argument needs its cast, and selects only its own row: NaN equals only
// NaN.
func TestNonFiniteArgsRoundTrip(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	sess, err := c.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close(ctx)
	if _, err := sess.Exec(ctx, `CREATE TABLE f (i integer, x float)`); err != nil {
		t.Fatal(err)
	}
	want := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for i, v := range want {
		if _, err := sess.Exec(ctx, `INSERT INTO f VALUES ($1, $2)`, i, v); err != nil {
			t.Fatalf("INSERT %v: %v", v, err)
		}
	}
	rows, err := sess.Query(ctx, `SELECT * FROM f ORDER BY i`)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for ; rows.Next(); n++ {
		got, ok := rows.Row()[1].(float64)
		if !ok || math.Float64bits(got) != math.Float64bits(want[n]) {
			t.Errorf("row %d: x = %#v, want %v", n, rows.Row()[1], want[n])
		}
	}
	if err := rows.Err(); err != nil || n != len(want) {
		t.Fatalf("read %d rows, %v", n, err)
	}
	for i, v := range want {
		rows, err := sess.Query(ctx, `SELECT i FROM f WHERE x = $1::float`, v)
		if err != nil {
			t.Fatal(err)
		}
		var ids []any
		for rows.Next() {
			ids = append(ids, rows.Row()[0])
		}
		if err := rows.Err(); err != nil || len(ids) != 1 || ids[0] != float64(i) {
			t.Errorf("WHERE x = $1::float with %v: i in %v, %v; want only %d", v, ids, err, i)
		}
	}
}

// TestNonFiniteFloatsRoundTrip: NaN, ±Inf and −0 in a float column cross
// the protocol, which sends the first three as strings (JSON has no literal
// for them), and come back as the same floats. A column the header does not
// type float (an expression's) carries them as those strings, and no longer
// fails the stream.
func TestNonFiniteFloatsRoundTrip(t *testing.T) {
	_, c := newTestServer(t, Config{})
	ctx := context.Background()
	sess, err := c.NewSession(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close(ctx)
	if _, err := sess.Exec(ctx, `CREATE TABLE f (i integer, x float)`); err != nil {
		t.Fatal(err)
	}
	lits := []string{`'NaN'::float`, `'Infinity'::float`, `'-Infinity'::float`, `-0.0`}
	for i, lit := range lits {
		if _, err := sess.Exec(ctx, `INSERT INTO f VALUES ($1, `+lit+`)`, i); err != nil {
			t.Fatal(err)
		}
	}
	want := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1)}
	// Through *, and through a bare reference to the column, which keeps
	// its declared type (x is the last column of each).
	for _, q := range []string{`SELECT * FROM f ORDER BY i`, `SELECT x FROM f`, `SELECT f.x FROM f ORDER BY i`} {
		rows, err := sess.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		cols := rows.Columns()
		x := len(cols) - 1
		if cols[x].Name != "x" || cols[x].Type != "float" {
			t.Fatalf("%s: columns %v, want x typed float", q, cols)
		}
		n := 0
		for ; rows.Next(); n++ {
			got, ok := rows.Row()[x].(float64)
			if !ok || !(math.IsNaN(got) && math.IsNaN(want[n]) || got == want[n] && math.Signbit(got) == math.Signbit(want[n])) {
				t.Errorf("%s: row %d: x = %#v, want %v", q, n, rows.Row()[x], want[n])
			}
		}
		if err := rows.Err(); err != nil || n != len(want) {
			t.Fatalf("%s: read %d rows, %v", q, n, err)
		}
	}
	for i, text := range []string{"NaN", "Infinity", "-Infinity"} {
		rows, err := sess.Query(ctx, `SELECT `+lits[i])
		if err != nil {
			t.Fatal(err)
		}
		if !rows.Next() || rows.Row()[0] != text {
			t.Errorf("SELECT %s: %v, %v; want %q", lits[i], rows.Row(), rows.Err(), text)
		}
		if _, err := rows.Drain(); err != nil {
			t.Errorf("SELECT %s: %v", lits[i], err)
		}
	}
}
