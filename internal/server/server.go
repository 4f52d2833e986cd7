// Package server is the network front end of pgFMU: an HTTP/JSON API over
// the embedded engine (package repro), serving concurrent remote clients.
//
// The shape is a config / handler / endpoint split: Config carries every
// tunable, New wires handlers onto a method-routed mux, and the endpoints
// are small functions over two building blocks — the session manager
// (stateful per-client context: transactions, prepared statements, idle
// reaping; see session.go) and the statement streamer (newline-delimited
// JSON, one write for a small answer and chunked for a large one, so large
// results never materialize server-side; see handlers.go). The wire types live in internal/server/wire, shared
// with the Go client in internal/server/client.
//
// # Endpoints
//
//	GET  /healthz                                liveness + version (no auth)
//	GET  /stats                                  server + engine counters
//	GET  /v1/tables                              table names
//	POST /v1/query                               one-shot statement, no session
//	POST /v1/sessions                            create a session
//	DELETE /v1/sessions/{id}                     close a session
//	POST /v1/sessions/{id}/query                 run a statement (BEGIN/COMMIT/
//	                                             ROLLBACK map to a *pgfmu.Tx)
//	POST /v1/sessions/{id}/prepare               server-side prepared statement
//	POST /v1/sessions/{id}/statements/{sid}/query  execute a prepared statement
//	DELETE /v1/sessions/{id}/statements/{sid}    close a prepared statement
//
// Authentication is bearer-token: every endpoint but /healthz requires
// "Authorization: Bearer <token>" matching one of Config.AuthTokens. An
// empty token list disables auth (development mode).
package server

import (
	"context"
	"crypto/subtle"
	"errors"
	"log/slog"
	"net"
	"net/http"
	"os"
	"sync/atomic"
	"time"

	pgfmu "repro"
	"repro/internal/buildinfo"
)

// Config carries every server tunable. The zero value is usable: it binds
// an ephemeral localhost port with auth disabled and default timeouts.
type Config struct {
	// Addr is the listen address (host:port). Empty means "127.0.0.1:0".
	Addr string
	// AuthTokens are the accepted bearer tokens; empty disables auth.
	AuthTokens []string
	// SessionIdleTimeout is how long a session may sit idle before the
	// reaper rolls back its transaction and discards it. Default 5m.
	SessionIdleTimeout time.Duration
	// RequestTimeout bounds each statement execution (including response
	// streaming); expiry cancels the engine-side work through its context.
	// Default 30s.
	RequestTimeout time.Duration
	// MaxSessions caps concurrently open sessions (0 = 1000).
	MaxSessions int
	// Logger receives structured request/lifecycle logs. Default: text
	// handler on stderr at Info.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.SessionIdleTimeout <= 0 {
		c.SessionIdleTimeout = 5 * time.Minute
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 30 * time.Second
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1000
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	return c
}

// Server serves one pgFMU database over HTTP. Create with New, start with
// Listen + Serve, stop with Shutdown.
type Server struct {
	cfg   Config
	db    *pgfmu.DB
	sm    *sessionManager
	log   *slog.Logger
	http  *http.Server
	ln    net.Listener
	start time.Time

	requests     atomic.Uint64
	statements   atomic.Uint64
	rowsStreamed atomic.Uint64
	draining     atomic.Bool
}

// New wires a server around an open database. The caller keeps ownership
// of db: Shutdown rolls back sessions and checkpoints but does not Close
// the database.
func New(db *pgfmu.DB, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		db:    db,
		sm:    newSessionManager(cfg.SessionIdleTimeout, cfg.MaxSessions),
		log:   cfg.Logger,
		start: time.Now(),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /v1/tables", s.handleTables)
	mux.HandleFunc("POST /v1/query", s.handleOneShot)
	mux.HandleFunc("POST /v1/sessions", s.handleSessionCreate)
	mux.HandleFunc("DELETE /v1/sessions/{id}", s.handleSessionClose)
	mux.HandleFunc("POST /v1/sessions/{id}/query", s.handleSessionQuery)
	mux.HandleFunc("POST /v1/sessions/{id}/prepare", s.handlePrepare)
	mux.HandleFunc("POST /v1/sessions/{id}/statements/{sid}/query", s.handleStmtQuery)
	mux.HandleFunc("DELETE /v1/sessions/{id}/statements/{sid}", s.handleStmtClose)
	s.http = &http.Server{
		Handler: s.logged(s.authed(mux)),
		// Slow-loris guard; statement bodies are read under the request
		// timeout inside the handlers.
		ReadHeaderTimeout: 10 * time.Second,
	}
	return s
}

// Listen binds the configured address and returns it (useful with :0).
func (s *Server) Listen() (net.Addr, error) {
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return nil, err
	}
	s.ln = ln
	return ln.Addr(), nil
}

// Serve accepts connections until Shutdown; it returns nil after a clean
// shutdown. Call Listen first.
func (s *Server) Serve() error {
	if s.ln == nil {
		if _, err := s.Listen(); err != nil {
			return err
		}
	}
	s.log.Info("pgfmu-server listening",
		"addr", s.ln.Addr().String(),
		"version", buildinfo.Version(),
		"auth", len(s.cfg.AuthTokens) > 0,
		"durable", s.db.SQL().Durable())
	err := s.http.Serve(s.ln)
	if errors.Is(err, http.ErrServerClosed) {
		return nil
	}
	return err
}

// Addr returns the bound listen address (nil before Listen).
func (s *Server) Addr() net.Addr {
	if s.ln == nil {
		return nil
	}
	return s.ln.Addr()
}

// Shutdown is the graceful stop: new sessions are refused, in-flight
// requests (including open row streams) drain within ctx's deadline, every
// surviving session is rolled back, and — when the database is durable — a
// final checkpoint makes the shutdown a clean durability point. The
// database itself stays open; the caller closes it.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	err := s.http.Shutdown(ctx)
	s.sm.shutdown()
	if s.db.SQL().Durable() {
		if cerr := s.db.Checkpoint(); cerr != nil {
			err = errors.Join(err, cerr)
		}
	}
	s.log.Info("pgfmu-server stopped",
		"drained", err == nil,
		"sessions_created", s.sm.created.Load(),
		"sessions_reaped", s.sm.reaped.Load(),
		"statements", s.statements.Load(),
		"rows_streamed", s.rowsStreamed.Load())
	return err
}

// authed enforces bearer-token auth on everything but /healthz.
func (s *Server) authed(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if len(s.cfg.AuthTokens) == 0 || r.URL.Path == "/healthz" {
			next.ServeHTTP(w, r)
			return
		}
		auth := r.Header.Get("Authorization")
		const prefix = "Bearer "
		ok := false
		if len(auth) > len(prefix) && auth[:len(prefix)] == prefix {
			presented := auth[len(prefix):]
			for _, t := range s.cfg.AuthTokens {
				if subtleEqual(presented, t) {
					ok = true
					break
				}
			}
		}
		if !ok {
			writeAuthError(w)
			return
		}
		next.ServeHTTP(w, r)
	})
}

// logged emits one structured line per request and counts it.
func (s *Server) logged(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		t0 := time.Now()
		next.ServeHTTP(rec, r)
		s.log.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.status,
			"dur_ms", float64(time.Since(t0).Microseconds())/1000,
			"remote", r.RemoteAddr)
	})
}

// statusRecorder captures the response status for logging while keeping
// http.Flusher reachable — statement streaming depends on flushes passing
// through.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// subtleEqual is a constant-time string compare (token check).
func subtleEqual(a, b string) bool {
	return subtle.ConstantTimeCompare([]byte(a), []byte(b)) == 1
}
