package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	pgfmu "repro"
	"repro/internal/buildinfo"
	"repro/internal/server/wire"
	"repro/internal/variant"
)

// maxBodyBytes bounds statement bodies; SQL text and bound args are small.
const maxBodyBytes = 1 << 20

// flushEvery is the row-batch granularity of statement streaming: rows are
// flushed to the client every flushEvery rows, so a huge result is chunked
// instead of materialized while a small one costs one flush.
const flushEvery = 128

// ---- plain-JSON endpoints ----

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, wire.Health{
		Status:    "ok",
		Version:   buildinfo.Version(),
		UptimeSec: time.Since(s.start).Seconds(),
		Durable:   s.db.SQL().Durable(),
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	es := s.db.EngineStats()
	js := s.db.JobStats()
	cs := s.db.SimCacheStats()
	writeJSON(w, http.StatusOK, wire.Stats{
		Sessions:        s.sm.count(),
		ActiveTxns:      s.sm.activeTxns(),
		Requests:        s.requests.Load(),
		RowsStreamed:    s.rowsStreamed.Load(),
		StatementsRun:   s.statements.Load(),
		SessionsCreated: s.sm.created.Load(),
		SessionsReaped:  s.sm.reaped.Load(),
		UptimeSec:       time.Since(s.start).Seconds(),
		Version:         buildinfo.Version(),
		Engine: wire.EngineStats{
			Tables:        es.Tables,
			Commits:       es.Commits,
			Checkpoints:   es.Checkpoints,
			WALRecords:    es.WALRecords,
			WALGeneration: es.WALGeneration,
			ActiveTxns:    es.ActiveTxns,
			Durable:       es.Durable,
		},
		Jobs: wire.JobStats{
			Workers:   js.Workers,
			Submitted: js.Submitted,
			Completed: js.Completed,
			Failed:    js.Failed,
			Cancelled: js.Cancelled,
			Running:   js.Running,
		},
		Cache: wire.CacheStats{
			Entries:       cs.Entries,
			Capacity:      cs.Capacity,
			Hits:          cs.Hits,
			Misses:        cs.Misses,
			Evictions:     cs.Evictions,
			Invalidations: cs.Invalidations,
			HitRate:       cs.HitRate(),
		},
	})
}

func (s *Server) handleTables(w http.ResponseWriter, r *http.Request) {
	names := s.db.SQL().TableNames()
	writeJSON(w, http.StatusOK, wire.TablesResponse{Tables: names})
}

// ---- session lifecycle ----

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, wire.CodeShutdown, "server is shutting down")
		return
	}
	sess, err := s.sm.create(s.db.Conn())
	if err != nil {
		if errors.Is(err, errSessionLimit) {
			writeError(w, http.StatusTooManyRequests, wire.CodeLimit, err.Error())
			return
		}
		writeError(w, http.StatusInternalServerError, wire.CodeInternal, err.Error())
		return
	}
	writeJSON(w, http.StatusCreated, wire.SessionResponse{
		ID:             sess.id,
		IdleTimeoutSec: s.cfg.SessionIdleTimeout.Seconds(),
		Version:        buildinfo.Version(),
	})
}

func (s *Server) handleSessionClose(w http.ResponseWriter, r *http.Request) {
	if !s.sm.close(r.PathValue("id")) {
		writeError(w, http.StatusNotFound, wire.CodeNoSession, "no such session")
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// ---- statement execution ----

// handleSessionQuery runs one statement on the session's connection, which
// holds the session's transaction: the engine's grammar recognises
// BEGIN/COMMIT/ROLLBACK in every spelling it accepts.
func (s *Server) handleSessionQuery(w http.ResponseWriter, r *http.Request) {
	var req wire.QueryRequest
	if !decodeBody(w, r, &req) {
		return
	}
	sess := s.sm.acquire(r.PathValue("id"))
	if sess == nil {
		writeError(w, http.StatusNotFound, wire.CodeNoSession, "no such session")
		return
	}
	defer s.sm.release(sess)
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	s.statements.Add(1)
	t0 := time.Now()
	it, err := sess.conn.QueryRowsContext(ctx, req.SQL, toBindArgs(req.Args)...)
	if err != nil {
		writeStatementError(w, err)
		return
	}
	s.streamRows(w, it, t0)
}

// handleOneShot runs a single statement with no session state — the curl /
// smoke-test path. Transaction-control statements are rejected: there is
// no session to hold the transaction open.
func (s *Server) handleOneShot(w http.ResponseWriter, r *http.Request) {
	var req wire.QueryRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if kw := s.db.SQL().TxnControl(req.SQL); kw != "" {
		writeError(w, http.StatusBadRequest, wire.CodeTxState,
			kw+" requires a session (POST /v1/sessions)")
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	s.statements.Add(1)
	t0 := time.Now()
	it, err := s.db.QueryRowsContext(ctx, req.SQL, toBindArgs(req.Args)...)
	if err != nil {
		writeStatementError(w, err)
		return
	}
	s.streamRows(w, it, t0)
}

// ---- prepared statements ----

func (s *Server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	var req wire.QueryRequest
	if !decodeBody(w, r, &req) {
		return
	}
	if kw := s.db.SQL().TxnControl(req.SQL); kw != "" {
		writeError(w, http.StatusBadRequest, wire.CodeTxState, "cannot prepare "+kw)
		return
	}
	sess := s.sm.acquire(r.PathValue("id"))
	if sess == nil {
		writeError(w, http.StatusNotFound, wire.CodeNoSession, "no such session")
		return
	}
	defer s.sm.release(sess)
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	st, err := sess.conn.PrepareContext(ctx, req.SQL)
	if err != nil {
		writeStatementError(w, err)
		return
	}
	sess.stmtSeq++
	id := fmt.Sprintf("s%d", sess.stmtSeq)
	sess.stmts[id] = st
	writeJSON(w, http.StatusCreated, wire.PrepareResponse{ID: id})
}

func (s *Server) handleStmtQuery(w http.ResponseWriter, r *http.Request) {
	var req wire.QueryRequest
	if !decodeArgs(w, r, &req) {
		return
	}
	sess := s.sm.acquire(r.PathValue("id"))
	if sess == nil {
		writeError(w, http.StatusNotFound, wire.CodeNoSession, "no such session")
		return
	}
	defer s.sm.release(sess)
	st := sess.stmts[r.PathValue("sid")]
	if st == nil {
		writeError(w, http.StatusNotFound, wire.CodeNoStmt, "no such prepared statement")
		return
	}
	ctx, cancel := s.requestCtx(r)
	defer cancel()
	s.statements.Add(1)
	t0 := time.Now()
	it, err := st.QueryRowsContext(ctx, toBindArgs(req.Args)...)
	if err != nil {
		writeStatementError(w, err)
		return
	}
	s.streamRows(w, it, t0)
}

func (s *Server) handleStmtClose(w http.ResponseWriter, r *http.Request) {
	sess := s.sm.acquire(r.PathValue("id"))
	if sess == nil {
		writeError(w, http.StatusNotFound, wire.CodeNoSession, "no such session")
		return
	}
	defer s.sm.release(sess)
	sid := r.PathValue("sid")
	st := sess.stmts[sid]
	if st == nil {
		writeError(w, http.StatusNotFound, wire.CodeNoStmt, "no such prepared statement")
		return
	}
	_ = st.Close()
	delete(sess.stmts, sid)
	w.WriteHeader(http.StatusNoContent)
}

// ---- streaming ----

// streamRows renders a RowIter as an ndjson stream: header, row arrays,
// trailer. Rows flush to the client in flushEvery batches, so results
// stream with bounded server memory. Errors surfacing mid-iteration ride
// the trailer (the 200 status is already on the wire by then).
func (s *Server) streamRows(w http.ResponseWriter, it *pgfmu.RowIter, t0 time.Time) {
	defer it.Close()
	cols := it.Columns()
	hdr := wire.Header{Columns: make([]wire.Column, len(cols))}
	for i, c := range cols {
		hdr.Columns[i] = wire.Column{Name: c.Name, Type: c.Type}
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	if err := enc.Encode(hdr); err != nil {
		return // client went away before the header landed
	}
	flusher, _ := w.(http.Flusher)
	flush := func() {
		if flusher != nil {
			flusher.Flush()
		}
	}
	flush()

	rows := 0
	out := make([]any, len(cols))
	for it.Next() {
		row := it.Row()
		for i := range cols {
			if i < len(row) {
				out[i] = wireValue(row[i])
			} else {
				out[i] = nil
			}
		}
		if err := enc.Encode(out); err != nil {
			return // broken pipe: the client hung up mid-stream
		}
		rows++
		if rows%flushEvery == 0 {
			flush()
		}
	}
	s.rowsStreamed.Add(uint64(rows))
	trailer := wire.Trailer{}
	if err := it.Err(); err != nil {
		trailer.Error = wireError(err)
	} else {
		trailer.Done = &wire.Done{Rows: rows, ElapsedMS: msSince(t0)}
	}
	_ = enc.Encode(trailer)
	flush()
}

// ---- shared helpers ----

// requestCtx derives the statement context: the client disconnect cancels
// it (http.Request.Context) and the configured per-request timeout bounds
// it. Engine row loops, simulation stepping, and calibration iterations
// all poll this context.
func (s *Server) requestCtx(r *http.Request) (context.Context, context.CancelFunc) {
	return context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
}

// toBindArgs converts JSON-decoded args to engine bind args. JSON numbers
// arrive as float64; integral floats bind as integers so `WHERE id = $1`
// hits integer columns' indexes.
func toBindArgs(args []any) []any {
	out := make([]any, len(args))
	for i, a := range args {
		if f, ok := a.(float64); ok && f == float64(int64(f)) {
			out[i] = int64(f)
			continue
		}
		out[i] = a
	}
	return out
}

// wireValue converts an engine value to its JSON form. Timestamps use the
// engine's SQL text layout so they round-trip through text binds.
func wireValue(v variant.Value) any {
	if v.Kind() == variant.Time {
		return v.Time().Format(variant.TimeLayout)
	}
	return v.Native()
}

func msSince(t0 time.Time) float64 {
	return float64(time.Since(t0).Microseconds()) / 1000
}

func decodeBody(w http.ResponseWriter, r *http.Request, dst *wire.QueryRequest) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(dst); err != nil {
		writeError(w, http.StatusBadRequest, wire.CodeBadRequest, "decoding request body: "+err.Error())
		return false
	}
	if strings.TrimSpace(dst.SQL) == "" {
		writeError(w, http.StatusBadRequest, wire.CodeBadRequest, "empty sql")
		return false
	}
	return true
}

// decodeArgs decodes an execution body that carries only bound args (the
// prepared-statement path: the SQL lives server-side). An absent body is
// fine.
func decodeArgs(w http.ResponseWriter, r *http.Request, dst *wire.QueryRequest) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err := dec.Decode(dst); err != nil && !errors.Is(err, io.EOF) {
		writeError(w, http.StatusBadRequest, wire.CodeBadRequest, "decoding request body: "+err.Error())
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, code, msg string) {
	writeJSON(w, status, wire.Trailer{Error: &wire.Error{Code: code, Message: msg}})
}

func writeAuthError(w http.ResponseWriter) {
	w.Header().Set("WWW-Authenticate", `Bearer realm="pgfmu"`)
	writeError(w, http.StatusUnauthorized, wire.CodeAuth, "missing or invalid bearer token")
}

// writeStatementError maps an engine error that occurred before any rows
// streamed onto an HTTP status + wire code.
func writeStatementError(w http.ResponseWriter, err error) {
	we := wireError(err)
	status := http.StatusInternalServerError
	switch we.Code {
	case wire.CodeConflict, wire.CodeTxState:
		status = http.StatusConflict
	case wire.CodeTimeout:
		status = http.StatusGatewayTimeout
	case wire.CodeClosed, wire.CodeShutdown:
		status = http.StatusServiceUnavailable
	case wire.CodeBadRequest:
		status = http.StatusBadRequest
	}
	writeJSON(w, status, wire.Trailer{Error: we})
}

// wireError classifies an engine error for the wire.
func wireError(err error) *wire.Error {
	code := wire.CodeInternal
	switch {
	case errors.Is(err, pgfmu.ErrWriteConflict):
		code = wire.CodeConflict
	case errors.Is(err, pgfmu.ErrTxDone), errors.Is(err, pgfmu.ErrTxInProgress),
		errors.Is(err, pgfmu.ErrNoTx):
		code = wire.CodeTxState
	case errors.Is(err, pgfmu.ErrClosed):
		code = wire.CodeClosed
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		code = wire.CodeTimeout
	case errors.Is(err, pgfmu.ErrNoSuchTable),
		errors.Is(err, pgfmu.ErrNoSuchInstance),
		errors.Is(err, pgfmu.ErrNoSuchVariable),
		isParseError(err):
		code = wire.CodeBadRequest
	}
	return &wire.Error{Code: code, Message: err.Error()}
}

// isParseError sniffs tokenizer/parser failures (they have no sentinel);
// misclassifying one as internal would only change the HTTP status.
func isParseError(err error) bool {
	msg := err.Error()
	return strings.Contains(msg, "parse") || strings.Contains(msg, "unexpected") ||
		strings.Contains(msg, "syntax")
}
