// Package wire defines the JSON types of the pgfmu-server HTTP protocol —
// shared between internal/server (the handlers) and internal/server/client
// (the Go client used by cmd/pgfmu's remote mode and the load tester), so
// the two sides cannot drift.
//
// # Protocol
//
// Control endpoints exchange single JSON documents. Statement execution
// streams newline-delimited JSON (application/x-ndjson): the first line is
// a Header object carrying the column set, each following row is a plain
// JSON array of values, and the final line is a Trailer object carrying
// either the row count or the error that stopped the stream. Because rows
// are arrays and header/trailer are objects, a reader disambiguates on the
// first byte of each line. An answer under 2 KiB goes out in one write
// with a Content-Length; a larger one is chunked and flushed row-batch by
// row-batch, so a 100k-row SELECT never materializes server-side.
package wire

import (
	"fmt"
	"math"
)

// Column describes one result column.
type Column struct {
	Name string `json:"name"`
	Type string `json:"type"`
}

// NonFinite is the wire form of a float JSON has no literal for: "NaN",
// "Infinity" or "-Infinity"; ok is false for a finite f. The server sends a
// row value that way, and the client reads it back in a float column.
func NonFinite(f float64) (s string, ok bool) {
	switch {
	case math.IsNaN(f):
		return "NaN", true
	case math.IsInf(f, 1):
		return "Infinity", true
	case math.IsInf(f, -1):
		return "-Infinity", true
	}
	return "", false
}

// ParseNonFinite is NonFinite's inverse.
func ParseNonFinite(s string) (float64, bool) {
	switch s {
	case "NaN":
		return math.NaN(), true
	case "Infinity":
		return math.Inf(1), true
	case "-Infinity":
		return math.Inf(-1), true
	}
	return 0, false
}

// Header is the first line of a statement stream.
type Header struct {
	Columns []Column `json:"columns"`
}

// Trailer is the last line of a statement stream: exactly one of Done or
// Error is set.
type Trailer struct {
	Done  *Done  `json:"done,omitempty"`
	Error *Error `json:"error,omitempty"`
}

// Done reports a successfully finished statement.
type Done struct {
	// Rows is the number of row lines streamed before this trailer.
	Rows int `json:"rows"`
	// ElapsedMS is the server-side execution time in milliseconds.
	ElapsedMS float64 `json:"elapsed_ms"`
	// Phases says where the request's server time went.
	Phases *Phases `json:"phases,omitempty"`
}

// Phases is one statement request's server time by phase, in whole
// microseconds. The phases are disjoint. Decode, Session, Execute, Encode
// and Write are the server's; the rest are the engine's (sqldb.Trace).
// Write covers the flushes made before the trailer: the final write, which
// carries the trailer, cannot be in it, and a small answer makes no other.
type Phases struct {
	Decode  int64 `json:"decode,omitempty"`  // reading and decoding the request body
	Session int64 `json:"session,omitempty"` // finding the session and statement
	Parse   int64 `json:"parse,omitempty"`   // plan-cache lookup and parsing
	Cached  bool  `json:"cached,omitempty"`  // the statement skipped the parser
	Latch   int64 `json:"latch,omitempty"`   // waiting for the latches of the tables written
	Open    int64 `json:"open,omitempty"`    // planning and opening; DML does its work here
	Execute int64 `json:"execute,omitempty"` // producing rows
	WAL     int64 `json:"wal,omitempty"`     // appending the commit to the log
	Fsync   int64 `json:"fsync,omitempty"`   // waiting for the log's fsync
	Commit  int64 `json:"commit,omitempty"`  // the rest of the commit
	Encode  int64 `json:"encode,omitempty"`  // encoding rows into the response buffer
	Write   int64 `json:"write,omitempty"`   // flushing rows to the client
}

// Error is the wire form of a failure, both as a non-2xx response body and
// as a stream trailer. Code is machine-matchable (see the Code* constants);
// Message is the engine's error text.
type Error struct {
	Code    string `json:"code"`
	Message string `json:"message"`
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Code, e.Message) }

// Error codes. Clients retry CodeConflict (roll the transaction back and
// rerun it — first-updater-wins under snapshot isolation) and treat the
// rest as terminal for the statement.
const (
	CodeAuth       = "unauthorized"
	CodeBadRequest = "bad_request"
	CodeNoSession  = "no_such_session"
	CodeNoStmt     = "no_such_statement"
	CodeConflict   = "write_conflict"
	CodeTxState    = "tx_state"
	CodeTimeout    = "timeout"
	CodeLimit      = "session_limit"
	CodeClosed     = "closed"
	CodeShutdown   = "shutting_down"
	CodeInternal   = "internal"
)

// SessionResponse answers POST /v1/sessions.
type SessionResponse struct {
	ID string `json:"id"`
	// IdleTimeoutSec is the server's idle-reap horizon; a client silent for
	// longer must expect the session to be gone.
	IdleTimeoutSec float64 `json:"idle_timeout_sec"`
	Version        string  `json:"version"`
}

// QueryRequest is the body of every statement-execution POST.
type QueryRequest struct {
	SQL string `json:"sql,omitempty"`
	// Args bind $1, $2, ... placeholders.
	Args []any `json:"args,omitempty"`
}

// PrepareResponse answers POST /v1/sessions/{id}/prepare.
type PrepareResponse struct {
	ID string `json:"id"`
}

// Health answers GET /healthz.
type Health struct {
	Status    string  `json:"status"`
	Version   string  `json:"version"`
	UptimeSec float64 `json:"uptime_sec"`
	Durable   bool    `json:"durable"`
}

// Stats answers GET /stats.
type Stats struct {
	Sessions        int     `json:"sessions"`
	ActiveTxns      int     `json:"active_txns"`
	Requests        uint64  `json:"requests"`
	RowsStreamed    uint64  `json:"rows_streamed"`
	StatementsRun   uint64  `json:"statements_run"`
	SessionsCreated uint64  `json:"sessions_created"`
	SessionsReaped  uint64  `json:"sessions_reaped"`
	UptimeSec       float64 `json:"uptime_sec"`
	Version         string  `json:"version"`

	Engine EngineStats `json:"engine"`
	Jobs   JobStats    `json:"jobs"`
	Cache  CacheStats  `json:"sim_cache"`
}

// JobStats mirrors the async job subsystem's counters on the wire.
type JobStats struct {
	Workers   int    `json:"workers"`
	Submitted uint64 `json:"submitted"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Cancelled uint64 `json:"cancelled"`
	Running   int    `json:"running"`
}

// CacheStats mirrors the simulation result cache counters on the wire.
type CacheStats struct {
	Entries       int     `json:"entries"`
	Capacity      int     `json:"capacity"`
	Hits          uint64  `json:"hits"`
	Misses        uint64  `json:"misses"`
	Evictions     uint64  `json:"evictions"`
	Invalidations uint64  `json:"invalidations"`
	HitRate       float64 `json:"hit_rate"`
}

// EngineStats mirrors sqldb.EngineStats on the wire.
type EngineStats struct {
	Tables        int    `json:"tables"`
	Commits       uint64 `json:"commits"`
	Checkpoints   uint64 `json:"checkpoints"`
	WALRecords    uint64 `json:"wal_records"`
	WALGeneration int    `json:"wal_generation"`
	ActiveTxns    int    `json:"active_txns"`
	Durable       bool   `json:"durable"`
}

// TablesResponse answers GET /v1/tables.
type TablesResponse struct {
	Tables []string `json:"tables"`
}
