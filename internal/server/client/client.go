// Package client is the Go client for pgfmu-server's HTTP/JSON protocol
// (see internal/server and internal/server/wire). It is shared by the
// cmd/pgfmu shell's --url remote mode and the cmd/pgfmu-loadtest harness:
// session lifecycle, statement execution with streamed row iteration,
// transactions via BEGIN/COMMIT/ROLLBACK, and server-side prepared
// statements.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"

	"repro/internal/server/wire"
)

// Client talks to one pgfmu-server. Safe for concurrent use; each Session
// is one logical connection (use one per goroutine).
type Client struct {
	base  string
	token string
	http  *http.Client
}

// New returns a client for the server at baseURL (e.g.
// "http://127.0.0.1:8080"). token is the bearer token; empty sends none.
func New(baseURL, token string) *Client {
	return &Client{
		base:  strings.TrimRight(baseURL, "/"),
		token: token,
		http:  &http.Client{}, // per-request contexts bound by callers
	}
}

func (c *Client) req(ctx context.Context, method, path string, body any) (*http.Request, error) {
	var rd io.Reader
	if body != nil {
		buf, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(buf)
	}
	r, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		r.Header.Set("Content-Type", "application/json")
	}
	if c.token != "" {
		r.Header.Set("Authorization", "Bearer "+c.token)
	}
	return r, nil
}

// doJSON runs a request expecting a single JSON document back.
func (c *Client) doJSON(ctx context.Context, method, path string, body, out any) error {
	r, err := c.req(ctx, method, path, body)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(r)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		return decodeError(resp)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// decodeError turns a non-2xx response into a *wire.Error.
func decodeError(resp *http.Response) error {
	var t wire.Trailer
	if err := json.NewDecoder(resp.Body).Decode(&t); err == nil && t.Error != nil {
		return t.Error
	}
	return fmt.Errorf("server returned %s", resp.Status)
}

// Health fetches /healthz.
func (c *Client) Health(ctx context.Context) (wire.Health, error) {
	var h wire.Health
	err := c.doJSON(ctx, http.MethodGet, "/healthz", nil, &h)
	return h, err
}

// Stats fetches /stats.
func (c *Client) Stats(ctx context.Context) (wire.Stats, error) {
	var s wire.Stats
	err := c.doJSON(ctx, http.MethodGet, "/stats", nil, &s)
	return s, err
}

// Tables fetches the table list.
func (c *Client) Tables(ctx context.Context) ([]string, error) {
	var t wire.TablesResponse
	err := c.doJSON(ctx, http.MethodGet, "/v1/tables", nil, &t)
	return t.Tables, err
}

// Query runs one sessionless statement (POST /v1/query).
func (c *Client) Query(ctx context.Context, sql string, args ...any) (*Rows, error) {
	return c.stream(ctx, "/v1/query", sql, args)
}

// NewSession creates a server-side session.
func (c *Client) NewSession(ctx context.Context) (*Session, error) {
	var sr wire.SessionResponse
	if err := c.doJSON(ctx, http.MethodPost, "/v1/sessions", nil, &sr); err != nil {
		return nil, err
	}
	return &Session{c: c, ID: sr.ID, Server: sr}, nil
}

func (c *Client) stream(ctx context.Context, path, sql string, args []any) (*Rows, error) {
	r, err := c.req(ctx, http.MethodPost, path, wire.QueryRequest{SQL: sql, Args: wireArgs(args)})
	if err != nil {
		return nil, err
	}
	resp, err := c.http.Do(r)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode >= 300 {
		defer resp.Body.Close()
		return nil, decodeError(resp)
	}
	rows := &Rows{body: resp.Body}
	rows.sc = bufio.NewScanner(resp.Body)
	rows.sc.Buffer(make([]byte, 4*1024), 16*1024*1024)
	if err := rows.readHeader(); err != nil {
		resp.Body.Close()
		return nil, err
	}
	return rows, nil
}

// wireArgs returns args with each NaN or ±Inf float, which JSON has no
// literal for, replaced by wire.NonFinite's string. The engine coerces that
// text where a float column takes it (INSERT, UPDATE); elsewhere the
// statement casts it (`$1::float`). The caller's slice is not modified.
func wireArgs(args []any) []any {
	var out []any
	for i, a := range args {
		var f float64
		switch v := a.(type) {
		case float64:
			f = v
		case float32:
			f = float64(v)
		default:
			continue
		}
		if s, ok := wire.NonFinite(f); ok {
			if out == nil {
				out = append([]any(nil), args...)
			}
			out[i] = s
		}
	}
	if out == nil {
		return args
	}
	return out
}

// Session is one server-side session: statements run one at a time, and
// BEGIN/COMMIT/ROLLBACK bracket a server-held transaction.
type Session struct {
	c      *Client
	ID     string
	Server wire.SessionResponse
}

// Query runs a statement in the session, streaming rows.
func (s *Session) Query(ctx context.Context, sql string, args ...any) (*Rows, error) {
	return s.c.stream(ctx, "/v1/sessions/"+s.ID+"/query", sql, args)
}

// Exec runs a statement and drains it, returning the row count from the
// server's trailer.
func (s *Session) Exec(ctx context.Context, sql string, args ...any) (int, error) {
	rows, err := s.Query(ctx, sql, args...)
	if err != nil {
		return 0, err
	}
	return rows.Drain()
}

// Prepare creates a server-side prepared statement.
func (s *Session) Prepare(ctx context.Context, sql string) (*Stmt, error) {
	var pr wire.PrepareResponse
	err := s.c.doJSON(ctx, http.MethodPost, "/v1/sessions/"+s.ID+"/prepare",
		wire.QueryRequest{SQL: sql}, &pr)
	if err != nil {
		return nil, err
	}
	return &Stmt{s: s, ID: pr.ID}, nil
}

// Close tears the session down server-side (an open transaction rolls
// back).
func (s *Session) Close(ctx context.Context) error {
	return s.c.doJSON(ctx, http.MethodDelete, "/v1/sessions/"+s.ID, nil, nil)
}

// Stmt is a handle on a server-side prepared statement.
type Stmt struct {
	s  *Session
	ID string
}

// Query executes the prepared statement with bound args.
func (st *Stmt) Query(ctx context.Context, args ...any) (*Rows, error) {
	return st.s.c.stream(ctx, "/v1/sessions/"+st.s.ID+"/statements/"+st.ID+"/query", "", args)
}

// Exec executes and drains the prepared statement.
func (st *Stmt) Exec(ctx context.Context, args ...any) (int, error) {
	rows, err := st.Query(ctx, args...)
	if err != nil {
		return 0, err
	}
	return rows.Drain()
}

// Close releases the server-side handle.
func (st *Stmt) Close(ctx context.Context) error {
	return st.s.c.doJSON(ctx, http.MethodDelete,
		"/v1/sessions/"+st.s.ID+"/statements/"+st.ID, nil, nil)
}

// Rows iterates a streamed result. The protocol guarantees a trailer: a
// stream that ends without one (server died mid-response) surfaces an
// error, so truncated results are never mistaken for complete ones.
type Rows struct {
	body    io.ReadCloser
	sc      *bufio.Scanner
	columns []wire.Column
	cur     []any
	done    *wire.Done
	err     error
	closed  bool
}

// Columns returns the result's column set (may be empty for commands).
func (r *Rows) Columns() []wire.Column { return r.columns }

func (r *Rows) readHeader() error {
	if !r.sc.Scan() {
		if err := r.sc.Err(); err != nil {
			return err
		}
		return fmt.Errorf("client: stream ended before header")
	}
	var h wire.Header
	if err := json.Unmarshal(r.sc.Bytes(), &h); err != nil {
		return fmt.Errorf("client: decoding stream header: %w", err)
	}
	r.columns = h.Columns
	return nil
}

// Next advances to the next row; false at end of stream or error (check
// Err).
func (r *Rows) Next() bool {
	if r.err != nil || r.done != nil || r.closed {
		return false
	}
	if !r.sc.Scan() {
		if err := r.sc.Err(); err != nil {
			r.err = err
		} else {
			r.err = fmt.Errorf("client: stream ended without trailer (response truncated)")
		}
		return false
	}
	line := r.sc.Bytes()
	if len(line) > 0 && line[0] == '[' {
		var row []any
		if err := json.Unmarshal(line, &row); err != nil {
			r.err = fmt.Errorf("client: decoding row: %w", err)
			return false
		}
		for i, v := range row {
			if s, ok := v.(string); ok && i < len(r.columns) && r.columns[i].Type == "float" {
				if f, ok := wire.ParseNonFinite(s); ok {
					row[i] = f
				}
			}
		}
		r.cur = row
		return true
	}
	var t wire.Trailer
	if err := json.Unmarshal(line, &t); err != nil {
		r.err = fmt.Errorf("client: decoding trailer: %w", err)
		return false
	}
	if t.Error != nil {
		r.err = t.Error
		return false
	}
	r.done = t.Done
	return false
}

// Row returns the current row (valid after a true Next).
func (r *Rows) Row() []any { return r.cur }

// Err reports the error that stopped iteration, if any.
func (r *Rows) Err() error { return r.err }

// Done returns the server trailer (non-nil only after a clean end).
func (r *Rows) Done() *wire.Done { return r.done }

// Drain consumes the remaining rows and closes, returning the server-side
// row count from the trailer.
func (r *Rows) Drain() (int, error) {
	n := 0
	for r.Next() {
		n++
	}
	done := r.done
	err := r.err
	r.Close()
	if err != nil {
		return n, err
	}
	if done != nil {
		return done.Rows, nil
	}
	return n, nil
}

// Close releases the underlying response body; safe to call twice.
func (r *Rows) Close() error {
	if r.closed {
		return nil
	}
	r.closed = true
	io.Copy(io.Discard, r.body)
	return r.body.Close()
}
