package server

// How a statement's answer is framed on the wire, read with a raw HTTP
// client so the headers are visible: an answer under net/http's 2 KiB
// pre-chunking buffer leaves in one write with a Content-Length, a larger
// one streams chunked with every row and its trailer, and an error met
// mid-stream rides the trailer of a 200 answer. Also the phases every
// trailer carries, and the served point read's cost.

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"reflect"
	"strings"
	"testing"

	pgfmu "repro"
	"repro/internal/server/client"
	"repro/internal/server/wire"
)

// rawQuery posts one sessionless statement and returns the response and its
// ndjson lines.
func rawQuery(t *testing.T, srv *Server, sql string) (*http.Response, []string) {
	t.Helper()
	body, _ := json.Marshal(wire.QueryRequest{SQL: sql})
	resp, err := http.Post("http://"+srv.Addr().String()+"/v1/query", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var lines []string
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		lines = append(lines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return resp, lines
}

func trailerOf(t *testing.T, lines []string) wire.Trailer {
	t.Helper()
	if len(lines) < 2 {
		t.Fatalf("stream has %d lines, want a header and a trailer", len(lines))
	}
	var tr wire.Trailer
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &tr); err != nil {
		t.Fatalf("trailer %q: %v", lines[len(lines)-1], err)
	}
	return tr
}

func TestFramingSmallAnswerIsOneWrite(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	resp, lines := rawQuery(t, srv, `SELECT 1 AS one, 'x' AS tag`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if len(resp.TransferEncoding) != 0 || resp.ContentLength <= 0 {
		t.Fatalf("one-row answer framed with Transfer-Encoding %v, Content-Length %d; want a Content-Length and no chunking",
			resp.TransferEncoding, resp.ContentLength)
	}
	if len(lines) != 3 || lines[1] != `[1,"x"]` {
		t.Fatalf("lines = %q", lines)
	}
	if tr := trailerOf(t, lines); tr.Done == nil || tr.Done.Rows != 1 || tr.Done.Phases == nil {
		t.Fatalf("trailer = %+v", tr)
	}
}

func TestFramingLargeAnswerIsChunked(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	resp, lines := rawQuery(t, srv, `SELECT x FROM generate_series(1, 1000) AS g(x)`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if !reflect.DeepEqual(resp.TransferEncoding, []string{"chunked"}) {
		t.Fatalf("1000-row answer has Transfer-Encoding %v, want chunked", resp.TransferEncoding)
	}
	if len(lines) != 1002 {
		t.Fatalf("%d lines, want header + 1000 rows + trailer", len(lines))
	}
	for i, l := range lines[1:1001] {
		var row []int
		if err := json.Unmarshal([]byte(l), &row); err != nil || len(row) != 1 || row[0] != i+1 {
			t.Fatalf("row %d = %q (%v)", i+1, l, err)
		}
	}
	if tr := trailerOf(t, lines); tr.Done == nil || tr.Done.Rows != 1000 {
		t.Fatalf("trailer = %+v", tr)
	}
}

func TestFramingMidStreamErrorRidesTrailer(t *testing.T) {
	srv, _ := newTestServer(t, Config{})
	resp, lines := rawQuery(t, srv, `SELECT x, 10 / (x - 900) FROM generate_series(1, 1000) AS g(x)`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200 with the error in the trailer", resp.StatusCode)
	}
	tr := trailerOf(t, lines)
	if tr.Error == nil || tr.Done != nil || !strings.Contains(tr.Error.Message, "division by zero") {
		t.Fatalf("trailer = %+v, want the division-by-zero error", tr)
	}
	if rows := len(lines) - 2; rows < flushEvery {
		t.Fatalf("%d rows before the error, want the flushed batches before row 900", rows)
	}
}

// phasesOf runs sql in sess and returns its trailer's phases.
func phasesOf(t *testing.T, sess *client.Session, sql string, args ...any) *wire.Phases {
	t.Helper()
	rows, err := sess.Query(context.Background(), sql, args...)
	if err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	if _, err := rows.Drain(); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
	if rows.Done() == nil || rows.Done().Phases == nil {
		t.Fatalf("%s: trailer has no phases", sql)
	}
	p := rows.Done().Phases
	v := reflect.ValueOf(*p)
	for i := 0; i < v.NumField(); i++ {
		if f := v.Field(i); f.Kind() == reflect.Int64 && f.Int() < 0 {
			t.Fatalf("%s: phase %s = %d", sql, v.Type().Field(i).Name, f.Int())
		}
	}
	return p
}

func TestPhasesInTrailer(t *testing.T) {
	for _, durable := range []bool{false, true} {
		name := "mem"
		if durable {
			name = "durable"
		}
		t.Run(name, func(t *testing.T) {
			dir := ""
			if durable {
				dir = t.TempDir()
			}
			_, c := newTestServerAt(t, dir, Config{})
			sess, err := c.NewSession(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			phasesOf(t, sess, `CREATE TABLE kv (k integer, v float)`)
			ins := phasesOf(t, sess, `INSERT INTO kv VALUES ($1, $2)`, 1, 0.5)
			if durable != (ins.Fsync > 0) {
				t.Fatalf("insert fsync wait %d µs on a durable=%v database", ins.Fsync, durable)
			}
			phasesOf(t, sess, `SELECT v FROM kv WHERE k = $1`, 1)
			if read := phasesOf(t, sess, `SELECT v FROM kv WHERE k = $1`, 1); !read.Cached {
				t.Fatal("a repeated read missed the plan cache")
			}
			phasesOf(t, sess, `BEGIN`)
			phasesOf(t, sess, `INSERT INTO kv VALUES (2, 1.5)`)
			if commit := phasesOf(t, sess, `COMMIT`); durable != (commit.Fsync > 0) {
				t.Fatalf("COMMIT fsync wait %d µs on a durable=%v database", commit.Fsync, durable)
			}
		})
	}
}

// BenchmarkServedPointRead is a prepared point read over loopback through
// the Go client: the served request's whole cost, framing included.
func BenchmarkServedPointRead(b *testing.B) {
	db, err := pgfmu.Open("")
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE kv (k integer, v float)`); err != nil {
		b.Fatal(err)
	}
	for k := 0; k < 1000; k++ {
		if _, err := db.Exec(`INSERT INTO kv VALUES ($1, $2)`, k, float64(k)/2); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := db.Exec(`CREATE INDEX kv_k ON kv (k)`); err != nil {
		b.Fatal(err)
	}
	srv := New(db, Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))})
	addr, err := srv.Listen()
	if err != nil {
		b.Fatal(err)
	}
	go srv.Serve()
	defer srv.Shutdown(context.Background())
	ctx := context.Background()
	sess, err := client.New("http://"+addr.String(), "").NewSession(ctx)
	if err != nil {
		b.Fatal(err)
	}
	st, err := sess.Prepare(ctx, `SELECT v FROM kv WHERE k = $1`)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n, err := st.Exec(ctx, i%1000); err != nil || n != 1 {
			b.Fatalf("point read: %d rows, %v", n, err)
		}
	}
}
