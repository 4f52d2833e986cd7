// Command pgfmu is an interactive SQL shell over a pgFMU database: the
// embedded engine with the model catalogue, the fmu_* UDF suite, and the
// MADlib-equivalent ML UDFs installed — or, with -url, a remote
// pgfmu-server reached over HTTP.
//
//	$ pgfmu                                  # volatile in-memory database
//	$ pgfmu /data/dir                        # crash-safe durable database
//	$ pgfmu -url http://127.0.0.1:8080       # remote pgfmu-server session
//	pgfmu> SELECT fmu_create('/tmp/hp1.fmu', 'HP1Instance1');
//	pgfmu> SELECT * FROM fmu_variables('HP1Instance1');
//
// Statements end with ';' and may span lines. Locally, statements run
// through the engine's prepared/streaming API; remotely they stream over
// chunked JSON — either way results print incrementally, so a large
// fmu_simulate never materializes in shell memory.
//
// Meta-commands:
//
//	\q          quit
//	\d          list tables
//	\timing     toggle per-statement timing (local: parse / plan / execute
//	            phases plus the executor that ran — vectorized or
//	            operators; remote: the server's time, the round trip, and
//	            the server's non-zero phases from the stream trailer)
//	\explain Q  show the physical plan for statement Q (shorthand for EXPLAIN Q)
//	\i FILE     execute statements from FILE
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	pgfmu "repro"
	"repro/internal/server/client"
	"repro/internal/server/wire"
)

func main() {
	var (
		url   = flag.String("url", "", "remote pgfmu-server base URL (default: embedded engine)")
		token = flag.String("token", os.Getenv("PGFMU_AUTH_TOKEN"), "bearer token for -url mode")
	)
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: pgfmu [-url URL [-token T]] [dir]")
		flag.PrintDefaults()
	}
	flag.Parse()
	args := flag.Args()
	if len(args) > 1 || (*url != "" && len(args) > 0) {
		flag.Usage()
		os.Exit(2)
	}

	sh := &shell{out: os.Stdout}
	var mode string
	if *url != "" {
		c := client.New(*url, *token)
		sess, err := c.NewSession(context.Background())
		if err != nil {
			fmt.Fprintf(os.Stderr, "pgfmu: connecting to %s: %v\n", *url, err)
			os.Exit(1)
		}
		defer sess.Close(context.Background())
		sh.rc, sh.remote = c, sess
		mode = fmt.Sprintf("remote %s, server %s", *url, sess.Server.Version)
	} else {
		path := ""
		if len(args) == 1 {
			path = args[0]
		}
		db, err := pgfmu.Open(path)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pgfmu: %v\n", err)
			os.Exit(1)
		}
		defer db.Close()
		sh.db = db
		mode = "in-memory"
		if path != "" && path != ":memory:" {
			mode = "durable at " + path
		}
	}

	fmt.Printf("pgFMU shell (%s) — FMU model management over SQL. \\q quits, \\d lists tables, \\timing toggles timing, \\explain shows plans, \\jobs shows async jobs, \\i runs a file.\n", mode)
	sh.run(os.Stdin, true)
}

// shell drives statement accumulation and execution; interactive and \i
// file input share the same loop. Exactly one of db (embedded) or remote
// (HTTP session) is set.
type shell struct {
	db     *pgfmu.DB
	rc     *client.Client
	remote *client.Session
	out    io.Writer
	timing bool
	// depth guards against recursive \i include loops.
	depth int
}

func (sh *shell) run(in io.Reader, interactive bool) {
	scanner := bufio.NewScanner(in)
	scanner.Buffer(make([]byte, 1024*1024), 1024*1024)
	var pending strings.Builder

	prompt := func() {
		if !interactive {
			return
		}
		if pending.Len() == 0 {
			fmt.Fprint(sh.out, "pgfmu> ")
		} else {
			fmt.Fprint(sh.out, "  ...> ")
		}
	}
	prompt()
	for scanner.Scan() {
		line := scanner.Text()
		trimmed := strings.TrimSpace(line)
		if pending.Len() == 0 && strings.HasPrefix(trimmed, `\`) {
			if sh.meta(trimmed) {
				return
			}
			prompt()
			continue
		}
		pending.WriteString(line)
		pending.WriteString("\n")
		if strings.HasSuffix(trimmed, ";") {
			sql := pending.String()
			pending.Reset()
			sh.exec(sql)
		}
		prompt()
	}
}

// meta handles a backslash command; true means quit.
func (sh *shell) meta(cmd string) bool {
	name, arg, _ := strings.Cut(cmd, " ")
	switch name {
	case `\q`, `\quit`:
		return true
	case `\d`:
		var names []string
		if sh.remote != nil {
			var err error
			names, err = sh.rc.Tables(context.Background())
			if err != nil {
				fmt.Fprintf(sh.out, "error: %v\n", err)
				break
			}
		} else {
			names = sh.db.SQL().TableNames()
		}
		for _, n := range names {
			fmt.Fprintln(sh.out, n)
		}
	case `\timing`:
		sh.timing = !sh.timing
		if !sh.timing {
			fmt.Fprintln(sh.out, "Timing is off.")
		} else if sh.remote != nil {
			fmt.Fprintln(sh.out, "Timing is on (server / round trip, server phases).")
		} else {
			fmt.Fprintln(sh.out, "Timing is on (parse / plan / execute).")
		}
	case `\jobs`:
		// Async job queue: state/progress of fmu_submit/fmu_sweep work.
		sh.exec(`SELECT * FROM fmu_jobs()`)
	case `\explain`:
		arg = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(arg), ";"))
		if arg == "" {
			fmt.Fprintln(sh.out, `\explain: missing statement argument`)
			break
		}
		sh.explain(arg)
	case `\i`:
		arg = strings.TrimSpace(arg)
		if arg == "" {
			fmt.Fprintln(sh.out, `\i: missing file argument`)
			break
		}
		if sh.depth >= 8 {
			fmt.Fprintln(sh.out, `\i: include depth exceeded`)
			break
		}
		f, err := os.Open(arg)
		if err != nil {
			fmt.Fprintf(sh.out, "\\i: %v\n", err)
			break
		}
		sh.depth++
		sh.run(f, false)
		sh.depth--
		f.Close()
	default:
		fmt.Fprintf(sh.out, "unknown command %s\n", name)
	}
	return false
}

// explain prints the physical plan for one statement, unboxed.
func (sh *shell) explain(sql string) {
	it, err := sh.query("EXPLAIN " + sql)
	if err != nil {
		fmt.Fprintf(sh.out, "error: %v\n", err)
		return
	}
	defer it.Close()
	for it.Next() {
		cells := it.Cells()
		if len(cells) > 0 {
			fmt.Fprintln(sh.out, cells[0])
		}
	}
	if err := it.Err(); err != nil {
		fmt.Fprintf(sh.out, "error: %v\n", err)
	}
}

// tableIter is the printable-result contract both backends satisfy: column
// names up front, then rows rendered as strings, streamed.
type tableIter interface {
	Columns() []string
	Next() bool
	Cells() []string
	Err() error
	Close() error
}

// query runs one statement on whichever backend is attached.
func (sh *shell) query(sql string) (tableIter, error) {
	if sh.remote != nil {
		rows, err := sh.remote.Query(context.Background(), sql)
		if err != nil {
			return nil, err
		}
		return &remoteIter{rows: rows}, nil
	}
	it, err := sh.db.QueryRows(sql)
	if err != nil {
		return nil, err
	}
	return &localIter{it: it}, nil
}

// exec runs one statement, streaming the printed result. Locally the three
// phases (parse / plan / execute) are timed separately; remotely the
// server reports its time and phases in the stream trailer and the shell
// adds the observed round trip.
func (sh *shell) exec(sql string) {
	sql = strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(sql), ";"))
	if sql == "" {
		return
	}
	if sh.remote != nil {
		sh.execRemote(sql)
		return
	}
	start := time.Now()
	// Prepare + streaming execution: the plan lands in (or comes from) the
	// engine's plan cache, and rows print incrementally as they are pulled.
	stmt, err := sh.db.Prepare(sql)
	if err != nil {
		fmt.Fprintf(sh.out, "error: %v\n", err)
		return
	}
	defer stmt.Close()
	parsed := time.Now()
	if err := stmt.Plan(); err != nil {
		fmt.Fprintf(sh.out, "error: %v\n", err)
		return
	}
	planned := time.Now()
	it, err := stmt.QueryRows()
	if err != nil {
		fmt.Fprintf(sh.out, "error: %v\n", err)
		return
	}
	if err := sh.printStream(&localIter{it: it}); err != nil {
		fmt.Fprintf(sh.out, "error: %v\n", err)
		return
	}
	if sh.timing {
		done := time.Now()
		exec := ""
		if kind, err := stmt.ExecutorKind(); err == nil && kind != "" {
			exec = fmt.Sprintf(" [executor: %s]", kind)
		}
		fmt.Fprintf(sh.out, "Time: parse %.3f ms, plan %.3f ms, execute %.3f ms (total %.3f ms)%s\n",
			ms(parsed.Sub(start)), ms(planned.Sub(parsed)), ms(done.Sub(planned)), ms(done.Sub(start)), exec)
	}
}

func (sh *shell) execRemote(sql string) {
	start := time.Now()
	rows, err := sh.remote.Query(context.Background(), sql)
	if err != nil {
		fmt.Fprintf(sh.out, "error: %v\n", err)
		return
	}
	ri := &remoteIter{rows: rows}
	if err := sh.printStream(ri); err != nil {
		fmt.Fprintf(sh.out, "error: %v\n", err)
		return
	}
	if sh.timing {
		rt := ms(time.Since(start))
		d := rows.Done()
		if d == nil {
			fmt.Fprintf(sh.out, "Time: round trip %.3f ms\n", rt)
			return
		}
		fmt.Fprintf(sh.out, "Time: server %.3f ms, round trip %.3f ms\n", d.ElapsedMS, rt)
		if p := d.Phases; p != nil {
			fmt.Fprintf(sh.out, "Phases (µs):%s\n", phaseList(p))
		}
	}
}

// phaseList renders a trailer's non-zero phases in the order a request
// passes through them, plus whether the statement skipped the parser.
func phaseList(p *wire.Phases) string {
	var b strings.Builder
	for _, ph := range []struct {
		name string
		us   int64
	}{
		{"decode", p.Decode}, {"session", p.Session}, {"parse", p.Parse},
		{"latch", p.Latch}, {"open", p.Open},
		{"execute", p.Execute}, {"wal", p.WAL}, {"fsync", p.Fsync},
		{"commit", p.Commit}, {"encode", p.Encode}, {"write", p.Write},
	} {
		if ph.us > 0 {
			fmt.Fprintf(&b, " %s %d", ph.name, ph.us)
		}
	}
	if p.Cached {
		b.WriteString(" (plan cached)")
	}
	return b.String()
}

func ms(d time.Duration) float64 { return float64(d.Microseconds()) / 1000 }

// localIter adapts the embedded engine's RowIter.
type localIter struct {
	it *pgfmu.RowIter
}

func (l *localIter) Columns() []string {
	cols := l.it.Columns()
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = c.Name
	}
	return names
}

func (l *localIter) Next() bool { return l.it.Next() }

func (l *localIter) Cells() []string {
	row := l.it.Row()
	cells := make([]string, len(row))
	for i, v := range row {
		cells[i] = v.String()
	}
	return cells
}

func (l *localIter) Err() error   { return l.it.Err() }
func (l *localIter) Close() error { return l.it.Close() }

// remoteIter adapts the HTTP client's streamed rows.
type remoteIter struct {
	rows *client.Rows
}

func (r *remoteIter) Columns() []string {
	cols := r.rows.Columns()
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = c.Name
	}
	return names
}

func (r *remoteIter) Next() bool { return r.rows.Next() }

func (r *remoteIter) Cells() []string {
	row := r.rows.Row()
	cells := make([]string, len(row))
	for i, v := range row {
		cells[i] = renderJSON(v)
	}
	return cells
}

func (r *remoteIter) Err() error   { return r.rows.Err() }
func (r *remoteIter) Close() error { return r.rows.Close() }

// renderJSON prints a JSON-decoded cell the way the local shell prints the
// equivalent engine value.
func renderJSON(v any) string {
	switch x := v.(type) {
	case nil:
		return "NULL"
	case float64:
		if x == float64(int64(x)) {
			return fmt.Sprintf("%d", int64(x))
		}
		return fmt.Sprintf("%g", x)
	case bool:
		if x {
			return "true"
		}
		return "false"
	case string:
		return x
	default:
		return fmt.Sprintf("%v", x)
	}
}

// printStream renders a result incrementally: the first rows (up to a small
// sample) size the columns, then everything streams. Large results never
// materialize in shell memory.
func (sh *shell) printStream(it tableIter) error {
	defer it.Close()
	headers := it.Columns()
	if len(headers) == 0 {
		// Command with no result shape; drain so the remote trailer (and
		// any error riding it) is observed.
		for it.Next() {
		}
		if err := it.Err(); err != nil {
			return err
		}
		fmt.Fprintln(sh.out, "ok")
		return nil
	}

	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}

	// Sample rows to settle column widths before printing anything.
	const sample = 100
	var buffered [][]string
	total := 0
	for total < sample && it.Next() {
		cells := it.Cells()
		padded := make([]string, len(headers))
		for ci := range headers {
			if ci < len(cells) {
				padded[ci] = cells[ci]
			}
			if len(padded[ci]) > widths[ci] {
				widths[ci] = len(padded[ci])
			}
		}
		buffered = append(buffered, padded)
		total++
	}
	if err := it.Err(); err != nil {
		return err
	}

	writeRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			pad := widths[i] - len(c)
			if pad < 0 {
				pad = 0
			}
			parts[i] = c + strings.Repeat(" ", pad)
		}
		fmt.Fprintln(sh.out, " "+strings.Join(parts, " | "))
	}
	writeRow(headers)
	lineWidth := 1
	for _, w := range widths {
		lineWidth += w + 3
	}
	fmt.Fprintln(sh.out, strings.Repeat("-", lineWidth))
	for _, cells := range buffered {
		writeRow(cells)
	}
	// Stream the rest.
	for it.Next() {
		cells := it.Cells()
		padded := make([]string, len(headers))
		for ci := range headers {
			if ci < len(cells) {
				padded[ci] = cells[ci]
			}
		}
		writeRow(padded)
		total++
	}
	if err := it.Err(); err != nil {
		return err
	}
	fmt.Fprintf(sh.out, "(%d rows)\n", total)
	return nil
}
