package sqldb

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/variant"
)

// Random multi-connection histories, checked as Elle checks them (Kingsbury
// & Alvaro, VLDB 2020; Adya, Liskov & O'Neil, ICDE 2000). Every key of table
// h holds a list, and transactions append unique elements to it, so every
// read reveals the version order of its key and no commit timestamps are
// needed. A seeded generator drives 2–4 Conns on goroutines through BEGIN,
// appends (as UPDATE, and through a registered writing function), reads of
// key sets, COMMIT and ROLLBACK, index DDL on h, table DDL on a small pool
// of one-row tables, and Checkpoint and Vacuum of the durable database.
// The checks:
//   - every read sees exactly one row per key it asks for;
//   - no read sees an aborted append, or one whose commit had not been
//     called when the read returned;
//   - a transaction's reads come from one snapshot, plus its own appends,
//     which end each list it reads in the order it made them;
//   - every committed append is in its key's final list and no aborted one
//     is: with list append, a lost update is two overlapping transactions
//     both committing an append to one key, so this is first-updater-wins;
//   - the write/read dependency graph is acyclic, and no cycle closes
//     through a single anti-dependency (G0, G1c, G-single);
//   - a pool table a read finds holds exactly its creator's row, and the
//     creator committed;
//   - the committed state survives Close and reopen.

// histKeys is the number of list keys; histPool the number of pool tables.
const (
	histKeys = 6
	histPool = 2
)

type histWrite struct {
	key  int
	elem string
}

type histRead struct {
	keys    []int
	lists   map[int][]string
	done    int64 // logical time the read returned
	nwrites int   // how many of its transaction's appends came before it
	// what a read of a pool table found: exists, and its rows
	pool       string
	poolExists bool
	poolRows   []string
}

type histTxn struct {
	conn      int
	writes    []histWrite
	reads     []histRead
	creates   []string // pool-table creation elements
	commitAt  int64    // logical time COMMIT (or the lone statement) was called
	committed bool
	sql       []string
}

func (x *histTxn) String() string {
	state := "aborted"
	if x.committed {
		state = "committed"
	}
	return fmt.Sprintf("conn %d, %s: %s", x.conn, state, strings.Join(x.sql, "; "))
}

type histRun struct {
	t     *testing.T
	db    *DB
	seed  int64
	iters int
	clock atomic.Int64

	mu       sync.Mutex
	txns     []*histTxn
	failures int
	stop     atomic.Bool
}

// fail reports a violation seen while the history runs and stops the
// workers: one fault tends to compound (a duplicated row doubles at each
// later append), so the first few reports are the useful ones.
func (h *histRun) fail(format string, args ...any) {
	h.stop.Store(true)
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.failures++; h.failures <= 10 {
		h.t.Errorf(format, args...)
	}
}

func (h *histRun) tick() int64 { return h.clock.Add(1) }

// TestRandomHistories runs the generator on fixed seeds and checks each
// history.
func TestRandomHistories(t *testing.T) {
	for _, tc := range []struct {
		seed  int64
		conns int
	}{{1, 2}, {2, 3}, {3, 4}, {4, 3}, {5, 2}, {6, 4}} {
		t.Run(fmt.Sprintf("seed%d_conns%d", tc.seed, tc.conns), func(t *testing.T) {
			runHistory(t, tc.seed, tc.conns, 400)
		})
	}
}

// registerHistAppend registers hist_append(key, elem), a writing function
// that appends elem and then elem+"+" to key's list, in two statements
// through its statement's transaction (the second must see the first), and
// returns how many rows they changed. It registers h, which its statement
// latches before its snapshot.
func registerHistAppend(db *DB) {
	db.RegisterScalar("hist_append", func(ctx context.Context, tx *Tx, args []variant.Value) (variant.Value, error) {
		total := 0
		for _, suffix := range []string{"", "+"} {
			n, err := tx.ExecContext(ctx, `UPDATE h SET v = v || $1 WHERE k = $2`, " "+args[1].AsText()+suffix, args[0])
			if err != nil {
				return variant.Value{}, err
			}
			total += n
		}
		return variant.NewInt(int64(total)), nil
	}, false, "h")
}

func runHistory(t *testing.T, seed int64, conns, iters int) {
	dir := t.TempDir()
	db := New()
	if err := db.EnableDurability(dir, DurabilityOptions{CheckpointEvery: 256}); err != nil {
		t.Fatal(err)
	}
	registerHistAppend(db)
	mustExec(t, db, `CREATE TABLE h (k integer, v text)`)
	for k := 0; k < histKeys; k++ {
		mustExec(t, db, `INSERT INTO h VALUES ($1, '')`, k)
	}
	h := &histRun{t: t, db: db, seed: seed, iters: iters}
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			h.worker(c)
		}(c)
	}
	wg.Wait()
	if h.stop.Load() {
		db.Close()
		return
	}

	final := &histTxn{conn: -1}
	h.read(db.Conn(), final, allKeys(), "")
	for j := 0; j < histPool; j++ {
		h.read(db.Conn(), final, nil, poolName(j))
	}
	h.check(final)
	var committed, appends, reads, pools int
	for _, x := range h.txns {
		if x.committed {
			committed++
			appends += len(x.writes)
		}
		reads += len(x.reads)
		for _, rd := range x.reads {
			if rd.poolExists {
				pools++
			}
		}
	}
	t.Logf("%d transactions, %d committed with %d appends; %d reads, %d of a pool table found", len(h.txns), committed, appends, reads, pools)

	// The committed state survives Close and reopen.
	want := histState(t, db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re := New()
	if err := re.EnableDurability(dir, DurabilityOptions{}); err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer re.Close()
	if got := histState(t, re); got != want {
		t.Errorf("state after reopen:\n%s\nwant:\n%s", got, want)
	}
}

func allKeys() []int {
	keys := make([]int, histKeys)
	for i := range keys {
		keys[i] = i
	}
	return keys
}

func poolName(j int) string { return fmt.Sprintf("x%d", j) }

// histState renders h and the pool tables, for the reopen comparison.
func histState(t *testing.T, db *DB) string {
	var b strings.Builder
	rs, err := db.Query(`SELECT k, v FROM h ORDER BY k`)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs.Rows {
		fmt.Fprintf(&b, "%v=%q\n", r[0], r[1].AsText())
	}
	for j := 0; j < histPool; j++ {
		rs, err := db.Query(`SELECT e FROM ` + poolName(j))
		if err != nil {
			fmt.Fprintf(&b, "%s: %v\n", poolName(j), err)
			continue
		}
		for _, r := range rs.Rows {
			fmt.Fprintf(&b, "%s: %s\n", poolName(j), r[0].AsText())
		}
	}
	return b.String()
}

// worker drives one Conn through iters generated transactions.
func (h *histRun) worker(c int) {
	rng := rand.New(rand.NewSource(h.seed*1009 + int64(c)))
	conn := h.db.Conn()
	defer conn.Close()
	n := 0
	elem := func() string { n++; return fmt.Sprintf("%d.%d", c, n) }
	for i := 0; i < h.iters && !h.stop.Load(); i++ {
		switch r := rng.Intn(100); {
		case r < 4:
			if err := h.db.Checkpoint(); err != nil {
				h.fail("checkpoint: %v", err)
			}
		case r < 8:
			if err := h.db.Vacuum(); err != nil {
				h.fail("vacuum: %v", err)
			}
		case r < 16:
			h.poolTxn(conn, &histTxn{conn: c}, rng, elem)
		case r < 45:
			x := &histTxn{conn: c}
			x.commitAt = h.tick()
			x.committed = h.micro(conn, x, rng, elem, false) == nil
			h.record(x)
		default:
			h.explicit(conn, &histTxn{conn: c}, rng, elem)
		}
	}
}

// explicit runs BEGIN, one to four operations, then COMMIT or ROLLBACK; the
// first failing statement rolls the transaction back.
func (h *histRun) explicit(conn *Conn, x *histTxn, rng *rand.Rand, elem func() string) {
	defer h.record(x)
	if _, err := h.exec(conn, x, `BEGIN`); err != nil {
		h.fail("BEGIN: %v", err)
		return
	}
	for n := 1 + rng.Intn(4); n > 0; n-- {
		if h.micro(conn, x, rng, elem, true) != nil {
			h.exec(conn, x, `ROLLBACK`)
			return
		}
	}
	h.finish(conn, x, rng.Intn(100) < 85)
}

// finish commits (or rolls back) x's transaction.
func (h *histRun) finish(conn *Conn, x *histTxn, commit bool) {
	if !commit {
		if _, err := h.exec(conn, x, `ROLLBACK`); err != nil {
			h.fail("ROLLBACK: %v", err)
		}
		return
	}
	x.commitAt = h.tick()
	_, err := h.exec(conn, x, `COMMIT`)
	x.committed = err == nil
}

// poolTxn creates or drops a pool table in a transaction of its own. A
// created table receives its one row in the creating transaction, a few
// operations later, so a read that finds the table without the row has
// seen uncommitted DDL.
func (h *histRun) poolTxn(conn *Conn, x *histTxn, rng *rand.Rand, elem func() string) {
	defer h.record(x)
	name := poolName(rng.Intn(histPool))
	if _, err := h.exec(conn, x, `BEGIN`); err != nil {
		h.fail("BEGIN: %v", err)
		return
	}
	fail := func() { h.exec(conn, x, `ROLLBACK`) }
	if rng.Intn(3) == 0 {
		if _, err := h.exec(conn, x, `DROP TABLE `+name); err != nil {
			fail()
			return
		}
	} else {
		if _, err := h.exec(conn, x, `CREATE TABLE `+name+` (e text)`); err != nil {
			fail()
			return
		}
		for n := rng.Intn(3); n > 0; n-- {
			if h.micro(conn, x, rng, elem, true) != nil {
				fail()
				return
			}
		}
		e := "c" + elem()
		if _, err := h.exec(conn, x, `INSERT INTO `+name+` VALUES ($1)`, e); err != nil {
			fail()
			return
		}
		x.creates = append(x.creates, e)
	}
	h.finish(conn, x, rng.Intn(100) < 80)
}

// micro runs one operation in x: an append by UPDATE or through
// hist_append, a read of a key set (outside a transaction, sometimes also
// of a pool table), or, in a transaction or alone, index DDL on h.
func (h *histRun) micro(conn *Conn, x *histTxn, rng *rand.Rand, elem func() string, inTx bool) error {
	switch r := rng.Intn(100); {
	case r < 45:
		k, e := rng.Intn(histKeys), elem()
		appended := []histWrite{{k, e}}
		var n int
		var err error
		if r < 30 {
			n, err = h.exec(conn, x, `UPDATE h SET v = v || $1 WHERE k = $2`, " "+e, k)
		} else {
			appended = append(appended, histWrite{k, e + "+"})
			var rs *ResultSet
			rs, err = h.query(conn, x, `SELECT hist_append($1, $2)`, k, e)
			if err == nil {
				n = int(rs.Rows[0][0].Int())
			}
		}
		if err != nil {
			return err
		}
		if n != len(appended) {
			h.fail("appending %d elements to key %d changed %d rows (%s)", len(appended), k, n, x)
		}
		x.writes = append(x.writes, appended...)
		return nil
	case r < 90:
		keys := rng.Perm(histKeys)[:1+rng.Intn(3)]
		pool := ""
		if !inTx && rng.Intn(2) == 0 {
			pool = poolName(rng.Intn(histPool))
		}
		return h.read(conn, x, keys, pool)
	default:
		name := fmt.Sprintf("hix%d", rng.Intn(2))
		if rng.Intn(2) == 0 {
			kind := []string{IndexHash, IndexOrdered}[rng.Intn(2)]
			_, err := h.exec(conn, x, `CREATE INDEX IF NOT EXISTS `+name+` ON h (k) USING `+kind)
			return err
		}
		_, err := h.exec(conn, x, `DROP INDEX IF EXISTS `+name)
		return err
	}
}

// read reads keys of h (and, if pool is set, that pool table, in the same
// statement's snapshot only for a lone read: a pool read is a statement of
// its own) and records what it saw.
func (h *histRun) read(conn *Conn, x *histTxn, keys []int, pool string) error {
	rd := histRead{keys: keys, lists: map[int][]string{}, pool: pool, nwrites: len(x.writes)}
	if len(keys) > 0 {
		lits := make([]string, len(keys))
		for i, k := range keys {
			lits[i] = fmt.Sprint(k)
		}
		rs, err := h.query(conn, x, `SELECT k, v FROM h WHERE k IN (`+strings.Join(lits, ", ")+`)`)
		if err != nil {
			return err
		}
		seen := map[int]int{}
		for _, r := range rs.Rows {
			k := int(r[0].Int())
			seen[k]++
			rd.lists[k] = strings.Fields(r[1].AsText())
		}
		for _, k := range keys {
			if seen[k] != 1 {
				h.fail("a read of key %d returned %d rows (%s)", k, seen[k], x)
			}
		}
	}
	if pool != "" {
		rs, err := h.query(conn, x, `SELECT e FROM `+pool)
		switch {
		case errors.Is(err, ErrNoSuchTable):
		case err != nil:
			return err
		default:
			rd.poolExists = true
			for _, r := range rs.Rows {
				rd.poolRows = append(rd.poolRows, r[0].AsText())
			}
		}
	}
	rd.done = h.tick()
	x.reads = append(x.reads, rd)
	return nil
}

// exec and query run one statement on conn for x and record its text; an
// error other than the ones a concurrent history may produce fails the test.
func (h *histRun) exec(conn *Conn, x *histTxn, sql string, args ...any) (int, error) {
	return rowCount(h.query(conn, x, sql, args...))
}

func (h *histRun) query(conn *Conn, x *histTxn, sql string, args ...any) (*ResultSet, error) {
	rs, err := conn.QueryContext(context.Background(), sql, args...)
	text := sql
	if len(args) > 0 {
		text += fmt.Sprintf(" %v", args)
	}
	if err != nil {
		text += " -> " + err.Error()
		if !errors.Is(err, ErrWriteConflict) && !errors.Is(err, ErrNoSuchTable) &&
			!strings.Contains(err.Error(), "already exists") {
			h.fail("conn %d: %s: unexpected error %v", x.conn, sql, err)
		}
	}
	x.sql = append(x.sql, text)
	return rs, err
}

func (h *histRun) record(x *histTxn) {
	h.mu.Lock()
	h.txns = append(h.txns, x)
	h.mu.Unlock()
}

// check runs the history checks; final is the lone read of every key and
// pool table made after the workers stopped.
func (h *histRun) check(final *histTxn) {
	t := h.t
	const maxReports = 10
	reports := 0
	report := func(format string, args ...any) {
		if reports++; reports <= maxReports {
			t.Errorf(format, args...)
		}
	}
	defer func() {
		if reports > maxReports {
			t.Errorf("... %d more violations", reports-maxReports)
		}
	}()

	writer := map[string]*histTxn{}
	for _, x := range h.txns {
		for _, w := range x.writes {
			writer[w.elem] = x
		}
		for _, e := range x.creates {
			writer[e] = x
		}
	}

	// The final lists: the version order of each key, holding every
	// committed append once and no aborted one.
	order := map[int][]string{}
	for k, l := range final.reads[0].lists {
		order[k] = l
		pos := map[string]bool{}
		for _, e := range l {
			if pos[e] {
				report("key %d's final list holds %s twice", k, e)
			}
			pos[e] = true
			if w := writer[e]; w == nil || !w.committed {
				report("key %d's final list holds %s of an aborted transaction (%v)", k, e, w)
			}
		}
	}
	for _, x := range h.txns {
		if !x.committed {
			continue
		}
		for _, w := range x.writes {
			if !slices.Contains(order[w.key], w.elem) {
				report("committed append %s to key %d is lost (%s)", w.elem, w.key, x)
			}
		}
	}

	// Per read: its own appends end the list, the rest is a prefix of the
	// version order written by transactions committed before it returned.
	type seenRead struct {
		x      *histTxn
		key    int
		prefix []string
	}
	var seen []seenRead
	for _, x := range append(slices.Clone(h.txns), final) {
		for _, rd := range x.reads {
			for _, k := range rd.keys {
				l := rd.lists[k]
				var mine []string
				for _, w := range x.writes[:rd.nwrites] {
					if w.key == k {
						mine = append(mine, w.elem)
					}
				}
				if len(mine) > len(l) || !slices.Equal(l[len(l)-len(mine):], mine) {
					report("a read of key %d saw %v, which does not end with its own appends %v (%s)", k, l, mine, x)
					continue
				}
				p := l[:len(l)-len(mine)]
				if len(p) > len(order[k]) || !slices.Equal(p, order[k][:len(p)]) {
					report("a read of key %d saw %v, not a prefix of its version order %v (%s)", k, l, order[k], x)
					continue
				}
				for _, e := range p {
					w := writer[e]
					switch {
					case w == x:
						report("a read of key %d saw its own append %s before later ones (%s)", k, e, x)
					case w == nil || !w.committed:
						report("a read of key %d saw %s of an aborted transaction (%s; writer %v)", k, e, x, w)
					case w.commitAt > rd.done:
						report("a read of key %d saw %s before its commit was called (%s; writer %s)", k, e, x, w)
					}
				}
				seen = append(seen, seenRead{x, k, p})
			}
			if rd.pool != "" && rd.poolExists {
				if len(rd.poolRows) != 1 {
					report("pool table %s read with %d rows %v: its creation was seen without its row (%s)", rd.pool, len(rd.poolRows), rd.poolRows, x)
				} else if w := writer[rd.poolRows[0]]; w == nil || !w.committed || w.commitAt > rd.done {
					report("pool table %s read with row %s of an uncommitted creator (%v)", rd.pool, rd.poolRows[0], w)
				}
			}
		}
	}

	// One snapshot per transaction: a writer seen anywhere is seen in every
	// read of every key it appended to.
	byTxn := map[*histTxn][]seenRead{}
	for _, s := range seen {
		byTxn[s.x] = append(byTxn[s.x], s)
	}
	for x, reads := range byTxn {
		visible := map[*histTxn]bool{}
		for _, s := range reads {
			for _, e := range s.prefix {
				visible[writer[e]] = true
			}
		}
		for _, s := range reads {
			for w := range visible {
				for _, wr := range w.writes {
					if wr.key == s.key && !slices.Contains(s.prefix, wr.elem) {
						report("a read of key %d misses %s of a transaction another read of the same transaction saw (%s; writer %s)", s.key, wr.elem, x, w)
					}
				}
			}
		}
	}

	// The dependency graph: ww along each version order, wr from the
	// writer of a read's last element, rw to the writer of the element
	// after it.
	nodes := map[*histTxn]int{}
	var list []*histTxn
	id := func(x *histTxn) int {
		if i, ok := nodes[x]; ok {
			return i
		}
		nodes[x] = len(list)
		list = append(list, x)
		return len(list) - 1
	}
	type edge struct{ from, to int }
	dep := map[edge]bool{} // ww and wr
	var rw []edge
	for _, k := range sortedIntKeys(order) {
		l := order[k]
		for i := 1; i < len(l); i++ {
			a, b := writer[l[i-1]], writer[l[i]]
			if a != b {
				dep[edge{id(a), id(b)}] = true
			}
		}
	}
	for _, s := range seen {
		if n := len(s.prefix); n > 0 && writer[s.prefix[n-1]] != s.x {
			dep[edge{id(writer[s.prefix[n-1]]), id(s.x)}] = true
		}
		if n := len(s.prefix); n < len(order[s.key]) {
			if w := writer[order[s.key][n]]; w != s.x {
				rw = append(rw, edge{id(s.x), id(w)})
			}
		}
	}
	adj := make([][]int, len(list))
	for e := range dep {
		adj[e.from] = append(adj[e.from], e.to)
	}
	if cyc := findCycle(adj); cyc != nil {
		var b strings.Builder
		for _, i := range cyc {
			fmt.Fprintf(&b, "\n  %s", list[i])
		}
		report("G0/G1c: a cycle of write and read dependencies:%s", b.String())
	}
	for _, e := range rw {
		if reaches(adj, e.to, e.from) {
			report("G-single: %s misses an append of %s, which its reads depend on", list[e.from], list[e.to])
		}
	}
}

func sortedIntKeys(m map[int][]string) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// findCycle returns the nodes of one cycle of adj, nil if there is none.
func findCycle(adj [][]int) []int {
	color := make([]int, len(adj)) // 0 white, 1 on the stack, 2 done
	parent := make([]int, len(adj))
	var cyc []int
	var visit func(u int) bool
	visit = func(u int) bool {
		color[u] = 1
		for _, v := range adj[u] {
			switch color[v] {
			case 0:
				parent[v] = u
				if visit(v) {
					return true
				}
			case 1:
				for w := u; w != v; w = parent[w] {
					cyc = append(cyc, w)
				}
				cyc = append(cyc, v)
				return true
			}
		}
		color[u] = 2
		return false
	}
	for u := range adj {
		if color[u] == 0 && visit(u) {
			return cyc
		}
	}
	return nil
}

// reaches reports whether to is reachable from from in adj.
func reaches(adj [][]int, from, to int) bool {
	seen := make([]bool, len(adj))
	stack := []int{from}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if u == to {
			return true
		}
		if seen[u] {
			continue
		}
		seen[u] = true
		stack = append(stack, adj[u]...)
	}
	return false
}
