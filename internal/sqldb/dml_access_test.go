package sqldb

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"
)

// openSuiteDurable opens a durable database on dir. The planner options are
// installed before recovery, so logical statement replay runs under them.
func openSuiteDurable(t *testing.T, dir string, po plannerOptions) *DB {
	t.Helper()
	db := New()
	db.setPlanner(po)
	// The tests compare states, not kill points: one fsync at Close is enough.
	if err := db.EnableDurability(dir, DurabilityOptions{SyncEvery: 1 << 20}); err != nil {
		t.Fatalf("EnableDurability: %v", err)
	}
	return db
}

// dmlStmt is one generated statement; dmlGroup is the unit the twins run:
// auto-commit statements, one Tx handle, or one ambient BEGIN … COMMIT (whose
// builtin-only statements are WAL-logged as text and replayed logically).
type dmlStmt struct {
	sql  string
	args []any
}

type dmlGroup struct {
	mode   string // "auto", "tx", "ambient"
	commit bool
	stmts  []dmlStmt
}

// run executes g and renders what a client could observe: the affected count
// or error of every statement.
func (g dmlGroup) run(db *DB) []string {
	out := make([]string, 0, len(g.stmts))
	note := func(n int, err error) {
		if err != nil {
			out = append(out, "error: "+err.Error())
			return
		}
		out = append(out, fmt.Sprint(n))
	}
	switch g.mode {
	case "tx":
		tx, err := db.Begin()
		if err != nil {
			return []string{"begin: " + err.Error()}
		}
		for _, s := range g.stmts {
			note(tx.Exec(s.sql, s.args...))
		}
		if g.commit {
			note(0, tx.Commit())
		} else {
			note(0, tx.Rollback())
		}
	case "ambient":
		note(db.Exec(`BEGIN`))
		for _, s := range g.stmts {
			note(db.Exec(s.sql, s.args...))
		}
		if g.commit {
			note(db.Exec(`COMMIT`))
		} else {
			note(db.Exec(`ROLLBACK`))
		}
	default:
		for _, s := range g.stmts {
			note(db.Exec(s.sql, s.args...))
		}
	}
	return out
}

// TestPlannerAccessPathEquivalenceDML is TestPlannerAccessPathEquivalence for
// writes: twin durable databases run one randomized sequence of UPDATEs and
// DELETEs (=, BETWEEN, ranges, AND with non-indexed residuals, NULL keys,
// parameters, SET of the indexed column itself; auto-commit, Tx handles and
// the ambient transaction; ANALYZE, churn and vacuum interleaved), one with
// the planner choosing DML targets and one under disableIndexScan. Every
// affected count and error, the table multiset, the WAL record sequence and
// the state each directory recovers to must be equal.
func TestPlannerAccessPathEquivalenceDML(t *testing.T) {
	rng := rand.New(rand.NewSource(20260927))
	dirs := [2]string{t.TempDir(), t.TempDir()}
	planners := [2]plannerOptions{{}, {disableIndexScan: true}}
	var dbs [2]*DB
	for i := range dbs {
		dbs[i] = openSuiteDurable(t, dirs[i], planners[i])
	}
	defer func() {
		for _, db := range dbs {
			db.Close()
		}
	}()

	both := func(what string, g dmlGroup) {
		t.Helper()
		chosen, forced := g.run(dbs[0]), g.run(dbs[1])
		if !reflect.DeepEqual(chosen, forced) {
			t.Fatalf("%s %+v:\nplanner-chosen: %q\nfull scan:      %q", what, g, chosen, forced)
		}
	}
	auto := func(sql string, args ...any) dmlGroup {
		return dmlGroup{mode: "auto", stmts: []dmlStmt{{sql, args}}}
	}
	table := func(db *DB) []string {
		return sortedKeys(mustQuery(t, db, `SELECT ih, fb, ts, raw FROM prop`))
	}
	sameTable := func(what string) []string {
		t.Helper()
		chosen, forced := table(dbs[0]), table(dbs[1])
		if !reflect.DeepEqual(chosen, forced) {
			t.Fatalf("%s: tables differ: planner-chosen %d rows, full scan %d rows", what, len(chosen), len(forced))
		}
		return chosen
	}

	insert := func(n int) {
		for i := 0; i < n; i++ {
			var ih, fb any = rng.Intn(200), float64(rng.Intn(1000)) / 7
			if rng.Intn(20) == 0 {
				ih = nil
			}
			if rng.Intn(20) == 0 {
				fb = nil
			}
			both("insert", auto(`INSERT INTO prop VALUES ($1, $2, $3, $4)`,
				ih, fb, fmt.Sprintf("s%d", rng.Intn(30)), rng.Intn(50)))
		}
	}
	both("create", auto(`CREATE TABLE prop (ih integer, fb float, ts text, raw integer)`))
	insert(800)
	both("index", auto(`CREATE INDEX prop_ih ON prop (ih) USING hash`))
	both("index", auto(`CREATE INDEX prop_fb ON prop (fb)`))
	both("index", auto(`CREATE INDEX prop_ts ON prop (ts)`))

	cols := []struct{ name, kind string }{
		{"ih", "int"}, {"fb", "float"}, {"ts", "text"}, {"raw", "int"},
	}
	// constFor renders a constant of the column's kind: as a literal, or —
	// one time in four — as a bound parameter; now and then NULL either way.
	constFor := func(s *dmlStmt, kind string) string {
		var v any
		switch kind {
		case "int":
			v = rng.Intn(220) - 10
		case "float":
			v = float64(rng.Intn(1100)-50) / 7
		default:
			v = fmt.Sprintf("s%d", rng.Intn(35))
		}
		null := rng.Intn(25) == 0
		if rng.Intn(4) == 0 {
			if null {
				v = nil
			}
			s.args = append(s.args, v)
			return fmt.Sprintf("$%d", len(s.args))
		}
		switch {
		case null:
			return "NULL"
		case kind == "text":
			return fmt.Sprintf("'%s'", v)
		case kind == "float":
			return fmt.Sprintf("%.3f", v)
		}
		return fmt.Sprint(v)
	}
	// atom renders one conjunct; a selective one is an equality. Every
	// DELETE and most UPDATEs lead with one, so that the table is not emptied
	// and recovery — which finds each logged pre-image by walking the
	// versions — stays quick under the race detector.
	atom := func(s *dmlStmt, selective bool) string {
		c := cols[rng.Intn(len(cols))]
		pick := rng.Intn(8)
		if selective {
			pick = 0
		}
		switch pick {
		case 0, 1, 2:
			return fmt.Sprintf("%s = %s", c.name, constFor(s, c.kind))
		case 3:
			return fmt.Sprintf("%s BETWEEN %s AND %s", c.name, constFor(s, c.kind), constFor(s, c.kind))
		case 4:
			return fmt.Sprintf("%s < %s", c.name, constFor(s, c.kind))
		case 5:
			return fmt.Sprintf("%s >= %s", c.name, constFor(s, c.kind))
		case 6:
			return fmt.Sprintf("%s > %s", constFor(s, c.kind), c.name)
		default:
			return fmt.Sprintf("%s IS NOT NULL", c.name)
		}
	}
	sets := []string{
		"raw = raw + 1", "ih = ih + 1", "fb = fb + 0.5", "ts = 's7'",
		"ih = NULL", "ih = raw, raw = ih", "fb = fb * 2, ts = ts || 'x'",
	}
	statement := func() dmlStmt {
		var s dmlStmt
		head, selective := "DELETE FROM prop", true
		if rng.Intn(3) != 0 {
			head, selective = "UPDATE prop SET "+sets[rng.Intn(len(sets))], rng.Intn(4) != 0
		}
		parts := make([]string, 1+rng.Intn(3))
		for i := range parts {
			parts[i] = atom(&s, selective && i == 0)
		}
		s.sql = head + " WHERE " + strings.Join(parts, " AND ")
		return s
	}

	// Probes that cannot be used (a type mismatch, a lossy coercion) fall
	// back to the walk and must fail or succeed exactly as it does.
	both("mismatch", auto(`UPDATE prop SET raw = 0 WHERE ih = 'abc'`))
	both("lossy", auto(`UPDATE prop SET raw = 0 WHERE ih = 2.5`))
	both("lossy", auto(`DELETE FROM prop WHERE ih BETWEEN 1.5 AND 2.5`))

	const trials = 160
	for trial := 0; trial < trials; trial++ {
		switch trial {
		case 30, 120:
			both("analyze", auto(`ANALYZE prop`))
		case 60:
			both("churn", auto(`DELETE FROM prop WHERE raw = 13`))
			insert(300)
		case 90:
			for _, db := range dbs {
				if err := db.Vacuum(); err != nil {
					t.Fatalf("vacuum: %v", err)
				}
			}
		}
		if trial%10 == 9 {
			insert(40)
			sameTable(fmt.Sprintf("after trial %d", trial))
		}
		g := dmlGroup{mode: "auto", commit: true, stmts: []dmlStmt{statement()}}
		switch rng.Intn(6) {
		case 0:
			g.mode, g.commit = "tx", rng.Intn(4) != 0
			g.stmts = append(g.stmts, statement(), statement())
		case 1:
			g.mode, g.commit = "ambient", rng.Intn(4) != 0
			g.stmts = append(g.stmts, statement())
		}
		both(fmt.Sprintf("trial %d", trial), g)
	}
	final := sameTable("final")
	if len(final) < 200 {
		t.Fatalf("only %d rows survived: the workload no longer exercises much", len(final))
	}

	var logs [2][][]walRecord
	for i, db := range dbs {
		txns, _, err := readWALTxns(walGenPath(dirs[i], db.wal.gen))
		if err != nil {
			t.Fatalf("reading wal: %v", err)
		}
		logs[i] = txns
	}
	if !reflect.DeepEqual(logs[0], logs[1]) {
		t.Fatalf("WAL record sequences differ (%d vs %d transactions)", len(logs[0]), len(logs[1]))
	}
	phys, logical := 0, 0
	for _, txn := range logs[0] {
		for _, rec := range txn {
			switch rec.Op {
			case "upd", "del":
				phys++
			case "stmt":
				logical++
			}
		}
	}
	t.Logf("%d physical, %d logical DML records", phys, logical)
	if phys == 0 || logical == 0 {
		t.Fatalf("log holds %d physical and %d logical DML records: both replay forms must be exercised", phys, logical)
	}

	// Recover each directory under the OTHER planner setting: replay (by
	// pre-image for physical records, through the executor for logical ones)
	// must rebuild the same table either way.
	for i, db := range dbs {
		if err := db.Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		dbs[i] = openSuiteDurable(t, dirs[i], planners[1-i])
		if got := table(dbs[i]); !reflect.DeepEqual(got, final) {
			t.Fatalf("directory %d recovered %d rows, want the %d it held at close", i, len(got), len(final))
		}
	}
}

// indexedDMLTable builds t(k integer, v integer) with rows k = 0..n-1, v = 0
// and an index of the given kind on k, and checks that DML by key is planned
// as an index probe — the tests below are about that path.
func indexedDMLTable(t *testing.T, n int, kind string) *DB {
	t.Helper()
	db := newSuiteDB(t)
	mustExec(t, db, `CREATE TABLE t (k integer, v integer)`)
	for i := 0; i < n; i++ {
		mustExec(t, db, `INSERT INTO t VALUES ($1, 0)`, i)
	}
	mustExec(t, db, `CREATE INDEX t_k ON t (k) USING `+kind)
	for _, q := range []string{`UPDATE t SET v = 1 WHERE k = 3`, `DELETE FROM t WHERE k = 3`} {
		if out := explainText(t, db, `EXPLAIN `+q); !strings.Contains(out, "Index Scan using t_k") {
			t.Fatalf("%s is not planned as an index probe:\n%s", q, out)
		}
	}
	return db
}

func queryInt(t *testing.T, db *DB, sql string, args ...any) int64 {
	t.Helper()
	got := queryInts(t, db, sql, args...)
	if len(got) != 1 {
		t.Fatalf("%s: %d rows, want 1", sql, len(got))
	}
	return got[0]
}

func mustAffect(t *testing.T, want int) func(int, error) {
	t.Helper()
	return func(got int, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("affected %d rows, want %d", got, want)
		}
	}
}

// TestIndexedDMLHalloween: an UPDATE that moves rows along the very index it
// found them through touches each row once — the candidate positions are
// fixed before the first write.
func TestIndexedDMLHalloween(t *testing.T) {
	db := indexedDMLTable(t, 400, IndexOrdered)
	if out := explainText(t, db, `EXPLAIN UPDATE t SET k = k + 1, v = v + 1 WHERE k >= 370`); !strings.Contains(out, "Index Scan using t_k") {
		t.Fatalf("range update is not planned as an index scan:\n%s", out)
	}
	mustAffect(t, 30)(db.Exec(`UPDATE t SET k = k + 1, v = v + 1 WHERE k >= 370`))
	if n := queryInt(t, db, `SELECT count(*) FROM t WHERE v = 1 AND k >= 371`); n != 30 {
		t.Fatalf("%d rows moved once, want 30", n)
	}
	if n := queryInt(t, db, `SELECT count(*) FROM t WHERE v > 1`); n != 0 {
		t.Fatalf("%d rows were updated more than once", n)
	}
	if sum := queryInt(t, db, `SELECT sum(k) FROM t`); sum != 399*400/2+30 {
		t.Fatalf("sum(k) = %d, want %d", sum, 399*400/2+30)
	}
	// The same through a Tx handle, twice over: its own new versions carry
	// its stamp and are visible to it, yet are not candidates of the
	// statement that wrote them.
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	mustAffect(t, 30)(tx.Exec(`UPDATE t SET k = k + 1, v = v + 1 WHERE k >= 371`))
	mustAffect(t, 30)(tx.Exec(`UPDATE t SET k = k + 1, v = v + 1 WHERE k >= 371`))
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := queryInt(t, db, `SELECT count(*) FROM t WHERE v = 3 AND k >= 373`); n != 30 {
		t.Fatalf("%d rows moved three times, want 30", n)
	}
}

// TestIndexedDMLWriteConflict: first-updater-wins holds through the index
// path. The loser's probe still surfaces the version its snapshot sees — the
// entry stays when the winner supersedes the version, also under a new key —
// and endVersion refuses it.
func TestIndexedDMLWriteConflict(t *testing.T) {
	for _, kind := range []string{IndexHash, IndexOrdered} {
		for _, winner := range []string{
			`UPDATE t SET v = v + 10 WHERE k = 1`,
			`UPDATE t SET k = 100 WHERE k = 1`, // the key itself moves
			`DELETE FROM t WHERE k = 1`,
		} {
			for _, loser := range []string{`UPDATE t SET v = v + 5 WHERE k = 1`, `DELETE FROM t WHERE k = 1`} {
				db := indexedDMLTable(t, 20, kind)
				tx1, err := db.Begin()
				if err != nil {
					t.Fatal(err)
				}
				tx2, err := db.Begin()
				if err != nil {
					t.Fatal(err)
				}
				mustAffect(t, 1)(tx1.Exec(winner))
				if err := tx1.Commit(); err != nil {
					t.Fatal(err)
				}
				if _, err := tx2.Exec(loser); !errors.Is(err, ErrWriteConflict) {
					t.Fatalf("%s index, %q after %q: got %v, want ErrWriteConflict", kind, loser, winner, err)
				}
				// Rows the winner did not touch are still writable by key.
				mustAffect(t, 1)(tx2.Exec(`UPDATE t SET v = 7 WHERE k = 2`))
				if err := tx2.Rollback(); err != nil {
					t.Fatal(err)
				}
				if n := queryInt(t, db, `SELECT count(*) FROM t WHERE v = 5 OR v = 7 OR v = 15`); n != 0 {
					t.Fatalf("%d rows carry the loser's writes", n)
				}
			}
		}
	}
}

// TestIndexedDMLVisibility: the probe surfaces positions, the snapshot
// decides. A transaction updates and deletes its own uncommitted insert by
// key; versions another session inserted — in flight, committed after the
// snapshot, or rolled back — are never its targets.
func TestIndexedDMLVisibility(t *testing.T) {
	db := indexedDMLTable(t, 20, IndexHash)
	db.SetLockWaitTimeout(20 * time.Millisecond)

	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	late, err := db.Begin() // snapshot predates everything below
	if err != nil {
		t.Fatal(err)
	}
	mustAffect(t, 1)(tx.Exec(`INSERT INTO t VALUES (500, 0)`))
	mustAffect(t, 1)(tx.Exec(`UPDATE t SET v = v + 1 WHERE k = 500`))
	mustAffect(t, 1)(tx.Exec(`UPDATE t SET v = v + 1 WHERE k = 500`))
	mustAffect(t, 1)(tx.Exec(`INSERT INTO t VALUES (501, 0)`))
	mustAffect(t, 1)(tx.Exec(`DELETE FROM t WHERE k = 501`))
	mustAffect(t, 0)(tx.Exec(`UPDATE t SET v = 9 WHERE k = 501`))

	// In flight: the writer holds the table latch, so another session cannot
	// write at all — and must not have written once the latch is free.
	if n, err := late.Exec(`UPDATE t SET v = 99 WHERE k = 500`); err == nil && n != 0 {
		t.Fatalf("another session updated %d uncommitted rows", n)
	} else if err != nil && !errors.Is(err, ErrWriteConflict) {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	// Committed after late's snapshot: indexed, surfaced, invisible.
	mustAffect(t, 0)(late.Exec(`UPDATE t SET v = 99 WHERE k = 500`))
	mustAffect(t, 0)(late.Exec(`DELETE FROM t WHERE k = 500`))
	if err := late.Commit(); err != nil {
		t.Fatal(err)
	}
	if v := queryInt(t, db, `SELECT v FROM t WHERE k = 500`); v != 2 {
		t.Fatalf("v = %d, want 2 (the inserting transaction's two updates)", v)
	}

	// Rolled back: the aborted version keeps its index entry.
	tx, err = db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	mustAffect(t, 1)(tx.Exec(`INSERT INTO t VALUES (502, 0)`))
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	mustAffect(t, 0)(db.Exec(`UPDATE t SET v = 1 WHERE k = 502`))
	mustAffect(t, 0)(db.Exec(`DELETE FROM t WHERE k = 502`))
}

// TestIndexedDMLStaleEntries: index entries are insert-only, so a key that
// has been updated, deleted and re-inserted has an entry for every version it
// ever had. Only the live one is a target; the full WHERE, not the probe,
// has the last word; and a vacuum's rebuilt positions are the ones used.
func TestIndexedDMLStaleEntries(t *testing.T) {
	for _, kind := range []string{IndexHash, IndexOrdered} {
		db := indexedDMLTable(t, 20, kind)
		check := func(what string, wantV int64) {
			t.Helper()
			if got := queryInts(t, db, `SELECT v FROM t WHERE k = 7`); len(got) != 1 || got[0] != wantV {
				t.Fatalf("%s index, %s: k = 7 holds v = %v, want [%d]", kind, what, got, wantV)
			}
			if n := countRows(t, db, "t"); n != 20 {
				t.Fatalf("%s index, %s: %d rows, want 20", kind, what, n)
			}
		}
		// Superseded: each update leaves one more dead version under the key.
		for i := 1; i <= 5; i++ {
			mustAffect(t, 1)(db.Exec(`UPDATE t SET v = v + 1 WHERE k = $1`, 7))
			check("superseded", int64(i))
		}
		// Deleted, then re-inserted under the same key.
		mustAffect(t, 1)(db.Exec(`DELETE FROM t WHERE k = 7`))
		mustAffect(t, 0)(db.Exec(`UPDATE t SET v = 50 WHERE k = 7`))
		mustAffect(t, 0)(db.Exec(`DELETE FROM t WHERE k = 7`))
		mustExec(t, db, `INSERT INTO t VALUES (7, 100)`)
		mustAffect(t, 1)(db.Exec(`UPDATE t SET v = v + 1 WHERE k = 7`))
		check("deleted and re-inserted", 101)
		// The probe's candidates are a superset: the residual decides.
		mustAffect(t, 0)(db.Exec(`UPDATE t SET v = -1 WHERE k = 7 AND v < 0`))
		mustAffect(t, 0)(db.Exec(`DELETE FROM t WHERE k = 7 AND v <> 101`))
		mustAffect(t, 1)(db.Exec(`UPDATE t SET v = v + 1 WHERE k = 7 AND v = 101`))
		check("residual", 102)
		// A key moved away and another moved onto it.
		mustAffect(t, 1)(db.Exec(`UPDATE t SET k = 70 WHERE k = 7`))
		mustAffect(t, 0)(db.Exec(`UPDATE t SET v = 0 WHERE k = 7`))
		mustAffect(t, 1)(db.Exec(`UPDATE t SET k = 7 WHERE k = 70`))
		check("moved away and back", 102)
		if versions, live, err := db.TableVersions("t"); err != nil || versions <= live {
			t.Fatalf("versions = %d, live = %d, err = %v: the table should hold dead versions by now", versions, live, err)
		}
		// Vacuum compacts the versions and rebuilds the index over them.
		if err := db.Vacuum(); err != nil {
			t.Fatal(err)
		}
		mustAffect(t, 1)(db.Exec(`UPDATE t SET v = v + 1 WHERE k = 7`))
		check("after vacuum", 103)
		mustAffect(t, 1)(db.Exec(`DELETE FROM t WHERE k = 7`))
		if n := countRows(t, db, "t"); n != 19 {
			t.Fatalf("%s index: %d rows after the final delete, want 19", kind, n)
		}
	}
}
