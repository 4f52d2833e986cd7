package sqldb

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

// joinStrategy opens sql's operator plan the way a read statement does and
// reports which candidate source its bottom join ended up with: "lookup",
// "hash" or "nested". The choice is made at open, so EXPLAIN cannot show it.
func joinStrategy(t *testing.T, db *DB, sql string, args ...any) string {
	t.Helper()
	stmt, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	params, err := bindArgs(args)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := db.planSelect(db.tables.Load(), stmt.(*SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	if plan.kind != physOps {
		t.Fatalf("%s: not an operator plan", sql)
	}
	cx := &evalCtx{db: db, params: params, ctx: context.Background(), snap: snapshot{ts: db.clock.Load()}}
	st, err := plan.ops.open(cx, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for {
		switch x := st.(type) {
		case *limitStream:
			st = x.src
		case *distinctStream:
			st = x.src
		case *sortStream:
			st = x.src
		case *projectSortStream:
			st = x.src
		case *projectStream:
			st = x.src
		case *hashAggStream:
			st = x.src
		case *opFilterStream:
			st = x.src
		case *joinStream:
			if js, ok := x.left.(*joinStream); ok {
				st = js // the bottom join is the one that can look up
				continue
			}
			switch {
			case x.lk != nil:
				return "lookup"
			case x.step.hash:
				return "hash"
			}
			return "nested"
		default:
			t.Fatalf("%s: no join under %T", sql, st)
		}
	}
}

// lookupTestDB is a small outer table and a larger inner one with an ordered
// index on the join key, so the shipped ratio rule picks the lookup.
func lookupTestDB(t *testing.T) *DB {
	t.Helper()
	db := newSuiteDB(t)
	mustExec(t, db, `CREATE TABLE o (id integer, k integer, v float)`)
	mustExec(t, db, `CREATE TABLE i (k integer, k2 integer, w float, tag text)`)
	for n := 0; n < 6; n++ {
		var k any = n * 10
		if n == 4 {
			k = nil // NULL outer key
		}
		mustExec(t, db, `INSERT INTO o VALUES ($1, $2, $3)`, n, k, float64(n)/2)
	}
	for n := 0; n < 120; n++ {
		var k any = n % 40 // keys 0..39, three versions each: duplicates in table order
		if n%17 == 0 {
			k = nil // NULL inner keys
		}
		mustExec(t, db, `INSERT INTO i VALUES ($1, $2, $3, $4)`, k, n%3, float64(n), fmt.Sprintf("t%d", n))
	}
	mustExec(t, db, `CREATE INDEX i_k ON i (k)`)
	return db
}

func mustLookup(t *testing.T, db *DB, want, sql string, args ...any) {
	t.Helper()
	if got := joinStrategy(t, db, sql, args...); got != want {
		t.Fatalf("%s: join strategy %q, want %q", sql, got, want)
	}
}

// sameAsExecutor runs sql on the pipeline and on the reference executor and
// requires the same rows in the same order.
func sameAsExecutor(t *testing.T, db *DB, sql string, args ...any) *ResultSet {
	t.Helper()
	streamed, mat := runBoth(t, db, sql, args...)
	if !rowsEqual(streamed, mat) {
		t.Fatalf("%s:\nstream       %v\nmaterialized %v", sql, streamed.Rows, mat.Rows)
	}
	return streamed
}

func TestLookupJoinMatchesExecutor(t *testing.T) {
	db := lookupTestDB(t)
	queries := []string{
		// Duplicate inner keys come back in table order; NULL keys on either
		// side match nothing.
		`SELECT o.id, i.w, i.tag FROM o JOIN i ON o.k = i.k`,
		// LEFT JOIN null-pads the NULL-keyed and the dangling (k=50) rows.
		`SELECT o.id, i.w FROM o LEFT JOIN i ON o.k = i.k`,
		// Spelled the other way round, with an ON remainder.
		`SELECT o.id, i.w FROM o LEFT JOIN i ON i.k = o.k AND i.w > 45`,
		// Prefilters on both leaves, residual WHERE above.
		`SELECT o.id, i.tag FROM o JOIN i ON o.k = i.k WHERE o.v < 2 AND i.w > 10 AND o.v + i.w > 0`,
		// Grouped: first-row resolution and float summation order.
		`SELECT o.id, count(*), sum(i.w), avg(i.w * 0.1) FROM o JOIN i ON o.k = i.k GROUP BY o.id`,
		// Early exit.
		`SELECT o.id, i.tag FROM o JOIN i ON o.k = i.k LIMIT 4`,
		// A third table joins above the lookup.
		`SELECT o.id, i.w, o2.v FROM o JOIN i ON o.k = i.k JOIN o o2 ON o2.id = i.k2`,
	}
	for _, q := range queries {
		mustLookup(t, db, "lookup", q)
		if rs := sameAsExecutor(t, db, q); len(rs.Rows) == 0 {
			t.Errorf("%s: no rows, the case tests nothing", q)
		}
	}

	out := explainText(t, db, `EXPLAIN SELECT o.id FROM o JOIN i ON o.k = i.k`)
	if !strings.Contains(out, "Hash Join (inner)") || !strings.Contains(out, "Index Lookup: i_k for (o.k = i.k)") {
		t.Fatalf("EXPLAIN does not name the lookup index:\n%s", out)
	}
	db.setPlanner(plannerOptions{disableIndexScan: true})
	if out := explainText(t, db, `EXPLAIN SELECT o.id FROM o JOIN i ON o.k = i.k`); strings.Contains(out, "Index Lookup") {
		t.Fatalf("disableIndexScan must turn the lookup off:\n%s", out)
	}
	mustLookup(t, db, "hash", queries[0])
	db.setPlanner(plannerOptions{disableHashJoin: true})
	mustLookup(t, db, "nested", queries[0])
}

func TestLookupJoinStaleIndexEntries(t *testing.T) {
	db := lookupTestDB(t)
	// Updated, deleted and re-inserted versions all keep their index
	// entries; only the visible ones may come back.
	mustExec(t, db, `UPDATE i SET w = w + 1000 WHERE k = 10`)
	mustExec(t, db, `UPDATE i SET k = 20 WHERE k = 30 AND k2 = 0`)
	mustExec(t, db, `DELETE FROM i WHERE k = 0`)
	mustExec(t, db, `INSERT INTO i VALUES (0, 9, -1, 'again')`)
	const q = `SELECT o.id, i.k2, i.w, i.tag FROM o LEFT JOIN i ON o.k = i.k`
	mustLookup(t, db, "lookup", q)
	sameAsExecutor(t, db, q)
}

func TestLookupJoinNumericKeys(t *testing.T) {
	db := newSuiteDB(t)
	mustExec(t, db, `CREATE TABLE a (n integer)`)
	mustExec(t, db, `CREATE TABLE b (f float, tag text)`)
	mustExec(t, db, `CREATE TABLE c (n integer, tag text)`)
	for n := 0; n < 300; n++ {
		mustExec(t, db, `INSERT INTO b VALUES ($1, $2)`, float64(n)/2, fmt.Sprintf("b%d", n))
		mustExec(t, db, `INSERT INTO c VALUES ($1, $2)`, n, fmt.Sprintf("c%d", n))
	}
	for _, n := range []int64{1, 2, 3, 1 << 53, 1<<53 + 1} {
		mustExec(t, db, `INSERT INTO a VALUES ($1)`, n)
	}
	mustExec(t, db, `INSERT INTO a SELECT g FROM generate_series(1000, 1019) AS g`) // dangling filler
	// 2^53 and 2^53+1 are Compare-equal: every pairing of them must join.
	mustExec(t, db, `INSERT INTO c VALUES (9007199254740992, 'big'), (9007199254740993, 'big+1')`)
	mustExec(t, db, `INSERT INTO b VALUES (9007199254740992, 'bigf')`)
	mustExec(t, db, `CREATE INDEX b_f ON b (f)`)
	mustExec(t, db, `CREATE INDEX c_n ON c (n)`)
	mustExec(t, db, `CREATE INDEX a_n ON a (n)`)

	for _, tc := range []struct {
		q    string
		rows int
	}{
		{`SELECT a.n, b.tag FROM a JOIN b ON a.n = b.f`, 3 + 2},                     // integer onto a float index
		{`SELECT a.n, c.tag FROM a JOIN c ON a.n = c.n`, 3 + 4},                     // lossy integers on both sides
		{`SELECT b.tag, a.n FROM b JOIN a ON b.f = a.n WHERE b.f > 1000`, 2},        // float onto an integer index
		{`SELECT c.tag, a.n FROM c JOIN a ON c.n = a.n WHERE c.tag LIKE 'big%'`, 4}, // lossy outer keys
	} {
		mustLookup(t, db, "lookup", tc.q)
		if rs := sameAsExecutor(t, db, tc.q); len(rs.Rows) != tc.rows {
			t.Errorf("%s: %d rows, want %d", tc.q, len(rs.Rows), tc.rows)
		}
	}
}

func TestLookupJoinMultiKey(t *testing.T) {
	db := lookupTestDB(t)
	mustExec(t, db, `CREATE TABLE m (a integer, b integer)`)
	for n := 0; n < 5; n++ {
		var a any = n % 3
		if n == 3 {
			a = nil
		}
		mustExec(t, db, `INSERT INTO m VALUES ($1, $2)`, a, n*10)
	}
	// The index serves the SECOND pair; the first stays in the residual,
	// ahead of the ON remainder.
	const q = `SELECT m.a, m.b, i.w FROM m LEFT JOIN i ON m.a = i.k2 AND m.b = i.k AND i.w < 100`
	out := explainText(t, db, `EXPLAIN `+q)
	if !strings.Contains(out, "Index Lookup: i_k for (m.b = i.k)") {
		t.Fatalf("want the lookup on the second key pair:\n%s", out)
	}
	mustLookup(t, db, "lookup", q)
	sameAsExecutor(t, db, q)
}

func TestLookupJoinFallsBackToHash(t *testing.T) {
	db := lookupTestDB(t)
	// Above the ratio: 120 outer rows × 8 > 120 inner rows.
	const big = `SELECT x.tag, i.tag FROM i x JOIN i ON x.k = i.k WHERE x.w >= 0`
	mustLookup(t, db, "hash", big)
	want := sameAsExecutor(t, db, big)
	db.setPlanner(plannerOptions{forceLookupJoin: true})
	mustLookup(t, db, "lookup", big)
	if got := sameAsExecutor(t, db, big); !rowsEqual(got, want) {
		t.Fatalf("forced lookup differs from the hash fallback")
	}
	db.setPlanner(plannerOptions{})

	// Under the ratio but over the candidate budget: every outer row matches
	// every inner row.
	mustExec(t, db, `CREATE TABLE one (k integer, n integer)`)
	mustExec(t, db, `CREATE TABLE few (k integer)`)
	for n := 0; n < 40; n++ {
		mustExec(t, db, `INSERT INTO one VALUES (7, $1)`, n)
	}
	mustExec(t, db, `CREATE INDEX one_k ON one (k)`)
	mustExec(t, db, `INSERT INTO few VALUES (7), (7), (7)`)
	const dup = `SELECT one.n FROM few JOIN one ON few.k = one.k`
	mustLookup(t, db, "hash", dup)
	if rs := sameAsExecutor(t, db, dup); len(rs.Rows) != 120 {
		t.Fatalf("%s: %d rows, want 120", dup, len(rs.Rows))
	}
	mustLookup(t, db, "lookup", `SELECT one.n FROM few JOIN one ON few.k = one.k WHERE few.k < 7`)
}

func TestLookupJoinTransactionVisibility(t *testing.T) {
	db := lookupTestDB(t)
	const q = `SELECT o.id, i.tag FROM o JOIN i ON o.k = i.k WHERE o.k = 50`
	mine, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer mine.Rollback()
	if _, err := mine.Exec(`INSERT INTO i VALUES (50, 0, 1, 'mine')`); err != nil {
		t.Fatal(err)
	}
	tags := func(rs *ResultSet, err error) string {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		for _, r := range rs.Rows {
			out = append(out, r[1].Text())
		}
		return strings.Join(out, ",")
	}
	mustLookup(t, db, "lookup", q)
	if got := tags(mine.Query(q)); got != "mine" {
		t.Fatalf("the writer sees %q, want its own uncommitted row", got)
	}
	if got := tags(db.Query(q)); got != "" {
		t.Fatalf("another reader sees %q, want nothing uncommitted", got)
	}
	other, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer other.Rollback()
	if got := tags(other.Query(q)); got != "" {
		t.Fatalf("another transaction sees %q, want nothing uncommitted", got)
	}
	if err := mine.Commit(); err != nil {
		t.Fatal(err)
	}
	if got := tags(db.Query(q)); got != "mine" {
		t.Fatalf("after commit a reader sees %q", got)
	}
}

// TestLookupJoinSurvivesVacuum pins the open-time resolution: Vacuum rebuilds
// the inner table's index and moves every position while the iterator is
// open, and the drain must not notice.
func TestLookupJoinSurvivesVacuum(t *testing.T) {
	db := lookupTestDB(t)
	mustExec(t, db, `DELETE FROM i WHERE k2 = 1`) // dead versions for Vacuum to drop
	const q = `SELECT o.id, i.w, i.tag FROM o LEFT JOIN i ON o.k = i.k`
	want := mustRefQuery(t, db, q)
	mustLookup(t, db, "lookup", q)

	it, err := db.QueryRows(q)
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	if !it.Next() {
		t.Fatalf("no first row: %v", it.Err())
	}
	got := &ResultSet{Rows: []Row{it.Row()}}
	if err := db.Vacuum(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `INSERT INTO i VALUES (10, 0, -5, 'late'), (20, 0, -6, 'late')`)
	mustExec(t, db, `DELETE FROM i WHERE k = 20`)
	for it.Next() {
		got.Rows = append(got.Rows, it.Row())
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if !rowsEqual(got, want) {
		t.Fatalf("drain across Vacuum:\ngot  %v\nwant %v", got.Rows, want.Rows)
	}
}

// flipCtx reports cancellation from its n-th Err call on, which puts the
// cancellation inside whichever loop polls that late.
type flipCtx struct {
	context.Context
	calls atomic.Int64
	n     int64
}

func (c *flipCtx) Err() error {
	if c.calls.Add(1) >= c.n {
		return context.Canceled
	}
	return nil
}

func TestLookupJoinCancelDuringProbe(t *testing.T) {
	db := newSuiteDB(t)
	mustExec(t, db, `CREATE TABLE o (k integer)`)
	mustExec(t, db, `CREATE TABLE i (k integer)`)
	mustExec(t, db, `INSERT INTO o SELECT g FROM generate_series(1, 600) AS g`)
	mustExec(t, db, `INSERT INTO i SELECT g FROM generate_series(1, 6000) AS g`)
	mustExec(t, db, `CREATE INDEX i_k ON i (k)`)
	const q = `SELECT count(*) FROM o JOIN i ON o.k = i.k`
	mustLookup(t, db, "lookup", q)

	// The statement entry polls once, the probe loop at outer rows 0, 256
	// and 512, the drain after that: a context that flips on the fourth
	// poll cancels at outer row 512, inside open.
	ctx := &flipCtx{Context: context.Background(), n: 4}
	_, err := db.QueryRowsContext(ctx, q)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("open returned %v, want context.Canceled from the probe loop", err)
	}
	if got := ctx.calls.Load(); got != 4 {
		t.Fatalf("cancelled after %d polls, want 4 (the probe loop's third)", got)
	}
	if rs := mustQuery(t, db, q); rs.Rows[0][0].Int() != 600 {
		t.Fatalf("after the cancelled open: %v", rs.Rows)
	}
}
