package sqldb

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/variant"
)

// opTestDB builds two typed tables sized so the cost model picks hash joins.
func opTestDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	mustExec(t, db, `CREATE TABLE orders (id integer, cust integer, amount float)`)
	mustExec(t, db, `CREATE TABLE custs (id integer, name text)`)
	for i := 0; i < 200; i++ {
		var cust any = i % 25
		if i%40 == 39 {
			cust = nil
		}
		mustExec(t, db, `INSERT INTO orders VALUES ($1, $2, $3)`, i, cust, float64(i)/4)
	}
	for i := 0; i < 20; i++ { // custs 20..24 missing: unmatched orders exist
		mustExec(t, db, `INSERT INTO custs VALUES ($1, $2)`, i, "c"+strings.Repeat("x", i%3))
	}
	return db
}

// planKind reports which physical plan class a SELECT would run as.
func planKind(t *testing.T, db *DB, sql string) physKind {
	t.Helper()
	stmt, err := Parse(sql)
	if err != nil {
		t.Fatal(err)
	}
	db.mu.RLock()
	defer db.mu.RUnlock()
	plan, err := db.planSelect(db.tables.Load(), stmt.(*SelectStmt))
	if err != nil {
		t.Fatal(err)
	}
	return plan.kind
}

// runBoth executes sql through the planner's executor and through the
// reference executor, returning both results.
func runBoth(t *testing.T, db *DB, sql string, args ...any) (stream, mat *ResultSet) {
	t.Helper()
	return mustQuery(t, db, sql, args...), mustRefQuery(t, db, sql, args...)
}

func rowsEqual(a, b *ResultSet) bool {
	if len(a.Rows) != len(b.Rows) {
		return false
	}
	for i := range a.Rows {
		if rowKey(a.Rows[i]) != rowKey(b.Rows[i]) {
			return false
		}
	}
	return true
}

func TestHashJoinMatchesNestedLoop(t *testing.T) {
	db := opTestDB(t)
	queries := []string{
		// Inner equi-join; NULL cust rows must vanish.
		`SELECT o.id, c.name FROM orders o JOIN custs c ON o.cust = c.id`,
		// Left join; unmatched orders (cust NULL or ≥ 20) null-pad.
		`SELECT o.id, c.name FROM orders o LEFT JOIN custs c ON o.cust = c.id`,
		// Residual condition on top of the hash keys.
		`SELECT o.id FROM orders o JOIN custs c ON o.cust = c.id AND o.amount > 10`,
		// Left join with residual: the filter is part of the join, not WHERE.
		`SELECT o.id, c.id FROM orders o LEFT JOIN custs c ON o.cust = c.id AND c.id > 10`,
		// WHERE pushdown below the join plus residual above it.
		`SELECT o.id, c.name FROM orders o JOIN custs c ON o.cust = c.id WHERE o.amount > 5 AND c.name <> 'nope'`,
		// Equi-key extracted even when spelled reversed.
		`SELECT count(*) FROM orders o JOIN custs c ON c.id = o.cust`,
		// Three tables, aggregation above.
		`SELECT c.name, count(*), sum(o.amount) FROM orders o JOIN custs c ON o.cust = c.id JOIN custs c2 ON c2.id = c.id GROUP BY c.name ORDER BY name`,
		// Non-equi: nested loop fallback.
		`SELECT count(*) FROM orders o JOIN custs c ON o.cust < c.id`,
		// Cross join with WHERE equating the sides.
		`SELECT count(*) FROM orders o, custs c WHERE o.cust = c.id`,
	}
	for _, q := range queries {
		stream, mat := runBoth(t, db, q)
		if !rowsEqual(stream, mat) {
			t.Errorf("%s:\nstream %d rows, materialized %d rows", q, len(stream.Rows), len(mat.Rows))
		}
	}
}

func TestJoinPlansHashAndFallback(t *testing.T) {
	db := opTestDB(t)
	out := explainText(t, db, `EXPLAIN SELECT o.id FROM orders o JOIN custs c ON o.cust = c.id`)
	if !strings.Contains(out, "Hash Join (inner)") || !strings.Contains(out, "Hash Cond: (o.cust = c.id)") {
		t.Fatalf("want hash join, got:\n%s", out)
	}
	out = explainText(t, db, `EXPLAIN SELECT o.id FROM orders o JOIN custs c ON o.cust < c.id`)
	if !strings.Contains(out, "Nested Loop (inner join)") {
		t.Fatalf("want nested loop for non-equi, got:\n%s", out)
	}
	// disableHashJoin forces the streaming nested loop but answers match.
	db.setPlanner(plannerOptions{disableHashJoin: true})
	out = explainText(t, db, `EXPLAIN SELECT o.id FROM orders o JOIN custs c ON o.cust = c.id`)
	if strings.Contains(out, "Hash Join") {
		t.Fatalf("disableHashJoin ignored:\n%s", out)
	}
	nl := mustQuery(t, db, `SELECT o.id, c.name FROM orders o LEFT JOIN custs c ON o.cust = c.id`)
	db.setPlanner(plannerOptions{})
	hj := mustQuery(t, db, `SELECT o.id, c.name FROM orders o LEFT JOIN custs c ON o.cust = c.id`)
	if !rowsEqual(nl, hj) {
		t.Fatalf("nested loop %d rows != hash join %d rows", len(nl.Rows), len(hj.Rows))
	}
}

func TestJoinTypeIncompatibleKeysStayNestedLoop(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE a (x integer)`)
	mustExec(t, db, `CREATE TABLE b (y text)`)
	for i := 0; i < 50; i++ {
		mustExec(t, db, `INSERT INTO a VALUES ($1)`, i)
		mustExec(t, db, `INSERT INTO b VALUES ($1)`, "t")
	}
	// integer = text always errors under variant.Compare; the planner must
	// keep the nested loop so that error surfaces instead of silently
	// hashing to an empty result.
	out := explainText(t, db, `EXPLAIN SELECT count(*) FROM a JOIN b ON a.x = b.y`)
	if strings.Contains(out, "Hash Join") {
		t.Fatalf("incompatible key types must not hash:\n%s", out)
	}
	if _, err := db.Query(`SELECT count(*) FROM a JOIN b ON a.x = b.y`); err == nil {
		t.Fatal("expected comparison error")
	}
}

// TestHashJoinCrossKindKeys pins the runtime kind-family guard: hash keys
// whose declared types the planner cannot see (subquery columns) must still
// behave exactly like the nested loop across kind families — matching where
// variant.Compare parses, erroring where it errors.
func TestHashJoinCrossKindKeys(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE events (ts timestamp, n integer)`)
	for i := 0; i < 60; i++ {
		mustExec(t, db, `INSERT INTO events VALUES ($1, $2)`, fmt.Sprintf("2024-01-%02d 00:00:00", i%28+1), i)
	}

	// Timestamp column joined against a text subquery column: Compare
	// parses the text side, so matches must be found even though the hash
	// encodings differ by kind.
	const q = `SELECT count(*) FROM events e JOIN (SELECT '2024-01-03 00:00:00' AS d) s ON e.ts = s.d`
	streamed, mat := runBoth(t, db, q)
	if !rowsEqual(streamed, mat) || streamed.Rows[0][0].Int() == 0 {
		t.Fatalf("timestamp=text join: stream %v, materialized %v", streamed.Rows, mat.Rows)
	}

	// Integer column joined against a text subquery column: the nested
	// loop errors on the cross-kind comparison, so the hash path must too
	// rather than silently returning no rows.
	const bad = `SELECT count(*) FROM events e JOIN (SELECT 'nope' AS d) s ON e.n = s.d`
	if _, err := db.Query(bad); err == nil {
		t.Fatal("int=text join through untyped key should error like the nested loop")
	}

	// Homogeneous numeric keys across int/float stay on the O(1) bucket
	// path and agree with the executor.
	mustExec(t, db, `CREATE TABLE fs (f float)`)
	for i := 0; i < 40; i++ {
		mustExec(t, db, `INSERT INTO fs VALUES ($1)`, float64(i))
	}
	streamed, mat = runBoth(t, db, `SELECT count(*) FROM events e JOIN fs ON e.n = fs.f`)
	if !rowsEqual(streamed, mat) || streamed.Rows[0][0].Int() != 40 {
		t.Fatalf("numeric cross-kind join: stream %v, materialized %v", streamed.Rows, mat.Rows)
	}
}

// TestHashJoinLossyIntegerKeys pins the famLossy guard: integers outside
// float64's exact range hash by exact value but compare as float64, so
// Compare-equal values would land in different buckets without the
// fallback.
func TestHashJoinLossyIntegerKeys(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE a (big integer)`)
	mustExec(t, db, `CREATE TABLE b (big integer)`)
	for i := 0; i < 50; i++ { // filler so the cost model picks hash
		mustExec(t, db, `INSERT INTO a VALUES ($1)`, i)
		mustExec(t, db, `INSERT INTO b VALUES ($1)`, i+1000)
	}
	// 2^53 and 2^53+1 are Compare-equal (both collapse to the same
	// float64) but hash differently.
	mustExec(t, db, `INSERT INTO a VALUES (9007199254740992)`)
	mustExec(t, db, `INSERT INTO b VALUES (9007199254740993)`)
	const q = `SELECT count(*) FROM a JOIN b ON a.big = b.big`
	streamed, mat := runBoth(t, db, q)
	if !rowsEqual(streamed, mat) || streamed.Rows[0][0].Int() != 1 {
		t.Fatalf("lossy integer keys: stream %v, materialized %v", streamed.Rows, mat.Rows)
	}
}

// TestHashJoinResidualPrefixRule pins the leading-run key extraction: an ON
// conjunct placed before the equality is evaluated by the executor on every
// pair (AND only short-circuits on FALSE), so its errors must survive —
// which means such joins cannot hash.
func TestHashJoinResidualPrefixRule(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE a (v integer, id integer)`)
	mustExec(t, db, `CREATE TABLE b (v text, id integer)`)
	for i := 0; i < 50; i++ { // disjoint id ranges: the equi-key never matches
		mustExec(t, db, `INSERT INTO a VALUES ($1, $2)`, i, i)
		mustExec(t, db, `INSERT INTO b VALUES ('t', $1)`, i+1000)
	}
	// Residual before the key: integer < text errors on every pair in the
	// executor even though no ids ever match; the streaming plan must not
	// hide that behind a bucket miss.
	_, serr := db.Query(`SELECT a.id FROM a JOIN b ON a.v < b.v AND a.id = b.id`)
	_, merr := refQuery(t, db, `SELECT a.id FROM a JOIN b ON a.v < b.v AND a.id = b.id`)
	if serr == nil || merr == nil {
		t.Fatalf("residual-before-key error must surface on both paths: stream=%v materialized=%v", serr, merr)
	}
	// Key first: the executor short-circuits at the false equality, never
	// reaches the bad comparison, and both paths succeed empty — while
	// still hashing.
	out := explainText(t, db, `EXPLAIN SELECT a.id FROM a JOIN b ON a.id = b.id AND a.v < b.v`)
	if !strings.Contains(out, "Hash Join") {
		t.Fatalf("key-first spelling should hash:\n%s", out)
	}
	streamed, mat := runBoth(t, db, `SELECT a.id FROM a JOIN b ON a.id = b.id AND a.v < b.v`)
	if len(streamed.Rows) != 0 || len(mat.Rows) != 0 {
		t.Fatalf("disjoint keys: stream %d rows, materialized %d", len(streamed.Rows), len(mat.Rows))
	}
}

// TestJoinPushdownErrorDeferral pins the lenient-prefilter contract: a
// pushed WHERE conjunct that errors on a source row the join eliminates
// must not fail the query (the executor never evaluates WHERE there), while
// the same error on a surviving row still surfaces.
func TestJoinPushdownErrorDeferral(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE f (id integer, k integer)`)
	mustExec(t, db, `CREATE TABLE d (k integer, w integer)`)
	for i := 0; i < 50; i++ {
		mustExec(t, db, `INSERT INTO f VALUES ($1, $2)`, i, i%5)
	}
	// d.k = 99 matches no fact row; its w = 0 would divide by zero.
	mustExec(t, db, `INSERT INTO d VALUES (1, 2), (2, 4), (99, 0)`)

	const ok = `SELECT f.id FROM f JOIN d ON f.k = d.k WHERE 10 / d.w > 0 ORDER BY f.id`
	streamed, mat := runBoth(t, db, ok)
	if !rowsEqual(streamed, mat) || len(streamed.Rows) == 0 {
		t.Fatalf("eliminated-row error must stay deferred: stream %d rows, materialized %d", len(streamed.Rows), len(mat.Rows))
	}

	// Once the zero row can survive the join, both paths must error.
	mustExec(t, db, `INSERT INTO f VALUES (1000, 99)`)
	_, serr := db.Query(ok)
	_, merr := refQuery(t, db, ok)
	if serr == nil || merr == nil {
		t.Fatalf("surviving-row error must surface on both paths: stream=%v materialized=%v", serr, merr)
	}
}

func TestJoinEmptyOuterSkipsBuildErrors(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE empty (x integer)`)
	mustExec(t, db, `CREATE TABLE big (y integer)`)
	for i := 0; i < 100; i++ {
		mustExec(t, db, `INSERT INTO big VALUES ($1)`, i)
	}
	// The executor never evaluates join keys when the outer input is
	// empty; the deferred hash build must preserve that.
	rs := mustQuery(t, db, `SELECT * FROM empty e JOIN big b ON e.x = b.missing`)
	if len(rs.Rows) != 0 {
		t.Fatalf("rows = %d", len(rs.Rows))
	}
}

func TestJoinLimitEarlyExit(t *testing.T) {
	db := opTestDB(t)
	it, err := db.QueryRows(`SELECT o.id, c.name FROM orders o JOIN custs c ON o.cust = c.id LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for it.Next() {
		n++
	}
	if err := it.Err(); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("rows = %d", n)
	}
}

func TestJoinContextCancellation(t *testing.T) {
	db := opTestDB(t)
	ctx, cancel := context.WithCancel(context.Background())
	it, err := db.QueryRowsContext(ctx, `SELECT o.id FROM orders o JOIN custs c ON o.cust = c.id`)
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	for it.Next() {
	}
	if it.Err() == nil {
		t.Fatal("cancelled iteration should report the context error")
	}
}

func TestScalarAggregateOnEmptyInput(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE empty (x integer, y float)`)

	check := func(rs *ResultSet, label string) {
		t.Helper()
		if len(rs.Rows) != 1 {
			t.Fatalf("%s: want exactly one row for pure aggregates over empty input, got %d", label, len(rs.Rows))
		}
		r := rs.Rows[0]
		if r[0].Int() != 0 {
			t.Errorf("%s: count(*) = %v", label, r[0])
		}
		for i := 1; i < 4; i++ {
			if !r[i].IsNull() {
				t.Errorf("%s: column %d = %v, want NULL", label, i, r[i])
			}
		}
	}
	const q = `SELECT count(*), sum(x), min(y), avg(x) FROM empty`

	// Regression pin: the reference executor has always produced the
	// single implicit group.
	check(mustRefQuery(t, db, q), "reference")

	// The streaming hash aggregation must create the implicit group even
	// when build() consumes zero rows.
	db.setPlanner(plannerOptions{disableVectorized: true})
	if k := planKind(t, db, q); k != physOps {
		t.Fatalf("plan kind = %v, want physOps", k)
	}
	check(mustQuery(t, db, q), "streaming")

	// As must the vectorized aggregate.
	db.setPlanner(plannerOptions{})
	if k := planKind(t, db, q); k != physVectorized {
		t.Fatalf("plan kind = %v, want physVectorized", k)
	}
	check(mustQuery(t, db, q), "vectorized")

	// And through a join that produces no rows.
	mustExec(t, db, `CREATE TABLE other (x integer)`)
	check(mustQuery(t, db, `SELECT count(*), sum(e.x), min(e.y), avg(e.x) FROM empty e JOIN other o ON e.x = o.x`), "joined")
}

func TestStreamingAggregateSemantics(t *testing.T) {
	db := New()
	// Pin the streaming operator pipeline: this suite exercises physOps, not
	// the vectorized aggregate that would otherwise claim these statements.
	db.setPlanner(plannerOptions{disableVectorized: true})
	mustExec(t, db, `CREATE TABLE m (grp text, v integer, f float)`)
	rows := []struct {
		grp any
		v   any
		f   any
	}{
		{"a", 1, 1.5}, {"a", 1, 2.5}, {"a", nil, nil}, {"b", 7, 0.25},
		{nil, 3, 1.0}, {nil, nil, 2.0}, {"b", 9, nil}, {"a", 2, 8.0},
	}
	for _, r := range rows {
		mustExec(t, db, `INSERT INTO m VALUES ($1, $2, $3)`, r.grp, r.v, r.f)
	}
	queries := []string{
		// NULL group keys form their own group; DISTINCT aggregates.
		`SELECT grp, count(*), count(v), count(DISTINCT v), sum(v), avg(f), min(f), max(v) FROM m GROUP BY grp`,
		`SELECT grp, sum(v) FROM m GROUP BY grp HAVING count(*) > 1`,
		`SELECT grp, v, count(*) FROM m GROUP BY grp, v`,
		// Scalar functions of aggregates, CASE over keys, expressions.
		`SELECT grp, abs(sum(v) - 10), CASE WHEN count(*) > 2 THEN 'big' ELSE 'small' END FROM m GROUP BY grp`,
		// Group by expression.
		`SELECT v % 2, count(*) FROM m GROUP BY v % 2`,
		// ORDER BY output alias and ordinal over grouped output.
		`SELECT grp, count(*) AS n FROM m GROUP BY grp ORDER BY n DESC, 1`,
		// stddev folds in the reference's two-pass order.
		`SELECT grp, stddev(f), stddev(v) FROM m GROUP BY grp`,
		`SELECT stddev(v) FROM m`,
	}
	for _, q := range queries {
		if k := planKind(t, db, q); k != physOps {
			t.Fatalf("%s: plan kind = %v, want physOps", q, k)
		}
		stream, mat := runBoth(t, db, q)
		if !rowsEqual(stream, mat) {
			t.Errorf("%s:\nstream=%v\nmat=%v", q, stream.Rows, mat.Rows)
		}
	}
}

func TestOrderedIndexScanSatisfiesOrderBy(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE t (k integer, v text)`)
	for i := 0; i < 300; i++ {
		var k any = (i * 37) % 100 // duplicates, shuffled insert order
		if i%25 == 24 {
			k = nil
		}
		mustExec(t, db, `INSERT INTO t VALUES ($1, $2)`, k, "v")
	}
	mustExec(t, db, `CREATE INDEX t_k ON t (k)`)

	for _, q := range []string{
		`SELECT k, v FROM t ORDER BY k`,
		`SELECT k, v FROM t ORDER BY k DESC`,
		`SELECT k FROM t ORDER BY 1`,
		`SELECT v, k FROM t ORDER BY t.k DESC`,
		`SELECT k FROM t WHERE v = 'v' ORDER BY k LIMIT 7`,
	} {
		out := explainText(t, db, "EXPLAIN "+q)
		if !strings.Contains(out, "btree ordered") {
			t.Fatalf("%s: want ordered index scan, got:\n%s", q, out)
		}
		if strings.Contains(out, "Sort") {
			t.Fatalf("%s: sort should be satisfied by the index:\n%s", q, out)
		}
		stream, mat := runBoth(t, db, q)
		if !rowsEqual(stream, mat) {
			t.Errorf("%s: ordered scan diverges from sorted output", q)
		}
	}

	// A computed key cannot use the index.
	out := explainText(t, db, `EXPLAIN SELECT k FROM t ORDER BY k + 1`)
	if !strings.Contains(out, "Sort (key: (k + 1))") {
		t.Fatalf("computed key must sort:\n%s", out)
	}
	// An aliased computed output column spelled like the base column must
	// sort by the computed value, not the index.
	stream, mat := runBoth(t, db, `SELECT -k AS k FROM t ORDER BY k`)
	if !rowsEqual(stream, mat) {
		t.Error("aliased computed key diverges")
	}
}

func TestOperatorPlanEpochInvalidation(t *testing.T) {
	db := opTestDB(t)
	const q = `SELECT o.id, c.name FROM orders o JOIN custs c ON o.cust = c.id ORDER BY o.id LIMIT 5`
	st, err := db.Prepare(q)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Query(); err != nil {
		t.Fatal(err)
	}
	// DDL between executions: the cached operator plan pins table and index
	// pointers and must replan at the new epoch instead of reading the
	// dropped table's rows.
	mustExec(t, db, `CREATE INDEX custs_id ON custs (id) USING hash`)
	mustExec(t, db, `DROP TABLE custs`)
	mustExec(t, db, `CREATE TABLE custs (id integer, name text)`)
	mustExec(t, db, `INSERT INTO custs VALUES (1, 'only')`)
	again, err := st.Query()
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Rows) == 0 {
		t.Fatal("replanned query returned no rows")
	}
	for _, r := range again.Rows {
		if r[1].Text() != "only" {
			t.Fatalf("stale plan row: %v", r)
		}
	}
}

func TestSharedJoinPlanConcurrentUse(t *testing.T) {
	db := opTestDB(t)
	st, err := db.Prepare(`SELECT o.id, c.name FROM orders o JOIN custs c ON o.cust = c.id WHERE o.amount > $1`)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				rs, err := st.Query(float64(g))
				if err != nil {
					t.Error(err)
					return
				}
				if len(rs.Rows) == 0 {
					t.Error("no rows")
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestStreamingDistinctAndSubquerySources(t *testing.T) {
	db := opTestDB(t)
	queries := []string{
		`SELECT DISTINCT c.name FROM orders o JOIN custs c ON o.cust = c.id`,
		`SELECT s.cust, count(*) FROM (SELECT cust FROM orders WHERE amount > 2) AS s GROUP BY s.cust`,
		`SELECT o.id, s.id FROM orders o JOIN (SELECT id FROM custs WHERE id < 5) AS s ON o.cust = s.id`,
		`SELECT gs, count(*) FROM generate_series(1, 5) AS gs GROUP BY gs ORDER BY gs`,
	}
	for _, q := range queries {
		stream, mat := runBoth(t, db, q)
		if !rowsEqual(stream, mat) {
			t.Errorf("%s diverges", q)
		}
	}
}

// TestOperatorsKeepUDFStatementsOnExecutor pins that statements calling a
// UDF outside FROM stay on the operator pipeline — evaluated completely at
// open, under the held lock — beside the FROM-only UDF shapes that stream
// lazily, with the reference's rows.
func TestOperatorsKeepUDFStatementsOnExecutor(t *testing.T) {
	db := opTestDB(t)
	db.RegisterScalar("myfn", func(_ context.Context, _ *Tx, args []variant.Value) (variant.Value, error) {
		return args[0], nil
	}, true)
	for _, q := range []string{
		`SELECT myfn(o.id) FROM orders o JOIN custs c ON o.cust = c.id`,
		`SELECT count(*) FROM orders GROUP BY myfn(cust)`,
		`SELECT gs, count(*) FROM generate_series(1, 3) AS gs GROUP BY gs`,
		// A lateral function scan calls its function at open, under the lock.
		`SELECT o.id, g FROM orders o, generate_series(1, o.id) AS g`,
		`SELECT myfn(g) FROM orders o, generate_series(1, o.id) AS g`,
	} {
		if k := planKind(t, db, q); k != physOps {
			t.Fatalf("%s: plan kind = %v, want physOps", q, k)
		}
		if stream, ref := runBoth(t, db, q); !rowsEqual(stream, ref) {
			t.Errorf("%s diverges", q)
		}
	}
}
