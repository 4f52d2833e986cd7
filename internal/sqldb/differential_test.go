package sqldb

import (
	"fmt"
	"math/rand"
	"testing"
)

// TestStreamingOperatorEquivalence is the streaming pipeline's safety net:
// randomized equi- and non-equi joins (inner/left/cross, ON and WHERE
// spellings) and aggregations (COUNT/SUM/AVG/MIN/MAX, DISTINCT, HAVING,
// NULL group keys) must return exactly the row multiset the forced
// materializing executor returns — the DisableStreamingExec planner
// override, mirroring the DisableIndexScan pattern the access-path property
// test uses. Runs under -race in CI, so it also exercises hash builds,
// group state, and parallel probe scans for data races.
//
// Every table carries an ordered index on its join key, over rows that were
// updated, deleted and re-inserted (stale index entries), and the query set
// runs three times: under the shipped rule for the index lookup join, with
// the lookup forced for every eligible join, and with DisableIndexScan.
func TestStreamingOperatorEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(20260728))
	db := newSuiteDB(t)
	// Low parallel threshold so probe-side partitioned scans participate.
	db.SetPlannerOptions(PlannerOptions{MaxScanWorkers: 4, ParallelMinRows: 400})
	mustExec(t, db, `CREATE TABLE fact (id integer, k integer, f float, tag text)`)
	mustExec(t, db, `CREATE TABLE dim (k integer, grp text, w float)`)
	mustExec(t, db, `CREATE TABLE aux (k integer, n integer)`)

	for i := 0; i < 550; i++ {
		var k, f, tag any
		if rng.Intn(12) == 0 {
			k = nil
		} else {
			k = rng.Intn(40)
		}
		if rng.Intn(10) == 0 {
			f = nil
		} else {
			f = float64(rng.Intn(500)) / 8
		}
		tag = fmt.Sprintf("t%d", rng.Intn(6))
		mustExec(t, db, `INSERT INTO fact VALUES ($1, $2, $3, $4)`, i, k, f, tag)
	}
	for i := 0; i < 35; i++ { // keys 35..39 dangle; duplicates exist
		var grp any
		if rng.Intn(8) == 0 {
			grp = nil
		} else {
			grp = fmt.Sprintf("g%d", rng.Intn(5))
		}
		mustExec(t, db, `INSERT INTO dim VALUES ($1, $2, $3)`, i%30, grp, float64(i))
	}
	for i := 0; i < 25; i++ {
		mustExec(t, db, `INSERT INTO aux VALUES ($1, $2)`, rng.Intn(45), rng.Intn(9))
	}
	mustExec(t, db, `CREATE INDEX fact_k ON fact (k)`)
	mustExec(t, db, `CREATE INDEX dim_k ON dim (k)`)
	mustExec(t, db, `CREATE INDEX aux_k ON aux (k)`)
	mustExec(t, db, `UPDATE dim SET w = w + 0.5 WHERE k % 4 = 1`)
	mustExec(t, db, `UPDATE dim SET k = k + 1 WHERE k % 7 = 3`)
	mustExec(t, db, `DELETE FROM dim WHERE k = 12`)
	mustExec(t, db, `INSERT INTO dim VALUES (12, 'g9', 99), (NULL, 'g1', 98)`)
	mustExec(t, db, `UPDATE aux SET n = n + 1 WHERE k < 10`)
	mustExec(t, db, `DELETE FROM aux WHERE k > 40`)
	mustExec(t, db, `INSERT INTO aux VALUES (41, 3), (5, 3)`)
	mustExec(t, db, `UPDATE fact SET k = 39 - k WHERE id % 5 = 0`)
	mustExec(t, db, `DELETE FROM fact WHERE id % 11 = 0`)
	mustExec(t, db, `ANALYZE`)

	joinKinds := []string{"JOIN", "LEFT JOIN"}
	aggs := []string{"count(*)", "count(f.f)", "count(DISTINCT f.tag)", "sum(f.f)", "avg(f.f)", "min(f.f)", "max(f.id)", "sum(DISTINCT f.k)"}
	wheres := []string{
		"", "WHERE f.id < 600", "WHERE f.f > 20 AND d.w < 30", "WHERE f.k IS NOT NULL",
		"WHERE f.tag = 't1' AND f.id % 3 = 0", "WHERE d.grp IS NULL",
	}

	var queries []string
	add := func(format string, args ...any) { queries = append(queries, fmt.Sprintf(format, args...)) }
	for iter := 0; iter < 60; iter++ {
		jk := joinKinds[rng.Intn(len(joinKinds))]
		where := wheres[rng.Intn(len(wheres))]
		var on string
		switch rng.Intn(4) {
		case 0:
			on = "f.k = d.k"
		case 1:
			on = "f.k = d.k AND f.f > d.w" // residual over hash keys
		case 2:
			on = "f.k < d.k" // non-equi: nested loop
		default:
			on = "d.k = f.k AND d.grp IS NOT NULL"
		}
		switch rng.Intn(3) {
		case 0: // plain join projection
			add(`SELECT f.id, f.tag, d.grp, d.w FROM fact f %s dim d ON %s %s`, jk, on, where)
		case 1: // grouped over a join, NULL group keys included
			agg1 := aggs[rng.Intn(len(aggs))]
			agg2 := aggs[rng.Intn(len(aggs))]
			having := ""
			if rng.Intn(2) == 0 {
				having = "HAVING count(*) > 1"
			}
			add(`SELECT d.grp, %s, %s FROM fact f %s dim d ON %s %s GROUP BY d.grp %s`,
				agg1, agg2, jk, on, where, having)
		default: // three-way with the aux table and a cross-join spelling
			add(`SELECT d.grp, a.n, count(*) FROM fact f %s dim d ON %s, aux a %s GROUP BY d.grp, a.n`,
				jk, on, whereAnd(where, "a.k = f.k"))
		}
	}
	// A small outer onto a large indexed inner: what the shipped rule looks up.
	for _, jk := range joinKinds {
		add(`SELECT d.k, d.w, f.id, f.f FROM dim d %s fact f ON d.k = f.k WHERE d.w < 3`, jk)
		add(`SELECT a.n, count(*), sum(f.f) FROM aux a %s fact f ON a.k = f.k AND f.f > a.n WHERE a.n < 2 GROUP BY a.n`, jk)
		add(`SELECT f.id, a.n FROM fact f %s aux a ON f.k = a.k WHERE f.id < 4`, jk)
	}
	// Deterministic ORDER BY spot checks compare ordered output, not just
	// the multiset.
	ordered := []string{
		`SELECT f.id, d.k FROM fact f JOIN dim d ON f.k = d.k ORDER BY f.id, d.w LIMIT 40`,
		`SELECT d.grp, count(*) AS n FROM fact f LEFT JOIN dim d ON f.k = d.k GROUP BY d.grp ORDER BY n DESC, 1`,
		`SELECT k, count(*) FROM fact GROUP BY k ORDER BY 1`,
	}

	multiset := func(rs *ResultSet) map[string]int {
		m := make(map[string]int, len(rs.Rows))
		for _, r := range rs.Rows {
			m[rowKey(r)]++
		}
		return m
	}
	// check runs q under the current options and compares with the forced
	// materializing executor (whose answer does not depend on the mode, so it
	// runs once per query); inOrder additionally compares the row order.
	type answer struct {
		rs  *ResultSet
		err error
	}
	reference := make(map[string]answer)
	check := func(q string, inOrder bool) {
		t.Helper()
		streamed, serr := db.Query(q)
		ref, ok := reference[q]
		if !ok {
			old := db.planner
			db.SetPlannerOptions(PlannerOptions{DisableStreamingExec: true})
			ref.rs, ref.err = db.Query(q)
			db.SetPlannerOptions(old)
			reference[q] = ref
		}
		materialized, merr := ref.rs, ref.err
		if (serr == nil) != (merr == nil) {
			t.Fatalf("%s:\nstream err = %v\nmaterialized err = %v", q, serr, merr)
		}
		if serr != nil {
			return
		}
		sm, mm := multiset(streamed), multiset(materialized)
		if len(streamed.Rows) != len(materialized.Rows) {
			t.Fatalf("%s:\nstream %d rows, materialized %d rows", q, len(streamed.Rows), len(materialized.Rows))
		}
		for k, n := range sm {
			if mm[k] != n {
				t.Fatalf("%s:\nrow %q: stream ×%d, materialized ×%d", q, k, n, mm[k])
			}
		}
		if inOrder && !rowsEqual(streamed, materialized) {
			t.Fatalf("%s: row order differs", q)
		}
	}

	for _, mode := range []struct {
		name        string
		opts        PlannerOptions
		force       bool
		wantLookups bool
	}{
		{"shipped", PlannerOptions{MaxScanWorkers: 4, ParallelMinRows: 400}, false, true},
		// Serial scans: a parallel outer keeps the hash join.
		{"lookup forced", PlannerOptions{MaxScanWorkers: 1}, true, true},
		{"DisableIndexScan", PlannerOptions{MaxScanWorkers: 4, ParallelMinRows: 400, DisableIndexScan: true}, false, false},
	} {
		db.SetPlannerOptions(mode.opts)
		db.forceLookupJoin = mode.force
		lookups := 0
		for _, q := range queries {
			if planKind(t, db, q) == physOps && joinStrategy(t, db, q) == "lookup" {
				lookups++
			}
			check(q, false)
		}
		for _, q := range ordered {
			check(q, true)
		}
		t.Logf("%s: %d of %d joins looked their candidates up", mode.name, lookups, len(queries))
		if (lookups > 0) != mode.wantLookups || (mode.force && lookups < len(queries)/3) {
			t.Errorf("%s: %d of %d joins looked their candidates up", mode.name, lookups, len(queries))
		}
	}
}

// whereAnd merges a WHERE prefix with one more conjunct.
func whereAnd(where, conj string) string {
	if where == "" {
		return "WHERE " + conj
	}
	return where + " AND " + conj
}

// TestStreamingOperatorEquivalenceSingleTable covers the single-table
// operator class (GROUP BY, DISTINCT, ORDER BY incl. index-satisfied order)
// against the forced executor.
func TestStreamingOperatorEquivalenceSingleTable(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	db := newSuiteDB(t)
	mustExec(t, db, `CREATE TABLE s (a integer, b float, c text)`)
	for i := 0; i < 500; i++ {
		var a, b any
		if rng.Intn(10) == 0 {
			a = nil
		} else {
			a = rng.Intn(25)
		}
		if rng.Intn(10) == 0 {
			b = nil
		} else {
			b = float64(rng.Intn(100)) / 3
		}
		mustExec(t, db, `INSERT INTO s VALUES ($1, $2, $3)`, a, b, fmt.Sprintf("c%d", rng.Intn(4)))
	}
	mustExec(t, db, `CREATE INDEX s_a ON s (a)`)

	queries := []string{
		`SELECT a, count(*), sum(b), min(b), max(c) FROM s GROUP BY a`,
		`SELECT c, avg(b) FROM s WHERE a > 5 GROUP BY c HAVING count(*) > 10`,
		`SELECT DISTINCT c FROM s`,
		`SELECT DISTINCT a, c FROM s WHERE b IS NOT NULL`,
		`SELECT a, b FROM s ORDER BY a`,
		`SELECT a, b FROM s ORDER BY a DESC LIMIT 25`,
		`SELECT c, b FROM s WHERE a BETWEEN 3 AND 9 ORDER BY b DESC, c`,
		`SELECT a % 4, count(DISTINCT c) FROM s GROUP BY a % 4 ORDER BY 2 DESC, 1`,
	}
	for _, q := range queries {
		streamed := mustQuery(t, db, q)
		db.SetPlannerOptions(PlannerOptions{DisableStreamingExec: true})
		materialized := mustQuery(t, db, q)
		db.SetPlannerOptions(PlannerOptions{})
		if !rowsEqual(streamed, materialized) {
			t.Errorf("%s diverges:\nstream %d rows, materialized %d rows", q, len(streamed.Rows), len(materialized.Rows))
		}
	}
}
