package sqldb

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/variant"
)

// TestStreamingOperatorEquivalence is the streaming pipeline's safety net:
// randomized equi- and non-equi joins (inner/left/cross, ON and WHERE
// spellings) and aggregations (COUNT/SUM/AVG/MIN/MAX, DISTINCT, HAVING,
// NULL group keys) must return exactly the row multiset the reference
// executor (refQuery) returns. Runs under -race in CI, so it also exercises hash builds
// and group state for data races.
//
// Every table carries an ordered index on its join key, over rows that were
// updated, deleted and re-inserted (stale index entries), and the query set
// runs three times: under the shipped rule for the index lookup join, with
// the lookup forced for every eligible join, and with disableIndexScan.
func TestStreamingOperatorEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(20260728))
	db := newSuiteDB(t)
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
		// Windows the batch path declines: over a join, under ORDER BY.
		`SELECT f.id, d.k, sum(f.f) OVER (PARTITION BY d.grp ORDER BY f.id) FROM fact f JOIN dim d ON f.k = d.k WHERE f.id < 300 ORDER BY f.id, d.k`,
		`SELECT f.id, row_number() OVER (ORDER BY f.f DESC, f.id) FROM fact f LEFT JOIN aux a ON f.k = a.k WHERE f.id < 120`,
		`SELECT d.grp, stddev(f.f), stddev(DISTINCT f.k) FROM fact f JOIN dim d ON f.k = d.k GROUP BY d.grp ORDER BY 1`,
	}

	multiset := func(rs *ResultSet) map[string]int {
		m := make(map[string]int, len(rs.Rows))
		for _, r := range rs.Rows {
			m[rowKey(r)]++
		}
		return m
	}
	// check runs q under the current options and compares with the
	// reference executor (whose answer does not depend on the mode, so it
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
			ref.rs, ref.err = refQuery(t, db, q)
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
		opts        plannerOptions
		wantLookups bool
	}{
		{"shipped", plannerOptions{}, true},
		{"lookup forced", plannerOptions{forceLookupJoin: true}, true},
		{"disableIndexScan", plannerOptions{disableIndexScan: true}, false},
	} {
		db.setPlanner(mode.opts)
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
		if (lookups > 0) != mode.wantLookups || (mode.opts.forceLookupJoin && lookups < len(queries)/3) {
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

// TestStreamingOperatorEquivalenceSingleTable covers the single-source
// operator class against the forced executor: GROUP BY, DISTINCT, ORDER BY
// incl. index-satisfied order, and the plain reads — index probes, LIMIT and
// OFFSET (parameters, bad values, errors before and after the LIMIT), the
// FROM-less row, a filtered table function and column-alias errors — which
// must match on rows and on error text.
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
		// Windows over an index probe, under ORDER BY and DISTINCT, and
		// stddev: the pipeline's window stage and aggregation.
		`SELECT a, b, avg(b) OVER (ORDER BY b ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) FROM s WHERE a = 7`,
		`SELECT a, c, sum(b) OVER (PARTITION BY c ORDER BY a) FROM s WHERE a BETWEEN 3 AND 9`,
		`SELECT a, b, row_number() OVER (PARTITION BY a ORDER BY b DESC) FROM s WHERE a < 5 ORDER BY a, b`,
		`SELECT DISTINCT c, count(*) OVER (PARTITION BY c) FROM s`,
		`SELECT c, stddev(b), stddev(a) FROM s GROUP BY c`,
		`SELECT stddev(b) FROM s WHERE a = 3`,
	}
	for _, q := range queries {
		streamed := mustQuery(t, db, q)
		materialized := mustRefQuery(t, db, q)
		if !rowsEqual(streamed, materialized) {
			t.Errorf("%s diverges:\nstream %d rows, materialized %d rows", q, len(streamed.Rows), len(materialized.Rows))
		}
	}

	mustExec(t, db, `CREATE TABLE z (i integer, d integer)`)
	for i := 0; i < 10; i++ {
		mustExec(t, db, `INSERT INTO z VALUES ($1, $2)`, i, i-5) // d = 0 at i = 5
	}
	db.RegisterTable("jobs", func(_ context.Context, _ *Tx, _ []variant.Value) (RowStream, error) {
		var rows []Row
		for i := 1; i <= 6; i++ {
			rows = append(rows, Row{variant.NewInt(int64(i)), variant.NewText(fmt.Sprintf("state%d", i%3))})
		}
		return NewSliceStream([]Column{{Name: "jobid", Type: "integer"}, {Name: "state", Type: "text"}}, rows), nil
	}, true)
	plain := []struct {
		sql  string
		args []any
	}{
		{`SELECT a, b, c FROM s WHERE a = 7`, nil},
		{`SELECT c, b FROM s WHERE a = $1 AND b > 10`, []any{3}},
		{`SELECT a, c FROM s WHERE a >= 3 AND a < 6`, nil},
		{`SELECT b FROM s WHERE a BETWEEN $1 AND $2`, []any{20, 22}},
		{`SELECT a, c FROM s LIMIT $1 OFFSET $2`, []any{7, 480}},
		{`SELECT a FROM s WHERE c = 'c1' LIMIT $1 OFFSET $2`, []any{5, 3}},
		{`SELECT a FROM s WHERE a = 4 LIMIT $1`, []any{2}},
		{`SELECT a FROM s LIMIT 'many'`, nil},
		{`SELECT a FROM s LIMIT $1`, []any{2.5}},
		{`SELECT a FROM s OFFSET 'x'`, nil},
		{`SELECT i FROM z WHERE 10 / d <> 0 LIMIT 3`, nil}, // stops before d = 0
		{`SELECT i FROM z WHERE 10 / d <> 0 LIMIT 6`, nil}, // reaches it
		{`SELECT i FROM z WHERE 10 / d <> 0 LIMIT 2 OFFSET 2`, nil},
		{`SELECT i FROM z WHERE 10 / d <> 0 LIMIT 2 OFFSET 4`, nil},
		{`SELECT i, 10 / d FROM z LIMIT 5`, nil},
		{`SELECT i, 10 / d FROM z LIMIT 6`, nil},
		{`SELECT 10 / d FROM z WHERE i >= $1 LIMIT 3`, []any{2}},
		{`SELECT 10 / d FROM z WHERE i >= $1 LIMIT 4`, []any{2}},
		{`SELECT 1`, nil},
		{`SELECT $1 + 1, 'x' AS y`, []any{41}},
		{`SELECT 1 WHERE false`, nil},
		{`SELECT 1 / 0`, nil},
		{`SELECT *`, nil},
		{`SELECT count(*), sum(2) WHERE $1`, []any{false}},
		{`SELECT DISTINCT 1 ORDER BY 1 LIMIT 0`, nil},
		{`SELECT q.a, q.n FROM (SELECT a, a * 2 AS n FROM s WHERE a < 4) AS q WHERE q.n > 2 LIMIT 5`, nil},
		{`SELECT j.state FROM jobs() AS j WHERE j.jobid = $1`, []any{4}},
		{`SELECT * FROM jobs() AS j WHERE j.jobid > 2 LIMIT 2`, nil},
		{`SELECT * FROM s AS x(p, q, r, extra)`, nil},
		{`SELECT * FROM jobs() AS j(a, b, c)`, nil},
		{`SELECT p FROM s AS x(p) WHERE p = 3`, nil},
	}
	run := func(opts plannerOptions, q string, args []any) (*ResultSet, error) {
		db.setPlanner(opts)
		return db.Query(q, args...)
	}
	for _, c := range plain {
		// The vectorized scan would take the filtered sequential scans.
		db.setPlanner(plannerOptions{disableVectorized: true})
		if k := planKind(t, db, c.sql); k != physOps {
			t.Errorf("%s: plan kind %d, want physOps", c.sql, k)
		}
		streamed, serr := run(plannerOptions{disableVectorized: true}, c.sql, c.args)
		ref, rerr := refQuery(t, db, c.sql, c.args...)
		switch {
		case (serr == nil) != (rerr == nil) || (serr != nil && serr.Error() != rerr.Error()):
			t.Errorf("%s:\nstream err = %v\nreference err = %v", c.sql, serr, rerr)
		case serr == nil && !rowsEqual(streamed, ref):
			t.Errorf("%s diverges:\nstream %v\nreference %v", c.sql, streamed.Rows, ref.Rows)
		}
	}
}

// callStream yields rows (i, i * 1.5, i % 3) for i in 1..n, failing at row
// failRow when that is in range.
type callStream struct {
	call, n, failRow, i int
}

func (c *callStream) Columns() []Column {
	return []Column{{Name: "i", Type: "integer"}, {Name: "x", Type: "float"}, {Name: "k", Type: "integer"}}
}

func (c *callStream) Next() (Row, error) {
	if c.i >= c.n {
		return nil, io.EOF
	}
	c.i++
	if c.i == c.failRow {
		return nil, fmt.Errorf("calls: call %d failed at row %d", c.call, c.i)
	}
	return Row{variant.NewInt(int64(c.i)), variant.NewFloat(float64(c.i) * 1.5), variant.NewInt(int64(c.i % 3))}, nil
}

func (c *callStream) Close() error { return nil }

// TestStreamingOperatorEquivalenceLateral: every LATERAL shape on the
// operator pipeline against the reference executor, on rows (in order), on
// error text and on the UDF calls made — randomized over left inputs (a
// table, an indexed join, a subquery, an empty subquery), lateral items (a
// builtin series, one whose argument divides by zero at a chosen left row, a
// table UDF failing at call k or mid-stream at row j, LATERAL subqueries
// over a table and over a series, JOIN LATERAL … ON and LEFT JOIN LATERAL …
// ON), WHERE (division by zero on chosen joined rows, pushed and not, and a
// scalar UDF), a scalar UDF in the SELECT list, HAVING and an aggregate
// argument, grouping with NULL keys and DISTINCT aggregates, LIMIT, and an
// unqualified column two sources share. The scalar UDF fails on a chosen
// argument value ($3), so the first error does not depend on the order
// aggregates are fed. Every call must have happened by the time QueryRows
// returns.
func TestStreamingOperatorEquivalenceLateral(t *testing.T) {
	rng := rand.New(rand.NewSource(20261015))
	db := newSuiteDB(t)
	mustExec(t, db, `CREATE TABLE fl (id integer, k integer, v float, tag text)`)
	mustExec(t, db, `CREATE TABLE gd (k integer, w float)`)
	for i := 0; i < 24; i++ {
		var k, tag any
		if rng.Intn(6) != 0 {
			k = rng.Intn(7)
		}
		if rng.Intn(5) != 0 {
			tag = fmt.Sprintf("t%d", rng.Intn(3))
		}
		mustExec(t, db, `INSERT INTO fl VALUES ($1, $2, $3, $4)`, i, k, float64(rng.Intn(40))/8, tag)
	}
	for i := 0; i < 9; i++ {
		mustExec(t, db, `INSERT INTO gd VALUES ($1, $2)`, i%6, float64(i)/2)
	}
	mustExec(t, db, `CREATE INDEX gd_k ON gd (k)`)

	// calls(n, failCall, failRow): the failCall-th call of a statement fails,
	// and every call with at least failRow rows fails there.
	var calls, scalars atomic.Int64
	db.RegisterTable("calls", func(_ context.Context, _ *Tx, args []variant.Value) (RowStream, error) {
		call := int(calls.Add(1))
		var n [3]int
		for i := range n {
			if !args[i].IsNull() {
				v, err := args[i].AsInt()
				if err != nil {
					return nil, err
				}
				n[i] = int(v)
			}
		}
		if call == n[1] {
			return nil, fmt.Errorf("calls: call %d failed", call)
		}
		return &callStream{call: call, n: n[0], failRow: n[2]}, nil
	}, true)
	// sq(x, fail) returns x, failing when x equals fail.
	db.RegisterScalar("sq", func(_ context.Context, _ *Tx, args []variant.Value) (variant.Value, error) {
		scalars.Add(1)
		if c, err := variant.Compare(args[0], args[1]); err == nil && c == 0 && !args[0].IsNull() {
			return variant.Value{}, fmt.Errorf("sq: failed at %v", args[0])
		}
		return args[0], nil
	}, true)

	lefts := []string{
		`fl f`,
		`fl f JOIN gd d ON f.k = d.k`,
		`(SELECT id, k, v, tag FROM fl WHERE id < 15) AS f`,
		`(SELECT id, k, v, tag FROM fl WHERE id < 0) AS f`,
	}
	laterals := []string{
		`, generate_series(1, f.id % 4) AS u(i)`,
		` CROSS JOIN LATERAL generate_series(1, 12 / (f.id + 3 - $1)) AS u(i)`,
		`, calls(f.id % 5, $1, $2) AS u`,
		` CROSS JOIN calls(3, $1, 0) AS u`,
		`, LATERAL (SELECT g.k AS i, g.w FROM gd g WHERE g.k <= f.id % 6) AS u`,
		` CROSS JOIN LATERAL (SELECT s.i FROM generate_series(1, f.id % 3) AS s(i)) AS u`,
		` JOIN LATERAL generate_series(1, f.id % 4) AS u(i) ON u.i <= f.id % 3`,
		` LEFT JOIN LATERAL generate_series(1, f.id % 4) AS u(i) ON sq(u.i, $3) > 1`,
		` LEFT JOIN LATERAL calls(f.id % 3, $1, $2) AS u ON u.k = 1`,
	}
	wheres := []string{
		"", "WHERE u.i > 1", "WHERE f.tag = 't1'", "WHERE 10 / (u.i - 2) >= 0",
		"WHERE 10 / (u.i - f.k) > 1", "WHERE f.v > 2 AND u.i % 2 = 1", "WHERE k > 1",
		"WHERE sq(u.i, $3) >= 1 AND f.v > 1",
	}
	selects := []string{
		`SELECT f.id, u.i FROM %s`,
		`SELECT f.id, u.i * f.v FROM %s LIMIT 5`,
		`SELECT f.tag, count(*), sum(u.i), count(DISTINCT u.i), avg(f.v) FROM %s GROUP BY f.tag`,
		`SELECT u.i, count(DISTINCT f.k), max(f.v) FROM %s GROUP BY u.i ORDER BY 1`,
		`SELECT DISTINCT f.tag, u.i FROM %s`,
		`SELECT f.id, sq(u.i, $3) FROM %s`,
		`SELECT f.tag, sum(sq(u.i, $3)), count(*) FROM %s GROUP BY f.tag`,
		`SELECT f.tag, count(*) FROM %s GROUP BY f.tag HAVING sq(count(*), $3) > 1`,
		// Ambiguous when two sources have a k column (f and calls or gd).
		`SELECT k FROM %s`,
		`SELECT k, count(*) FROM %s GROUP BY k`,
	}
	var queries []string
	for iter := 0; iter < 200; iter++ {
		from := lefts[rng.Intn(len(lefts))] + laterals[rng.Intn(len(laterals))] + " " + wheres[rng.Intn(len(wheres))]
		queries = append(queries, fmt.Sprintf(selects[rng.Intn(len(selects))], from))
	}

	type answer struct {
		rs             *ResultSet
		err            error
		calls, scalars int64
	}
	run := func(q string, args []any, reference bool) answer {
		t.Helper()
		calls.Store(0)
		scalars.Store(0)
		if reference {
			rs, err := refQuery(t, db, q, args...)
			return answer{rs: rs, err: err, calls: calls.Load(), scalars: scalars.Load()}
		}
		it, err := db.QueryRows(q, args...)
		if err != nil {
			return answer{err: err, calls: calls.Load(), scalars: scalars.Load()}
		}
		made, madeScalars := calls.Load(), scalars.Load() // before any row is read
		rs, err := it.Materialize()
		if after, afterScalars := calls.Load(), scalars.Load(); after != made || afterScalars != madeScalars {
			t.Errorf("%s %v: %d/%d calls at open, %d/%d after iterating", q, args, made, madeScalars, after, afterScalars)
		}
		return answer{rs: rs, err: err, calls: made, scalars: madeScalars}
	}
	shapes := map[string]int{}
	for _, q := range queries {
		if k := planKind(t, db, q); k != physOps {
			t.Fatalf("%s: plan kind %d, want physOps", q, k)
		}
		// $1 fails a call (or, at 3 and up, a series argument), $2 a row, $3
		// the scalar UDF; half the time none of them.
		args := []any{0, 0, -1}
		if rng.Intn(2) == 0 {
			args = []any{rng.Intn(7), rng.Intn(5), rng.Intn(4)}
		}
		got, want := run(q, args, false), run(q, args, true)
		switch {
		case (got.err == nil) != (want.err == nil) || (got.err != nil && got.err.Error() != want.err.Error()):
			t.Errorf("%s %v:\nstream err = %v\nreference err = %v", q, args, got.err, want.err)
		case got.err == nil && !rowsEqual(got.rs, want.rs):
			t.Errorf("%s %v diverges:\nstream %v\nreference %v", q, args, got.rs.Rows, want.rs.Rows)
		case got.calls != want.calls || got.scalars != want.scalars:
			t.Errorf("%s %v: %d table and %d scalar calls, reference made %d and %d",
				q, args, got.calls, got.scalars, want.calls, want.scalars)
		}
		switch {
		case want.err != nil && strings.Contains(want.err.Error(), "ambiguous"):
			shapes["ambiguous"]++
		case want.err != nil:
			shapes["error"]++
		case len(want.rs.Rows) == 0:
			shapes["empty"]++
		default:
			shapes["rows"]++
		}
	}
	t.Logf("outcomes: %v", shapes)
	for _, s := range []string{"ambiguous", "error", "empty", "rows"} {
		if shapes[s] == 0 {
			t.Errorf("no query ended %s: %v", s, shapes)
		}
	}
}

// TestLateralEnclosingLevels: expressions inside a LATERAL subquery nested
// in another read columns of both enclosing rows — the nearer level and the
// one beyond it — in a lateral item's arguments, WHERE, ON, group keys,
// HAVING and the SELECT list, and return the reference's rows in order.
func TestLateralEnclosingLevels(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE p (k integer, w integer)`)
	mustExec(t, db, `INSERT INTO p VALUES (1, 10), (2, 20), (3, 30)`)
	for _, q := range []string{
		`SELECT a.k, bc.k, bc.z FROM p a, LATERAL (SELECT b.k, c.z FROM p b,
			LATERAL (SELECT a.w * 100 + b.k AS z WHERE b.k <= a.k) AS c) AS bc ORDER BY 1, 2`,
		`SELECT a.k, s.n, s.t FROM p a, LATERAL (SELECT b.k AS n, sum(g + a.w) AS t, max(a.w - b.w) AS d
			FROM p b, generate_series(1, a.k + b.k) AS g WHERE b.w > a.k GROUP BY b.k HAVING max(g) > a.k) AS s ORDER BY 1, 2`,
		`SELECT a.k, s.v FROM p a LEFT JOIN LATERAL (SELECT x.k AS v FROM p x JOIN p y ON x.k = y.k AND y.w > a.w
			WHERE y.w - a.w > 5) AS s ON true ORDER BY 1, 2`,
		`SELECT a.k, s.v FROM p a, LATERAL (SELECT v FROM p b, LATERAL (SELECT a.k * b.k AS v) AS c
			WHERE v > a.k ORDER BY a.k - v LIMIT 1) AS s ORDER BY 1`,
	} {
		want := mustRefQuery(t, db, q)
		if got := mustQuery(t, db, q); !rowsEqual(got, want) {
			t.Errorf("%s:\ngot       %v\nreference %v", q, got.Rows, want.Rows)
		}
	}
}
