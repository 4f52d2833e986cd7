package sqldb

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/variant"
)

// FuzzExecutorParity is the coverage-guided form of the differential suites:
// the fuzzer mutates SQL text, and every SELECT with at most one FROM item —
// a base table of a small fixture database with NULLs in every column, which
// registers one deterministic scalar UDF, twice(x) — runs on the shipped
// planner (vectorized or operator pipeline), whose expressions
// are compiled, and on the reference executor (reference_test.go), whose
// expressions are interpreted. The contract:
//
//   - the pipeline never fails where the reference succeeds;
//   - the rows are equal as a multiset, and in order under ORDER BY;
//   - when both fail, the error text is equal.
//
// The reference failing where the pipeline succeeds is allowed: the engine
// may skip evaluating a row it has proven cannot reach the result (past a
// LIMIT, say). The fixture's index is a hash index, so probes are in scope
// but a btree walk satisfying ORDER BY, which evaluates rows in key order,
// is not; nor are joins.
//
//	go test -run '^$' -fuzz FuzzExecutorParity -fuzztime 60s ./internal/sqldb
//
// Without -fuzz the seeds run as a regular test.
func FuzzExecutorParity(f *testing.F) {
	for _, seed := range []string{
		`SELECT x / 0, sum(s) FROM a WHERE id = 3`,
		`SELECT g, sum(s) FROM a GROUP BY g HAVING g / 0 > 1`,
		`SELECT s * 2 FROM a WHERE 10 / (id - 5) < 100`,
		`SELECT * OFFSET a`,
		`SELECT A % sum(B) AS A`,
		`SELECT g, count(*), avg(x), stddev(x), min(s) FROM a WHERE x > 2 GROUP BY g ORDER BY 1`,
		`SELECT id, sum(x) OVER (PARTITION BY g ORDER BY id ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) FROM a WHERE id = 7`,
		`SELECT DISTINCT t, lag(v) OVER (ORDER BY k) FROM b ORDER BY t LIMIT 3`,
		`SELECT k, t, v * 2 FROM b WHERE v IS NOT NULL OR k > 4 LIMIT 5 OFFSET 1`,
		`SELECT count(DISTINCT g), sum(id) FROM a WHERE s LIKE 's1%'`,
		`SELECT count(*) FROM a OFFSET 1`,
		`SELECT g, count(*) FROM a GROUP BY g LIMIT 2 OFFSET 1`,
		`SELECT id, s FROM a WHERE twice(x) > 7 AND g IS NOT NULL`,
		`SELECT g, sum(twice(x)), count(twice(id)) FROM a GROUP BY g ORDER BY g`,
		`SELECT g, twice(sum(x)) + twice(g) FROM a GROUP BY g HAVING twice(count(*)) > 14 ORDER BY 1`,
		`SELECT id, s FROM a WHERE id < 20 ORDER BY x * -1, twice(id) LIMIT 6`,
		`SELECT g * 10 + count(*), sum(x) / count(x) - g FROM a GROUP BY g ORDER BY 1`,
		`SELECT id FROM a WHERE nosuch > 1`,
		`SELECT nofunc(id) FROM a`,
		`SELECT g, nofunc(sum(x)) FROM a GROUP BY g`,
	} {
		f.Add(seed)
	}
	db := New()
	db.RegisterScalar("twice", func(_ context.Context, _ *DB, args []variant.Value) (variant.Value, error) {
		if len(args) != 1 {
			return variant.Value{}, fmt.Errorf("twice() expects 1 argument")
		}
		switch v := args[0]; v.Kind() {
		case variant.Null:
			return v, nil
		case variant.Int:
			return variant.NewInt(2 * v.Int()), nil
		default:
			f, err := v.AsFloat()
			return variant.NewFloat(2 * f), err
		}
	}, true)
	db.EnablePlanCache(false)
	for _, q := range []string{
		`CREATE TABLE a (id integer, x float, s text, g integer)`,
		`CREATE TABLE b (k integer, t text, v float)`,
	} {
		if _, err := db.Exec(q); err != nil {
			f.Fatal(err)
		}
	}
	for i := 0; i < 40; i++ {
		var x, s, g any = float64(i) / 2, fmt.Sprintf("s%d", i), i % 5
		if i%7 == 6 {
			x = nil
		}
		if i%9 == 8 {
			s = nil
		}
		if i%11 == 10 {
			g = nil
		}
		if err := db.InsertRow("a", i, x, s, g); err != nil {
			f.Fatal(err)
		}
	}
	for i := 0; i < 12; i++ {
		var t, v any = fmt.Sprintf("t%d", i%4), float64(i * 3 % 7)
		if i%5 == 4 {
			t = nil
		}
		if i%4 == 3 {
			v = nil
		}
		if err := db.InsertRow("b", i, t, v); err != nil {
			f.Fatal(err)
		}
	}
	if _, err := db.Exec(`CREATE INDEX a_id ON a (id) USING hash`); err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, sql string) {
		stmt, err := Parse(sql)
		if err != nil {
			return
		}
		sel, ok := stmt.(*SelectStmt)
		if !ok || len(sel.From) > 1 || (len(sel.From) == 1 && sel.From[0].Table == "") {
			return
		}
		got, gerr := db.Query(sql)
		want, werr := refQuery(t, db, sql)
		switch {
		case gerr != nil && werr == nil:
			t.Fatalf("%s: the pipeline fails where the reference succeeds: %v", sql, gerr)
		case gerr != nil:
			if gerr.Error() != werr.Error() {
				t.Fatalf("%s:\npipeline err  %v\nreference err %v", sql, gerr, werr)
			}
		case werr != nil:
			// The pipeline may skip rows the reference evaluates.
		case len(sel.OrderBy) > 0:
			if !rowsEqual(got, want) {
				t.Fatalf("%s: rows differ in order:\npipeline  %v\nreference %v", sql, got.Rows, want.Rows)
			}
		default:
			if d := multisetDiff(got, want); d != "" {
				t.Fatalf("%s: %s", sql, d)
			}
		}
	})
}
