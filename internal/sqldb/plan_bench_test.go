package sqldb

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/variant"
)

// benchPlanDB loads `rows` rows with an indexed id column (≈100 duplicates
// per key) and a filterable val column, then analyzes.
func benchPlanDB(b *testing.B, rows int) *DB {
	b.Helper()
	db := New()
	if _, err := db.Exec(`CREATE TABLE bench (id integer, val float, name text)`); err != nil {
		b.Fatal(err)
	}
	keys := rows / 100
	if keys < 1 {
		keys = 1
	}
	for i := 0; i < rows; i++ {
		if err := db.InsertRow("bench", i%keys, float64(i%1000)/10, fmt.Sprintf("n%d", i)); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := db.Exec(`CREATE INDEX bench_id ON bench (id) USING hash`); err != nil {
		b.Fatal(err)
	}
	if _, err := db.Exec(`ANALYZE bench`); err != nil {
		b.Fatal(err)
	}
	return db
}

// drainQuery runs a query through the planned execution path and counts its
// rows.
func drainQuery(b *testing.B, db *DB, sql string, args ...any) int {
	it, err := db.QueryRows(sql, args...)
	if err != nil {
		b.Fatal(err)
	}
	n := 0
	for it.Next() {
		n++
	}
	if err := it.Err(); err != nil {
		b.Fatal(err)
	}
	it.Close()
	return n
}

// BenchmarkSingleSourceSelect times the two single-table shapes the paper's
// workload leans on, serially: an indexed point lookup returning ~100 rows
// (the operator pipeline with a compiled filter and projection) and a large
// filtered scan (the vectorized scan).
func BenchmarkSingleSourceSelect(b *testing.B) {
	const rows = 100_000
	for _, bc := range []struct {
		name, sql string
		arg       func(i int) []any
	}{
		{"PointLookup", `SELECT name FROM bench WHERE id = $1`, func(i int) []any { return []any{i % (rows / 100)} }},
		{"LargeFilter", `SELECT id, val FROM bench WHERE val >= 25 AND val < 75`, func(int) []any { return nil }},
	} {
		b.Run(bc.name, func(b *testing.B) {
			db := benchPlanDB(b, rows)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if n := drainQuery(b, db, bc.sql, bc.arg(i)...); n == 0 {
					b.Fatal("no rows")
				}
			}
		})
	}
}

// BenchmarkLateralFunctionScan times the paper's multi-instance shape —
// `generate_series(…) AS id, LATERAL fmu_simulate(…)` — with a 4-row outer
// and a table function returning a fixed 700-row trajectory per instance
// (175 steps × 4 variables, the cached-simulation case): a WHERE on the
// inner rows and GROUP BY on the outer key.
func BenchmarkLateralFunctionScan(b *testing.B) {
	vars := []string{"x", "u", "y", "z"}
	cols := []Column{{Name: "simulationtime", Type: "float"}, {Name: "instanceid", Type: "text"},
		{Name: "varname", Type: "text"}, {Name: "value", Type: "float"}}
	traj := make(map[int64][]Row)
	for id := int64(1); id <= 4; id++ {
		inst := variant.NewText(fmt.Sprintf("hp_%d", id))
		for step := 0; step < 175; step++ {
			for vi, v := range vars {
				traj[id] = append(traj[id], Row{variant.NewFloat(float64(step) * 3600), inst,
					variant.NewText(v), variant.NewFloat(float64(id*int64(step+vi)) / 7)})
			}
		}
	}
	db := New()
	db.RegisterTable("trajectory", func(_ context.Context, _ *DB, args []variant.Value) (RowStream, error) {
		id, err := args[0].AsInt()
		if err != nil {
			return nil, err
		}
		return NewSliceStream(cols, traj[id]), nil
	}, true)
	const query = `SELECT id, avg(f.value) FROM generate_series($1, $2) AS id, LATERAL trajectory(id) AS f WHERE f.varname = 'x' GROUP BY id`
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if n := drainQuery(b, db, query, 1, 4); n != 4 {
			b.Fatalf("%d groups, want 4", n)
		}
	}
}

// BenchmarkUpdateByKey times a write by indexed key — served_mix's
// `UPDATE kv SET val = $1 WHERE k = $2`, and the matching DELETE — with the
// planner choosing the target rows (an index probe: flat in table size) and
// under disableIndexScan (the walk over every version: linear in it). Every
// rows/4 operations, off the clock, deleted keys are re-inserted and dead
// versions vacuumed, so neither arm's cost depends on b.N.
func BenchmarkUpdateByKey(b *testing.B) {
	for _, rows := range []int{20000, 50000} {
		for _, arm := range []struct {
			name string
			po   plannerOptions
		}{{"indexed", plannerOptions{}}, {"seqscan", plannerOptions{disableIndexScan: true}}} {
			for _, op := range []struct{ name, sql string }{
				{"update", `UPDATE kv SET val = 0.5 WHERE k = $1`},
				{"delete", `DELETE FROM kv WHERE k = $1`},
			} {
				b.Run(fmt.Sprintf("%s/%s/rows=%d", op.name, arm.name, rows), func(b *testing.B) {
					db := New()
					db.setPlanner(arm.po)
					if _, err := db.Exec(`CREATE TABLE kv (client integer, k integer, val float, tag text)`); err != nil {
						b.Fatal(err)
					}
					insert := func(k int) {
						if err := db.InsertRow("kv", k%2, k, float64(k)/8, "preload"); err != nil {
							b.Fatal(err)
						}
					}
					for k := 0; k < rows; k++ {
						insert(k)
					}
					if _, err := db.Exec(`CREATE INDEX kv_k ON kv (k)`); err != nil {
						b.Fatal(err)
					}
					key := func(i int) int { return i * 7919 % rows } // spread over the table
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if batch := rows / 4; i%batch == batch-1 {
							b.StopTimer()
							for j := max(i-batch, 0); op.name == "delete" && j < i; j++ {
								insert(key(j))
							}
							if err := db.Vacuum(); err != nil {
								b.Fatal(err)
							}
							b.StartTimer()
						}
						if n, err := db.Exec(op.sql, key(i)); err != nil || n != 1 {
							b.Fatalf("%s affected %d rows: %v", op.name, n, err)
						}
					}
				})
			}
		}
	}
}
