package sqldb

import (
	"fmt"
	"testing"
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

// drainQuery runs the normal (planned, compiled) execution path.
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

// drainInterpreted runs the same SELECT through the pre-planner streaming
// executor: per-row scope binding and AST tree-walk for WHERE and the
// projection — the interpreted baseline the compiled path replaces.
func drainInterpreted(b *testing.B, db *DB, sql string, args ...any) int {
	cp, err := db.parse(sql)
	if err != nil {
		b.Fatal(err)
	}
	params, err := bindArgs(args)
	if err != nil {
		b.Fatal(err)
	}
	cx := &evalCtx{db: db, params: params}
	db.mu.RLock()
	st, err := db.buildSelectStream(cx, cp.stmt.(*SelectStmt))
	db.mu.RUnlock()
	if err != nil {
		b.Fatal(err)
	}
	rs, err := drainStream(st)
	if err != nil {
		b.Fatal(err)
	}
	return len(rs.Rows)
}

// BenchmarkPlannedVsInterpreted compares compiled predicate/projection
// execution against the old tree-walk evaluation, on the two shapes the
// paper's workload leans on: an indexed point lookup returning ~100 rows,
// and a large filtered scan.
func BenchmarkPlannedVsInterpreted(b *testing.B) {
	const rows = 100_000
	pointQ := `SELECT name FROM bench WHERE id = $1`
	filterQ := `SELECT id, val FROM bench WHERE val >= 25 AND val < 75`

	b.Run("PointLookup/Compiled", func(b *testing.B) {
		db := benchPlanDB(b, rows)
		db.SetPlannerOptions(PlannerOptions{MaxScanWorkers: 1})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if n := drainQuery(b, db, pointQ, i%(rows/100)); n == 0 {
				b.Fatal("no rows")
			}
		}
	})
	b.Run("PointLookup/Interpreted", func(b *testing.B) {
		db := benchPlanDB(b, rows)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if n := drainInterpreted(b, db, pointQ, i%(rows/100)); n == 0 {
				b.Fatal("no rows")
			}
		}
	})
	b.Run("LargeFilter/Compiled", func(b *testing.B) {
		db := benchPlanDB(b, rows)
		db.SetPlannerOptions(PlannerOptions{MaxScanWorkers: 1})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if n := drainQuery(b, db, filterQ); n == 0 {
				b.Fatal("no rows")
			}
		}
	})
	b.Run("LargeFilter/Interpreted", func(b *testing.B) {
		db := benchPlanDB(b, rows)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if n := drainInterpreted(b, db, filterQ); n == 0 {
				b.Fatal("no rows")
			}
		}
	})
}

// BenchmarkParallelScan compares one worker against a pool on a ≥100k-row
// filtered scan — the parallel partitioned scan's payoff case.
func BenchmarkParallelScan(b *testing.B) {
	const rows = 150_000
	query := `SELECT id, name FROM bench WHERE val >= 10 AND val < 60 AND id >= 0`
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("Workers%d", workers), func(b *testing.B) {
			db := benchPlanDB(b, rows)
			db.SetPlannerOptions(PlannerOptions{
				MaxScanWorkers:   workers,
				ParallelMinRows:  1000,
				DisableIndexScan: true, // isolate the scan itself
			})
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if n := drainQuery(b, db, query); n == 0 {
					b.Fatal("no rows")
				}
			}
		})
	}
}

// BenchmarkUpdateByKey times a write by indexed key — served_mix's
// `UPDATE kv SET val = $1 WHERE k = $2`, and the matching DELETE — with the
// planner choosing the target rows (an index probe: flat in table size) and
// under DisableIndexScan (the walk over every version: linear in it). Every
// rows/4 operations, off the clock, deleted keys are re-inserted and dead
// versions vacuumed, so neither arm's cost depends on b.N.
func BenchmarkUpdateByKey(b *testing.B) {
	for _, rows := range []int{20000, 50000} {
		for _, arm := range []struct {
			name string
			po   PlannerOptions
		}{{"indexed", PlannerOptions{}}, {"seqscan", PlannerOptions{DisableIndexScan: true}}} {
			for _, op := range []struct{ name, sql string }{
				{"update", `UPDATE kv SET val = 0.5 WHERE k = $1`},
				{"delete", `DELETE FROM kv WHERE k = $1`},
			} {
				b.Run(fmt.Sprintf("%s/%s/rows=%d", op.name, arm.name, rows), func(b *testing.B) {
					db := New()
					db.SetPlannerOptions(arm.po)
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
