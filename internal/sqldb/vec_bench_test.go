package sqldb

import (
	"testing"
)

// vecBenchDB loads n rows of (g integer, v float, s text) with g spanning
// groups group keys.
func vecBenchDB(b *testing.B, n, groups int) *DB {
	b.Helper()
	db := New()
	if _, err := db.Query(`CREATE TABLE m (g integer, v float, s text)`); err != nil {
		b.Fatal(err)
	}
	tag := [2]string{"lo", "hi"}
	for i := 0; i < n; i++ {
		if err := db.InsertRow("m", i%groups, float64(i)/7, tag[(i/(n/2))&1]); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := db.Query(`ANALYZE`); err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkVectorizedScan measures the batch filter+projection pipeline
// against the row-at-a-time executor on a 200k-row filtered scan with a
// selective range predicate (101 surviving rows), so the numbers compare
// scan/filter throughput rather than the shared result materialization.
func BenchmarkVectorizedScan(b *testing.B) {
	const n = 200000
	db := vecBenchDB(b, n, 100)
	const q = `SELECT g, v FROM m WHERE v > 14285.5 AND v < 14300.0`

	run := func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rs, err := db.Query(q)
			if err != nil {
				b.Fatal(err)
			}
			if len(rs.Rows) != 101 {
				b.Fatalf("rows = %d, want 101", len(rs.Rows))
			}
		}
	}
	b.Run("Vectorized200k", func(b *testing.B) {
		db.setPlanner(plannerOptions{})
		run(b)
	})
	b.Run("RowStream200k", func(b *testing.B) {
		db.setPlanner(plannerOptions{disableVectorized: true})
		run(b)
	})
}

// BenchmarkVectorizedAggregate measures the batch hash aggregate against
// the row-at-a-time streaming aggregate on 200k rows across 100 groups.
func BenchmarkVectorizedAggregate(b *testing.B) {
	const n = 200000
	db := vecBenchDB(b, n, 100)
	const q = `SELECT g, count(*), sum(v), avg(v), min(v), max(v) FROM m GROUP BY g`

	run := func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rs, err := db.Query(q)
			if err != nil {
				b.Fatal(err)
			}
			if len(rs.Rows) != 100 {
				b.Fatalf("groups = %d", len(rs.Rows))
			}
		}
	}
	b.Run("Vectorized200kx100", func(b *testing.B) {
		db.setPlanner(plannerOptions{})
		run(b)
	})
	b.Run("RowStream200kx100", func(b *testing.B) {
		db.setPlanner(plannerOptions{disableVectorized: true})
		run(b)
	})
}
