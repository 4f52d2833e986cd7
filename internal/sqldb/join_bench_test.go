package sqldb

import (
	"fmt"
	"testing"
)

// joinBenchDB loads two n-row tables with a 1:1 join key.
func joinBenchDB(b *testing.B, n int) *DB {
	b.Helper()
	db := New()
	if _, err := db.Query(`CREATE TABLE fact (id integer, k integer, v float)`); err != nil {
		b.Fatal(err)
	}
	if _, err := db.Query(`CREATE TABLE dim (k integer, w float)`); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := db.InsertRow("fact", i, i, float64(i)/3); err != nil {
			b.Fatal(err)
		}
		if err := db.InsertRow("dim", i, float64(i)*2); err != nil {
			b.Fatal(err)
		}
	}
	if _, err := db.Query(`ANALYZE`); err != nil {
		b.Fatal(err)
	}
	return db
}

// BenchmarkHashJoinVsNestedLoop measures the streaming build/probe hash join
// against the nested-loop strategy on the same 10k×10k equi-join (a 1:1 key,
// 10k output rows). The nested loop evaluates 10⁸ candidate pairs, so it is
// skipped under -short (CI's bench smoke); run without -short for the real
// ratio. Representative ratio on the 1-vCPU dev container: hash ~18ms vs
// nested loop ~69s (≈3900×).
//
// LookupJoin100x10k is the same join behind a selective outer filter once
// dim.k has an ordered index: 100 index probes instead of the 10k-row build.
// Both report allocations, so the un-indexed build's cost per inner row
// (ROADMAP item 5 replaces it) stays visible.
func BenchmarkHashJoinVsNestedLoop(b *testing.B) {
	const n = 10000
	db := joinBenchDB(b, n)

	run := func(b *testing.B, q string, want int64) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rs, err := db.Query(q)
			if err != nil {
				b.Fatal(err)
			}
			if got := rs.Rows[0][0].Int(); got != want {
				b.Fatalf("join produced %d rows, want %d", got, want)
			}
		}
	}
	const q = `SELECT count(*) FROM fact f JOIN dim d ON f.k = d.k`
	b.Run("HashJoin10kx10k", func(b *testing.B) {
		db.SetPlannerOptions(PlannerOptions{})
		run(b, q, n)
	})
	b.Run("NestedLoop10kx10k", func(b *testing.B) {
		if testing.Short() {
			b.Skip("10⁸-pair nested loop; run without -short")
		}
		db.SetPlannerOptions(PlannerOptions{DisableHashJoin: true})
		run(b, q, n)
	})
	if _, err := db.Query(`CREATE INDEX dim_k ON dim (k)`); err != nil {
		b.Fatal(err)
	}
	b.Run("LookupJoin100x10k", func(b *testing.B) {
		db.SetPlannerOptions(PlannerOptions{})
		run(b, q+` WHERE f.id < 100`, 100)
	})
}

// BenchmarkStreamingAggregate measures incremental hash aggregation (state
// fed row-at-a-time) against the executor's partition-then-evaluate GROUP BY
// on 200k rows across 100 groups.
func BenchmarkStreamingAggregate(b *testing.B) {
	const n = 200000
	db := New()
	if _, err := db.Query(`CREATE TABLE m (g integer, v float)`); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := db.InsertRow("m", i%100, float64(i)/7); err != nil {
			b.Fatal(err)
		}
	}
	const q = `SELECT g, count(*), sum(v), avg(v), min(v), max(v) FROM m GROUP BY g`

	run := func(b *testing.B) {
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
	b.Run(fmt.Sprintf("Streaming%dk", n/1000), func(b *testing.B) {
		// Pin the row-at-a-time streaming executor; the vectorized strategy
		// (which would otherwise claim this shape) has its own benchmark.
		db.SetPlannerOptions(PlannerOptions{DisableVectorized: true})
		run(b)
	})
}
