package pgfmu

// Benchmark quantifying the standard-shaped execution API: streaming LIMIT
// vs full materialization.

import (
	"fmt"
	"testing"
)

func apiBenchDB(b *testing.B, rows int) *DB {
	b.Helper()
	db, err := Open("")
	if err != nil {
		b.Fatal(err)
	}
	if _, err := db.Exec(`CREATE TABLE kv (id int, val float, tag text)`); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if err := db.SQL().InsertRow("kv", i, float64(i)*1.5, fmt.Sprintf("tag%d", i%10)); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

// BenchmarkStreamingLimit compares answering "first k rows" through the
// streaming iterator (LIMIT early-exits: only k rows are filtered and
// projected) against materializing the full result — the pre-redesign
// behaviour for every query.
func BenchmarkStreamingLimit(b *testing.B) {
	const rows = 100_000

	b.Run("StreamLimit10", func(b *testing.B) {
		db := apiBenchDB(b, rows)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			it, err := db.QueryRows(`SELECT id, val FROM kv WHERE val >= 0 LIMIT 10`)
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
			if n != 10 {
				b.Fatalf("got %d rows", n)
			}
		}
	})

	b.Run("MaterializeAll", func(b *testing.B) {
		db := apiBenchDB(b, rows)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			rs, err := db.Query(`SELECT id, val FROM kv WHERE val >= 0`)
			if err != nil {
				b.Fatal(err)
			}
			if len(rs.Rows) != rows {
				b.Fatalf("got %d rows", len(rs.Rows))
			}
		}
	})
}
