package sqldb

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// ovfTestDB builds a table whose integer columns sit near the int64 limits,
// so randomly generated arithmetic frequently overflows — and a NULL/float
// sprinkle keeps the demotion paths honest.
func ovfTestDB(t testing.TB) *DB {
	t.Helper()
	db := New()
	mustExecB(t, db, `CREATE TABLE ov (id integer, big integer, small integer, f float)`)
	rng := rand.New(rand.NewSource(23))
	edges := []int64{math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1, 0, 1, -1, 2, -2, 1 << 40}
	for n := 0; n < 300; n++ {
		var big, small, f any
		if rng.Intn(11) != 0 {
			big = edges[rng.Intn(len(edges))]
		}
		if rng.Intn(11) != 0 {
			small = int64(rng.Intn(7) - 3)
		}
		if rng.Intn(5) != 0 {
			f = float64(n) / 4
		}
		mustExecB(t, db, `INSERT INTO ov VALUES ($1, $2, $3, $4)`, n, big, small, f)
	}
	return db
}

// TestVectorizedOverflowErrorParity asserts that the vectorized executor
// reports exactly the same "integer out of range" errors as the row
// executors — same error string, and errors only for lanes that survive the
// filter (deferred-error ordering).
func TestVectorizedOverflowErrorParity(t *testing.T) {
	db := ovfTestDB(t)

	// A bare projection scan never plans vectorized (it stays on the tight
	// compiled loop), so each scan query carries a WHERE clause to land in
	// vecScanMode; aggregates vectorize with or without one.
	fixed := []string{
		`SELECT big + 1 FROM ov WHERE id >= 0`,
		`SELECT big - 1 FROM ov WHERE id >= 0`,
		`SELECT big * 2 FROM ov WHERE id >= 0`,
		`SELECT big * small FROM ov WHERE id >= 0`,
		`SELECT big + big FROM ov WHERE id >= 0`,
		`SELECT -big FROM ov WHERE id >= 0`,
		`SELECT big / -1 FROM ov WHERE id >= 0`,
		`SELECT big + 1 FROM ov WHERE small = 0`,
		`SELECT big * 2 FROM ov WHERE big < 1000000 AND big > -1000000`,
		`SELECT id FROM ov WHERE big + 1 > 0`,
		`SELECT sum(big) FROM ov`,
		`SELECT sum(big) FROM ov WHERE big > 0`,
		`SELECT small, sum(big) FROM ov GROUP BY small`,
		`SELECT sum(big) + 0 FROM ov WHERE big < 0`,
		`SELECT big + f FROM ov WHERE id >= 0`,
		`SELECT 9223372036854775807 + 1 FROM ov WHERE id >= 0`,
		`SELECT -9223372036854775808 FROM ov WHERE id = 0`,
	}
	for _, sql := range fixed {
		checkVecQuery(t, db, sql, true)
	}

	// Randomized: arbitrary arithmetic over the edge-valued columns must
	// agree between executors whether the outcome is rows or an error.
	rng := rand.New(rand.NewSource(31))
	cols := []string{"big", "small", "id", "f", "1", "-1", "2", "9223372036854775807", "-9223372036854775808"}
	ops := []string{"+", "-", "*"}
	for n := 0; n < 120; n++ {
		a := cols[rng.Intn(len(cols))]
		b := cols[rng.Intn(len(cols))]
		c := cols[rng.Intn(len(cols))]
		op1 := ops[rng.Intn(len(ops))]
		op2 := ops[rng.Intn(len(ops))]
		sql := fmt.Sprintf(`SELECT (%s %s %s) %s %s FROM ov`, a, op1, b, op2, c)
		if rng.Intn(3) == 0 {
			sql += fmt.Sprintf(` WHERE %s %s %s < 100`, a, op1, b)
		} else {
			sql += ` WHERE id >= 0`
		}
		checkVecQuery(t, db, sql, true)
	}
}
