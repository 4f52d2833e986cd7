package sqldb

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
)

// Differential suite for the vectorized batch executor: every statement runs
// once on the vectorized path and once with disableVectorized on the
// row-at-a-time executors, and the results must agree as multisets (ordered
// where the statement class guarantees order). Window statements run only on
// the operator pipeline; over the same multi-batch tables they are held to
// the reference executor instead (checkRefQuery). The CI race step runs this
// file via -run 'Vectorized'.

// vecTestDB builds a table crossing several batch boundaries (vecBatchSize =
// 1024) with NULLs in every column.
func vecTestDB(t testing.TB, rows int) *DB {
	t.Helper()
	db := New()
	mustExecB(t, db, `CREATE TABLE vt (i integer, f float, s text, b boolean, v integer)`)
	rng := rand.New(rand.NewSource(11))
	for n := 0; n < rows; n++ {
		var i, f, s, b, v any
		if rng.Intn(17) != 0 {
			i = n
		}
		if rng.Intn(13) != 0 {
			f = float64(n%500) / 8
		}
		if rng.Intn(11) != 0 {
			s = fmt.Sprintf("g%d", n%23)
		}
		if rng.Intn(7) != 0 {
			b = n%3 == 0
		}
		if rng.Intn(5) != 0 {
			v = rng.Intn(100)
		}
		if err := db.InsertRow("vt", i, f, s, b, v); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func mustExecB(t testing.TB, db *DB, sql string, args ...any) {
	t.Helper()
	if _, err := db.Exec(sql, args...); err != nil {
		t.Fatalf("%s: %v", sql, err)
	}
}

// runVecBoth executes sql on the vectorized path (asserting it actually
// planned vectorized when wantVec) and on the row executors, returning both.
func runVecBoth(t *testing.T, db *DB, sql string, wantVec bool) (vec, row *ResultSet, vecErr, rowErr error) {
	t.Helper()
	old := db.planner
	if wantVec {
		st, err := Parse(sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		plan, err := db.planSelect(db.tables.Load(), st.(*SelectStmt))
		if err != nil {
			t.Fatalf("%s: plan: %v", sql, err)
		}
		if plan.kind != physVectorized {
			t.Fatalf("%s: plan kind = %v, want physVectorized", sql, plan.kind)
		}
	}
	vec, vecErr = db.Query(sql)
	opts := old
	opts.disableVectorized = true
	db.setPlanner(opts)
	row, rowErr = db.Query(sql)
	db.setPlanner(old)
	return vec, row, vecErr, rowErr
}

// multisetDiff reports a multiset mismatch between two result sets.
func multisetDiff(a, b *ResultSet) string {
	if len(a.Rows) != len(b.Rows) {
		return fmt.Sprintf("%d rows vs %d rows", len(a.Rows), len(b.Rows))
	}
	seen := make(map[string]int)
	for _, r := range a.Rows {
		seen[rowKey(r)]++
	}
	for _, r := range b.Rows {
		seen[rowKey(r)]--
		if seen[rowKey(r)] < 0 {
			return fmt.Sprintf("row %v only on one side", r)
		}
	}
	return ""
}

func checkVecQuery(t *testing.T, db *DB, sql string, wantVec bool) {
	t.Helper()
	vec, row, vecErr, rowErr := runVecBoth(t, db, sql, wantVec)
	if (vecErr == nil) != (rowErr == nil) {
		t.Fatalf("%s:\nvectorized err = %v\nrow err = %v", sql, vecErr, rowErr)
	}
	if vecErr != nil {
		if vecErr.Error() != rowErr.Error() {
			t.Fatalf("%s:\nvectorized err = %v\nrow err = %v", sql, vecErr, rowErr)
		}
		return
	}
	if d := multisetDiff(vec, row); d != "" {
		t.Fatalf("%s: %s", sql, d)
	}
}

// checkRefQuery runs sql on the shipped planner and on the reference
// executor: the same row multiset, or the same error text.
func checkRefQuery(t *testing.T, db *DB, sql string) {
	t.Helper()
	got, err := db.Query(sql)
	ref, rerr := refQuery(t, db, sql)
	if (err == nil) != (rerr == nil) || (err != nil && err.Error() != rerr.Error()) {
		t.Fatalf("%s:\nshipped err = %v\nreference err = %v", sql, err, rerr)
	}
	if err == nil {
		if d := multisetDiff(got, ref); d != "" {
			t.Fatalf("%s: %s", sql, d)
		}
	}
}

func TestVectorizedScanDifferential(t *testing.T) {
	db := vecTestDB(t, 2600)
	queries := []string{
		`SELECT i, f, s FROM vt WHERE i % 7 = 3`,
		`SELECT i * 2 + 1, f / 2, s FROM vt WHERE f > 30.5`,
		`SELECT i, v FROM vt WHERE i > 100 AND v < 50`,
		`SELECT s, b FROM vt WHERE b`,
		`SELECT i FROM vt WHERE s = 'g7' OR s = 'g11'`,
		`SELECT i, s FROM vt WHERE s LIKE 'g1%'`,
		`SELECT i FROM vt WHERE v BETWEEN 20 AND 60`,
		`SELECT i FROM vt WHERE i IN (5, 1023, 1024, 1025, 2599)`,
		`SELECT i, CASE WHEN v > 50 THEN 'hi' ELSE 'lo' END FROM vt WHERE i IS NOT NULL`,
		`SELECT i FROM vt WHERE f IS NULL`,
		`SELECT * FROM vt WHERE i >= 1020 AND i <= 1030`,
		`SELECT vt.i, vt.f FROM vt WHERE vt.i % 2 = 0 AND vt.s IS NOT NULL`,
		`SELECT i FROM vt WHERE i > 500 LIMIT 100`,
		`SELECT i FROM vt WHERE i > 500 LIMIT 100 OFFSET 900`,
		`SELECT i FROM vt WHERE i IS NOT NULL LIMIT 10 OFFSET 2580`,
		`SELECT i FROM vt WHERE i > 2590 LIMIT 0`,
		`SELECT i::float, f::integer FROM vt WHERE i % 11 = 0 AND f IS NOT NULL`,
		`SELECT abs(v - 50), upper(s) FROM vt WHERE v IS NOT NULL AND s IS NOT NULL LIMIT 2000`,
		`SELECT i FROM vt a WHERE a.i < 50`,
	}
	for _, q := range queries {
		checkVecQuery(t, db, q, true)
	}
	// Scans preserve heap order: the LIMIT prefix must be identical, not
	// just equal as a multiset.
	vec, row, vecErr, rowErr := runVecBoth(t, db, `SELECT i, f FROM vt WHERE i % 3 = 1 LIMIT 700 OFFSET 40`, true)
	if vecErr != nil || rowErr != nil {
		t.Fatal(vecErr, rowErr)
	}
	for i := range vec.Rows {
		if rowKey(vec.Rows[i]) != rowKey(row.Rows[i]) {
			t.Fatalf("ordered scan row %d: %v vs %v", i, vec.Rows[i], row.Rows[i])
		}
	}
}

func TestVectorizedAggregateDifferential(t *testing.T) {
	db := vecTestDB(t, 2600)
	queries := []string{
		`SELECT count(*) FROM vt`,
		`SELECT count(*), count(i), sum(v), avg(f), min(i), max(f) FROM vt`,
		`SELECT count(*) FROM vt WHERE i > 5000`,
		`SELECT s, count(*) FROM vt GROUP BY s`,
		`SELECT s, count(*), count(DISTINCT v), sum(v), avg(f), min(f), max(i) FROM vt GROUP BY s`,
		`SELECT s, b, count(*) FROM vt GROUP BY s, b`,
		`SELECT i % 5, sum(v) FROM vt GROUP BY i % 5`,
		`SELECT s, sum(v) FROM vt WHERE i % 2 = 0 GROUP BY s`,
		`SELECT s, count(*) FROM vt GROUP BY s HAVING count(*) > 100`,
		`SELECT s, avg(f) FROM vt GROUP BY s HAVING sum(v) > 1000 AND count(*) > 50`,
		`SELECT s, count(*) + 1, CASE WHEN count(*) > 110 THEN 'big' ELSE 'small' END FROM vt GROUP BY s`,
		`SELECT s, count(*) FROM vt GROUP BY s LIMIT 5`,
		`SELECT s, count(*) FROM vt GROUP BY s LIMIT 5 OFFSET 3`,
		`SELECT count(DISTINCT s) FROM vt WHERE v IS NOT NULL`,
	}
	for _, q := range queries {
		checkVecQuery(t, db, q, true)
	}
}

func TestVectorizedWindowDifferential(t *testing.T) {
	db := vecTestDB(t, 2600)
	queries := []string{
		`SELECT i, avg(f) OVER (PARTITION BY s) FROM vt WHERE i IS NOT NULL`,
		`SELECT i, sum(v) OVER (PARTITION BY s ORDER BY i) FROM vt WHERE i < 2100`,
		`SELECT i, lag(i) OVER (PARTITION BY s ORDER BY i), lead(i) OVER (PARTITION BY s ORDER BY i) FROM vt WHERE v IS NOT NULL`,
		`SELECT i, row_number() OVER (PARTITION BY s ORDER BY f DESC) FROM vt WHERE i % 2 = 0`,
		`SELECT i, sum(v) OVER (ORDER BY i ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) FROM vt WHERE i IS NOT NULL`,
		`SELECT i, avg(f) OVER (PARTITION BY b ORDER BY i ROWS BETWEEN 3 PRECEDING AND 1 FOLLOWING) FROM vt WHERE f IS NOT NULL`,
		`SELECT s, count(*) OVER (PARTITION BY s) FROM vt`,
		`SELECT i, v - lag(v, 1) OVER (PARTITION BY s ORDER BY i) FROM vt WHERE v IS NOT NULL LIMIT 500`,
		`SELECT i, row_number() OVER (ORDER BY i) FROM vt WHERE i > 1000 LIMIT 40 OFFSET 10`,
	}
	for _, q := range queries {
		if k := planKind(t, db, q); k != physOps {
			t.Fatalf("%s: plan kind %d, want physOps", q, k)
		}
		checkRefQuery(t, db, q)
	}
}

// TestVectorizedRandomDifferential cross-checks generated statements from
// the two vectorized classes against the row executors, and generated
// window statements against the reference executor.
func TestVectorizedRandomDifferential(t *testing.T) {
	db := vecTestDB(t, 2600)
	rng := rand.New(rand.NewSource(42))
	preds := func() string {
		opts := []string{
			fmt.Sprintf("i %% %d = %d", 2+rng.Intn(6), rng.Intn(3)),
			fmt.Sprintf("f > %d.5", rng.Intn(50)),
			fmt.Sprintf("s LIKE 'g%d%%'", rng.Intn(10)),
			"b",
			"i IS NOT NULL",
			fmt.Sprintf("v BETWEEN %d AND %d", rng.Intn(40), 40+rng.Intn(50)),
			fmt.Sprintf("i IN (%d, %d, %d)", rng.Intn(2600), rng.Intn(2600), rng.Intn(2600)),
			fmt.Sprintf("NOT (v = %d)", rng.Intn(100)),
		}
		p := opts[rng.Intn(len(opts))]
		if rng.Intn(3) == 0 {
			q := opts[rng.Intn(len(opts))]
			op := " AND "
			if rng.Intn(2) == 0 {
				op = " OR "
			}
			p = "(" + p + op + q + ")"
		}
		return p
	}
	projs := []string{"i", "f", "s", "b", "v", "i * 2", "f + v", "upper(s)",
		"CASE WHEN v > 50 THEN i ELSE -i END", "i::float"}
	aggs := []string{"count(*)", "count(v)", "count(DISTINCT s)", "sum(v)", "avg(f)", "min(i)", "max(f)"}
	keys := []string{"s", "b", "i % 4", "v % 3"}

	for n := 0; n < 120; n++ {
		var sb strings.Builder
		sb.WriteString("SELECT ")
		switch n % 3 {
		case 0: // scan
			k := 1 + rng.Intn(3)
			for j := 0; j < k; j++ {
				if j > 0 {
					sb.WriteString(", ")
				}
				sb.WriteString(projs[rng.Intn(len(projs))])
			}
			sb.WriteString(" FROM vt WHERE ")
			sb.WriteString(preds())
		case 1: // aggregate
			key := keys[rng.Intn(len(keys))]
			sb.WriteString(key)
			k := 1 + rng.Intn(3)
			for j := 0; j < k; j++ {
				sb.WriteString(", ")
				sb.WriteString(aggs[rng.Intn(len(aggs))])
			}
			sb.WriteString(" FROM vt")
			if rng.Intn(2) == 0 {
				sb.WriteString(" WHERE " + preds())
			}
			sb.WriteString(" GROUP BY " + key)
			if rng.Intn(3) == 0 {
				sb.WriteString(fmt.Sprintf(" HAVING count(*) > %d", rng.Intn(40)))
			}
		default: // window
			wins := []string{
				"avg(f) OVER (PARTITION BY s)",
				"sum(v) OVER (PARTITION BY b ORDER BY i)",
				"lag(v) OVER (PARTITION BY s ORDER BY i)",
				"lead(i, 2) OVER (ORDER BY i)",
				"row_number() OVER (PARTITION BY s ORDER BY f)",
				"min(f) OVER (ORDER BY i ROWS BETWEEN 4 PRECEDING AND CURRENT ROW)",
			}
			sb.WriteString("i, ")
			sb.WriteString(wins[rng.Intn(len(wins))])
			sb.WriteString(" FROM vt")
			if rng.Intn(2) == 0 {
				sb.WriteString(" WHERE " + preds())
			}
		}
		if rng.Intn(4) == 0 {
			sb.WriteString(fmt.Sprintf(" LIMIT %d", rng.Intn(400)))
			if rng.Intn(2) == 0 {
				sb.WriteString(fmt.Sprintf(" OFFSET %d", rng.Intn(200)))
			}
		}
		if n%3 == 2 {
			checkRefQuery(t, db, sb.String())
		} else {
			checkVecQuery(t, db, sb.String(), false)
		}
	}
}

// TestVectorizedErrorParity pins error behaviour: both paths must fail (or
// not fail) identically, including errors hidden behind LIMIT early-exit.
func TestVectorizedErrorParity(t *testing.T) {
	db := vecTestDB(t, 2600)
	// The row with i = 1500 divides by zero; LIMIT 50 stops both executors
	// before reaching it.
	checkVecQuery(t, db, `SELECT 10 / (i - 1500) FROM vt WHERE i >= 1400 LIMIT 50`, true)
	// Without the LIMIT both must surface the same error.
	checkVecQuery(t, db, `SELECT 10 / (i - 1500) FROM vt WHERE i >= 1400`, true)
	// Error in the filter itself.
	checkVecQuery(t, db, `SELECT i FROM vt WHERE 10 / (i - 2000) > 0`, true)
	// Lane errors under AND/OR (every multiple of 97 divides by zero):
	// raised when the left operand does not decide the lane, discarded when
	// it does.
	for _, q := range []string{
		`SELECT i FROM vt WHERE i < 1000 AND 10 / (i % 97) > 0`,
		`SELECT i FROM vt WHERE i > 2000 OR 10 / (i % 97) > 0`,
		`SELECT i FROM vt WHERE i % 97 = 0 OR 10 / (i % 97) > 0`,
		`SELECT i FROM vt WHERE i % 97 <> 0 AND NOT (10 / (i % 97) > 0)`,
	} {
		checkVecQuery(t, db, q, true)
	}
	// Error in an aggregate argument and in a group key.
	checkVecQuery(t, db, `SELECT s, sum(10 / (v - 50)) FROM vt GROUP BY s`, true)
	checkVecQuery(t, db, `SELECT 10 / (v - 50), count(*) FROM vt GROUP BY 10 / (v - 50)`, true)
	// Unbound parameter surfaces identically.
	checkVecQuery(t, db, `SELECT i + $1 FROM vt WHERE i < 10`, true)
	checkVecQuery(t, db, `SELECT i FROM vt WHERE i < $1`, true)
}

// TestVectorizedBatchBoundaries exercises row counts straddling the batch
// size and LIMIT/OFFSET cuts that land mid-batch.
func TestVectorizedBatchBoundaries(t *testing.T) {
	for _, rows := range []int{0, 1, 1023, 1024, 1025, 2048, 2049} {
		db := vecTestDB(t, rows)
		for _, q := range []string{
			`SELECT i FROM vt WHERE i IS NOT NULL`,
			`SELECT count(*), sum(v) FROM vt`,
			`SELECT s, count(*) FROM vt GROUP BY s`,
			fmt.Sprintf(`SELECT i FROM vt WHERE i >= 0 LIMIT %d`, rows/2+1),
			fmt.Sprintf(`SELECT i FROM vt WHERE i >= 0 LIMIT 10 OFFSET %d`, rows-5),
		} {
			checkVecQuery(t, db, q, false)
		}
		checkRefQuery(t, db, `SELECT i, row_number() OVER (ORDER BY i) FROM vt`)
	}
}

// TestVectorizedAllNullColumn pins the all-null and NULL-group-key paths.
func TestVectorizedAllNullColumn(t *testing.T) {
	db := New()
	mustExecB(t, db, `CREATE TABLE an (k text, x integer, y float)`)
	for n := 0; n < 1500; n++ {
		var k any
		if n%4 != 0 {
			k = fmt.Sprintf("k%d", n%3)
		}
		if err := db.InsertRow("an", k, nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []string{
		`SELECT x, y FROM an WHERE x IS NULL`,
		`SELECT count(x), sum(x), avg(y), min(x), max(y) FROM an`,
		`SELECT k, count(*), count(x) FROM an GROUP BY k`,
		`SELECT x, count(*) FROM an GROUP BY x`,
	} {
		checkVecQuery(t, db, q, false)
	}
	checkRefQuery(t, db, `SELECT k, sum(x) OVER (PARTITION BY k) FROM an`)
}

// TestVectorizedTransactionVisibility: the vectorized scan must read through
// the statement snapshot like every other executor.
func TestVectorizedSnapshotVisibility(t *testing.T) {
	db := vecTestDB(t, 1100)
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`INSERT INTO vt VALUES (9999, 1.0, 'tx', true, 1)`); err != nil {
		t.Fatal(err)
	}
	in, err := tx.Query(`SELECT count(*) FROM vt WHERE i = 9999`)
	if err != nil {
		t.Fatal(err)
	}
	if in.Rows[0][0].Int() != 1 {
		t.Fatalf("inside txn: %v", in.Rows[0][0])
	}
	out, err := db.Query(`SELECT count(*) FROM vt WHERE i = 9999`)
	if err != nil {
		t.Fatal(err)
	}
	if out.Rows[0][0].Int() != 0 {
		t.Fatalf("outside txn: %v", out.Rows[0][0])
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	after, err := db.Query(`SELECT count(*) FROM vt WHERE i = 9999`)
	if err != nil {
		t.Fatal(err)
	}
	if after.Rows[0][0].Int() != 0 {
		t.Fatalf("after rollback: %v", after.Rows[0][0])
	}
}

// --- Column vector unit tests ---

func TestVectorizedColVecNullBitmap(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 1024} {
		var c colVec
		c.reset(vecInt, n)
		for i := 0; i < n; i += 3 {
			c.setNull(i)
		}
		for i := 0; i < n; i++ {
			if got, want := c.isNull(i), i%3 == 0; got != want {
				t.Fatalf("n=%d lane %d: isNull=%v want %v", n, i, got, want)
			}
		}
		// reset must clear the bitmap.
		c.reset(vecInt, n)
		for i := 0; i < n; i++ {
			if c.isNull(i) {
				t.Fatalf("n=%d lane %d: null survived reset", n, i)
			}
		}
	}
}
