package sqldb

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// TestPlannerAccessPathEquivalence is the planner's safety net: across
// randomized predicates (=, BETWEEN, range operators, AND combinations,
// IS NULL) over indexed and unindexed columns — with NULLs in the data, and
// ANALYZE / churn interleaved so the cost model flips between paths — the
// planner-chosen access path must return exactly the multiset a forced full
// scan returns. Runs under -race in CI, so it also exercises compiled
// predicates for data races.
func TestPlannerAccessPathEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(20260728))
	db := New()
	mustExec(t, db, `CREATE TABLE prop (ih integer, fb float, ts text, raw integer)`)

	insert := func(n int) {
		for i := 0; i < n; i++ {
			var ih, raw any
			var fb any
			if rng.Intn(20) == 0 {
				ih = nil
			} else {
				ih = rng.Intn(200)
			}
			if rng.Intn(20) == 0 {
				fb = nil
			} else {
				fb = float64(rng.Intn(1000)) / 7
			}
			raw = rng.Intn(50)
			ts := fmt.Sprintf("s%d", rng.Intn(30))
			mustExec(t, db, `INSERT INTO prop VALUES ($1, $2, $3, $4)`, ih, fb, ts, raw)
		}
	}
	insert(3000)
	mustExec(t, db, `CREATE INDEX prop_ih ON prop (ih) USING hash`)
	mustExec(t, db, `CREATE INDEX prop_fb ON prop (fb)`)
	mustExec(t, db, `CREATE INDEX prop_ts ON prop (ts)`)

	cols := []struct{ name, kind string }{
		{"ih", "int"}, {"fb", "float"}, {"ts", "text"}, {"raw", "int"},
	}
	constFor := func(kind string) string {
		switch kind {
		case "int":
			return fmt.Sprintf("%d", rng.Intn(220)-10)
		case "float":
			return fmt.Sprintf("%.3f", float64(rng.Intn(1100)-50)/7)
		default:
			return fmt.Sprintf("'s%d'", rng.Intn(35))
		}
	}
	atom := func() string {
		c := cols[rng.Intn(len(cols))]
		switch rng.Intn(8) {
		case 0, 1:
			return fmt.Sprintf("%s = %s", c.name, constFor(c.kind))
		case 2:
			lo, hi := constFor(c.kind), constFor(c.kind)
			return fmt.Sprintf("%s BETWEEN %s AND %s", c.name, lo, hi)
		case 3:
			return fmt.Sprintf("%s < %s", c.name, constFor(c.kind))
		case 4:
			return fmt.Sprintf("%s <= %s", c.name, constFor(c.kind))
		case 5:
			return fmt.Sprintf("%s > %s", c.name, constFor(c.kind))
		case 6:
			return fmt.Sprintf("%s >= %s", c.name, constFor(c.kind))
		default:
			return fmt.Sprintf("%s IS NOT NULL", c.name)
		}
	}

	const trials = 120
	for trial := 0; trial < trials; trial++ {
		// Shake the statistics and data so both fresh and stale estimates
		// and every access path get exercised.
		switch trial {
		case 20:
			mustExec(t, db, `ANALYZE prop`)
		case 50:
			mustExec(t, db, `DELETE FROM prop WHERE raw = 13`)
			insert(400)
		case 80:
			mustExec(t, db, `ANALYZE`)
		}

		conjuncts := 1 + rng.Intn(3)
		parts := make([]string, conjuncts)
		for i := range parts {
			parts[i] = atom()
		}
		query := `SELECT ih, fb, ts, raw FROM prop WHERE ` + strings.Join(parts, " AND ")

		chosen, err := db.Query(query)
		if err != nil {
			t.Fatalf("trial %d %q: %v", trial, query, err)
		}
		forced, err := forceFullScan(db, func() (*ResultSet, error) { return db.Query(query) })
		if err != nil {
			t.Fatalf("trial %d %q (forced): %v", trial, query, err)
		}
		ck, fk := sortedKeys(chosen), sortedKeys(forced)
		if len(ck) != len(fk) {
			t.Fatalf("trial %d %q: planner path %d rows, full scan %d rows\nplan:\n%s",
				trial, query, len(ck), len(fk), explainText(t, db, "EXPLAIN "+query))
		}
		for i := range ck {
			if ck[i] != fk[i] {
				t.Fatalf("trial %d %q: row %d differs: %q vs %q", trial, query, i, ck[i], fk[i])
			}
		}
	}
}

// forceFullScan runs fn with index scans disabled, then restores the planner
// options.
func forceFullScan(db *DB, fn func() (*ResultSet, error)) (*ResultSet, error) {
	db.mu.Lock()
	saved := db.planner
	db.mu.Unlock()
	db.setPlanner(plannerOptions{disableIndexScan: true})
	defer db.setPlanner(saved)
	return fn()
}

// sortedKeys renders a result as an order-insensitive multiset fingerprint.
func sortedKeys(rs *ResultSet) []string {
	keys := make([]string, len(rs.Rows))
	for i, r := range rs.Rows {
		var sb strings.Builder
		for _, v := range r {
			sb.WriteString(v.String())
			sb.WriteByte('|')
		}
		keys[i] = sb.String()
	}
	sort.Strings(keys)
	return keys
}
