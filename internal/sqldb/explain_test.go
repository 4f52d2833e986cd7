package sqldb

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite EXPLAIN golden files")

// explainDB builds a deterministic catalogue for the golden suite: an
// indexed table with analyzed statistics, a low-cardinality column whose
// index the cost model should reject.
func explainDB(t *testing.T) *DB {
	t.Helper()
	db := New()
	mustExec(t, db, `CREATE TABLE sensors (id integer, temp float, room text, flag integer)`)
	for i := 0; i < 2000; i++ {
		mustExec(t, db, `INSERT INTO sensors VALUES ($1, $2, $3, $4)`,
			i, float64(i%500)/10, fmt.Sprintf("room%d", i%20), 1)
	}
	mustExec(t, db, `CREATE INDEX sensors_id ON sensors (id) USING hash`)
	mustExec(t, db, `CREATE INDEX sensors_temp ON sensors (temp)`)
	mustExec(t, db, `CREATE INDEX sensors_flag ON sensors (flag)`)
	mustExec(t, db, `ANALYZE sensors`)
	return db
}

func explainText(t *testing.T, db *DB, query string) string {
	t.Helper()
	rs, err := db.Query(query)
	if err != nil {
		t.Fatalf("%s: %v", query, err)
	}
	var sb strings.Builder
	for _, r := range rs.Rows {
		sb.WriteString(r[0].Text())
		sb.WriteString("\n")
	}
	return sb.String()
}

// TestExplainGolden locks the rendered plan (and therefore the chosen
// access path) for a spread of statement shapes. Regenerate with
// `go test -run TestExplainGolden ./internal/sqldb -update` and review the
// diff — an unexplained access-path change is a planner regression.
func TestExplainGolden(t *testing.T) {
	db := explainDB(t)
	cases := []struct {
		name  string
		query string
		// setup mutates the catalogue before the query (e.g. DROP INDEX).
		setup func(t *testing.T, db *DB)
	}{
		{name: "hash_eq_probe", query: `EXPLAIN SELECT room FROM sensors WHERE id = 42`},
		{name: "hash_eq_param", query: `EXPLAIN SELECT room FROM sensors WHERE id = $1`},
		{name: "btree_range_between", query: `EXPLAIN SELECT id FROM sensors WHERE temp BETWEEN 5 AND 6`},
		{name: "btree_range_open", query: `EXPLAIN SELECT id FROM sensors WHERE temp >= 49 AND room = 'room3'`},
		{name: "low_cardinality_seq", query: `EXPLAIN SELECT id FROM sensors WHERE flag = 1`},
		{name: "limit_over_probe", query: `EXPLAIN SELECT id FROM sensors WHERE temp < 1 LIMIT 5 OFFSET 2`},
		{name: "filtered_seq_scan", query: `EXPLAIN SELECT id FROM sensors WHERE room = 'room7'`},
		{name: "aggregate_sort_limit", query: `EXPLAIN SELECT room, count(*) AS n FROM sensors WHERE id > 10 GROUP BY room ORDER BY n DESC LIMIT 3`},
		{name: "distinct", query: `EXPLAIN SELECT DISTINCT room FROM sensors`},
		{name: "join_nested_loop", query: `EXPLAIN SELECT a.id FROM sensors a JOIN sensors b ON a.id = b.id WHERE a.temp > 40`},
		{name: "hash_join_left", query: `EXPLAIN SELECT a.id, b.room FROM sensors a LEFT JOIN sensors b ON a.id = b.id`},
		{name: "hash_join_residual", query: `EXPLAIN SELECT a.id FROM sensors a JOIN sensors b ON a.id = b.id AND a.temp < b.temp`},
		{name: "hash_join_index_lookup", query: `EXPLAIN SELECT a.room, avg(b.temp) FROM sensors a JOIN sensors b ON a.temp = b.temp AND a.id <> b.id WHERE a.id BETWEEN 10 AND 20 GROUP BY a.room`},
		{name: "join_non_equi_nested_loop", query: `EXPLAIN SELECT a.id FROM sensors a JOIN sensors b ON a.temp < b.temp WHERE b.flag = 1`},
		{name: "hash_aggregate_join_having", query: `EXPLAIN SELECT a.room, sum(b.temp) FROM sensors a JOIN sensors b ON a.id = b.id GROUP BY a.room HAVING count(*) > 10`},
		{name: "scalar_aggregate_streamed", query: `EXPLAIN SELECT count(*), avg(temp) FROM sensors WHERE flag = 1`},
		{name: "order_by_index_asc", query: `EXPLAIN SELECT id, temp FROM sensors ORDER BY temp LIMIT 10`},
		{name: "order_by_index_desc", query: `EXPLAIN SELECT temp FROM sensors WHERE room = 'room3' ORDER BY temp DESC`},
		{name: "order_by_sorted", query: `EXPLAIN SELECT id, temp FROM sensors ORDER BY temp * 2`},
		{name: "function_scan", query: `EXPLAIN SELECT gs * 2 FROM generate_series(1, 100) AS gs WHERE gs > 5`},
		{name: "subquery_scan", query: `EXPLAIN SELECT s.id FROM (SELECT id FROM sensors WHERE id = 3) AS s`},
		{name: "lateral_function_scan", query: `EXPLAIN SELECT id, avg(f.v) FROM generate_series($1, $2) AS id, LATERAL generate_series(id, id + $3) AS f(v) WHERE f.v % 2 = 0 GROUP BY id`},
		{name: "window_over_index", query: `EXPLAIN SELECT id, avg(temp) OVER (ORDER BY id ROWS BETWEEN 2 PRECEDING AND CURRENT ROW) FROM sensors WHERE temp BETWEEN 5 AND 6`},
		{name: "insert_values", query: `EXPLAIN INSERT INTO sensors VALUES (1, 2.0, 'x', 1), (2, 3.0, 'y', 1)`},
		{name: "insert_select", query: `EXPLAIN INSERT INTO sensors SELECT * FROM sensors WHERE id = 9`},
		{name: "update", query: `EXPLAIN UPDATE sensors SET temp = 0 WHERE id = 7`},
		{name: "delete", query: `EXPLAIN DELETE FROM sensors WHERE temp > 49`},
		{name: "delete_seq", query: `EXPLAIN DELETE FROM sensors WHERE room = 'room3'`},
		{name: "delete_by_index", query: `EXPLAIN DELETE FROM sensors WHERE id = $1 AND room <> 'room1'`},
		{name: "update_by_range", query: `EXPLAIN UPDATE sensors SET temp = temp + 1 WHERE temp BETWEEN 5 AND 6`},
		{
			name:  "after_drop_index_seq",
			query: `EXPLAIN SELECT room FROM sensors WHERE id = 42`,
			setup: func(t *testing.T, db *DB) { mustExec(t, db, `DROP INDEX sensors_id`) },
		},
	}

	var got strings.Builder
	for _, tc := range cases {
		if tc.setup != nil {
			tc.setup(t, db)
		}
		got.WriteString("=== " + tc.name + "\n")
		got.WriteString("--- " + strings.TrimPrefix(tc.query, "EXPLAIN ") + "\n")
		got.WriteString(explainText(t, db, tc.query))
		got.WriteString("\n")
	}

	goldenPath := filepath.Join("testdata", "explain.golden")
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if got.String() != string(want) {
		t.Errorf("EXPLAIN output diverges from golden.\n--- got ---\n%s\n--- want ---\n%s", got.String(), want)
	}
}

// TestExplainIndexProbeLifecycle is the acceptance check in executable
// form: an equality on an indexed column plans an index probe; after DROP
// INDEX the same (cached, prepared) statement plans a full scan.
func TestExplainIndexProbeLifecycle(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE t (k integer, v text)`)
	for i := 0; i < 100; i++ {
		mustExec(t, db, `INSERT INTO t VALUES ($1, 'x')`, i)
	}
	mustExec(t, db, `CREATE INDEX t_k ON t (k) USING hash`)

	out := explainText(t, db, `EXPLAIN SELECT v FROM t WHERE k = $1`)
	if !strings.Contains(out, "Index Scan using t_k") {
		t.Fatalf("want index probe, got:\n%s", out)
	}
	mustExec(t, db, `DROP INDEX t_k`)
	out = explainText(t, db, `EXPLAIN SELECT v FROM t WHERE k = $1`)
	if !strings.Contains(out, "Seq Scan on t") || strings.Contains(out, "Index Scan") {
		t.Fatalf("want seq scan after DROP INDEX, got:\n%s", out)
	}
}

// TestExplainErrors locks the rejection surface.
func TestExplainErrors(t *testing.T) {
	db := New()
	if _, err := db.Query(`EXPLAIN BEGIN`); err == nil {
		t.Fatal("EXPLAIN BEGIN should fail to parse")
	}
	if _, err := db.Query(`EXPLAIN EXPLAIN SELECT 1`); err == nil {
		t.Fatal("EXPLAIN EXPLAIN should fail to parse")
	}
	if _, err := db.Query(`EXPLAIN SELECT * FROM missing`); err == nil {
		t.Fatal("EXPLAIN over a missing table should fail")
	}
}

// TestAnalyzeStatement covers the ANALYZE surface: single table, all
// tables, the typed API, and the error path.
func TestAnalyzeStatement(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE a (x integer)`)
	mustExec(t, db, `CREATE TABLE b (y integer)`)
	for i := 0; i < 10; i++ {
		mustExec(t, db, `INSERT INTO a VALUES ($1)`, i%3)
	}
	if _, _, ok := db.TableStats("a"); ok {
		t.Fatal("stats should not exist before ANALYZE")
	}
	mustExec(t, db, `ANALYZE a`)
	rows, distinct, ok := db.TableStats("a")
	if !ok || rows != 10 || distinct["x"] != 3 {
		t.Fatalf("got rows=%d distinct=%v ok=%v", rows, distinct, ok)
	}
	mustExec(t, db, `ANALYZE`)
	if _, _, ok := db.TableStats("b"); !ok {
		t.Fatal("ANALYZE with no table should cover b")
	}
	if err := db.Analyze("missing"); err == nil {
		t.Fatal("ANALYZE missing table should error")
	}
}

// TestAutoAnalyze verifies the mutation-threshold refresh: statistics
// appear without an explicit ANALYZE once enough rows churn, and refresh
// again after heavy churn.
func TestAutoAnalyze(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE load (x integer)`)
	for i := 0; i < autoAnalyzeMinMutations+1; i++ {
		mustExec(t, db, `INSERT INTO load VALUES ($1)`, i)
	}
	rows, _, ok := db.TableStats("load")
	if !ok {
		t.Fatal("auto-analyze should have produced statistics")
	}
	if rows < autoAnalyzeMinMutations {
		t.Fatalf("stats row count %d too small", rows)
	}
}
