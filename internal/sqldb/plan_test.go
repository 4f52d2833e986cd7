package sqldb

import (
	"context"
	"strings"
	"testing"

	"repro/internal/variant"
)

// setPlanner installs planner switches (plannerOptions) and invalidates
// cached plans, under the exclusive lock.
func (db *DB) setPlanner(o plannerOptions) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.planner = o
	db.bumpEpoch()
}

// These tests pin the plan-cache invalidation protocol: physical plans pin
// table/index pointers and column offsets, so without epoch revalidation a
// DROP/CREATE of a referenced table or index mid-session would execute a
// stale plan — returning wrong rows (a detached index no longer sees new
// inserts) or panicking (column offsets past a narrower recreated schema).

// TestPlanCacheInvalidationOnTableRecreate re-runs a cached, prepared
// statement after the referenced table is dropped and recreated with a
// narrower schema. A stale compiled plan would index row[2] out of range.
func TestPlanCacheInvalidationOnTableRecreate(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE r (a integer, b integer, c integer)`)
	mustExec(t, db, `INSERT INTO r VALUES (1, 2, 3)`)
	stmt, err := db.Prepare(`SELECT c FROM r WHERE a = 1`)
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	rs, err := stmt.Query()
	if err != nil || len(rs.Rows) != 1 || rs.Rows[0][0].Int() != 3 {
		t.Fatalf("before recreate: %v %v", rs, err)
	}

	mustExec(t, db, `DROP TABLE r`)
	mustExec(t, db, `CREATE TABLE r (a integer)`) // no column c anymore
	mustExec(t, db, `INSERT INTO r VALUES (1)`)
	if _, err := stmt.Query(); err == nil || !strings.Contains(err.Error(), "unknown column") {
		t.Fatalf("stale plan must replan and report the missing column, got err=%v", err)
	}

	// Recreate compatibly: the same handle works again, against new data.
	mustExec(t, db, `DROP TABLE r`)
	mustExec(t, db, `CREATE TABLE r (a integer, b integer, c integer)`)
	mustExec(t, db, `INSERT INTO r VALUES (1, 20, 30)`)
	rs, err = stmt.Query()
	if err != nil || len(rs.Rows) != 1 || rs.Rows[0][0].Int() != 30 {
		t.Fatalf("after compatible recreate: %v %v", rs, err)
	}
}

// TestPlanCacheInvalidationOnDropIndex re-runs a cached statement after its
// index is dropped and more rows are inserted. A stale plan probing the
// detached (no-longer-maintained) index would miss the new row.
func TestPlanCacheInvalidationOnDropIndex(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE ix (k integer, v text)`)
	for i := 0; i < 50; i++ {
		mustExec(t, db, `INSERT INTO ix VALUES ($1, 'old')`, i%10)
	}
	mustExec(t, db, `CREATE INDEX ix_k ON ix (k) USING hash`)
	stmt, err := db.Prepare(`SELECT v FROM ix WHERE k = 7`)
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	rs, err := stmt.Query()
	if err != nil || len(rs.Rows) != 5 {
		t.Fatalf("warm-up through index: %d rows, err=%v", len(rs.Rows), err)
	}

	mustExec(t, db, `DROP INDEX ix_k`)
	mustExec(t, db, `INSERT INTO ix VALUES (7, 'new')`)
	rs, err = stmt.Query()
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 6 {
		t.Fatalf("stale index plan: got %d rows, want 6 (the post-drop insert must be visible)", len(rs.Rows))
	}
	found := false
	for _, r := range rs.Rows {
		if r[0].Text() == "new" {
			found = true
		}
	}
	if !found {
		t.Fatal("row inserted after DROP INDEX missing from results")
	}
}

// TestPlanCacheInvalidationViaTx drives the DDL through a concurrent *Tx
// handle: inside the transaction the dropped index is gone from its plans,
// outside it the committed catalogue still has it, and after the rollback
// the index is still live and maintained.
func TestPlanCacheInvalidationViaTx(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE tx (k integer)`)
	for i := 0; i < 40; i++ {
		mustExec(t, db, `INSERT INTO tx VALUES ($1)`, i)
	}
	mustExec(t, db, `CREATE INDEX tx_k ON tx (k)`)
	stmt, err := db.Prepare(`SELECT k FROM tx WHERE k = 5`)
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	if rs, err := stmt.Query(); err != nil || len(rs.Rows) != 1 {
		t.Fatalf("warm-up: %v %v", rs, err)
	}

	// Drop the index inside a transaction, run the cached statement (it must
	// replan to a full scan and stay correct), then roll back.
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`DROP INDEX tx_k`); err != nil {
		t.Fatal(err)
	}
	if rs, err := stmt.Query(); err != nil || len(rs.Rows) != 1 {
		t.Fatalf("mid-tx after drop: %v %v", rs, err)
	}
	out := explainText(t, tx, `EXPLAIN SELECT k FROM tx WHERE k = 5`)
	if strings.Contains(out, "Index Scan") {
		t.Fatalf("index dropped in open tx, plan still probes it:\n%s", out)
	}
	out = explainText(t, db, `EXPLAIN SELECT k FROM tx WHERE k = 5`)
	if !strings.Contains(out, "Index Scan using tx_k") {
		t.Fatalf("index dropped in another open tx, committed plan should probe it:\n%s", out)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}

	// Rolled back: the index is live again and new inserts maintain it.
	mustExec(t, db, `INSERT INTO tx VALUES (5)`)
	out = explainText(t, db, `EXPLAIN SELECT k FROM tx WHERE k = 5`)
	if !strings.Contains(out, "Index Scan using tx_k") {
		t.Fatalf("index restored by rollback, plan should probe it:\n%s", out)
	}
	if rs, err := stmt.Query(); err != nil || len(rs.Rows) != 2 {
		t.Fatalf("after rollback: rows=%d err=%v", len(rs.Rows), err)
	}
}

// TestCostBasedAccessPathUsesStats: after ANALYZE, an equality probe on a
// column where every row shares one value must cost out to a full scan,
// while a selective column keeps its index — the statistics-driven half of
// the chooser.
func TestCostBasedAccessPathUsesStats(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE c (uniq integer, constant integer)`)
	for i := 0; i < 500; i++ {
		mustExec(t, db, `INSERT INTO c VALUES ($1, 1)`, i)
	}
	mustExec(t, db, `CREATE INDEX c_uniq ON c (uniq) USING hash`)
	mustExec(t, db, `CREATE INDEX c_constant ON c (constant) USING hash`)
	mustExec(t, db, `ANALYZE c`)

	out := explainText(t, db, `EXPLAIN SELECT * FROM c WHERE uniq = 3`)
	if !strings.Contains(out, "Index Scan using c_uniq") {
		t.Fatalf("selective column should probe its index:\n%s", out)
	}
	out = explainText(t, db, `EXPLAIN SELECT * FROM c WHERE constant = 1`)
	if strings.Contains(out, "Index Scan") {
		t.Fatalf("probe matching every row should cost out to a seq scan:\n%s", out)
	}
	// Both still return correct results.
	rs := mustQuery(t, db, `SELECT count(*) FROM c WHERE constant = 1`)
	if rs.Rows[0][0].Int() != 500 {
		t.Fatalf("seq-scan path wrong: %v", rs.Rows)
	}
}

// TestStmtPlanPhase: Plan() resolves the physical plan without executing,
// and a later DDL transparently replans.
func TestStmtPlanPhase(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE p (x integer)`)
	mustExec(t, db, `INSERT INTO p VALUES (1)`)
	stmt, err := db.Prepare(`SELECT x FROM p WHERE x = 1`)
	if err != nil {
		t.Fatal(err)
	}
	defer stmt.Close()
	if err := stmt.Plan(); err != nil {
		t.Fatal(err)
	}
	rs, err := stmt.Query()
	if err != nil || len(rs.Rows) != 1 {
		t.Fatalf("%v %v", rs, err)
	}
	// Plan on non-SELECT is a no-op.
	ins, err := db.Prepare(`INSERT INTO p VALUES (2)`)
	if err != nil {
		t.Fatal(err)
	}
	defer ins.Close()
	if err := ins.Plan(); err != nil {
		t.Fatal(err)
	}
}

// TestStmtExecutorKind: ExecutorKind names the physical executor a SELECT
// resolves to — vectorized or operators — tracks planner-option changes, and
// reports "" for non-SELECTs.
func TestStmtExecutorKind(t *testing.T) {
	db := newSuiteDB(t)
	mustExec(t, db, `CREATE TABLE ek (x integer, g text)`)
	mustExec(t, db, `INSERT INTO ek VALUES (1, 'a'), (2, 'b')`)
	mustExec(t, db, `INSERT INTO ek SELECT gs, 'c' FROM generate_series(3, 200) AS gs`)
	mustExec(t, db, `CREATE INDEX ek_x ON ek (x)`)
	db.RegisterScalar("ek_udf", func(_ context.Context, _ *Tx, args []variant.Value) (variant.Value, error) {
		return args[0], nil
	}, true)

	kinds := func(sql string) string {
		t.Helper()
		stmt, err := db.Prepare(sql)
		if err != nil {
			t.Fatal(err)
		}
		defer stmt.Close()
		k, err := stmt.ExecutorKind()
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	if k := kinds(`SELECT g, sum(x) FROM ek GROUP BY g`); k != "vectorized" {
		t.Errorf("grouped aggregate executor = %q, want vectorized", k)
	}
	if k := kinds(`SELECT g, sum(x) FROM ek GROUP BY g ORDER BY g`); k == "vectorized" {
		t.Errorf("ORDER BY should not plan vectorized, got %q", k)
	}
	for sql, want := range map[string]string{
		`SELECT g FROM ek WHERE x = $1`:                                                  "operators",
		`SELECT 1`:                                                                       "operators",
		`SELECT * FROM generate_series(1, 3)`:                                            "operators",
		`SELECT g FROM ek WHERE x > 0 ORDER BY g`:                                        "operators",
		`SELECT ek_udf(x) FROM ek`:                                                       "operators",
		`SELECT x, sum(x) OVER (ORDER BY x) FROM ek WHERE x = 5`:                         "operators",
		`SELECT x, sum(x) OVER (ORDER BY x) FROM ek`:                                     "vectorized",
		`SELECT * FROM ek e, LATERAL (SELECT e.x) AS l`:                                  "operators",
		`SELECT e.x, g FROM ek e, LATERAL generate_series(1, e.x) AS g`:                  "operators",
		`SELECT e.x, g FROM ek e CROSS JOIN generate_series(1, e.x) AS g`:                "operators",
		`SELECT e.x, g FROM ek e LEFT JOIN LATERAL generate_series(1, e.x) AS g ON true`: "operators",
		`SELECT e.x, g FROM ek e JOIN LATERAL generate_series(1, e.x) AS g ON g > 1`:     "operators",
	} {
		if k := kinds(sql); k != want {
			t.Errorf("%s: executor = %q, want %q", sql, k, want)
		}
	}
	// A filtered scan runs on batches whatever the table's size.
	mustExec(t, db, `CREATE TABLE ekbig (x integer)`)
	mustExec(t, db, `INSERT INTO ekbig SELECT gs FROM generate_series(1, 50000) AS gs`)
	if k := kinds(`SELECT x FROM ekbig WHERE x % 3 = 0`); k != "vectorized" {
		t.Errorf("filtered scan of 50 000 rows: executor = %q, want vectorized", k)
	}
	ins, err := db.Prepare(`INSERT INTO ek VALUES (3, 'c')`)
	if err != nil {
		t.Fatal(err)
	}
	defer ins.Close()
	if k, err := ins.ExecutorKind(); err != nil || k != "" {
		t.Errorf("non-SELECT executor = %q, %v; want \"\"", k, err)
	}
	db.setPlanner(plannerOptions{disableVectorized: true})
	if k := kinds(`SELECT g, sum(x) FROM ek GROUP BY g`); k == "vectorized" {
		t.Errorf("disableVectorized still reports vectorized")
	}
}

// TestPlanCacheDisabled: with the cache off, every execution replans — and
// stays correct across DDL.
func TestPlanCacheDisabled(t *testing.T) {
	db := New()
	db.EnablePlanCache(false)
	mustExec(t, db, `CREATE TABLE d (x integer)`)
	mustExec(t, db, `INSERT INTO d VALUES (1)`)
	if rs := mustQuery(t, db, `SELECT x FROM d WHERE x = 1`); len(rs.Rows) != 1 {
		t.Fatalf("%v", rs.Rows)
	}
	mustExec(t, db, `DROP TABLE d`)
	mustExec(t, db, `CREATE TABLE d (x integer, y integer)`)
	mustExec(t, db, `INSERT INTO d VALUES (1, 2)`)
	rs := mustQuery(t, db, `SELECT y FROM d WHERE x = 1`)
	if len(rs.Rows) != 1 || rs.Rows[0][0].Int() != 2 {
		t.Fatalf("%v", rs.Rows)
	}
}
