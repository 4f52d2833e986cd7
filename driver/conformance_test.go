package driver

import (
	"context"
	"database/sql"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	pgfmu "repro"
	"repro/internal/dataset"
)

// TestConformanceQuickstart drives the paper's quickstart workflow — CREATE
// TABLE, INSERT measurements through a prepared Stmt, fmu_create,
// fmu_parest, and streamed fmu_simulate rows — entirely through
// database/sql, proving the engine behind sql.Open("pgfmu", ...) is a
// drop-in standard driver.
func TestConformanceQuickstart(t *testing.T) {
	db, err := sql.Open("pgfmu", "")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if err := db.Ping(); err != nil {
		t.Fatalf("ping: %v", err)
	}

	// CREATE TABLE via Exec.
	if _, err := db.Exec(`CREATE TABLE measurements (time float, x float, u float)`); err != nil {
		t.Fatalf("create table: %v", err)
	}

	// INSERT the measurement set through a prepared statement.
	frame, err := dataset.GenerateHP1(dataset.Config{Hours: 12, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ins, err := db.Prepare(`INSERT INTO measurements VALUES ($1, $2, $3)`)
	if err != nil {
		t.Fatalf("prepare insert: %v", err)
	}
	for i, tm := range frame.Times {
		res, err := ins.Exec(tm, frame.Data["x"][i], frame.Data["u"][i])
		if err != nil {
			t.Fatalf("insert row %d: %v", i, err)
		}
		if n, err := res.RowsAffected(); err != nil || n != 1 {
			t.Fatalf("insert row %d: affected=%d err=%v", i, n, err)
		}
	}
	if err := ins.Close(); err != nil {
		t.Fatal(err)
	}
	var count int
	if err := db.QueryRow(`SELECT count(*) FROM measurements`).Scan(&count); err != nil {
		t.Fatal(err)
	}
	if count != len(frame.Times) {
		t.Fatalf("expected %d rows, got %d", len(frame.Times), count)
	}

	// fmu_create from inline Modelica.
	var instanceID string
	if err := db.QueryRow(`SELECT fmu_create($1, 'HP1Instance1')`, dataset.HP1Source).Scan(&instanceID); err != nil {
		t.Fatalf("fmu_create: %v", err)
	}
	if instanceID != "HP1Instance1" {
		t.Fatalf("fmu_create returned %q", instanceID)
	}

	// fmu_parest: calibrate Cp and R against the measurements.
	var errs string
	if err := db.QueryRow(`SELECT fmu_parest('{HP1Instance1}',
		'{SELECT * FROM measurements}', '{Cp, R}')`).Scan(&errs); err != nil {
		t.Fatalf("fmu_parest: %v", err)
	}
	if !strings.HasPrefix(errs, "{") {
		t.Fatalf("fmu_parest returned %q", errs)
	}

	// Streamed fmu_simulate rows: iterate with sql.Rows and stop early —
	// the driver's streaming Rows must handle an early Close.
	rows, err := db.Query(`SELECT simulationTime, varName, value
		FROM fmu_simulate('HP1Instance1', 'SELECT * FROM measurements')
		WHERE varName = 'x'`)
	if err != nil {
		t.Fatalf("fmu_simulate: %v", err)
	}
	cols, err := rows.Columns()
	if err != nil {
		t.Fatal(err)
	}
	// The parser normalizes unquoted identifiers to lower case, as
	// PostgreSQL does.
	want := []string{"simulationtime", "varname", "value"}
	if !strings.EqualFold(fmt.Sprint(cols), fmt.Sprint(want)) {
		t.Fatalf("columns = %v, want %v", cols, want)
	}
	seen := 0
	for rows.Next() {
		var simTime, value float64
		var varName string
		if err := rows.Scan(&simTime, &varName, &value); err != nil {
			t.Fatalf("scan: %v", err)
		}
		if varName != "x" {
			t.Fatalf("unexpected varName %q", varName)
		}
		seen++
		if seen == 5 {
			break
		}
	}
	if err := rows.Close(); err != nil {
		t.Fatal(err)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	if seen != 5 {
		t.Fatalf("streamed %d rows, want 5", seen)
	}

	// Aggregate analytics over the simulation, post-calibration.
	var avg float64
	if err := db.QueryRow(`SELECT avg(value)
		FROM fmu_simulate('HP1Instance1', 'SELECT * FROM measurements')
		WHERE varName = 'x'`).Scan(&avg); err != nil {
		t.Fatalf("aggregate: %v", err)
	}
	if avg == 0 {
		t.Fatal("implausible zero average indoor temperature")
	}
}

// TestConformanceTx exercises transaction handles through database/sql:
// commit persists, rollback undoes, and a second concurrent Begin opens an
// independent MVCC transaction.
func TestConformanceTx(t *testing.T) {
	db, err := sql.Open("pgfmu", "")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE t (a int)`); err != nil {
		t.Fatal(err)
	}

	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`INSERT INTO t VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	// A second transaction opens concurrently: MVCC snapshots isolate it
	// from the first handle's uncommitted insert.
	txB, err := db.Begin()
	if err != nil {
		t.Fatalf("concurrent Begin: %v", err)
	}
	var nB int
	if err := txB.QueryRow(`SELECT count(*) FROM t`).Scan(&nB); err != nil {
		t.Fatal(err)
	}
	if nB != 0 {
		t.Fatalf("second transaction saw %d uncommitted rows, want 0", nB)
	}
	if err := txB.Rollback(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := tx.Commit(); !errors.Is(err, sql.ErrTxDone) {
		// database/sql intercepts double-finish itself.
		t.Fatalf("double commit: got %v, want sql.ErrTxDone", err)
	}

	tx2, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx2.Exec(`INSERT INTO t VALUES (2)`); err != nil {
		t.Fatal(err)
	}
	if err := tx2.Rollback(); err != nil {
		t.Fatal(err)
	}

	var n int
	if err := db.QueryRow(`SELECT count(*) FROM t`).Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("after commit+rollback count = %d, want 1", n)
	}
}

// TestConformanceDurable opens a durable DSN, writes through database/sql,
// reopens, and expects the data back.
func TestConformanceDurable(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")

	db, err := sql.Open("pgfmu", dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`CREATE TABLE kv (k text, v int)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO kv VALUES ('answer', 42)`); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	db2, err := sql.Open("pgfmu", dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	var v int
	if err := db2.QueryRow(`SELECT v FROM kv WHERE k = 'answer'`).Scan(&v); err != nil {
		t.Fatal(err)
	}
	if v != 42 {
		t.Fatalf("recovered v = %d, want 42", v)
	}
}

// TestConformanceContextCancel verifies QueryContext aborts promptly when
// its context is cancelled mid-stream.
func TestConformanceContextCancel(t *testing.T) {
	db, err := sql.Open("pgfmu", "")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	ctx, cancel := context.WithCancel(context.Background())
	rows, err := db.QueryContext(ctx, `SELECT gs * 2 FROM generate_series(1, 100000000) AS gs`)
	if err != nil {
		t.Fatal(err)
	}
	if !rows.Next() {
		t.Fatal("expected at least one row")
	}
	cancel()
	deadline := time.Now().Add(5 * time.Second)
	for rows.Next() {
		if time.Now().After(deadline) {
			t.Fatal("iteration did not stop after cancellation")
		}
	}
	if err := rows.Err(); !errors.Is(err, context.Canceled) {
		t.Fatalf("rows.Err() = %v, want context.Canceled", err)
	}
	rows.Close()
}

// TestConformanceSentinelErrors verifies the typed sentinels surface
// through database/sql's error unwrapping.
func TestConformanceSentinelErrors(t *testing.T) {
	db, err := sql.Open("pgfmu", "")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	_, err = db.Exec(`INSERT INTO missing VALUES (1)`)
	if !errors.Is(err, pgfmu.ErrNoSuchTable) {
		t.Fatalf("insert into missing table: got %v, want ErrNoSuchTable", err)
	}
	_, err = db.Query(`SELECT * FROM fmu_variables('nope')`)
	if !errors.Is(err, pgfmu.ErrNoSuchInstance) {
		t.Fatalf("unknown instance: got %v, want ErrNoSuchInstance", err)
	}
}

// TestConformanceExplainAnalyze drives the planner surface through
// database/sql: ANALYZE as an Exec, EXPLAIN as a streamed query whose rows
// reflect the access path, flipping from index probe to seq scan when the
// index is dropped.
func TestConformanceExplainAnalyze(t *testing.T) {
	db, err := sql.Open("pgfmu", "")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	mustExecSQL := func(q string, args ...any) {
		t.Helper()
		if _, err := db.Exec(q, args...); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	mustExecSQL(`CREATE TABLE planner_conf (k integer, v text)`)
	for i := 0; i < 200; i++ {
		mustExecSQL(`INSERT INTO planner_conf VALUES ($1, 'v')`, i)
	}
	mustExecSQL(`CREATE INDEX planner_conf_k ON planner_conf (k) USING hash`)
	mustExecSQL(`ANALYZE planner_conf`)

	plan := func() string {
		t.Helper()
		rows, err := db.Query(`EXPLAIN SELECT v FROM planner_conf WHERE k = $1`, 7)
		if err != nil {
			t.Fatal(err)
		}
		defer rows.Close()
		var sb strings.Builder
		for rows.Next() {
			var line string
			if err := rows.Scan(&line); err != nil {
				t.Fatal(err)
			}
			sb.WriteString(line)
			sb.WriteString("\n")
		}
		if err := rows.Err(); err != nil {
			t.Fatal(err)
		}
		return sb.String()
	}

	if p := plan(); !strings.Contains(p, "Index Scan using planner_conf_k") {
		t.Fatalf("want index probe through database/sql, got:\n%s", p)
	}
	mustExecSQL(`DROP INDEX planner_conf_k`)
	if p := plan(); !strings.Contains(p, "Seq Scan on planner_conf") || strings.Contains(p, "Index Scan") {
		t.Fatalf("want seq scan after DROP INDEX, got:\n%s", p)
	}
}

// TestConformanceJoinAggregate drives the analytical statement class — hash
// joins, streaming GROUP BY, ORDER BY/LIMIT — through database/sql: results
// stream row by row, EXPLAIN shows the streaming operator nodes, and a LEFT
// JOIN's NULL pads surface as sql.NullString.
func TestConformanceJoinAggregate(t *testing.T) {
	db, err := sql.Open("pgfmu", "")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	mustExecSQL := func(q string, args ...any) {
		t.Helper()
		if _, err := db.Exec(q, args...); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	mustExecSQL(`CREATE TABLE runs (id integer, model integer, err float)`)
	mustExecSQL(`CREATE TABLE models (id integer, name text)`)
	for i := 0; i < 300; i++ {
		mustExecSQL(`INSERT INTO runs VALUES ($1, $2, $3)`, i, i%4, float64(i)/100)
	}
	mustExecSQL(`INSERT INTO models VALUES (0, 'hp'), (1, 'room'), (2, 'tank')`) // model 3 dangles

	// Grouped join through the standard interface.
	rows, err := db.Query(`SELECT m.name, count(*), avg(r.err) FROM runs r JOIN models m ON r.model = m.id GROUP BY m.name ORDER BY name`)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for rows.Next() {
		var name string
		var n int
		var avg float64
		if err := rows.Scan(&name, &n, &avg); err != nil {
			t.Fatal(err)
		}
		if n != 75 {
			t.Fatalf("group %s count = %d, want 75", name, n)
		}
		names = append(names, name)
	}
	if err := rows.Err(); err != nil {
		t.Fatal(err)
	}
	rows.Close()
	if strings.Join(names, ",") != "hp,room,tank" {
		t.Fatalf("groups = %v", names)
	}

	// LEFT JOIN null pads scan as sql.NullString.
	var nullName sql.NullString
	if err := db.QueryRow(`SELECT m.name FROM runs r LEFT JOIN models m ON r.model = m.id WHERE r.model = 3 LIMIT 1`).Scan(&nullName); err != nil {
		t.Fatal(err)
	}
	if nullName.Valid {
		t.Fatalf("dangling model should be NULL, got %q", nullName.String)
	}

	// The plan behind the statement shows the streaming operators.
	prows, err := db.Query(`EXPLAIN SELECT m.name, count(*) FROM runs r JOIN models m ON r.model = m.id GROUP BY m.name`)
	if err != nil {
		t.Fatal(err)
	}
	var plan strings.Builder
	for prows.Next() {
		var line string
		if err := prows.Scan(&line); err != nil {
			t.Fatal(err)
		}
		plan.WriteString(line + "\n")
	}
	prows.Close()
	if p := plan.String(); !strings.Contains(p, "HashAggregate") || !strings.Contains(p, "Hash Join") {
		t.Fatalf("want HashAggregate over Hash Join through database/sql, got:\n%s", p)
	}
}

// TestConformanceTxWriteConflict: two overlapping database/sql
// transactions update the same row; the first committer wins and the
// loser's error is errors.Is-able as both driver.ErrWriteConflict and
// pgfmu.ErrWriteConflict all the way through database/sql.
func TestConformanceTxWriteConflict(t *testing.T) {
	db, err := sql.Open("pgfmu", "")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE acct (id int, bal int)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO acct VALUES (1, 100)`); err != nil {
		t.Fatal(err)
	}

	tx1, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	tx2, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx1.Exec(`UPDATE acct SET bal = bal + 10 WHERE id = 1`); err != nil {
		t.Fatal(err)
	}
	if err := tx1.Commit(); err != nil {
		t.Fatal(err)
	}
	_, err = tx2.Exec(`UPDATE acct SET bal = bal + 5 WHERE id = 1`)
	if !errors.Is(err, ErrWriteConflict) {
		t.Fatalf("overlapping update: got %v, want driver.ErrWriteConflict", err)
	}
	if !errors.Is(err, pgfmu.ErrWriteConflict) {
		t.Fatalf("error does not unwrap to pgfmu.ErrWriteConflict: %v", err)
	}
	if err := tx2.Rollback(); err != nil {
		t.Fatal(err)
	}

	var bal int
	if err := db.QueryRow(`SELECT bal FROM acct WHERE id = 1`).Scan(&bal); err != nil {
		t.Fatal(err)
	}
	if bal != 110 {
		t.Fatalf("bal = %d, want 110 (only the winner's update applied)", bal)
	}
}

// TestConformanceTextBeginStaysOnConn: SQL-text BEGIN and ROLLBACK sent
// through one sql.Conn open and end that connection's transaction only; a
// row another connection autocommits meanwhile survives the rollback.
func TestConformanceTextBeginStaysOnConn(t *testing.T) {
	db, err := sql.Open("pgfmu", "")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ctx := context.Background()
	for _, ddl := range []string{`CREATE TABLE mine (a int)`, `CREATE TABLE theirs (a int)`} {
		if _, err := db.Exec(ddl); err != nil {
			t.Fatal(err)
		}
	}
	c, err := db.Conn(ctx)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.ExecContext(ctx, `BEGIN`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExecContext(ctx, `INSERT INTO mine VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	// c is held, so the pool runs this on another connection.
	if _, err := db.Exec(`INSERT INTO theirs VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ExecContext(ctx, `ROLLBACK`); err != nil {
		t.Fatal(err)
	}
	var mine, theirs int
	if err := db.QueryRow(`SELECT count(*) FROM mine`).Scan(&mine); err != nil {
		t.Fatal(err)
	}
	if err := db.QueryRow(`SELECT count(*) FROM theirs`).Scan(&theirs); err != nil {
		t.Fatal(err)
	}
	if mine != 0 || theirs != 1 {
		t.Fatalf("after ROLLBACK on one connection: mine=%d theirs=%d, want 0 and 1", mine, theirs)
	}
}

// TestConformanceTxPrepare: siren's mustExecInTx idiom — tx.Prepare, then
// stmt.Exec — writes inside the transaction, so Rollback leaves no row.
func TestConformanceTxPrepare(t *testing.T) {
	db, err := sql.Open("pgfmu", "")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.Exec(`CREATE TABLE t (a int)`); err != nil {
		t.Fatal(err)
	}
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	st, err := tx.Prepare(`INSERT INTO t VALUES ($1)`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Exec(1); err != nil {
		t.Fatal(err)
	}
	if err := tx.Rollback(); err != nil {
		t.Fatal(err)
	}
	var n int
	if err := db.QueryRow(`SELECT count(*) FROM t`).Scan(&n); err != nil {
		t.Fatal(err)
	}
	if n != 0 {
		t.Fatalf("rows after tx.Prepare, Exec, Rollback = %d, want 0", n)
	}
}
