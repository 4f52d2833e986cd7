package sqldb

import (
	"bytes"
	"math"
	"testing"
)

// These tests target the compiled group projection (compileGroupProj): HAVING
// and the SELECT list of a grouped query compiled over finished groups —
// scalar functions of aggregates, arithmetic over group keys and aggregates,
// CASE and casts in a grouped context, HAVING over composite expressions.
// groupQuery runs each query on both aggregate executors that evaluate it,
// the vectorized aggregate and the operator pipeline's hash aggregation, and
// holds both to the reference executor's interpreter (evalGrouped).

// groupQuery runs a grouped SELECT on the vectorized executor, on the
// operator pipeline and on the reference executor, and fails unless the
// three return the same rows in the same order.
func groupQuery(t *testing.T, db *DB, sql string) *ResultSet {
	t.Helper()
	want := mustRefQuery(t, db, sql)
	defer db.setPlanner(plannerOptions{})
	for _, opts := range []plannerOptions{{}, {disableVectorized: true}} {
		db.setPlanner(opts)
		if got := mustQuery(t, db, sql); !rowsEqual(got, want) {
			t.Fatalf("%s (%+v):\ngot       %v\nreference %v", sql, opts, got.Rows, want.Rows)
		}
	}
	return want
}

// groupQueryErr is groupQuery for a query that must fail: every executor
// with the reference executor's error text, which it returns.
func groupQueryErr(t *testing.T, db *DB, sql string) string {
	t.Helper()
	_, werr := refQuery(t, db, sql)
	if werr == nil {
		t.Fatalf("%s: the reference succeeds", sql)
	}
	defer db.setPlanner(plannerOptions{})
	for _, opts := range []plannerOptions{{}, {disableVectorized: true}} {
		db.setPlanner(opts)
		if _, err := db.Query(sql); err == nil || err.Error() != werr.Error() {
			t.Fatalf("%s (%+v): err = %v, want %v", sql, opts, err, werr)
		}
	}
	return werr.Error()
}

func seedSales(t *testing.T) *DB {
	t.Helper()
	db := New()
	mustExec(t, db, `CREATE TABLE sales (region text, amount float, units int)`)
	mustExec(t, db, `INSERT INTO sales VALUES
		('n', 10, 1), ('n', 20, 2), ('s', 5, 1), ('s', 7, 3), ('w', 100, 10)`)
	return db
}

func TestScalarFunctionOfAggregate(t *testing.T) {
	db := seedSales(t)
	rs := groupQuery(t, db, `SELECT region, round(avg(amount), 1) FROM sales GROUP BY region ORDER BY region`)
	if rs.Rows[0][1].Float() != 15 { // n: (10+20)/2
		t.Errorf("round(avg) = %v", rs.Rows[0][1])
	}
}

func TestArithmeticOverAggregates(t *testing.T) {
	db := seedSales(t)
	rs := groupQuery(t, db, `SELECT region, sum(amount) / count(*) FROM sales GROUP BY region ORDER BY region`)
	if got, _ := rs.Rows[0][1].AsFloat(); got != 15 {
		t.Errorf("sum/count = %v", got)
	}
	// Unary over aggregate.
	rs = groupQuery(t, db, `SELECT -sum(amount) FROM sales`)
	if got, _ := rs.Rows[0][0].AsFloat(); got != -142 {
		t.Errorf("-sum = %v", got)
	}
}

func TestCastOfAggregate(t *testing.T) {
	db := seedSales(t)
	rs := groupQuery(t, db, `SELECT sum(units)::text || ' units' FROM sales`)
	if rs.Rows[0][0].Text() != "17 units" {
		t.Errorf("cast aggregate = %v", rs.Rows[0][0])
	}
}

func TestCaseOverAggregates(t *testing.T) {
	db := seedSales(t)
	rs := groupQuery(t, db, `
		SELECT region,
		       CASE WHEN sum(amount) > 50 THEN 'big' ELSE 'small' END
		FROM sales GROUP BY region ORDER BY region`)
	want := map[string]string{"n": "small", "s": "small", "w": "big"}
	for _, r := range rs.Rows {
		if r[1].Text() != want[r[0].Text()] {
			t.Errorf("region %s: %v", r[0].Text(), r[1])
		}
	}
	// Operand-style CASE in grouped context.
	rs = groupQuery(t, db, `
		SELECT region, CASE count(*) WHEN 1 THEN 'one' ELSE 'many' END
		FROM sales GROUP BY region ORDER BY region`)
	if rs.Rows[2][1].Text() != "one" { // w has a single row
		t.Errorf("case-count = %v", rs.Rows[2][1])
	}
}

func TestHavingCompositeLogic(t *testing.T) {
	db := seedSales(t)
	rs := groupQuery(t, db, `
		SELECT region FROM sales GROUP BY region
		HAVING sum(amount) > 10 AND count(*) > 1 ORDER BY region`)
	if len(rs.Rows) != 2 || rs.Rows[0][0].Text() != "n" || rs.Rows[1][0].Text() != "s" {
		t.Errorf("composite HAVING = %v", rs.Rows)
	}
	rs = groupQuery(t, db, `
		SELECT region FROM sales GROUP BY region
		HAVING sum(amount) > 90 OR count(*) > 1 ORDER BY region`)
	if len(rs.Rows) != 3 {
		t.Errorf("OR HAVING = %v", rs.Rows)
	}
}

// TestGroupedLogicShortCircuits: AND and OR over a group evaluate their right
// operand only when the left one does not decide, exactly as they do per row
// — in HAVING and in the SELECT list alike.
func TestGroupedLogicShortCircuits(t *testing.T) {
	db := seedSales(t)
	if rs := groupQuery(t, db, `SELECT region FROM sales GROUP BY region HAVING count(*) > 100 AND 1/0 = 1`); len(rs.Rows) != 0 {
		t.Errorf("AND short-circuit = %v", rs.Rows)
	}
	if rs := groupQuery(t, db, `SELECT region FROM sales GROUP BY region HAVING count(*) < 100 OR 1/0 = 1 ORDER BY region`); len(rs.Rows) != 3 {
		t.Errorf("OR short-circuit = %v", rs.Rows)
	}
	rs := groupQuery(t, db, `
		SELECT region, sum(units) > 100 AND sum(units) / 0 > 1, sum(units) > 0 OR sum(units) / 0 > 1
		FROM sales GROUP BY region ORDER BY region`)
	if got := rs.Rows[0][1].String() + " " + rs.Rows[0][2].String(); got != "false true" {
		t.Errorf("grouped SELECT list short-circuit = %v", rs.Rows)
	}
	// A left operand that does not decide evaluates the right one.
	if got := groupQueryErr(t, db, `SELECT region FROM sales GROUP BY region HAVING count(*) > 0 AND 1/0 = 1`); got != "sql: division by zero" {
		t.Errorf("undecided AND: %s", got)
	}
}

// TestGroupedResolutionErrors: the grouped context's errors are the
// interpreter's — deferred to the group that reads them — on every executor.
func TestGroupedResolutionErrors(t *testing.T) {
	db := seedSales(t)
	for sql, want := range map[string]string{
		`SELECT region, nosuch FROM sales GROUP BY region`:                     `sql: unknown column "nosuch"`,
		`SELECT region FROM sales GROUP BY region HAVING nofunc(region)`:       `sql: unknown function nofunc()`,
		`SELECT region, max(nosuch) FROM sales GROUP BY region`:                `sql: unknown column "nosuch"`,
		`SELECT region, sum(sum(units)) FROM sales GROUP BY region`:            `sql: aggregate sum() not allowed here`,
		`SELECT region, row_number() FROM sales GROUP BY region`:               `sql: unknown function row_number()`,
		`SELECT region, units IS NULL FROM sales GROUP BY region`:              `sql: unsupported expression *sqldb.IsNullExpr in aggregate context`,
		`SELECT region, sum(*) FROM sales GROUP BY region HAVING count(*) > 1`: `sql: sum(*) is not valid`,
	} {
		if got := groupQueryErr(t, db, sql); got != want {
			t.Errorf("%s: %s, want %s", sql, got, want)
		}
	}
	// Nothing reads a column of an empty group's first row.
	if rs := groupQuery(t, db, `SELECT count(*), nosuch FROM sales WHERE units > 100`); rs.Rows[0][1].String() != "NULL" {
		t.Errorf("empty implicit group = %v", rs.Rows)
	}
}

func TestGroupByExpression(t *testing.T) {
	db := seedSales(t)
	// Group by a computed key; the projection repeats the key expression.
	rs := groupQuery(t, db, `
		SELECT units % 2, count(*) FROM sales GROUP BY units % 2 ORDER BY 1`)
	if len(rs.Rows) != 2 {
		t.Fatalf("groups = %d", len(rs.Rows))
	}
	// units: 1,2,1,3,10 -> odd: 3, even: 2
	if rs.Rows[0][1].Int() != 2 || rs.Rows[1][1].Int() != 3 {
		t.Errorf("parity groups = %v", rs.Rows)
	}
}

func TestAggregateOfExpression(t *testing.T) {
	db := seedSales(t)
	rs := groupQuery(t, db, `SELECT sum(amount * units) FROM sales`)
	want := 10.0*1 + 20*2 + 5*1 + 7*3 + 100*10
	if got, _ := rs.Rows[0][0].AsFloat(); math.Abs(got-want) > 1e-9 {
		t.Errorf("sum(expr) = %v, want %v", got, want)
	}
}

func TestSumIntStaysInt(t *testing.T) {
	db := seedSales(t)
	rs := groupQuery(t, db, `SELECT sum(units) FROM sales`)
	if rs.Rows[0][0].Kind().String() != "integer" {
		t.Errorf("sum(int) kind = %v", rs.Rows[0][0].Kind())
	}
}

func TestAggregateErrors(t *testing.T) {
	db := seedSales(t)
	bad := []string{
		`SELECT sum(*) FROM sales`,
		`SELECT sum(amount, units) FROM sales`,
		`SELECT nosuchagg(amount) FROM sales GROUP BY region`,
		`SELECT sum(region) FROM sales`, // non-numeric sum
	}
	for _, q := range bad {
		if _, err := db.Query(q); err == nil {
			t.Errorf("%s should fail", q)
		}
	}
	// Aggregate nested where not allowed.
	if _, err := db.Query(`SELECT amount FROM sales WHERE sum(amount) > 1`); err == nil {
		t.Error("aggregate in WHERE should fail")
	}
}

func TestMinMaxOverText(t *testing.T) {
	db := seedSales(t)
	rs := groupQuery(t, db, `SELECT min(region), max(region) FROM sales`)
	if rs.Rows[0][0].Text() != "n" || rs.Rows[0][1].Text() != "w" {
		t.Errorf("min/max text = %v", rs.Rows[0])
	}
}

func TestGroupColumnFirstRowSemantics(t *testing.T) {
	// A non-key, non-aggregate column resolves to the group's first row
	// (documented engine extension).
	db := seedSales(t)
	rs := groupQuery(t, db, `SELECT region, amount FROM sales GROUP BY region ORDER BY region`)
	if rs.Rows[0][1].Float() != 10 { // first n row
		t.Errorf("first-row semantics = %v", rs.Rows[0])
	}
}

func TestNormalizeTypeSpellings(t *testing.T) {
	db := New()
	spellings := []string{
		`CREATE TABLE t1 (a bigint, b smallint, c serial)`,
		`CREATE TABLE t2 (a real, b numeric, c decimal, d float8, e float4)`,
		`CREATE TABLE t3 (a varchar(10), b char(1), c character(2), d string)`,
		`CREATE TABLE t4 (a bool, b timestamptz, c datetime, d date)`,
		`CREATE TABLE t5 (a double precision)`,
	}
	for _, q := range spellings {
		mustExec(t, db, q)
	}
	// varchar with length bound parses; the bound itself is ignored.
	mustExec(t, db, `INSERT INTO t3 VALUES ('longer than ten chars', 'x', 'yy', 'z')`)
}

func TestCastValueAllTargets(t *testing.T) {
	db := New()
	cases := []struct {
		sql  string
		want string
	}{
		{`SELECT true::text`, "true"},
		{`SELECT 1::boolean`, "true"},
		{`SELECT '2015-02-01'::timestamp::text`, "2015-02-01 00:00:00"},
		{`SELECT 3.0::integer`, "3"},
		{`SELECT '5'::float`, "5"},
		{`SELECT 5::variant`, "5"},
	}
	for _, c := range cases {
		rs := mustQuery(t, db, c.sql)
		if got := rs.Rows[0][0].String(); got != c.want {
			t.Errorf("%s = %q, want %q", c.sql, got, c.want)
		}
	}
}

func TestTableNames(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE zebra (a int)`)
	mustExec(t, db, `CREATE TABLE aardvark (a int)`)
	names := db.TableNames()
	if len(names) != 2 {
		t.Errorf("TableNames = %v", names)
	}
}

func TestGroupByEmptyTable(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE e (k text, v int)`)
	rs := mustQuery(t, db, `SELECT k, sum(v) FROM e GROUP BY k`)
	if len(rs.Rows) != 0 {
		t.Errorf("empty grouped rows = %v", rs.Rows)
	}
	// Implicit aggregate over empty input still yields one row.
	rs = mustQuery(t, db, `SELECT count(*) FROM e`)
	if len(rs.Rows) != 1 || rs.Rows[0][0].Int() != 0 {
		t.Errorf("count over empty = %v", rs.Rows)
	}
}

func TestDumpRestoreRoundTrip(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE t (a int, b text, c float, d boolean, e timestamp, f variant)`)
	mustExec(t, db, `INSERT INTO t VALUES
		(1, 'plain', 1.5, true, '2015-02-01 00:00:00', 42),
		(2, 'it''s quoted', -0.25, false, '2018-04-04 08:30:00', 'text'),
		(NULL, NULL, NULL, NULL, NULL, NULL)`)
	var buf bytes.Buffer
	if err := db.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	restored := New()
	if err := restored.Restore(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	orig := mustQuery(t, db, `SELECT * FROM t ORDER BY a`)
	got := mustQuery(t, restored, `SELECT * FROM t ORDER BY a`)
	if len(got.Rows) != len(orig.Rows) {
		t.Fatalf("restored %d rows, want %d", len(got.Rows), len(orig.Rows))
	}
	for i := range orig.Rows {
		for j := range orig.Rows[i] {
			a, b := orig.Rows[i][j], got.Rows[i][j]
			if a.IsNull() != b.IsNull() {
				t.Errorf("row %d col %d null mismatch", i, j)
				continue
			}
			if !a.IsNull() && !a.Equal(b) {
				t.Errorf("row %d col %d: %v != %v", i, j, a, b)
			}
		}
	}
	// Column types survive.
	tab, _ := restored.tables.get("t")
	if tab.Columns[5].Type != "variant" || tab.Columns[4].Type != "timestamp" {
		t.Errorf("restored column types = %+v", tab.Columns)
	}
}

func TestRestoreBadScript(t *testing.T) {
	db := New()
	if err := db.Restore(bytes.NewReader([]byte("NOT SQL"))); err == nil {
		t.Error("bad dump should fail")
	}
}
