package sqldb

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/variant"
)

func mustExec(t *testing.T, db *DB, sql string, args ...any) {
	t.Helper()
	if _, err := db.Exec(sql, args...); err != nil {
		t.Fatalf("Exec(%q): %v", sql, err)
	}
}

func mustQuery(t *testing.T, db *DB, sql string, args ...any) *ResultSet {
	t.Helper()
	rs, err := db.Query(sql, args...)
	if err != nil {
		t.Fatalf("Query(%q): %v", sql, err)
	}
	return rs
}

func seedMeasurements(t *testing.T, db *DB) {
	t.Helper()
	mustExec(t, db, `CREATE TABLE measurements (ts timestamp, x float, y float, u float)`)
	rows := []string{
		`('2015-02-01 00:00:00', 20.7507, 0, 0)`,
		`('2015-02-01 01:00:00', 23.6231, 0.1381, 0.0177)`,
		`('2015-02-01 02:00:00', 24.1, 0.2, 0.05)`,
		`('2015-02-01 03:00:00', 22.9, 0.15, 0.02)`,
	}
	mustExec(t, db, `INSERT INTO measurements VALUES `+strings.Join(rows, ", "))
}

func TestCreateInsertSelect(t *testing.T) {
	db := New()
	seedMeasurements(t, db)
	rs := mustQuery(t, db, `SELECT * FROM measurements`)
	if len(rs.Rows) != 4 || len(rs.Columns) != 4 {
		t.Fatalf("got %dx%d", len(rs.Rows), len(rs.Columns))
	}
	if rs.Columns[0].Name != "ts" || rs.Columns[1].Name != "x" {
		t.Errorf("columns = %+v", rs.Columns)
	}
	v, err := rs.Scan(0, "x")
	if err != nil || v.Float() != 20.7507 {
		t.Errorf("Scan x = %v, %v", v, err)
	}
}

func TestCreateTableErrors(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE t (a int)`)
	if _, err := db.Exec(`CREATE TABLE t (a int)`); err == nil {
		t.Error("duplicate table should fail")
	}
	mustExec(t, db, `CREATE TABLE IF NOT EXISTS t (a int)`)
	if _, err := db.Exec(`CREATE TABLE u (a int, a float)`); err == nil {
		t.Error("duplicate column should fail")
	}
	if _, err := db.Exec(`CREATE TABLE v (a sometype)`); err == nil {
		t.Error("unknown type should fail")
	}
}

func TestDropTable(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE t (a int)`)
	mustExec(t, db, `DROP TABLE t`)
	if db.HasTable("t") {
		t.Error("table should be gone")
	}
	if _, err := db.Exec(`DROP TABLE t`); err == nil {
		t.Error("dropping missing table should fail")
	}
	mustExec(t, db, `DROP TABLE IF EXISTS t`)
}

func TestInsertColumnSubset(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE t (a int, b text, c float)`)
	mustExec(t, db, `INSERT INTO t (b, a) VALUES ('hi', 3)`)
	rs := mustQuery(t, db, `SELECT a, b, c FROM t`)
	if rs.Rows[0][0].Int() != 3 || rs.Rows[0][1].Text() != "hi" || !rs.Rows[0][2].IsNull() {
		t.Errorf("row = %v", rs.Rows[0])
	}
	if _, err := db.Exec(`INSERT INTO t (a) VALUES (1, 2)`); err == nil {
		t.Error("arity mismatch should fail")
	}
	if _, err := db.Exec(`INSERT INTO t (zzz) VALUES (1)`); err == nil {
		t.Error("unknown column should fail")
	}
	if _, err := db.Exec(`INSERT INTO nope VALUES (1)`); err == nil {
		t.Error("unknown table should fail")
	}
}

func TestInsertCoercion(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE t (a int, b float, c text, d boolean, e timestamp)`)
	mustExec(t, db, `INSERT INTO t VALUES ('7', 3, 42, 'true', '2015-02-01')`)
	rs := mustQuery(t, db, `SELECT * FROM t`)
	r := rs.Rows[0]
	if r[0].Kind() != variant.Int || r[0].Int() != 7 {
		t.Errorf("a = %v (%v)", r[0], r[0].Kind())
	}
	if r[1].Kind() != variant.Float || r[1].Float() != 3 {
		t.Errorf("b = %v (%v)", r[1], r[1].Kind())
	}
	if r[2].Kind() != variant.Text || r[2].Text() != "42" {
		t.Errorf("c = %v (%v)", r[2], r[2].Kind())
	}
	if r[3].Kind() != variant.Bool || !r[3].Bool() {
		t.Errorf("d = %v", r[3])
	}
	if r[4].Kind() != variant.Time {
		t.Errorf("e = %v (%v)", r[4], r[4].Kind())
	}
	if _, err := db.Exec(`INSERT INTO t VALUES ('abc', 0, '', true, '2015-01-01')`); err == nil {
		t.Error("non-coercible int should fail")
	}
}

func TestInsertSelect(t *testing.T) {
	db := New()
	seedMeasurements(t, db)
	mustExec(t, db, `CREATE TABLE copy (ts timestamp, x float)`)
	n, err := db.Exec(`INSERT INTO copy SELECT ts, x FROM measurements WHERE x > 21`)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Errorf("inserted %d, want 3", n)
	}
}

func TestWhereAndComparisons(t *testing.T) {
	db := New()
	seedMeasurements(t, db)
	cases := []struct {
		where string
		want  int
	}{
		{`x > 21`, 3},
		{`x >= 22.9`, 3},
		{`x = 24.1`, 1},
		{`x <> 24.1`, 3},
		{`x < 21 AND u = 0`, 1},
		{`x < 21 OR x > 24`, 2},
		{`NOT (x < 21)`, 3},
		{`x BETWEEN 21 AND 24`, 2},
		{`x NOT BETWEEN 21 AND 24`, 2},
		{`u IN (0, 0.05)`, 2},
		{`u NOT IN (0, 0.05)`, 2},
		{`ts > '2015-02-01 01:00:00'`, 2},
	}
	for _, c := range cases {
		rs := mustQuery(t, db, `SELECT * FROM measurements WHERE `+c.where)
		if len(rs.Rows) != c.want {
			t.Errorf("WHERE %s: got %d rows, want %d", c.where, len(rs.Rows), c.want)
		}
	}
}

func TestProjectionAliasesAndExpressions(t *testing.T) {
	db := New()
	seedMeasurements(t, db)
	rs := mustQuery(t, db, `SELECT x * 2 AS doubled, x + y total, 'k' || u::text AS tag FROM measurements LIMIT 1`)
	if rs.Columns[0].Name != "doubled" || rs.Columns[1].Name != "total" || rs.Columns[2].Name != "tag" {
		t.Errorf("columns = %+v", rs.Columns)
	}
	if rs.Rows[0][0].Float() != 2*20.7507 {
		t.Errorf("doubled = %v", rs.Rows[0][0])
	}
	if rs.Rows[0][2].Text() != "k0" {
		t.Errorf("tag = %v", rs.Rows[0][2])
	}
}

func TestSelectWithoutFrom(t *testing.T) {
	db := New()
	rs := mustQuery(t, db, `SELECT 1 + 2 AS three, 'a' || 'b'`)
	if rs.Rows[0][0].Int() != 3 || rs.Rows[0][1].Text() != "ab" {
		t.Errorf("row = %v", rs.Rows[0])
	}
	if _, err := db.Query(`SELECT *`); err == nil {
		t.Error("SELECT * without FROM should fail")
	}
}

func TestOrderByLimitOffset(t *testing.T) {
	db := New()
	seedMeasurements(t, db)
	rs := mustQuery(t, db, `SELECT x FROM measurements ORDER BY x DESC LIMIT 2 OFFSET 1`)
	if len(rs.Rows) != 2 {
		t.Fatalf("rows = %d", len(rs.Rows))
	}
	if rs.Rows[0][0].Float() != 23.6231 || rs.Rows[1][0].Float() != 22.9 {
		t.Errorf("rows = %v", rs.Rows)
	}
	// ORDER BY ordinal.
	rs = mustQuery(t, db, `SELECT x, y FROM measurements ORDER BY 2 DESC LIMIT 1`)
	if rs.Rows[0][1].Float() != 0.2 {
		t.Errorf("ordinal order = %v", rs.Rows[0])
	}
	// ORDER BY expression not in the projection.
	rs = mustQuery(t, db, `SELECT ts FROM measurements ORDER BY x ASC LIMIT 1`)
	if got := rs.Rows[0][0].String(); got != "2015-02-01 00:00:00" {
		t.Errorf("expr order = %v", got)
	}
	if _, err := db.Query(`SELECT x FROM measurements ORDER BY 5`); err == nil {
		t.Error("out-of-range ordinal should fail")
	}
}

func TestAggregates(t *testing.T) {
	db := New()
	seedMeasurements(t, db)
	rs := mustQuery(t, db, `SELECT count(*), count(x), sum(y), avg(x), min(x), max(x) FROM measurements`)
	r := rs.Rows[0]
	if r[0].Int() != 4 || r[1].Int() != 4 {
		t.Errorf("counts = %v, %v", r[0], r[1])
	}
	if got := r[2].Float(); got < 0.488 || got > 0.489 {
		t.Errorf("sum(y) = %v", got)
	}
	if r[4].Float() != 20.7507 || r[5].Float() != 24.1 {
		t.Errorf("min/max = %v/%v", r[4], r[5])
	}
}

func TestGroupByHaving(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE sales (region text, amount float)`)
	mustExec(t, db, `INSERT INTO sales VALUES ('n', 10), ('n', 20), ('s', 5), ('s', 7), ('w', 100)`)
	rs := mustQuery(t, db, `SELECT region, sum(amount) AS total, count(*) FROM sales GROUP BY region ORDER BY total DESC`)
	if len(rs.Rows) != 3 {
		t.Fatalf("groups = %d", len(rs.Rows))
	}
	if rs.Rows[0][0].Text() != "w" || rs.Rows[0][1].Float() != 100 {
		t.Errorf("first group = %v", rs.Rows[0])
	}
	rs = mustQuery(t, db, `SELECT region FROM sales GROUP BY region HAVING sum(amount) > 15 ORDER BY region`)
	if len(rs.Rows) != 2 || rs.Rows[0][0].Text() != "n" || rs.Rows[1][0].Text() != "w" {
		t.Errorf("having rows = %v", rs.Rows)
	}
}

func TestAggregateNullsAndDistinct(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE t (a int)`)
	mustExec(t, db, `INSERT INTO t VALUES (1), (1), (2), (NULL)`)
	rs := mustQuery(t, db, `SELECT count(*), count(a), count(DISTINCT a), sum(a), avg(a) FROM t`)
	r := rs.Rows[0]
	if r[0].Int() != 4 || r[1].Int() != 3 || r[2].Int() != 2 {
		t.Errorf("counts = %v %v %v", r[0], r[1], r[2])
	}
	if r[3].Int() != 4 {
		t.Errorf("sum = %v", r[3])
	}
	if got := r[4].Float(); got < 1.33 || got > 1.34 {
		t.Errorf("avg = %v", got)
	}
	// Aggregates over empty input.
	mustExec(t, db, `DELETE FROM t`)
	rs = mustQuery(t, db, `SELECT count(*), sum(a), min(a) FROM t`)
	if rs.Rows[0][0].Int() != 0 || !rs.Rows[0][1].IsNull() || !rs.Rows[0][2].IsNull() {
		t.Errorf("empty aggregates = %v", rs.Rows[0])
	}
}

func TestStddev(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE t (a float)`)
	mustExec(t, db, `INSERT INTO t VALUES (2), (4), (4), (4), (5), (5), (7), (9)`)
	rs := mustQuery(t, db, `SELECT stddev(a) FROM t`)
	if got := rs.Rows[0][0].Float(); got < 2.13 || got > 2.14 {
		t.Errorf("stddev = %v", got)
	}
}

func TestCrossJoinAndInnerJoin(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE a (id int, name text)`)
	mustExec(t, db, `CREATE TABLE b (id int, score float)`)
	mustExec(t, db, `INSERT INTO a VALUES (1, 'x'), (2, 'y')`)
	mustExec(t, db, `INSERT INTO b VALUES (1, 0.5), (1, 0.7), (3, 0.9)`)
	rs := mustQuery(t, db, `SELECT * FROM a, b`)
	if len(rs.Rows) != 6 {
		t.Errorf("cross join rows = %d, want 6", len(rs.Rows))
	}
	rs = mustQuery(t, db, `SELECT a.name, b.score FROM a JOIN b ON a.id = b.id`)
	if len(rs.Rows) != 2 {
		t.Errorf("inner join rows = %d, want 2", len(rs.Rows))
	}
	rs = mustQuery(t, db, `SELECT a.name, b.score FROM a LEFT JOIN b ON a.id = b.id ORDER BY a.name`)
	if len(rs.Rows) != 3 {
		t.Fatalf("left join rows = %d, want 3", len(rs.Rows))
	}
	// The 'y' row has no match: score must be NULL.
	var yNull bool
	for _, r := range rs.Rows {
		if r[0].Text() == "y" && r[1].IsNull() {
			yNull = true
		}
	}
	if !yNull {
		t.Errorf("left join should null-extend: %v", rs.Rows)
	}
}

func TestGenerateSeries(t *testing.T) {
	db := New()
	rs := mustQuery(t, db, `SELECT * FROM generate_series(1, 5)`)
	if len(rs.Rows) != 5 || rs.Rows[4][0].Int() != 5 {
		t.Errorf("series = %v", rs.Rows)
	}
	rs = mustQuery(t, db, `SELECT * FROM generate_series(10, 0, -5)`)
	if len(rs.Rows) != 3 || rs.Rows[2][0].Int() != 0 {
		t.Errorf("desc series = %v", rs.Rows)
	}
	if _, err := db.Query(`SELECT * FROM generate_series(1, 5, 0)`); err == nil {
		t.Error("zero step should fail")
	}
	// Aliasing a single-column function renames the column (PostgreSQL rule).
	rs = mustQuery(t, db, `SELECT * FROM generate_series(1, 3) AS id`)
	if rs.Columns[0].Name != "id" {
		t.Errorf("column name = %q, want id", rs.Columns[0].Name)
	}
	rs = mustQuery(t, db, `SELECT * FROM generate_series(1, 3)`)
	if rs.Columns[0].Name != "generate_series" {
		t.Errorf("unaliased column name = %q", rs.Columns[0].Name)
	}
	// Column alias form renames the column.
	rs = mustQuery(t, db, `SELECT id FROM generate_series(1, 3) AS g(id)`)
	if len(rs.Rows) != 3 {
		t.Errorf("aliased series rows = %d", len(rs.Rows))
	}
}

func TestLateralJoinWithFunction(t *testing.T) {
	db := New()
	// A table function that fans out n copies of its argument.
	db.RegisterTable("fanout", func(_ context.Context, _ *Tx, args []variant.Value) (RowStream, error) {
		n, err := args[0].AsInt()
		if err != nil {
			return nil, err
		}
		rs := &ResultSet{Columns: []Column{{Name: "v", Type: "integer"}}}
		for i := int64(0); i < n; i++ {
			rs.Rows = append(rs.Rows, Row{variant.NewInt(i)})
		}
		return rs.Stream(), nil
	}, false)
	// The paper's multi-instance pattern: generate_series feeding a LATERAL
	// function call that references the series value.
	rs := mustQuery(t, db, `SELECT * FROM generate_series(1, 3) AS id, LATERAL fanout(id) AS f`)
	if len(rs.Rows) != 6 { // 1 + 2 + 3
		t.Errorf("lateral fanout rows = %d, want 6", len(rs.Rows))
	}
	// Function items are implicitly lateral even without the keyword.
	rs = mustQuery(t, db, `SELECT * FROM generate_series(1, 3) AS id, fanout(id) AS f`)
	if len(rs.Rows) != 6 {
		t.Errorf("implicit lateral rows = %d, want 6", len(rs.Rows))
	}
}

func TestSubqueryInFrom(t *testing.T) {
	db := New()
	seedMeasurements(t, db)
	rs := mustQuery(t, db, `SELECT count(*) FROM (SELECT x FROM measurements WHERE x > 21) AS hot`)
	if rs.Rows[0][0].Int() != 3 {
		t.Errorf("subquery count = %v", rs.Rows[0][0])
	}
	if _, err := db.Query(`SELECT * FROM (SELECT 1)`); err == nil {
		t.Error("unaliased subquery should fail")
	}
}

func TestScalarUDF(t *testing.T) {
	db := New()
	db.RegisterScalar("plus_one", func(_ context.Context, _ *Tx, args []variant.Value) (variant.Value, error) {
		n, err := args[0].AsInt()
		if err != nil {
			return variant.Value{}, err
		}
		return variant.NewInt(n + 1), nil
	}, false)
	rs := mustQuery(t, db, `SELECT plus_one(41)`)
	if rs.Rows[0][0].Int() != 42 {
		t.Errorf("plus_one = %v", rs.Rows[0][0])
	}
	// Scalar UDF in FROM yields a one-row relation (paper's
	// SELECT fmu_create(...) pattern works in both positions).
	rs = mustQuery(t, db, `SELECT * FROM plus_one(1) AS r`)
	if len(rs.Rows) != 1 || rs.Rows[0][0].Int() != 2 {
		t.Errorf("scalar-in-FROM = %v", rs.Rows)
	}
	if _, err := db.Query(`SELECT nosuch(1)`); err == nil {
		t.Error("unknown function should fail")
	}
	if _, err := db.Query(`SELECT * FROM nosuch(1) AS r`); err == nil {
		t.Error("unknown FROM function should fail")
	}
}

func TestNestedQueryFromUDF(t *testing.T) {
	db := New()
	seedMeasurements(t, db)
	// A UDF that runs the SQL passed to it — the fmu_parest(input_sql)
	// pattern.
	db.RegisterScalar("rowcount_of", func(_ context.Context, tx *Tx, args []variant.Value) (variant.Value, error) {
		rs, err := tx.Query(args[0].AsText())
		if err != nil {
			return variant.Value{}, err
		}
		return variant.NewInt(int64(len(rs.Rows))), nil
	}, false)
	rs := mustQuery(t, db, `SELECT rowcount_of('SELECT * FROM measurements WHERE x > 21')`)
	if rs.Rows[0][0].Int() != 3 {
		t.Errorf("nested count = %v", rs.Rows[0][0])
	}
}

func TestCasts(t *testing.T) {
	db := New()
	cases := []struct {
		sql  string
		want string
	}{
		{`SELECT 3.7::integer`, "4"}, // AsInt fails on 3.7... should error actually
	}
	_ = cases
	rs := mustQuery(t, db, `SELECT '42'::integer + 1`)
	if rs.Rows[0][0].Int() != 43 {
		t.Errorf("cast int = %v", rs.Rows[0][0])
	}
	rs = mustQuery(t, db, `SELECT 42::text || '!'`)
	if rs.Rows[0][0].Text() != "42!" {
		t.Errorf("cast text = %v", rs.Rows[0][0])
	}
	rs = mustQuery(t, db, `SELECT CAST('2015-02-01' AS timestamp)`)
	if rs.Rows[0][0].Kind() != variant.Time {
		t.Errorf("CAST timestamp kind = %v", rs.Rows[0][0].Kind())
	}
	rs = mustQuery(t, db, `SELECT NULL::integer`)
	if !rs.Rows[0][0].IsNull() {
		t.Error("NULL cast should stay NULL")
	}
	if _, err := db.Query(`SELECT 'abc'::integer`); err == nil {
		t.Error("bad cast should fail")
	}
}

func TestLike(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE t (s text)`)
	mustExec(t, db, `INSERT INTO t VALUES ('HP1Instance1'), ('HP1Instance2'), ('Classroom')`)
	rs := mustQuery(t, db, `SELECT * FROM t WHERE s LIKE 'HP1%'`)
	if len(rs.Rows) != 2 {
		t.Errorf("LIKE rows = %d", len(rs.Rows))
	}
	rs = mustQuery(t, db, `SELECT * FROM t WHERE s NOT LIKE '%Instance_'`)
	if len(rs.Rows) != 1 || rs.Rows[0][0].Text() != "Classroom" {
		t.Errorf("NOT LIKE rows = %v", rs.Rows)
	}
}

func TestCaseExpression(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE t (v int)`)
	mustExec(t, db, `INSERT INTO t VALUES (1), (2), (3)`)
	rs := mustQuery(t, db, `SELECT CASE WHEN v < 2 THEN 'low' WHEN v < 3 THEN 'mid' ELSE 'high' END FROM t ORDER BY v`)
	want := []string{"low", "mid", "high"}
	for i, w := range want {
		if rs.Rows[i][0].Text() != w {
			t.Errorf("case[%d] = %v, want %s", i, rs.Rows[i][0], w)
		}
	}
	rs = mustQuery(t, db, `SELECT CASE v WHEN 1 THEN 'one' WHEN 2 THEN 'two' END FROM t ORDER BY v`)
	if rs.Rows[0][0].Text() != "one" || rs.Rows[1][0].Text() != "two" || !rs.Rows[2][0].IsNull() {
		t.Errorf("operand case = %v", rs.Rows)
	}
}

func TestBuiltinScalarFunctions(t *testing.T) {
	db := New()
	cases := []struct {
		sql  string
		want string
	}{
		{`SELECT abs(-3)`, "3"},
		{`SELECT abs(-3.5)`, "3.5"},
		{`SELECT sqrt(16)`, "4"},
		{`SELECT round(3.456, 2)`, "3.46"},
		{`SELECT round(3.5)`, "4"},
		{`SELECT power(2, 10)`, "1024"},
		{`SELECT length('héllo')`, "5"},
		{`SELECT lower('ABC')`, "abc"},
		{`SELECT upper('abc')`, "ABC"},
		{`SELECT trim('  x  ')`, "x"},
		{`SELECT coalesce(NULL, NULL, 7)`, "7"},
		{`SELECT nullif(3, 3)`, "NULL"},
		{`SELECT nullif(3, 4)`, "3"},
		{`SELECT greatest(1, 9, 4)`, "9"},
		{`SELECT least(5, 2, 8)`, "2"},
		{`SELECT floor(2.9)`, "2"},
		{`SELECT ceil(2.1)`, "3"},
	}
	for _, c := range cases {
		rs := mustQuery(t, db, c.sql)
		if got := rs.Rows[0][0].String(); got != c.want {
			t.Errorf("%s = %q, want %q", c.sql, got, c.want)
		}
	}
}

func TestNullSemantics(t *testing.T) {
	db := New()
	cases := []struct {
		sql    string
		isNull bool
		want   string
	}{
		{`SELECT NULL + 1`, true, ""},
		{`SELECT NULL = NULL`, true, ""},
		{`SELECT NULL IS NULL`, false, "true"},
		{`SELECT 1 IS NOT NULL`, false, "true"},
		{`SELECT NULL AND false`, false, "false"},
		{`SELECT NULL AND true`, true, ""},
		{`SELECT NULL OR true`, false, "true"},
		{`SELECT NULL OR false`, true, ""},
		{`SELECT 1 IN (NULL, 2)`, true, ""},
		{`SELECT 2 IN (NULL, 2)`, false, "true"},
		{`SELECT NOT NULL`, true, ""},
	}
	for _, c := range cases {
		rs := mustQuery(t, db, c.sql)
		v := rs.Rows[0][0]
		if v.IsNull() != c.isNull {
			t.Errorf("%s: IsNull = %v, want %v", c.sql, v.IsNull(), c.isNull)
			continue
		}
		if !c.isNull && v.String() != c.want {
			t.Errorf("%s = %q, want %q", c.sql, v.String(), c.want)
		}
	}
}

func TestArithmetic(t *testing.T) {
	db := New()
	cases := []struct {
		sql  string
		want string
	}{
		{`SELECT 7 + 3`, "10"},
		{`SELECT 7 - 3`, "4"},
		{`SELECT 7 * 3`, "21"},
		{`SELECT 6 / 3`, "2"},
		{`SELECT 7 / 2`, "3.5"}, // promotes rather than truncating
		{`SELECT 7 % 3`, "1"},
		{`SELECT 7.5 + 2`, "9.5"},
		{`SELECT -5`, "-5"},
		{`SELECT 2 + 3 * 4`, "14"},
		{`SELECT (2 + 3) * 4`, "20"},
	}
	for _, c := range cases {
		rs := mustQuery(t, db, c.sql)
		if got := rs.Rows[0][0].String(); got != c.want {
			t.Errorf("%s = %q, want %q", c.sql, got, c.want)
		}
	}
	if _, err := db.Query(`SELECT 1 / 0`); err == nil {
		t.Error("division by zero should fail")
	}
	if _, err := db.Query(`SELECT 1 % 0`); err == nil {
		t.Error("modulo by zero should fail")
	}
}

func TestUpdateAndDelete(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE t (id int, v float)`)
	mustExec(t, db, `INSERT INTO t VALUES (1, 10), (2, 20), (3, 30)`)
	n, err := db.Exec(`UPDATE t SET v = v * 2 WHERE id >= 2`)
	if err != nil || n != 2 {
		t.Fatalf("update n = %d, %v", n, err)
	}
	rs := mustQuery(t, db, `SELECT v FROM t ORDER BY id`)
	if rs.Rows[0][0].Float() != 10 || rs.Rows[1][0].Float() != 40 || rs.Rows[2][0].Float() != 60 {
		t.Errorf("after update = %v", rs.Rows)
	}
	n, err = db.Exec(`DELETE FROM t WHERE v > 30`)
	if err != nil || n != 2 {
		t.Fatalf("delete n = %d, %v", n, err)
	}
	rs = mustQuery(t, db, `SELECT count(*) FROM t`)
	if rs.Rows[0][0].Int() != 1 {
		t.Errorf("after delete count = %v", rs.Rows[0][0])
	}
	// Unconditional delete.
	mustExec(t, db, `DELETE FROM t`)
	rs = mustQuery(t, db, `SELECT count(*) FROM t`)
	if rs.Rows[0][0].Int() != 0 {
		t.Error("unconditional delete should empty the table")
	}
	if _, err := db.Exec(`UPDATE nope SET v = 1`); err == nil {
		t.Error("update on missing table should fail")
	}
	if _, err := db.Exec(`UPDATE t SET zzz = 1`); err == nil {
		t.Error("update of missing column should fail")
	}
	if _, err := db.Exec(`DELETE FROM nope`); err == nil {
		t.Error("delete on missing table should fail")
	}
}

func TestPreparedParams(t *testing.T) {
	db := New()
	seedMeasurements(t, db)
	rs := mustQuery(t, db, `SELECT count(*) FROM measurements WHERE x > $1`, 21.0)
	if rs.Rows[0][0].Int() != 3 {
		t.Errorf("param count = %v", rs.Rows[0][0])
	}
	rs = mustQuery(t, db, `SELECT $1 || $2`, "a", "b")
	if rs.Rows[0][0].Text() != "ab" {
		t.Errorf("param concat = %v", rs.Rows[0][0])
	}
	if _, err := db.Query(`SELECT $1`); err == nil {
		t.Error("unbound parameter should fail")
	}
	if _, err := db.Query(`SELECT $1`, make(chan int)); err == nil {
		t.Error("unbindable arg should fail")
	}
}

func TestDistinct(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE t (a int)`)
	mustExec(t, db, `INSERT INTO t VALUES (1), (1), (2)`)
	rs := mustQuery(t, db, `SELECT DISTINCT a FROM t ORDER BY a`)
	if len(rs.Rows) != 2 {
		t.Errorf("distinct rows = %d", len(rs.Rows))
	}
}

func TestExecScript(t *testing.T) {
	db := New()
	rs, err := db.ExecScript(`
		CREATE TABLE t (a int);
		INSERT INTO t VALUES (1), (2);
		SELECT sum(a) FROM t;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][0].Int() != 3 {
		t.Errorf("script result = %v", rs.Rows[0][0])
	}
	if _, err := db.ExecScript(`SELECT 1 SELECT 2`); err == nil {
		t.Error("missing semicolon should fail")
	}
}

func TestQuotedIdentifiersPreserveCase(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE t ("varName" text, "initialValue" variant)`)
	mustExec(t, db, `INSERT INTO t VALUES ('A', 42)`)
	rs := mustQuery(t, db, `SELECT "varName" FROM t`)
	if rs.Columns[0].Name != "varName" {
		t.Errorf("quoted column name = %q", rs.Columns[0].Name)
	}
	// Unquoted lookup still works case-insensitively.
	rs = mustQuery(t, db, `SELECT varname FROM t`)
	if len(rs.Rows) != 1 {
		t.Error("case-insensitive lookup failed")
	}
}

func TestVariantColumn(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE t (v variant)`)
	mustExec(t, db, `INSERT INTO t VALUES (1), ('text'), (2.5), (true), (NULL)`)
	rs := mustQuery(t, db, `SELECT v FROM t`)
	kinds := []variant.Kind{variant.Int, variant.Text, variant.Float, variant.Bool, variant.Null}
	for i, k := range kinds {
		if rs.Rows[i][0].Kind() != k {
			t.Errorf("variant row %d kind = %v, want %v", i, rs.Rows[i][0].Kind(), k)
		}
	}
}

func TestAmbiguousColumn(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE a (id int)`)
	mustExec(t, db, `CREATE TABLE b (id int)`)
	mustExec(t, db, `INSERT INTO a VALUES (1)`)
	mustExec(t, db, `INSERT INTO b VALUES (2)`)
	if _, err := db.Query(`SELECT id FROM a, b`); err == nil {
		t.Error("ambiguous column should fail")
	}
	rs := mustQuery(t, db, `SELECT a.id, b.id FROM a, b`)
	if rs.Rows[0][0].Int() != 1 || rs.Rows[0][1].Int() != 2 {
		t.Errorf("qualified columns = %v", rs.Rows[0])
	}
}

func TestTableAliases(t *testing.T) {
	db := New()
	seedMeasurements(t, db)
	rs := mustQuery(t, db, `SELECT m.x FROM measurements AS m WHERE m.x > 24`)
	if len(rs.Rows) != 1 {
		t.Errorf("alias rows = %d", len(rs.Rows))
	}
	rs = mustQuery(t, db, `SELECT m.x FROM measurements m WHERE m.x > 24`)
	if len(rs.Rows) != 1 {
		t.Errorf("bare alias rows = %d", len(rs.Rows))
	}
	// Original name is shadowed by the alias.
	if _, err := db.Query(`SELECT measurements.x FROM measurements m`); err == nil {
		t.Error("original name should be shadowed by alias")
	}
}

func TestParseErrors(t *testing.T) {
	db := New()
	bad := []string{
		``,
		`SELEC 1`,
		`SELECT`,
		`SELECT 1 FROM`,
		`SELECT 1 WHERE`,
		`CREATE TABLE`,
		`CREATE TABLE t`,
		`INSERT t VALUES (1)`,
		`SELECT 'unterminated`,
		`SELECT "unterminated`,
		`SELECT 1 +`,
		`SELECT (1`,
		`SELECT 1 2`,
		`SELECT $`,
		`SELECT @`,
		`SELECT 1; SELECT`,
		`SELECT CASE END`,
		`UPDATE t`,
		`DELETE t`,
		`SELECT * FROM t JOIN u`,
		`/* unterminated`,
	}
	for _, sql := range bad {
		if _, err := db.Query(sql); err == nil {
			t.Errorf("Query(%q) should fail", sql)
		}
	}
}

func TestComments(t *testing.T) {
	db := New()
	rs := mustQuery(t, db, `SELECT 1 -- trailing comment
		+ 2 /* block */ AS v`)
	if rs.Rows[0][0].Int() != 3 {
		t.Errorf("comments result = %v", rs.Rows[0][0])
	}
}

func TestPlanCacheToggle(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE t (a int)`)
	mustExec(t, db, `INSERT INTO t VALUES (1)`)
	// With cache on, the same SQL text re-executes fine.
	for i := 0; i < 3; i++ {
		rs := mustQuery(t, db, `SELECT a FROM t`)
		if len(rs.Rows) != 1 {
			t.Fatal("cached query failed")
		}
	}
	db.EnablePlanCache(false)
	rs := mustQuery(t, db, `SELECT a FROM t`)
	if len(rs.Rows) != 1 {
		t.Fatal("uncached query failed")
	}
	db.EnablePlanCache(true)
}

func TestInsertRowFastPath(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE t (a int, b text)`)
	if err := db.InsertRow("t", 1, "x"); err != nil {
		t.Fatal(err)
	}
	if err := db.InsertRow("t", 1); err == nil {
		t.Error("wrong arity should fail")
	}
	if err := db.InsertRow("nope", 1); err == nil {
		t.Error("missing table should fail")
	}
	if err := db.InsertRow("t", "abc", "x"); err == nil {
		t.Error("non-coercible value should fail")
	}
	rs := mustQuery(t, db, `SELECT * FROM t`)
	if len(rs.Rows) != 1 || rs.Rows[0][1].Text() != "x" {
		t.Errorf("rows = %v", rs.Rows)
	}
}

func TestResultSetScanErrors(t *testing.T) {
	db := New()
	rs := mustQuery(t, db, `SELECT 1 AS a`)
	if _, err := rs.Scan(0, "nope"); err == nil {
		t.Error("missing column should fail")
	}
	if _, err := rs.Scan(5, "a"); err == nil {
		t.Error("out-of-range row should fail")
	}
}

func TestConcurrentAccess(t *testing.T) {
	db := New()
	mustExec(t, db, `CREATE TABLE t (a int)`)
	done := make(chan error, 20)
	for i := 0; i < 10; i++ {
		go func(n int) {
			_, err := db.Exec(fmt.Sprintf(`INSERT INTO t VALUES (%d)`, n))
			done <- err
		}(i)
		go func() {
			_, err := db.Query(`SELECT count(*) FROM t`)
			done <- err
		}()
	}
	for i := 0; i < 20; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	rs := mustQuery(t, db, `SELECT count(*) FROM t`)
	if rs.Rows[0][0].Int() != 10 {
		t.Errorf("concurrent inserts = %v", rs.Rows[0][0])
	}
}

func TestInClauseWithStrings(t *testing.T) {
	// The paper's query: WHERE varName IN ('y', 'x').
	db := New()
	mustExec(t, db, `CREATE TABLE r (varname text, value float)`)
	mustExec(t, db, `INSERT INTO r VALUES ('x', 1), ('y', 2), ('z', 3)`)
	rs := mustQuery(t, db, `SELECT * FROM r WHERE varname IN ('y', 'x')`)
	if len(rs.Rows) != 2 {
		t.Errorf("IN rows = %d", len(rs.Rows))
	}
}

func TestStringConcatWithCastPattern(t *testing.T) {
	// The paper's LATERAL pattern: 'HP1Instance' || id::text.
	db := New()
	rs := mustQuery(t, db, `SELECT 'HP1Instance' || id::text AS name FROM generate_series(1, 3) AS g(id)`)
	if rs.Rows[2][0].Text() != "HP1Instance3" {
		t.Errorf("concat = %v", rs.Rows[2][0])
	}
}
