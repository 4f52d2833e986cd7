package sqldb

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/variant"
)

// Column mirror tests. The unit tests drive mirrorColumns directly; the
// rest run on newSuiteDB, so SQLDB_TEST_DURABLE=1 repeats them on a durable
// database, and compare the vectorized path (which reads the mirror) against
// disableVectorized (which never does).

// mirrorTable is a bare one-column table for driving mirrorColumns directly.
func mirrorTable(colType string, cells ...variant.Value) *Table {
	t := newTable("m", []Column{{Name: "c", Type: colType}})
	for _, v := range cells {
		t.appendVersion(Row{v}, &rowMeta{})
	}
	return t
}

// gatherAll gathers every position of t's current view through the mirror.
func gatherAll(t *Table) *colVec {
	v := t.loadView()
	wanted := []bool{true}
	s := &mirrorScan{heap: v.rows, cols: t.mirrorColumns(v, wanted), wanted: wanted}
	pos := make([]int32, len(v.rows))
	for i := range pos {
		pos[i] = int32(i)
	}
	var b Batch
	s.fill(&b, pos)
	return &b.cols[0]
}

func TestVectorizedMirrorDemotesMixedKinds(t *testing.T) {
	cells := []variant.Value{
		variant.NewInt(1),
		variant.NewText("oops"), // wrong kind for an integer column
		{},
	}
	tb := mirrorTable("integer", cells[0])
	early := tb.mirrorColumns(tb.loadView(), []bool{true})[0]
	if early.kind != vecInt {
		t.Fatalf("kind = %v, want vecInt before the odd value", early.kind)
	}
	for _, v := range cells[1:] {
		tb.appendVersion(Row{v}, &rowMeta{})
	}
	c := gatherAll(tb)
	if c.kind != vecAny {
		t.Fatalf("kind = %v, want vecAny after demotion", c.kind)
	}
	for i, v := range cells {
		if c.value(i) != v {
			t.Fatalf("lane %d: %v vs %v", i, c.value(i), v)
		}
	}
	// A header handed out before the demotion still reads its positions.
	if early.n != 1 || early.ints[0] != 1 {
		t.Fatalf("early header = %+v", early)
	}
}

func TestVectorizedMirrorTyped(t *testing.T) {
	cell := func(i int) variant.Value {
		if i%7 == 3 {
			return variant.Value{}
		}
		return variant.NewFloat(float64(i) / 2)
	}
	tb := mirrorTable("float")
	var headers []mirrorCol
	// Extend in uneven steps; the first NULL appears after the first header.
	for i := 0; i < 100; i++ {
		tb.appendVersion(Row{cell(i)}, &rowMeta{})
		if i == 2 || i == 40 || i == 99 {
			headers = append(headers, tb.mirrorColumns(tb.loadView(), []bool{true})[0])
		}
	}
	if headers[0].nulls != nil {
		t.Fatalf("null map allocated before the first NULL")
	}
	c := gatherAll(tb)
	if c.kind != vecFloat {
		t.Fatalf("kind = %v, want vecFloat", c.kind)
	}
	for i := 0; i < 100; i++ {
		if got := c.value(i); got != cell(i) {
			t.Fatalf("lane %d: %v vs %v", i, got, cell(i))
		}
	}
	// Every earlier header still holds its own prefix, unchanged.
	for _, h := range headers {
		for p := 0; p < h.n; p++ {
			null := h.nulls != nil && h.nulls[p]
			if null != cell(p).IsNull() || (!null && h.floats[p] != cell(p).Float()) {
				t.Fatalf("header of %d, position %d: %v / %v, want %v", h.n, p, h.floats[p], null, cell(p))
			}
		}
	}
}

// mirrorSuiteDB is newSuiteDB with the table mt created.
func mirrorSuiteDB(t *testing.T) *DB {
	t.Helper()
	db := newSuiteDB(t)
	mustExecB(t, db, `CREATE TABLE mt (g integer, v float, s text)`)
	return db
}

var mirrorQueries = []string{
	`SELECT g, v, s FROM mt WHERE v > 10`,
	`SELECT g, count(*), sum(v), min(s) FROM mt GROUP BY g`,
	`SELECT s, count(*) FROM mt WHERE g <> 3 GROUP BY s`,
	`SELECT g, sum(v) OVER (PARTITION BY g ORDER BY v) FROM mt WHERE s IS NOT NULL`,
}

// TestVectorizedMirrorAfterVacuum: a vacuum republishes the version array in
// a new order, so the positions an earlier query mirrored now hold other
// rows; later inserts land on positions the old mirror covered.
func TestVectorizedMirrorAfterVacuum(t *testing.T) {
	db := mirrorSuiteDB(t)
	for i := 0; i < 1500; i++ {
		if err := db.InsertRow("mt", i%7, float64(i%50), fmt.Sprintf("a%d", i%5)); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range mirrorQueries {
		checkVecQuery(t, db, q, true)
	}
	mustExecB(t, db, `DELETE FROM mt WHERE g < 4`)
	if err := db.Vacuum(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1200; i++ {
		if err := db.InsertRow("mt", 100+i%3, float64(1000+i), fmt.Sprintf("b%d", i%4)); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range mirrorQueries {
		checkVecQuery(t, db, q, true)
	}
}

// TestVectorizedMirrorConcurrentAppend runs vectorized readers — which
// extend the mirror and drain open iterators — beside a writer that appends
// in transactions, half of them rolled back. Committed transactions insert
// balanced pairs (v and -v); rolled-back ones insert v = 1000, which no
// reader may ever see.
func TestVectorizedMirrorConcurrentAppend(t *testing.T) {
	db := mirrorSuiteDB(t)
	for i := 0; i < 300; i++ {
		if err := db.InsertRow("mt", i%5, float64(i%2*2-1), "x"); err != nil {
			t.Fatal(err)
		}
	}
	const rounds = 60
	var wg sync.WaitGroup
	errs := make(chan error, 4) // one writer, three readers; each sends at most once
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			tx, err := db.Begin()
			if err != nil {
				errs <- err
				return
			}
			commit := r%2 == 0
			for k := 0; k < 20; k++ {
				v := float64(k + 1)
				if !commit {
					v = 1000
				}
				if _, err := tx.Exec(`INSERT INTO mt VALUES ($1, $2, 'w'), ($1, $3, 'w')`, k%5, v, -v); err != nil {
					errs <- err
					tx.Rollback()
					return
				}
			}
			if commit {
				err = tx.Commit()
			} else {
				err = tx.Rollback()
			}
			if err != nil {
				errs <- err
				return
			}
		}
	}()
	check := func() error {
		rs, err := db.Query(`SELECT g, sum(v), max(v), count(*) FROM mt GROUP BY g`)
		if err != nil {
			return err
		}
		for _, r := range rs.Rows {
			if r[1].Float() != 0 || r[2].Float() >= 1000 || r[3].Int()%2 != 0 {
				return fmt.Errorf("group %v: sum %v, max %v, count %v", r[0], r[1], r[2], r[3])
			}
		}
		it, err := db.QueryRows(`SELECT v FROM mt WHERE v >= 1000 OR s = 'x'`)
		if err != nil {
			return err
		}
		defer it.Close()
		n := 0
		for it.Next() {
			if v := it.Row()[0].Float(); v >= 1000 {
				return fmt.Errorf("rolled-back value %v visible", v)
			}
			n++
		}
		if n != 300 {
			return fmt.Errorf("open iterator drained %d seed rows, want 300", n)
		}
		return it.Err()
	}
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if err := check(); err != nil {
					errs <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, q := range mirrorQueries {
		checkVecQuery(t, db, q, true)
	}
}

// TestVectorizedMirrorOwnUncommitted: the mirror covers every version, so
// visibility rests on the per-position snapshot check alone — a
// transaction's own uncommitted insert is visible to it, another session's
// is not.
func TestVectorizedMirrorOwnUncommitted(t *testing.T) {
	db := mirrorSuiteDB(t)
	for i := 0; i < 1100; i++ {
		if err := db.InsertRow("mt", i%7, float64(i), "c"); err != nil {
			t.Fatal(err)
		}
	}
	const q = `SELECT count(*), sum(v) FROM mt WHERE s = 'mine'`
	// Mirror the committed prefix first, so the insert below is an extension.
	checkVecQuery(t, db, q, true)
	mine, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer mine.Rollback()
	other, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer other.Rollback()
	if _, err := mine.Exec(`INSERT INTO mt VALUES (1, 5, 'mine'), (2, 7, 'mine')`); err != nil {
		t.Fatal(err)
	}
	count := func(run func(string, ...any) (*ResultSet, error)) (int64, float64) {
		t.Helper()
		rs, err := run(q)
		if err != nil {
			t.Fatal(err)
		}
		return rs.Rows[0][0].Int(), rs.Rows[0][1].Float()
	}
	if n, s := count(mine.Query); n != 2 || s != 12 {
		t.Fatalf("own transaction sees %d rows, sum %v; want 2, 12", n, s)
	}
	if n, _ := count(other.Query); n != 0 {
		t.Fatalf("other transaction sees %d uncommitted rows", n)
	}
	if n, _ := count(db.Query); n != 0 {
		t.Fatalf("autocommit read sees %d uncommitted rows", n)
	}
	rs, err := mine.Query(`SELECT g, v FROM mt WHERE s = 'mine'`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 2 || rs.Rows[0][1].Float() != 5 || rs.Rows[1][1].Float() != 7 {
		t.Fatalf("own scan = %v", rs.Rows)
	}
}

// TestVectorizedGroupKeyTyped pins the typed group lookup (single integer,
// text or boolean key) and the string-keyed rest against the row executor:
// same groups, same first-seen order.
func TestVectorizedGroupKeyTyped(t *testing.T) {
	db := New()
	mustExecB(t, db, `CREATE TABLE gk (i integer, s text, b boolean, f float, x integer)`)
	// Includes the NULL key's and an integer key's rowKey bytes as text.
	texts := []string{"a:b", "a", "b\x00", "a:b\x00c", "", ":", "\x00", "null:NULL\x00", "integer:1\x00"}
	floats := []float64{0, math.Copysign(0, -1), math.NaN(), 1.5, -2}
	for n := 0; n < 2500; n++ {
		var i, s, b, f any
		if n%11 != 0 {
			i = n%9 - 4 // negative, zero and positive keys
		}
		if n%13 != 0 {
			s = texts[n%len(texts)]
		}
		if n%5 != 0 {
			b = n%3 == 0
		}
		if n%17 != 0 {
			f = floats[n%len(floats)]
		}
		if err := db.InsertRow("gk", i, s, b, f, n); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []string{
		`SELECT i, count(*), sum(x) FROM gk GROUP BY i`,
		`SELECT s, count(*), min(x) FROM gk GROUP BY s`,
		`SELECT b, count(*), max(x) FROM gk GROUP BY b`,
		`SELECT f, count(*) FROM gk GROUP BY f`,
		`SELECT i, s, count(*) FROM gk GROUP BY i, s`,
		`SELECT i, count(*) FROM gk WHERE x > 1200 GROUP BY i HAVING count(*) > 10`,
		`SELECT s, count(*) FROM gk GROUP BY s LIMIT 4 OFFSET 2`,
		`SELECT i % 3, count(*) FROM gk GROUP BY i % 3`,
	} {
		vec, row, vecErr, rowErr := runVecBoth(t, db, q, true)
		if vecErr != nil || rowErr != nil {
			t.Fatalf("%s: %v / %v", q, vecErr, rowErr)
		}
		if len(vec.Rows) != len(row.Rows) {
			t.Fatalf("%s: %d groups vs %d", q, len(vec.Rows), len(row.Rows))
		}
		for k := range vec.Rows {
			if rowKey(vec.Rows[k]) != rowKey(row.Rows[k]) {
				t.Fatalf("%s: group %d: %v vs %v", q, k, vec.Rows[k], row.Rows[k])
			}
		}
	}
}
