package sqldb

import (
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestReadBesideCheckpoint: a read takes no database lock, so a checkpoint
// of a large durable table, which holds db.mu exclusively across its
// vacuum, snapshot write and fsyncs, does not stop a read of another table.
// The read, started 2 ms into the checkpoint, finishes within a tenth of
// the checkpoint's duration.
func TestReadBesideCheckpoint(t *testing.T) {
	db := New()
	if err := db.EnableDurability(t.TempDir(), DurabilityOptions{}); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	mustExec(t, db, `CREATE TABLE big (k integer, v float)`)
	mustExec(t, db, `INSERT INTO big SELECT g, g * 0.5 FROM generate_series(1, 120000) AS g`)
	mustExec(t, db, `CREATE TABLE other (v integer)`)
	mustExec(t, db, `INSERT INTO other VALUES (7)`)

	start := time.Now()
	end := make(chan time.Time, 1)
	go func() {
		if err := db.Checkpoint(); err != nil {
			t.Error(err)
		}
		end <- time.Now()
	}()
	time.Sleep(2 * time.Millisecond)
	r0 := time.Now()
	rs, err := db.Query(`SELECT v FROM other`)
	read := time.Since(r0)
	if err != nil || len(rs.Rows) != 1 || rs.Rows[0][0].Int() != 7 {
		t.Fatalf("read beside the checkpoint: %v, %v", rs, err)
	}
	done := <-end
	if !done.After(r0) {
		t.Fatalf("the checkpoint (%v) ended before the read began", done.Sub(start))
	}
	if ckpt := done.Sub(start); read > ckpt/10 {
		t.Fatalf("a read beside a %v checkpoint took %v", ckpt, read)
	}
}

// TestConcurrentReadersBesideVacuum: readers that take no lock stay correct
// beside the writers that change what they read.
func TestConcurrentReadersBesideVacuum(t *testing.T) {
	t.Run("indexes", readersBesideVacuum)
	t.Run("ddl", readersBesideDDL)
}

// readersBesideVacuum: readers stay correct while Vacuum compacts tables
// and rebuilds indexes under them. A writer moves balance between the two
// rows of a pair (k = 2m, 2m+1) in one statement, so every pair sums to 200
// and the row count never changes, while Vacuum loops. Every read —
// a point lookup through a hash index, a range and an ORDER BY served by an
// ordered index, an index lookup join, a vectorized aggregate, a hash
// self-join — must see that invariant.
func readersBesideVacuum(t *testing.T) {
	const rows, pairsPicked = 2000, 5
	db := newSuiteDB(t)
	mustExec(t, db, `CREATE TABLE acct (id integer, k integer, bal integer)`)
	mustExec(t, db, `INSERT INTO acct SELECT g, g, 100 FROM generate_series(0, $1) AS g`, rows-1)
	mustExec(t, db, `CREATE INDEX acct_id ON acct (id) USING hash`)
	mustExec(t, db, `CREATE INDEX acct_k ON acct (k) USING btree`)
	mustExec(t, db, `CREATE TABLE pick (k integer)`)
	for m := 0; m < pairsPicked; m++ {
		mustExec(t, db, `INSERT INTO pick VALUES ($1), ($2)`, 2*m*37, 2*m*37+1)
	}

	const (
		point  = `SELECT id, bal FROM acct WHERE id = $1`
		rng    = `SELECT k, bal FROM acct WHERE k BETWEEN $1 AND $2`
		order  = `SELECT k, bal FROM acct ORDER BY k LIMIT 40`
		join   = `SELECT count(*), sum(a.bal) FROM pick p JOIN acct a ON p.k = a.k`
		vecAgg = `SELECT count(*), sum(bal) FROM acct`
		self   = `SELECT count(*), sum(x.bal) FROM acct x JOIN acct y ON x.id = y.id`
	)
	for q, want := range map[string]string{
		strings.Replace(point, "$1", "3", 1):                   "Index Scan using acct_id",
		strings.NewReplacer("$1", "2", "$2", "3").Replace(rng): "Index Scan using acct_k",
		order: "Index Scan using acct_k on acct  (btree ordered",
	} {
		if plan := explainText(t, db, "EXPLAIN "+q); !strings.Contains(plan, want) {
			t.Fatalf("%s:\n%s\nwant %q", q, plan, want)
		}
	}
	mustLookup(t, db, "lookup", join)
	mustLookup(t, db, "hash", self)
	if st, err := db.Prepare(vecAgg); err != nil {
		t.Fatal(err)
	} else if kind, err := st.ExecutorKind(); err != nil || kind != "vectorized" {
		t.Fatalf("%s runs on %q, %v", vecAgg, kind, err)
	}

	var stop atomic.Bool
	var wg sync.WaitGroup
	fail := func(format string, args ...any) {
		t.Errorf(format, args...)
		stop.Store(true)
	}
	wg.Add(1)
	go func() { // the writer
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			m := (i * 7919) % (rows / 2)
			_, err := db.Exec(`UPDATE acct SET bal = bal + CASE WHEN id = $1 THEN -3 ELSE 3 END WHERE k BETWEEN $1 AND $2`, 2*m, 2*m+1)
			if err != nil {
				fail("writer: %v", err)
			}
			time.Sleep(100 * time.Microsecond) // leave the latch free for Vacuum
		}
	}()
	wg.Add(1)
	go func() { // Vacuum
		defer wg.Done()
		for !stop.Load() {
			if err := db.Vacuum(); err != nil {
				fail("vacuum: %v", err)
			}
		}
	}()
	reader := func(seed int) {
		defer wg.Done()
		for i := seed; !stop.Load(); i++ {
			m := (i * 104729) % (rows / 2)
			if rs, err := db.Query(point, 2*m+i%2); err != nil || len(rs.Rows) != 1 || rs.Rows[0][0].Int() != int64(2*m+i%2) {
				fail("point lookup id=%d: %v, %v", 2*m+i%2, rs, err)
			}
			if rs, err := db.Query(rng, 2*m, 2*m+1); err != nil || len(rs.Rows) != 2 || sumCol(rs, 1) != 200 {
				fail("range k in [%d, %d]: %v, %v", 2*m, 2*m+1, rs, err)
			}
			if rs, err := db.Query(order); err != nil || len(rs.Rows) != 40 || sumCol(rs, 1) != 4000 || !ascendingFrom0(rs) {
				fail("ordered scan: %v, %v", rs, err)
			}
			if rs, err := db.Query(join); err != nil || rs.Rows[0][0].Int() != 2*pairsPicked || rs.Rows[0][1].Int() != 200*pairsPicked {
				fail("lookup join: %v, %v", rs, err)
			}
			if rs, err := db.Query(vecAgg); err != nil || rs.Rows[0][0].Int() != rows || rs.Rows[0][1].Int() != 100*rows {
				fail("vectorized aggregate: %v, %v", rs, err)
			}
			// The inner leaf loads its view after the outer one is read.
			if rs, err := db.Query(self); err != nil || rs.Rows[0][0].Int() != rows || rs.Rows[0][1].Int() != 100*rows {
				fail("self-join: %v, %v", rs, err)
			}
		}
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go reader(r * 1000)
	}
	time.Sleep(time.Second)
	stop.Store(true)
	wg.Wait()
}

// readersBesideDDL: a lone read pairs the catalogue with a
// snapshot of the same commit. One Conn commits a transaction that creates
// a table and fills it with 10 rows, then drops the table; a reader looping
// over the table's count reads "no such table" or 10, never 0.
func readersBesideDDL(t *testing.T) {
	db := newSuiteDB(t)
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c := db.Conn()
		for !stop.Load() {
			for _, q := range []string{`BEGIN`, `CREATE TABLE y (a integer)`,
				`INSERT INTO y SELECT g FROM generate_series(1, 10) AS g`, `COMMIT`, `DROP TABLE y`} {
				if _, err := c.ExecContext(context.Background(), q); err != nil {
					t.Errorf("%s: %v", q, err)
					stop.Store(true)
					return
				}
			}
		}
	}()
	deadline := time.Now().Add(time.Second)
	seen := 0
	for time.Now().Before(deadline) && !stop.Load() {
		rs, err := db.Query(`SELECT count(*) FROM y`)
		switch {
		case errors.Is(err, ErrNoSuchTable):
		case err != nil:
			t.Errorf("count: %v", err)
		case rs.Rows[0][0].Int() != 10:
			t.Errorf("count(*) of a table committed with 10 rows read %v", rs.Rows[0][0])
		default:
			seen++
		}
		if t.Failed() {
			break
		}
	}
	stop.Store(true)
	wg.Wait()
	if seen == 0 && !t.Failed() {
		t.Log("the reader never saw the table committed")
	}
}

func sumCol(rs *ResultSet, col int) int64 {
	var s int64
	for _, r := range rs.Rows {
		s += r[col].Int()
	}
	return s
}

// ascendingFrom0 reports whether column 0 reads 0, 1, 2, ….
func ascendingFrom0(rs *ResultSet) bool {
	for i, r := range rs.Rows {
		if r[0].Int() != int64(i) {
			return false
		}
	}
	return true
}
