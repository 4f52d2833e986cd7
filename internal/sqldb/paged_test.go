package sqldb

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/variant"
)

// openPaged creates a paged database in dir with a deliberately small page
// size and buffer pool so tests exercise eviction and overflow paths.
func openPaged(t *testing.T, dir string, o DurabilityOptions) *DB {
	t.Helper()
	o.Paged = true
	if o.PageSize == 0 {
		o.PageSize = 512
	}
	if o.PoolPages == 0 {
		o.PoolPages = 8
	}
	db := New()
	if err := db.EnableDurability(dir, o); err != nil {
		t.Fatalf("EnableDurability: %v", err)
	}
	return db
}

// newSuiteDB is the database constructor for the cross-cutting behavioral
// suites (MVCC anomalies, concurrent writers, streaming/differential
// operator equivalence). It returns a plain in-memory database by default;
// with SQLDB_TEST_PAGED=1 it returns a paged on-disk database with a tiny
// page size and buffer pool instead, so the exact same suites prove the
// storage engine preserves every transactional and operator behavior. CI
// runs the suites both ways under -race.
func newSuiteDB(t testing.TB) *DB {
	t.Helper()
	if os.Getenv("SQLDB_TEST_PAGED") == "" {
		return New()
	}
	db := New()
	opts := DurabilityOptions{Paged: true, PageSize: 512, PoolPages: 8}
	if err := db.EnableDurability(t.TempDir(), opts); err != nil {
		t.Fatalf("EnableDurability: %v", err)
	}
	t.Cleanup(func() {
		// A test that closed the database itself leaves no store to check.
		db.mu.RLock()
		closed := db.closed
		db.mu.RUnlock()
		if closed {
			return
		}
		if errs := db.CheckStored(); len(errs) != 0 {
			t.Errorf("storage invariants violated:\n%s", errs)
		}
		db.Close()
	})
	return db
}

func mustExecP(t *testing.T, db *DB, sql string, args ...any) {
	t.Helper()
	if _, err := db.Exec(sql, args...); err != nil {
		t.Fatalf("exec %q: %v", sql, err)
	}
}

func queryInts(t *testing.T, db *DB, sql string, args ...any) []int64 {
	t.Helper()
	rs, err := db.Query(sql, args...)
	if err != nil {
		t.Fatalf("query %q: %v", sql, err)
	}
	var out []int64
	for _, row := range rs.Rows {
		v, err := row[0].AsInt()
		if err != nil {
			t.Fatalf("query %q: non-int value %v", sql, row[0])
		}
		out = append(out, v)
	}
	return out
}

func checkStoreHealthy(t *testing.T, db *DB) {
	t.Helper()
	if errs := db.CheckStored(); len(errs) != 0 {
		t.Fatalf("storage invariants violated:\n%s", errs)
	}
}

func TestPagedRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db := openPaged(t, dir, DurabilityOptions{})
	if !db.Paged() {
		t.Fatal("Paged() = false for a paged database")
	}
	mustExecP(t, db, "CREATE TABLE kv (k INTEGER, v TEXT)")
	for i := 0; i < 100; i++ {
		mustExecP(t, db, "INSERT INTO kv VALUES ($1, $2)", i, fmt.Sprintf("value-%d", i))
	}
	mustExecP(t, db, "UPDATE kv SET v = 'patched' WHERE k < 10")
	mustExecP(t, db, "DELETE FROM kv WHERE k >= 90")
	checkStoreHealthy(t, db)
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	checkStoreHealthy(t, db)
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	re := openPaged(t, dir, DurabilityOptions{})
	defer re.Close()
	if got := queryInts(t, re, "SELECT count(*) FROM kv"); got[0] != 90 {
		t.Fatalf("after reopen: count = %d, want 90", got[0])
	}
	if got := queryInts(t, re, "SELECT count(*) FROM kv WHERE v = 'patched'"); got[0] != 10 {
		t.Fatalf("after reopen: patched = %d, want 10", got[0])
	}
	checkStoreHealthy(t, re)

	// Dump stays a purely logical export in paged mode: restoring it into
	// a fresh in-memory database yields the same rows.
	var sb strings.Builder
	if err := re.Dump(&sb); err != nil {
		t.Fatalf("dump of paged db: %v", err)
	}
	mem := New()
	if err := mem.Restore(strings.NewReader(sb.String())); err != nil {
		t.Fatalf("restoring paged dump: %v", err)
	}
	if got := queryInts(t, mem, "SELECT count(*) FROM kv"); got[0] != 90 {
		t.Fatalf("restored dump: count = %d, want 90", got[0])
	}
}

func TestPagedRecoveryWithoutCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db := openPaged(t, dir, DurabilityOptions{})
	mustExecP(t, db, "CREATE TABLE n (x INTEGER)")
	for i := 0; i < 20; i++ {
		mustExecP(t, db, "INSERT INTO n VALUES ($1)", i)
	}
	// No checkpoint: the page file has no flip, recovery must come entirely
	// from the WAL.
	db.SimulateCrash()

	re := openPaged(t, dir, DurabilityOptions{})
	defer re.Close()
	if got := queryInts(t, re, "SELECT count(*) FROM n"); got[0] != 20 {
		t.Fatalf("count = %d, want 20", got[0])
	}
	checkStoreHealthy(t, re)
}

func TestPagedRecoveryCheckpointPlusTail(t *testing.T) {
	dir := t.TempDir()
	db := openPaged(t, dir, DurabilityOptions{})
	mustExecP(t, db, "CREATE TABLE n (x INTEGER)")
	mustExecP(t, db, "INSERT INTO n VALUES (1)")
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	// Post-checkpoint tail: an insert, an update, a delete, and DDL.
	mustExecP(t, db, "INSERT INTO n VALUES (2)")
	mustExecP(t, db, "INSERT INTO n VALUES (3)")
	mustExecP(t, db, "UPDATE n SET x = 30 WHERE x = 3")
	mustExecP(t, db, "DELETE FROM n WHERE x = 1")
	mustExecP(t, db, "CREATE TABLE m (y TEXT)")
	mustExecP(t, db, "INSERT INTO m VALUES ('tail')")
	db.SimulateCrash()

	re := openPaged(t, dir, DurabilityOptions{})
	defer re.Close()
	if got := queryInts(t, re, "SELECT x FROM n ORDER BY x"); len(got) != 2 || got[0] != 2 || got[1] != 30 {
		t.Fatalf("n = %v, want [2 30]", got)
	}
	rs, err := re.Query("SELECT y FROM m")
	if err != nil || len(rs.Rows) != 1 || rs.Rows[0][0].AsText() != "tail" {
		t.Fatalf("m = %v (err %v), want one row 'tail'", rs, err)
	}
	checkStoreHealthy(t, re)
}

func TestPagedDropCreateInsertInOneTxnReplays(t *testing.T) {
	dir := t.TempDir()
	db := openPaged(t, dir, DurabilityOptions{})
	mustExecP(t, db, "CREATE TABLE t (x INTEGER)")
	mustExecP(t, db, "INSERT INTO t VALUES (1)")
	mustExecP(t, db, "BEGIN")
	mustExecP(t, db, "DROP TABLE t")
	mustExecP(t, db, "CREATE TABLE t (x INTEGER)")
	mustExecP(t, db, "INSERT INTO t VALUES (42)")
	mustExecP(t, db, "COMMIT")
	db.SimulateCrash()

	re := openPaged(t, dir, DurabilityOptions{})
	defer re.Close()
	if got := queryInts(t, re, "SELECT x FROM t"); len(got) != 1 || got[0] != 42 {
		t.Fatalf("t = %v, want [42]", got)
	}
	checkStoreHealthy(t, re)
}

func TestPagedRollbackLeavesStoreClean(t *testing.T) {
	dir := t.TempDir()
	db := openPaged(t, dir, DurabilityOptions{})
	defer db.Close()
	mustExecP(t, db, "CREATE TABLE t (x INTEGER)")
	mustExecP(t, db, "INSERT INTO t VALUES (1)")
	mustExecP(t, db, "BEGIN")
	mustExecP(t, db, "INSERT INTO t VALUES (2)")
	mustExecP(t, db, "UPDATE t SET x = 10 WHERE x = 1")
	mustExecP(t, db, "ROLLBACK")
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	var rows []int64
	err := db.ScanStored("t", func(_ uint64, row Row) bool {
		v, _ := row[0].AsInt()
		rows = append(rows, v)
		return true
	})
	if err != nil {
		t.Fatalf("ScanStored: %v", err)
	}
	if len(rows) != 1 || rows[0] != 1 {
		t.Fatalf("stored rows = %v, want [1]", rows)
	}
	checkStoreHealthy(t, db)
}

func TestPagedIndexesPersistAndRecover(t *testing.T) {
	dir := t.TempDir()
	db := openPaged(t, dir, DurabilityOptions{})
	mustExecP(t, db, "CREATE TABLE t (x INTEGER, s TEXT)")
	for i := 0; i < 50; i++ {
		mustExecP(t, db, "INSERT INTO t VALUES ($1, $2)", i, fmt.Sprintf("s%02d", i))
	}
	mustExecP(t, db, "CREATE INDEX ix_x ON t (x) USING btree")
	mustExecP(t, db, "CREATE INDEX ix_s ON t (s) USING hash")
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	mustExecP(t, db, "INSERT INTO t VALUES (100, 'tail')")
	db.SimulateCrash()

	re := openPaged(t, dir, DurabilityOptions{})
	defer re.Close()
	if got := queryInts(t, re, "SELECT x FROM t WHERE x BETWEEN 10 AND 12 ORDER BY x"); len(got) != 3 || got[0] != 10 {
		t.Fatalf("range probe = %v, want [10 11 12]", got)
	}
	if got := queryInts(t, re, "SELECT x FROM t WHERE s = 'tail'"); len(got) != 1 || got[0] != 100 {
		t.Fatalf("hash probe = %v, want [100]", got)
	}
	infos := re.Indexes()
	if len(infos) != 2 {
		t.Fatalf("indexes after recovery = %v, want 2", infos)
	}
	checkStoreHealthy(t, re)
}

// TestPagedLargerThanMemoryTable is the acceptance scenario: a table at
// least 4x the buffer pool's capacity must survive a full scan, point
// updates, and crash recovery, with the pool actually evicting.
func TestPagedLargerThanMemoryTable(t *testing.T) {
	dir := t.TempDir()
	db := openPaged(t, dir, DurabilityOptions{PageSize: 512, PoolPages: 8})
	mustExecP(t, db, "CREATE TABLE big (id INTEGER, payload TEXT)")
	const rows = 800 // ~60+ bytes/row across 512-byte pages >> 8-page pool
	for i := 0; i < rows; i++ {
		mustExecP(t, db, "INSERT INTO big VALUES ($1, $2)", i, fmt.Sprintf("payload-%04d-%s", i, "x"))
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	pages := db.StoredTablePages("big")
	stats, okStats := db.StoredPoolStats()
	if !okStats {
		t.Fatal("no pool stats for a paged database")
	}
	if pages < 4*stats.Cap {
		t.Fatalf("table spans %d pages, want >= 4x pool cap %d", pages, stats.Cap)
	}

	// Full scan through the pool.
	n := 0
	if err := db.ScanStored("big", func(_ uint64, row Row) bool {
		n++
		return true
	}); err != nil {
		t.Fatalf("ScanStored: %v", err)
	}
	if n != rows {
		t.Fatalf("scanned %d rows, want %d", n, rows)
	}
	after, _ := db.StoredPoolStats()
	if after.Evictions == 0 {
		t.Fatalf("no evictions scanning %d pages through a %d-page pool: %+v", pages, after.Cap, after)
	}
	if after.Resident > after.Cap {
		t.Fatalf("clean pool over cap after scan: %+v", after)
	}

	// Point updates against evicted pages.
	for _, id := range []int{0, rows / 2, rows - 1} {
		mustExecP(t, db, "UPDATE big SET payload = 'updated' WHERE id = $1", id)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint after updates: %v", err)
	}
	checkStoreHealthy(t, db)

	// Crash, recover, verify.
	mustExecP(t, db, "INSERT INTO big VALUES (9999, 'post-checkpoint')")
	db.SimulateCrash()
	re := openPaged(t, dir, DurabilityOptions{PageSize: 512, PoolPages: 8})
	defer re.Close()
	if got := queryInts(t, re, "SELECT count(*) FROM big"); got[0] != rows+1 {
		t.Fatalf("after recovery: count = %d, want %d", got[0], rows+1)
	}
	if got := queryInts(t, re, "SELECT count(*) FROM big WHERE payload = 'updated'"); got[0] != 3 {
		t.Fatalf("after recovery: updated = %d, want 3", got[0])
	}
	checkStoreHealthy(t, re)
}

// TestPagedSnapshotModeMigration: a directory created in snapshot mode
// opens in paged mode, keeps its data, and completes the migration at the
// first checkpoint.
func TestPagedSnapshotModeMigration(t *testing.T) {
	dir := t.TempDir()
	db := New()
	if err := db.EnableDurability(dir, DurabilityOptions{}); err != nil {
		t.Fatalf("EnableDurability (snapshot mode): %v", err)
	}
	mustExecP(t, db, "CREATE TABLE t (x INTEGER)")
	mustExecP(t, db, "INSERT INTO t VALUES (7)")
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	mustExecP(t, db, "INSERT INTO t VALUES (8)")
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	// Reopen paged: snapshot + WAL tail must both be there.
	re := openPaged(t, dir, DurabilityOptions{})
	if got := queryInts(t, re, "SELECT x FROM t ORDER BY x"); len(got) != 2 || got[0] != 7 || got[1] != 8 {
		t.Fatalf("migrated rows = %v, want [7 8]", got)
	}
	if err := re.Checkpoint(); err != nil {
		t.Fatalf("first paged checkpoint: %v", err)
	}
	re.Close()

	// And once migrated, the page image is authoritative.
	again := openPaged(t, dir, DurabilityOptions{})
	defer again.Close()
	if got := queryInts(t, again, "SELECT count(*) FROM t"); got[0] != 2 {
		t.Fatalf("after migration reopen: count = %d, want 2", got[0])
	}
	checkStoreHealthy(t, again)
}

// TestNonPagedOpenOfPagedDirRefuses guards against silently recovering a
// paged directory through the snapshot path (which would miss the page
// image entirely).
func TestNonPagedOpenOfPagedDirRefuses(t *testing.T) {
	dir := t.TempDir()
	db := openPaged(t, dir, DurabilityOptions{})
	mustExecP(t, db, "CREATE TABLE t (x INTEGER)")
	db.Close()

	plain := New()
	if err := plain.EnableDurability(dir, DurabilityOptions{}); err == nil {
		t.Fatal("non-paged open of a paged directory succeeded; want error")
	}
}

func TestPagedOversizedTextStillQueryable(t *testing.T) {
	dir := t.TempDir()
	db := openPaged(t, dir, DurabilityOptions{PageSize: 512})
	long := make([]byte, 3000) // >> page size: spills to overflow chains
	for i := range long {
		long[i] = byte('a' + i%26)
	}
	mustExecP(t, db, "CREATE TABLE t (x INTEGER, s TEXT)")
	mustExecP(t, db, "INSERT INTO t VALUES (1, $1)", string(long))
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	db.SimulateCrash()

	re := openPaged(t, dir, DurabilityOptions{})
	defer re.Close()
	rs, err := re.Query("SELECT s FROM t WHERE x = 1")
	if err != nil || len(rs.Rows) != 1 {
		t.Fatalf("query: %v rows %d", err, len(rs.Rows))
	}
	if rs.Rows[0][0].AsText() != string(long) {
		t.Fatal("overflow value corrupted across recovery")
	}
	checkStoreHealthy(t, re)
}

func TestPagedAllColumnTypesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db := openPaged(t, dir, DurabilityOptions{})
	mustExecP(t, db, "CREATE TABLE t (b BOOLEAN, i INTEGER, f FLOAT, s TEXT, ts TIMESTAMP, v VARIANT)")
	mustExecP(t, db, `INSERT INTO t VALUES (true, -42, 2.5, 'hello', '2026-08-08 12:00:00'::timestamp, NULL)`)
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	db.SimulateCrash()

	re := openPaged(t, dir, DurabilityOptions{})
	defer re.Close()
	rs, err := re.Query("SELECT b, i, f, s, ts, v FROM t")
	if err != nil || len(rs.Rows) != 1 {
		t.Fatalf("query: %v", err)
	}
	row := rs.Rows[0]
	if b, _ := row[0].AsBool(); !b {
		t.Error("bool lost")
	}
	if i, _ := row[1].AsInt(); i != -42 {
		t.Errorf("int = %d", i)
	}
	if f, _ := row[2].AsFloat(); f != 2.5 {
		t.Errorf("float = %v", f)
	}
	if row[3].AsText() != "hello" {
		t.Errorf("text = %q", row[3].AsText())
	}
	if ts, err := row[4].AsTime(); err != nil || ts.Year() != 2026 {
		t.Errorf("time = %v (%v)", ts, err)
	}
	if !row[5].IsNull() {
		t.Errorf("null lost: %v", row[5])
	}
	checkStoreHealthy(t, re)
}

func TestSetLockWaitTimeout(t *testing.T) {
	db := New()
	if got := db.lockWaitTimeout(); got != defaultLockWaitTimeout {
		t.Fatalf("default lock wait = %v", got)
	}
	db.SetLockWaitTimeout(5 * defaultLockWaitTimeout)
	if got := db.lockWaitTimeout(); got != 5*defaultLockWaitTimeout {
		t.Fatalf("configured lock wait = %v", got)
	}
	db.SetLockWaitTimeout(0)
	if got := db.lockWaitTimeout(); got != defaultLockWaitTimeout {
		t.Fatalf("reset lock wait = %v", got)
	}
}

// BenchmarkLargerThanMemoryScan measures a full stored-table scan where the
// heap is several times the buffer pool, so most gets miss and fault pages
// in from disk.
func BenchmarkLargerThanMemoryScan(b *testing.B) {
	dir := b.TempDir()
	db := New()
	if err := db.EnableDurability(dir, DurabilityOptions{Paged: true, PageSize: 4096, PoolPages: 16}); err != nil {
		b.Fatalf("EnableDurability: %v", err)
	}
	defer db.Close()
	if _, err := db.Exec("CREATE TABLE big (id INTEGER, payload TEXT)"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		if _, err := db.Exec("INSERT INTO big VALUES ($1, $2)", i, fmt.Sprintf("payload-%06d-abcdefghijklmnopqrstuvwxyz", i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		if err := db.ScanStored("big", func(_ uint64, row Row) bool {
			n++
			return true
		}); err != nil {
			b.Fatal(err)
		}
		if n != 5000 {
			b.Fatalf("scanned %d", n)
		}
	}
	if st, ok := db.StoredPoolStats(); ok {
		b.ReportMetric(float64(st.Misses)/float64(b.N), "faults/scan")
	}
}

var _ = variant.NewNull // keep the import when helpers shrink
