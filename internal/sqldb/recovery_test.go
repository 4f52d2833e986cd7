package sqldb

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// openDurable opens a durable DB on dir. Tests simulate a process kill
// with SimulateCrash — descriptors drop without Close or Checkpoint, as on
// a real kill — and everything the crash leaves behind is what the next
// openDurable must recover.
func openDurable(t *testing.T, dir string, o DurabilityOptions) *DB {
	t.Helper()
	db := New()
	if err := db.EnableDurability(dir, o); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestRecoveryDirectoryLock(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, DurabilityOptions{})
	mustExec(t, db, `CREATE TABLE t (a integer)`)
	// A second live opener must be rejected: two appenders would interleave
	// frames in one WAL.
	second := New()
	if err := second.EnableDurability(dir, DurabilityOptions{}); err == nil {
		t.Fatal("second live opener on the same directory should fail")
	}
	// A clean close releases the lock...
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re := openDurable(t, dir, DurabilityOptions{})
	if !re.HasTable("t") {
		t.Fatal("state lost across close/reopen")
	}
	// ...and so does a crash (the kernel closes the descriptors).
	re.SimulateCrash()
	re2 := openDurable(t, dir, DurabilityOptions{})
	if !re2.HasTable("t") {
		t.Fatal("state lost across crash/reopen")
	}
}

func TestRecoveryCommittedSurviveKill(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, DurabilityOptions{})
	mustExec(t, db, `CREATE TABLE m (id integer, val float, note text)`)
	mustExec(t, db, `CREATE INDEX m_id ON m (id) USING hash`)
	mustExec(t, db, `INSERT INTO m VALUES (1, 1.5, 'a'), (2, 2.5, 'b')`)
	mustExec(t, db, `INSERT INTO m VALUES ($1, $2, $3)`, 3, 3.5, "c")
	mustExec(t, db, `UPDATE m SET val = 9.5 WHERE id = 2`)
	mustExec(t, db, `DELETE FROM m WHERE id = 1`)
	// kill: no Close, no Checkpoint — recovery runs purely from the WAL.
	db.SimulateCrash()

	re := openDurable(t, dir, DurabilityOptions{})
	if n := countRows(t, re, "m"); n != 2 {
		t.Fatalf("recovered rows = %d, want 2", n)
	}
	rs, err := re.Query(`SELECT val FROM m WHERE id = 2`)
	if err != nil || len(rs.Rows) != 1 {
		t.Fatalf("indexed probe after recovery: %v, %v", rs, err)
	}
	if v, _ := rs.Rows[0][0].AsFloat(); v != 9.5 {
		t.Fatalf("recovered val = %v", v)
	}
	// Index metadata and function survive.
	if ix := re.Indexes(); len(ix) != 1 || ix[0].Name != "m_id" || ix[0].Kind != IndexHash {
		t.Fatalf("recovered indexes = %+v", ix)
	}
}

func TestRecoveryDropsUncommittedAndRolledBack(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, DurabilityOptions{})
	mustExec(t, db, `CREATE TABLE t (a integer)`)
	// A rolled-back transaction, then a committed row, then a transaction
	// left open at the kill: only the committed row may survive.
	mustExec(t, db, `BEGIN`)
	mustExec(t, db, `INSERT INTO t VALUES (1)`)
	mustExec(t, db, `ROLLBACK`)
	mustExec(t, db, `INSERT INTO t VALUES (2)`)
	mustExec(t, db, `BEGIN`)
	mustExec(t, db, `INSERT INTO t VALUES (3)`)
	// kill with the transaction still open
	db.SimulateCrash()

	re := openDurable(t, dir, DurabilityOptions{})
	rs, err := re.Query(`SELECT a FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 1 {
		t.Fatalf("recovered rows = %v, want just (2)", rs.Rows)
	}
	if got, _ := rs.Rows[0][0].AsInt(); got != 2 {
		t.Fatalf("recovered a = %d, want 2", got)
	}
}

func TestRecoveryTornWALTail(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, DurabilityOptions{})
	mustExec(t, db, `CREATE TABLE t (a integer)`)
	mustExec(t, db, `INSERT INTO t VALUES (1), (2)`)
	db.SimulateCrash()

	// Simulate a crash mid-append: garbage and a truncated frame after the
	// last commit marker.
	walFile := walGenPath(dir, 0)
	f, err := os.OpenFile(walFile, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{0xFF, 0x03, 0x00, 0x00, 0xde, 0xad}); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, err := os.Stat(walFile)
	if err != nil {
		t.Fatal(err)
	}

	re := openDurable(t, dir, DurabilityOptions{})
	if n := countRows(t, re, "t"); n != 2 {
		t.Fatalf("recovered rows = %d, want 2", n)
	}
	after, err := os.Stat(walFile)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Fatalf("torn tail not truncated: %d -> %d bytes", before.Size(), after.Size())
	}
	// And the truncated log keeps accepting commits.
	mustExec(t, re, `INSERT INTO t VALUES (3)`)
	re.SimulateCrash()
	re2 := openDurable(t, dir, DurabilityOptions{})
	if n := countRows(t, re2, "t"); n != 3 {
		t.Fatalf("rows after torn-tail recovery + insert = %d", n)
	}
}

func TestRecoverySnapshotPlusPartialWAL(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, DurabilityOptions{})
	mustExec(t, db, `CREATE TABLE t (a integer)`)
	mustExec(t, db, `INSERT INTO t VALUES (1)`)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, `INSERT INTO t VALUES (2)`) // lives only in the gen-1 WAL
	db.SimulateCrash()                          // kill

	// The checkpoint rotated generations: exactly one WAL file remains.
	matches, _ := filepath.Glob(filepath.Join(dir, walFilePattern))
	if len(matches) != 1 || !strings.HasSuffix(matches[0], "wal-000001.log") {
		t.Fatalf("wal files after checkpoint = %v", matches)
	}

	re := openDurable(t, dir, DurabilityOptions{})
	if n := countRows(t, re, "t"); n != 2 {
		t.Fatalf("snapshot+wal recovery rows = %d, want 2", n)
	}
}

func TestRecoveryRollbackThenCrash(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, DurabilityOptions{})
	mustExec(t, db, `CREATE TABLE t (a integer)`)
	mustExec(t, db, `BEGIN`)
	mustExec(t, db, `INSERT INTO t VALUES (1)`)
	mustExec(t, db, `CREATE TABLE gone (x integer)`)
	mustExec(t, db, `ROLLBACK`)
	mustExec(t, db, `INSERT INTO t VALUES (2)`)
	db.SimulateCrash() // kill

	re := openDurable(t, dir, DurabilityOptions{})
	if re.HasTable("gone") {
		t.Error("rolled-back table resurrected by recovery")
	}
	rs, err := re.Query(`SELECT a FROM t`)
	if err != nil || len(rs.Rows) != 1 {
		t.Fatalf("rows = %v, %v", rs, err)
	}
	if got, _ := rs.Rows[0][0].AsInt(); got != 2 {
		t.Fatalf("recovered a = %d, want 2", got)
	}
}

func TestRecoveryGroupCommitAndAutoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	// Group commit defers fsync; auto-checkpoint kicks in after 8 records.
	db := openDurable(t, dir, DurabilityOptions{SyncEvery: 4, CheckpointEvery: 8})
	mustExec(t, db, `CREATE TABLE t (a integer)`)
	for i := 0; i < 20; i++ {
		if err := db.InsertRow("t", i); err != nil {
			t.Fatal(err)
		}
	}
	db.SimulateCrash() // kill

	re := openDurable(t, dir, DurabilityOptions{})
	// All writes reached the OS (fsync only bounds power-loss exposure), so
	// in-process recovery sees every committed row.
	if n := countRows(t, re, "t"); n != 20 {
		t.Fatalf("recovered rows = %d, want 20", n)
	}
	// Auto-checkpointing must have rotated at least once.
	snap, err := os.ReadFile(filepath.Join(dir, snapshotFile))
	if err != nil {
		t.Fatalf("auto-checkpoint never wrote a snapshot: %v", err)
	}
	if g := snapshotGeneration(string(snap)); g < 1 {
		t.Fatalf("snapshot generation = %d", g)
	}
}

// TestRecoveryInsertSelectKeepsHeapOrder: INSERT ... SELECT is logged as its
// statement text and re-executed on recovery, so its source must be read in
// heap order. Otherwise the live heap order differs from the replayed one,
// and a later order-dependent write (LIMIT without ORDER BY) replays to
// different contents.
func TestRecoveryInsertSelectKeepsHeapOrder(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, DurabilityOptions{})
	mustExec(t, db, `CREATE TABLE src (id integer)`)
	mustExec(t, db, `CREATE TABLE dst (id integer)`)
	mustExec(t, db, `CREATE TABLE firsts (id integer)`)
	mustExec(t, db, `INSERT INTO src SELECT i FROM generate_series(0, 19999) AS g(i)`)
	const source = `SELECT id FROM src WHERE id % 7 <> 3`
	if p := explainText(t, db, `EXPLAIN INSERT INTO dst `+source); strings.Contains(p, "Parallel") {
		t.Fatalf("a write's source must not scan in parallel:\n%s", p)
	}
	mustExec(t, db, `INSERT INTO dst `+source)
	mustExec(t, db, `INSERT INTO firsts SELECT id FROM dst LIMIT 50`)
	live := queryInts(t, db, `SELECT id FROM dst`)
	liveFirsts := queryInts(t, db, `SELECT id FROM firsts`)
	for i := 1; i < len(live); i++ {
		if live[i] <= live[i-1] {
			t.Fatalf("dst row %d = %d after %d: not in the source's heap order", i, live[i], live[i-1])
		}
	}
	db.SimulateCrash()

	re := openDurable(t, dir, DurabilityOptions{})
	if got := queryInts(t, re, `SELECT id FROM dst`); fmt.Sprint(got) != fmt.Sprint(live) {
		t.Fatalf("recovered dst differs from the live heap (%d vs %d rows)", len(got), len(live))
	}
	if got := queryInts(t, re, `SELECT id FROM firsts`); fmt.Sprint(got) != fmt.Sprint(liveFirsts) {
		t.Fatalf("recovered firsts = %v, live %v", got, liveFirsts)
	}
}

// TestRecoveryEquivalentToDumpRestore drives the same workload through (a)
// crash recovery and (b) the Dump/Restore path, and requires bit-identical
// dumps — the WAL and the snapshot mechanisms must agree on final state.
func TestRecoveryEquivalentToDumpRestore(t *testing.T) {
	workload := func(t *testing.T, db *DB) {
		t.Helper()
		mustExec(t, db, `CREATE TABLE m (id integer, val float)`)
		mustExec(t, db, `CREATE INDEX m_id ON m (id)`)
		mustExec(t, db, `INSERT INTO m VALUES (1, 0.5), (2, 1.5), (3, 2.5)`)
		mustExec(t, db, `BEGIN`)
		mustExec(t, db, `UPDATE m SET val = val * 2 WHERE id >= 2`)
		mustExec(t, db, `DELETE FROM m WHERE id = 1`)
		mustExec(t, db, `COMMIT`)
		mustExec(t, db, `INSERT INTO m SELECT id + 10, val FROM m`)
	}

	dir := t.TempDir()
	durable := openDurable(t, dir, DurabilityOptions{})
	workload(t, durable)
	durable.SimulateCrash()
	recovered := openDurable(t, dir, DurabilityOptions{}) // kill + recover

	mem := New()
	workload(t, mem)
	restored := New()
	var memDump strings.Builder
	if err := mem.Dump(&memDump); err != nil {
		t.Fatal(err)
	}
	if err := restored.Restore(strings.NewReader(memDump.String())); err != nil {
		t.Fatal(err)
	}

	var a, b strings.Builder
	if err := recovered.Dump(&a); err != nil {
		t.Fatal(err)
	}
	if err := restored.Dump(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("WAL recovery and dump/restore disagree:\n--- recovery ---\n%s\n--- dump/restore ---\n%s", a.String(), b.String())
	}
}
