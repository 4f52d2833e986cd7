package sqldb

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// newSuiteDB is the database constructor for the cross-cutting behavioral
// suites (MVCC anomalies, concurrent writers, streaming/differential
// operator equivalence). It returns a plain in-memory database by default;
// with SQLDB_TEST_DURABLE=1 it attaches snapshot + WAL durability in a
// temporary directory instead, so the exact same suites run with every
// commit logged. At teardown a database the test left open is dumped,
// closed, reopened through recovery and dumped again: the two dumps must
// be equal. CI runs the suites both ways under -race.
func newSuiteDB(t testing.TB) *DB {
	t.Helper()
	db := New()
	if os.Getenv("SQLDB_TEST_DURABLE") == "" {
		return db
	}
	dir := t.TempDir()
	if err := db.EnableDurability(dir, DurabilityOptions{}); err != nil {
		t.Fatalf("EnableDurability: %v", err)
	}
	t.Cleanup(func() {
		if db.closed.Load() {
			return
		}
		var before, after strings.Builder
		if err := db.Dump(&before); err != nil {
			t.Errorf("dump at teardown: %v", err)
			return
		}
		if err := db.Close(); err != nil {
			t.Errorf("close at teardown: %v", err)
			return
		}
		re := New()
		if err := re.EnableDurability(dir, DurabilityOptions{}); err != nil {
			t.Errorf("reopen at teardown: %v", err)
			return
		}
		defer re.Close()
		if err := re.Dump(&after); err != nil {
			t.Errorf("dump after reopen: %v", err)
			return
		}
		if d := firstLineDiff(before.String(), after.String()); d != "" {
			t.Errorf("recovered state differs from the state at teardown: %s", d)
		}
	})
	return db
}

// firstLineDiff describes the first line where two dumps differ; empty
// when they are equal.
func firstLineDiff(a, b string) string {
	if a == b {
		return ""
	}
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; ; i++ {
		var x, y string
		if i < len(al) {
			x = al[i]
		}
		if i < len(bl) {
			y = bl[i]
		}
		if x != y || i >= len(al) || i >= len(bl) {
			return fmt.Sprintf("line %d: %q before, %q after (%d vs %d lines)", i+1, x, y, len(al), len(bl))
		}
	}
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

// Durable round trips through the snapshot + WAL format: checkpoint, kill,
// reopen. (The TestPaged* names are those the tests had when a second,
// paged on-disk format existed; they check format-independent behaviour.)

func TestPagedRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, DurabilityOptions{})
	mustExecP(t, db, "CREATE TABLE kv (k INTEGER, v TEXT)")
	for i := 0; i < 100; i++ {
		mustExecP(t, db, "INSERT INTO kv VALUES ($1, $2)", i, fmt.Sprintf("value-%d", i))
	}
	mustExecP(t, db, "UPDATE kv SET v = 'patched' WHERE k < 10")
	mustExecP(t, db, "DELETE FROM kv WHERE k >= 90")
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if err := db.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	re := openDurable(t, dir, DurabilityOptions{})
	defer re.Close()
	if got := queryInts(t, re, "SELECT count(*) FROM kv"); got[0] != 90 {
		t.Fatalf("after reopen: count = %d, want 90", got[0])
	}
	if got := queryInts(t, re, "SELECT count(*) FROM kv WHERE v = 'patched'"); got[0] != 10 {
		t.Fatalf("after reopen: patched = %d, want 10", got[0])
	}

	// Running a Dump as a script in a fresh in-memory database yields the
	// same rows.
	var sb strings.Builder
	if err := re.Dump(&sb); err != nil {
		t.Fatalf("dump: %v", err)
	}
	mem := New()
	if _, err := mem.ExecScript(sb.String()); err != nil {
		t.Fatalf("running dump: %v", err)
	}
	if got := queryInts(t, mem, "SELECT count(*) FROM kv"); got[0] != 90 {
		t.Fatalf("restored dump: count = %d, want 90", got[0])
	}
}

func TestPagedRecoveryWithoutCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, DurabilityOptions{})
	mustExecP(t, db, "CREATE TABLE n (x INTEGER)")
	for i := 0; i < 20; i++ {
		mustExecP(t, db, "INSERT INTO n VALUES ($1)", i)
	}
	// No checkpoint: recovery must come entirely from the WAL.
	db.SimulateCrash()

	re := openDurable(t, dir, DurabilityOptions{})
	defer re.Close()
	if got := queryInts(t, re, "SELECT count(*) FROM n"); got[0] != 20 {
		t.Fatalf("count = %d, want 20", got[0])
	}
}

func TestPagedRecoveryCheckpointPlusTail(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, DurabilityOptions{})
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

	re := openDurable(t, dir, DurabilityOptions{})
	defer re.Close()
	if got := queryInts(t, re, "SELECT x FROM n ORDER BY x"); len(got) != 2 || got[0] != 2 || got[1] != 30 {
		t.Fatalf("n = %v, want [2 30]", got)
	}
	rs, err := re.Query("SELECT y FROM m")
	if err != nil || len(rs.Rows) != 1 || rs.Rows[0][0].AsText() != "tail" {
		t.Fatalf("m = %v (err %v), want one row 'tail'", rs, err)
	}
}

func TestPagedDropCreateInsertInOneTxnReplays(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, DurabilityOptions{})
	mustExecP(t, db, "CREATE TABLE t (x INTEGER)")
	mustExecP(t, db, "INSERT INTO t VALUES (1)")
	mustExecP(t, db, "BEGIN")
	mustExecP(t, db, "DROP TABLE t")
	mustExecP(t, db, "CREATE TABLE t (x INTEGER)")
	mustExecP(t, db, "INSERT INTO t VALUES (42)")
	mustExecP(t, db, "COMMIT")
	db.SimulateCrash()

	re := openDurable(t, dir, DurabilityOptions{})
	defer re.Close()
	if got := queryInts(t, re, "SELECT x FROM t"); len(got) != 1 || got[0] != 42 {
		t.Fatalf("t = %v, want [42]", got)
	}
}

// TestPagedRollbackLeavesStoreClean: a rolled-back transaction reaches
// neither the WAL nor the next checkpoint's snapshot.
func TestPagedRollbackLeavesStoreClean(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, DurabilityOptions{})
	mustExecP(t, db, "CREATE TABLE t (x INTEGER)")
	mustExecP(t, db, "INSERT INTO t VALUES (1)")
	mustExecP(t, db, "BEGIN")
	mustExecP(t, db, "INSERT INTO t VALUES (2)")
	mustExecP(t, db, "UPDATE t SET x = 10 WHERE x = 1")
	mustExecP(t, db, "ROLLBACK")
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	db.SimulateCrash()

	if txns, _, err := readWALTxns(walGenPath(dir, 1)); err != nil || len(txns) != 0 {
		t.Fatalf("wal after checkpoint holds %d transactions (%v), want none", len(txns), err)
	}
	re := openDurable(t, dir, DurabilityOptions{})
	defer re.Close()
	if got := queryInts(t, re, "SELECT x FROM t"); len(got) != 1 || got[0] != 1 {
		t.Fatalf("stored rows = %v, want [1]", got)
	}
}

func TestPagedIndexesPersistAndRecover(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, DurabilityOptions{})
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

	re := openDurable(t, dir, DurabilityOptions{})
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
}

func TestPagedOversizedTextStillQueryable(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, DurabilityOptions{})
	long := make([]byte, 3000)
	for i := range long {
		long[i] = byte('a' + i%26)
	}
	mustExecP(t, db, "CREATE TABLE t (x INTEGER, s TEXT)")
	mustExecP(t, db, "INSERT INTO t VALUES (1, $1)", string(long))
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	db.SimulateCrash()

	re := openDurable(t, dir, DurabilityOptions{})
	defer re.Close()
	rs, err := re.Query("SELECT s FROM t WHERE x = 1")
	if err != nil || len(rs.Rows) != 1 {
		t.Fatalf("query: %v rows %d", err, len(rs.Rows))
	}
	if rs.Rows[0][0].AsText() != string(long) {
		t.Fatal("long value corrupted across recovery")
	}
}

func TestPagedAllColumnTypesRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, DurabilityOptions{})
	mustExecP(t, db, "CREATE TABLE t (b BOOLEAN, i INTEGER, f FLOAT, s TEXT, ts TIMESTAMP, v VARIANT)")
	mustExecP(t, db, `INSERT INTO t VALUES (true, -42, 2.5, 'hello', '2026-08-08 12:00:00'::timestamp, NULL)`)
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	db.SimulateCrash()

	re := openDurable(t, dir, DurabilityOptions{})
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
}

// wantRows requires table t to hold exactly the integers 0..n-1 in column a.
func wantRows(t *testing.T, db *DB, n int) {
	t.Helper()
	got := queryInts(t, db, `SELECT a FROM t ORDER BY a`)
	if len(got) != n {
		t.Fatalf("got %d rows, want %d (%v)", len(got), n, got)
	}
	for i, v := range got {
		if v != int64(i) {
			t.Fatalf("row %d = %d, want %d", i, v, i)
		}
	}
}

// TestUncommittedVanishesAfterCrash: rows written in a transaction that is
// open at kill time do not resurrect, while everything committed — before
// and after the last checkpoint — does.
func TestUncommittedVanishesAfterCrash(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, DurabilityOptions{})
	mustExecP(t, db, `CREATE TABLE t (a integer)`)
	for i := 0; i < 10; i++ {
		mustExecP(t, db, `INSERT INTO t VALUES ($1)`, i)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 10; i < 20; i++ {
		mustExecP(t, db, `INSERT INTO t VALUES ($1)`, i)
	}
	tx, err := db.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`INSERT INTO t VALUES (99)`); err != nil {
		t.Fatal(err)
	}
	if _, err := tx.Exec(`UPDATE t SET a = -1 WHERE a = 5`); err != nil {
		t.Fatal(err)
	}
	db.SimulateCrash() // tx never commits

	re := openDurable(t, dir, DurabilityOptions{})
	defer re.Close()
	wantRows(t, re, 20) // 0..19 exactly: no 99, row 5 unchanged
}

// TestRepeatedCrashCheckpointCycles alternates commits, checkpoints and
// kills, and verifies the accumulated rows after every recovery.
func TestRepeatedCrashCheckpointCycles(t *testing.T) {
	dir := t.TempDir()
	db := openDurable(t, dir, DurabilityOptions{})
	mustExecP(t, db, `CREATE TABLE t (a integer)`)

	next := 0
	commit := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			mustExecP(t, db, `INSERT INTO t VALUES ($1)`, next)
			next++
		}
	}
	for cycle := 0; cycle < 6; cycle++ {
		commit(3)
		if cycle%2 == 1 {
			if err := db.Checkpoint(); err != nil {
				t.Fatalf("cycle %d: checkpoint: %v", cycle, err)
			}
		}
		commit(2) // committed work past the checkpoint lives in the WAL
		db.SimulateCrash()
		db = openDurable(t, dir, DurabilityOptions{})
		wantRows(t, db, next)
	}
	db.Close()
}

// copyDir copies the regular files of src into dst (created if needed),
// leaving out the single-opener lock file.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if !e.Type().IsRegular() || e.Name() == "lock" {
			continue
		}
		copyFile(t, filepath.Join(src, e.Name()), filepath.Join(dst, e.Name()))
	}
}

func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	b, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

func readTestFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

func writeTestFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// dirFiles lists the names of the regular files in dir, sorted.
func dirFiles(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names
}

// TestCheckpointKillPoints rebuilds every directory state a kill inside
// checkpointLocked can leave behind, from copies of a real database taken
// just before and just after a checkpoint from generation N to N+1:
//
//  1. the empty wal-(N+1) is created; snapshot N and wal-N are untouched;
//  2. snapshot.sql.tmp is partly written;
//  3. snapshot.sql.tmp is complete but not yet renamed;
//  4. the rename published snapshot N+1, and wal-N is not yet removed;
//  5. the checkpoint finished.
//
// Each state also carries an uncommitted transaction at the tail of its
// live WAL. Reopening must show every committed row and no other, and a
// second checkpoint must succeed and leave a clean directory.
func TestCheckpointKillPoints(t *testing.T) {
	live := t.TempDir()
	db := openDurable(t, live, DurabilityOptions{})
	mustExecP(t, db, `CREATE TABLE t (a integer, s text)`)
	mustExecP(t, db, `CREATE INDEX t_a ON t (a) USING btree`)
	for i := 0; i < 10; i++ {
		mustExecP(t, db, `INSERT INTO t VALUES ($1, $2)`, i, fmt.Sprintf("s%d", i))
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// A committed tail in wal-N: inserts, an update and a delete.
	for i := 10; i < 20; i++ {
		mustExecP(t, db, `INSERT INTO t VALUES ($1, $2)`, i, fmt.Sprintf("s%d", i))
	}
	mustExecP(t, db, `UPDATE t SET s = 'updated' WHERE a = 3`)
	mustExecP(t, db, `DELETE FROM t WHERE a = 4`)
	var want strings.Builder
	if err := db.Dump(&want); err != nil {
		t.Fatal(err)
	}
	before := filepath.Join(t.TempDir(), "before")
	copyDir(t, live, before)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after := filepath.Join(t.TempDir(), "after")
	copyDir(t, live, after)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	snapN := readTestFile(t, filepath.Join(before, snapshotFile))
	snapN1 := readTestFile(t, filepath.Join(after, snapshotFile))
	n := snapshotGeneration(snapN)
	if n < 1 || snapshotGeneration(snapN1) != n+1 {
		t.Fatalf("snapshot generations %d and %d, want N >= 1 and N+1", n, snapshotGeneration(snapN1))
	}
	walN, walN1 := filepath.Base(walGenPath("", n)), filepath.Base(walGenPath("", n+1))
	if got := dirFiles(t, before); strings.Join(got, ",") != snapshotFile+","+walN {
		t.Fatalf("files before the checkpoint = %v", got)
	}
	if got := dirFiles(t, after); strings.Join(got, ",") != snapshotFile+","+walN1 {
		t.Fatalf("files after the checkpoint = %v", got)
	}

	// uncommitted is the frame of an insert whose commit marker never made
	// it to disk.
	var uncommitted bytes.Buffer
	if err := appendFrame(&uncommitted, walRecord{Op: "ins", Table: "t",
		Row: []walValue{{K: "i", V: "99"}, {K: "s", V: "uncommitted"}}}); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name  string
		build func(dir string)
	}{
		{"next wal created", func(dir string) {
			copyDir(t, before, dir)
			writeTestFile(t, filepath.Join(dir, walN1), "")
		}},
		{"snapshot tmp partly written", func(dir string) {
			copyDir(t, before, dir)
			writeTestFile(t, filepath.Join(dir, walN1), "")
			writeTestFile(t, filepath.Join(dir, snapshotTmp), snapN1[:len(snapN1)/2])
		}},
		{"snapshot tmp not renamed", func(dir string) {
			copyDir(t, before, dir)
			writeTestFile(t, filepath.Join(dir, walN1), "")
			writeTestFile(t, filepath.Join(dir, snapshotTmp), snapN1)
		}},
		{"old wal not removed", func(dir string) {
			copyDir(t, after, dir)
			copyFile(t, filepath.Join(before, walN), filepath.Join(dir, walN))
		}},
		{"finished", func(dir string) {
			copyDir(t, after, dir)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.build(dir)
			liveWAL := walGenPath(dir, snapshotGeneration(readTestFile(t, filepath.Join(dir, snapshotFile))))
			f, err := os.OpenFile(liveWAL, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(uncommitted.Bytes()); err != nil {
				t.Fatal(err)
			}
			f.Close()

			check := func(db *DB, when string) {
				t.Helper()
				var got strings.Builder
				if err := db.Dump(&got); err != nil {
					t.Fatal(err)
				}
				if d := firstLineDiff(want.String(), got.String()); d != "" {
					t.Fatalf("%s: state differs from the committed one: %s", when, d)
				}
				if got := queryInts(t, db, `SELECT a FROM t WHERE a = 99 OR a = 4`); len(got) != 0 {
					t.Fatalf("%s: uncommitted or deleted rows present: %v", when, got)
				}
				rs, err := db.Query(`SELECT s FROM t WHERE a = 3`)
				if err != nil || len(rs.Rows) != 1 || rs.Rows[0][0].AsText() != "updated" {
					t.Fatalf("%s: updated row = %v, %v", when, rs, err)
				}
			}
			re := openDurable(t, dir, DurabilityOptions{})
			check(re, "after reopen")
			if err := re.Checkpoint(); err != nil {
				t.Fatalf("second checkpoint: %v", err)
			}
			gen := re.EngineStats().WALGeneration
			re.SimulateCrash()
			wantFiles := []string{"lock", snapshotFile, filepath.Base(walGenPath("", gen))}
			if got := dirFiles(t, dir); strings.Join(got, ",") != strings.Join(wantFiles, ",") {
				t.Fatalf("files after the second checkpoint = %v, want %v", got, wantFiles)
			}
			again := openDurable(t, dir, DurabilityOptions{})
			defer again.Close()
			check(again, "after the second checkpoint")
		})
	}
}

// checkpointFaults make the snapshot checkpoint fail at each of its
// fallible filesystem steps, without any hook in the engine: an obstacle
// in the directory makes the step's own system call fail. arm plants the
// obstacle in dir, whose live generation is gen, and returns its removal.
var checkpointFaults = []struct {
	name string
	arm  func(t *testing.T, dir string, gen int) (disarm func())
}{
	{"wal-create/err", func(t *testing.T, dir string, gen int) func() {
		// A directory where the next generation's WAL is to be created.
		p := walGenPath(dir, gen+1)
		if err := os.Mkdir(p, 0o755); err != nil {
			t.Fatal(err)
		}
		return func() { os.Remove(p) }
	}},
	{"snapshot-create/err", func(t *testing.T, dir string, gen int) func() {
		p := filepath.Join(dir, snapshotTmp)
		if err := os.Mkdir(p, 0o755); err != nil {
			t.Fatal(err)
		}
		return func() { os.Remove(p) }
	}},
	{"snapshot-rename/err", func(t *testing.T, dir string, gen int) func() {
		// A file cannot be renamed over a directory.
		p := filepath.Join(dir, snapshotFile)
		img := readTestFile(t, p)
		if err := os.Remove(p); err != nil {
			t.Fatal(err)
		}
		if err := os.Mkdir(p, 0o755); err != nil {
			t.Fatal(err)
		}
		writeTestFile(t, filepath.Join(p, "x"), "x")
		return func() {
			os.RemoveAll(p)
			writeTestFile(t, p, img)
		}
	}},
}

// seedForFault opens a durable database with one checkpoint behind it
// (rows 0..9) and a committed WAL tail (rows 10..19).
func seedForFault(t *testing.T, dir string) *DB {
	t.Helper()
	db := openDurable(t, dir, DurabilityOptions{})
	mustExecP(t, db, `CREATE TABLE t (a integer)`)
	for i := 0; i < 10; i++ {
		mustExecP(t, db, `INSERT INTO t VALUES ($1)`, i)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("seed checkpoint: %v", err)
	}
	for i := 10; i < 20; i++ {
		mustExecP(t, db, `INSERT INTO t VALUES ($1)`, i)
	}
	return db
}

// TestCheckpointFaultMatrix fails a checkpoint at each step and asserts
// that the database keeps serving and accepting commits, and that a retry
// on the same handle succeeds once the fault is gone.
func TestCheckpointFaultMatrix(t *testing.T) {
	for _, f := range checkpointFaults {
		t.Run(f.name, func(t *testing.T) {
			dir := t.TempDir()
			db := seedForFault(t, dir)
			disarm := f.arm(t, dir, db.EngineStats().WALGeneration)
			if err := db.Checkpoint(); err == nil {
				t.Fatal("checkpoint succeeded through the fault")
			}
			wantRows(t, db, 20)
			mustExecP(t, db, `INSERT INTO t VALUES (20)`)
			disarm()
			if err := db.Checkpoint(); err != nil {
				t.Fatalf("retry checkpoint: %v", err)
			}
			wantRows(t, db, 21)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			re := openDurable(t, dir, DurabilityOptions{})
			defer re.Close()
			wantRows(t, re, 21)
		})
	}
}

// TestCheckpointFaultThenCrashRecovers fails a checkpoint at each step,
// commits more, and kills the process: recovery restores every committed
// row from the previous generation's snapshot and WAL.
func TestCheckpointFaultThenCrashRecovers(t *testing.T) {
	for _, f := range checkpointFaults {
		t.Run(f.name, func(t *testing.T) {
			dir := t.TempDir()
			db := seedForFault(t, dir)
			disarm := f.arm(t, dir, db.EngineStats().WALGeneration)
			if err := db.Checkpoint(); err == nil {
				t.Fatal("checkpoint succeeded through the fault")
			}
			for i := 20; i < 25; i++ {
				mustExecP(t, db, `INSERT INTO t VALUES ($1)`, i)
			}
			db.SimulateCrash()
			disarm()
			re := openDurable(t, dir, DurabilityOptions{})
			defer re.Close()
			wantRows(t, re, 25)
			if err := re.Checkpoint(); err != nil {
				t.Fatalf("checkpoint after recovery: %v", err)
			}
		})
	}
}
