package pgfmu

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/sqldb"
)

// dumpAsDirectory writes db's Dump as the snapshot.sql of a fresh directory
// and returns that directory: the export and migration path, which Open
// loads like any durable database.
func dumpAsDirectory(t *testing.T, db *DB) string {
	t.Helper()
	dir := t.TempDir()
	if err := writeTestFile(filepath.Join(dir, "snapshot.sql"), dumpString(t, db)); err != nil {
		t.Fatal(err)
	}
	return dir
}

func dumpString(t *testing.T, db *DB) string {
	t.Helper()
	var b strings.Builder
	if err := db.SQL().Dump(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// openDumped opens a directory made by dumpAsDirectory and closes it when
// the test ends.
func openDumped(t *testing.T, dir string) *DB {
	t.Helper()
	db := openDurableFast(t, dir)
	t.Cleanup(func() { db.Close() })
	return db
}

func TestDumpSnapshotRoundTrip(t *testing.T) {
	db := openFast(t)
	loadHP1(t, db, "measurements", 1)
	if _, err := db.CreateModel(dataset.HP1Source, "hp"); err != nil {
		t.Fatal(err)
	}
	// Calibrate so the dumped instance carries fitted (non-default) values.
	results, err := db.Calibrate([]string{"hp"},
		[]string{"SELECT time, x, u FROM measurements"}, []string{"Cp", "R"})
	if err != nil {
		t.Fatal(err)
	}
	fittedCp := results[0].Params["Cp"]

	restored := openDumped(t, dumpAsDirectory(t, db))
	// User tables survive.
	rs, err := restored.Query(`SELECT count(*) FROM measurements`)
	if err != nil || rs.Rows[0][0].Int() == 0 {
		t.Fatalf("measurements after reopen = %v, %v", rs, err)
	}
	// The instance is alive with its fitted parameters.
	initial, _, _, err := restored.Get("hp", "Cp")
	if err != nil {
		t.Fatal(err)
	}
	cp, _ := initial.AsFloat()
	if math.Abs(cp-fittedCp) > 1e-9 {
		t.Errorf("reopened Cp = %v, want %v", cp, fittedCp)
	}
	// And fully operational: simulate through SQL.
	rs, err = restored.Query(
		`SELECT count(*) FROM fmu_simulate('hp', 'SELECT * FROM measurements')`)
	if err != nil || rs.Rows[0][0].Int() == 0 {
		t.Fatalf("simulate after reopen = %v, %v", rs, err)
	}
	// Even further calibration works on the reopened database.
	if _, err := restored.Calibrate([]string{"hp"},
		[]string{"SELECT time, x, u FROM measurements"}, []string{"Cp", "R"}); err != nil {
		t.Fatal(err)
	}
}

func TestDumpSnapshotRestoresIndexes(t *testing.T) {
	db := openFast(t)
	loadHP1(t, db, "measurements", 1)
	if err := db.CreateIndex("m_time", "measurements", "time", IndexOrdered); err != nil {
		t.Fatal(err)
	}
	if err := db.CreateIndex("m_x", "measurements", "x", IndexHash); err != nil {
		t.Fatal(err)
	}

	restored := openDumped(t, dumpAsDirectory(t, db))
	var found int
	for _, info := range restored.Indexes() {
		switch info.Name {
		case "m_time":
			if info.Table != "measurements" || info.Column != "time" || info.Kind != IndexOrdered {
				t.Errorf("m_time = %+v", info)
			}
			found++
		case "m_x":
			if info.Kind != IndexHash {
				t.Errorf("m_x = %+v", info)
			}
			found++
		}
	}
	if found != 2 {
		t.Fatalf("reopened indexes = %+v", restored.Indexes())
	}
	// The reloaded index serves range queries.
	rs, err := restored.Query(`SELECT count(*) FROM measurements WHERE time BETWEEN 1 AND 5`)
	if err != nil || rs.Rows[0][0].Int() == 0 {
		t.Fatalf("indexed range after reopen = %v, %v", rs, err)
	}
}

func TestOpenSnapshotErrors(t *testing.T) {
	// A path that is a regular file cannot hold a database.
	file := filepath.Join(t.TempDir(), "not-a-dir")
	if err := writeTestFile(file, "x"); err != nil {
		t.Fatal(err)
	}
	if db, err := Open(file); err == nil {
		db.Close()
		t.Error("a regular file opened as a database directory")
	}
	refused := func(snapshot, what, want string) {
		t.Helper()
		dir := t.TempDir()
		if err := writeTestFile(filepath.Join(dir, "snapshot.sql"), snapshot); err != nil {
			t.Fatal(err)
		}
		db, err := Open(dir)
		if err == nil {
			db.Close()
			t.Fatalf("%s opened", what)
		}
		if !strings.Contains(err.Error(), want) {
			t.Errorf("refusing %s: %v, want it to mention %q", what, err, want)
		}
		// The refusal released the directory: without the snapshot it opens.
		if err := os.Remove(filepath.Join(dir, "snapshot.sql")); err != nil {
			t.Fatal(err)
		}
		openDumped(t, dir)
	}
	refused("NOT SQL", "a snapshot that is not SQL", "parsing snapshot")
	// A dump without the catalogue is refused.
	refused(`CREATE TABLE "only_this" ("a" integer);`, "a snapshot without the catalogue", "missing catalogue table")
}

func TestDumpIsDeterministicSQL(t *testing.T) {
	db := openFast(t)
	if _, err := db.Exec(`CREATE TABLE t (a int, b text, c variant)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO t VALUES (1, 'it''s', '2015-02-01 00:00:00'::timestamp)`); err != nil {
		t.Fatal(err)
	}
	if dumpString(t, db) != dumpString(t, db) {
		t.Error("Dump must be deterministic")
	}
	// Reloading keeps the timestamp kind inside the variant column.
	restored := openDumped(t, dumpAsDirectory(t, db))
	rs, err := restored.Query(`SELECT c FROM t`)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Rows[0][0].Kind().String() != "timestamp" {
		t.Errorf("variant timestamp kind after reopen = %v", rs.Rows[0][0].Kind())
	}
}

// openDurableFast opens a crash-safe database on dir with fast estimator
// settings.
func openDurableFast(t *testing.T, dir string) *DB {
	t.Helper()
	db, err := Open(dir, WithEstimatorOptions(EstimatorOptions{
		GA: GAOptions{Population: 14, Generations: 8, Seed: 5},
	}))
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestRecoveryOpenPathSurvivesKill(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db := openDurableFast(t, dir)
	loadHP1(t, db, "measurements", 1)
	if _, err := db.CreateModel(dataset.HP1Source, "hp"); err != nil {
		t.Fatal(err)
	}
	results, err := db.Calibrate([]string{"hp"},
		[]string{"SELECT time, x, u FROM measurements"}, []string{"Cp", "R"})
	if err != nil {
		t.Fatal(err)
	}
	fittedCp := results[0].Params["Cp"]
	if err := db.CreateIndex("m_time", "measurements", "time", IndexOrdered); err != nil {
		t.Fatal(err)
	}
	// An uncommitted transaction must die with the process.
	if _, err := db.Exec(`BEGIN`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO measurements (time) VALUES (1e6)`); err != nil {
		t.Fatal(err)
	}
	before, err := db.Query(`SELECT count(*) FROM measurements WHERE time < 1e6`)
	if err != nil {
		t.Fatal(err)
	}
	want := before.Rows[0][0].Int()
	// Kill: drop the descriptors without Close or Checkpoint.
	db.SQL().SimulateCrash()

	re := openDurableFast(t, dir)
	rs, err := re.Query(`SELECT count(*) FROM measurements`)
	if err != nil {
		t.Fatal(err)
	}
	if got := rs.Rows[0][0].Int(); got != want {
		t.Fatalf("recovered measurements = %d, want %d (uncommitted row dropped)", got, want)
	}
	// The calibrated instance — the expensive artifact — survives the kill.
	initial, _, _, err := re.Get("hp", "Cp")
	if err != nil {
		t.Fatal(err)
	}
	if cp, _ := initial.AsFloat(); math.Abs(cp-fittedCp) > 1e-9 {
		t.Errorf("recovered Cp = %v, want %v", cp, fittedCp)
	}
	// Index state recovered, and the session is fully operational.
	var found bool
	for _, info := range re.Indexes() {
		if info.Name == "m_time" && info.Kind == IndexOrdered {
			found = true
		}
	}
	if !found {
		t.Fatalf("recovered indexes = %+v", re.Indexes())
	}
	rs, err = re.Query(`SELECT count(*) FROM fmu_simulate('hp', 'SELECT * FROM measurements')`)
	if err != nil || rs.Rows[0][0].Int() == 0 {
		t.Fatalf("simulate after recovery = %v, %v", rs, err)
	}
}

func TestRecoveryOpenPathCheckpoint(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	db := openDurableFast(t, dir)
	if _, err := db.Exec(`CREATE TABLE t (a integer)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO t VALUES (1)`); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO t VALUES (2)`); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re := openDurableFast(t, dir)
	rs, err := re.Query(`SELECT count(*) FROM t`)
	if err != nil || rs.Rows[0][0].Int() != 2 {
		t.Fatalf("rows after checkpoint+close+reopen = %v, %v", rs, err)
	}
	// In-memory databases reject checkpoints but close cleanly.
	mem := openFast(t)
	if err := mem.Checkpoint(); err == nil {
		t.Error("Checkpoint on in-memory DB should fail")
	}
	if err := mem.Close(); err != nil {
		t.Errorf("Close on in-memory DB: %v", err)
	}
}

// TestPagedSessionSurvivesKill runs the full pgFMU stack — catalogue,
// calibration, user tables — on a durable directory, checkpoints it into
// its snapshot, commits a WAL tail, kills the process, and proves a reopen
// recovers everything from the snapshot plus the tail.
func TestPagedSessionSurvivesKill(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "db")
	open := func() *DB {
		db, err := Open(dir,
			WithEstimatorOptions(EstimatorOptions{
				GA: GAOptions{Population: 14, Generations: 8, Seed: 5},
			}))
		if err != nil {
			t.Fatal(err)
		}
		return db
	}
	db := open()
	loadHP1(t, db, "measurements", 1)
	if _, err := db.CreateModel(dataset.HP1Source, "hp"); err != nil {
		t.Fatal(err)
	}
	results, err := db.Calibrate([]string{"hp"},
		[]string{"SELECT time, x, u FROM measurements"}, []string{"Cp", "R"})
	if err != nil {
		t.Fatal(err)
	}
	fittedCp := results[0].Params["Cp"]
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Post-checkpoint commits live only in the WAL tail at kill time.
	if _, err := db.Exec(`CREATE TABLE extra (a integer)`); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec(`INSERT INTO extra VALUES (7)`); err != nil {
		t.Fatal(err)
	}
	db.SQL().SimulateCrash()

	re := open()
	defer re.Close()
	if rs, err := re.Query(`SELECT count(*) FROM measurements`); err != nil || rs.Rows[0][0].Int() == 0 {
		t.Fatalf("measurements after recovery = %v, %v", rs, err)
	}
	if rs, err := re.Query(`SELECT a FROM extra`); err != nil || len(rs.Rows) != 1 || rs.Rows[0][0].Int() != 7 {
		t.Fatalf("WAL-tail table after recovery = %v, %v", rs, err)
	}
	initial, _, _, err := re.Get("hp", "Cp")
	if err != nil {
		t.Fatal(err)
	}
	if cp, _ := initial.AsFloat(); math.Abs(cp-fittedCp) > 1e-9 {
		t.Errorf("recovered Cp = %v, want %v", cp, fittedCp)
	}
	if rs, err := re.Query(`SELECT count(*) FROM fmu_simulate('hp', 'SELECT * FROM measurements')`); err != nil || rs.Rows[0][0].Int() == 0 {
		t.Fatalf("simulate on recovery = %v, %v", rs, err)
	}
}

// TestOpenRefusesPagedDirectory: a directory written in the retired paged
// format (a pages.db beside its WALs) is refused by both the engine and
// Open, with a message naming the file and the migration path, and nothing
// in it is touched — no lock file, no WAL truncation, no stale-WAL cleanup.
func TestOpenRefusesPagedDirectory(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"pages.db":       "paged image \x00\x01\x02 header and pages",
		"wal-000002.log": "\x0f\x00\x00\x00 a log with a torn tail",
		"wal-000001.log": "a stale generation",
	}
	for name, content := range files {
		if err := writeTestFile(filepath.Join(dir, name), content); err != nil {
			t.Fatal(err)
		}
	}
	check := func(err error, who string) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s opened a paged directory", who)
		}
		for _, want := range []string{"pages.db", "no longer reads", "Dump", "snapshot.sql"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("%s error %q does not mention %q", who, err, want)
			}
		}
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(ents) != len(files) {
			t.Fatalf("%s: directory holds %d files after the refusal, want %d", who, len(ents), len(files))
		}
		for name, content := range files {
			if got := readTestFile(t, filepath.Join(dir, name)); got != content {
				t.Fatalf("%s changed %s: %q, want %q", who, name, got, content)
			}
		}
	}
	check(sqldb.New().EnableDurability(dir, sqldb.DurabilityOptions{}), "EnableDurability")
	db, err := Open(dir)
	if err == nil {
		db.Close()
	}
	check(err, "Open")
}

func writeTestFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

func readTestFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}
