package logictest

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sqldb"
)

var updateKinds = flag.Bool("update", false, "rewrite testdata/executor_kinds.golden")

func writeFile(path, body string) error {
	return os.WriteFile(path, []byte(body), 0o644)
}

// TestLogicCorpus runs every .slt script in the corpus: once on a fresh
// in-memory database, once durably with all queries replayed after a
// close/reopen through WAL recovery, and once checkpointed with all queries
// replayed after a reopen from the snapshot (see package doc). CI runs this
// with -count=2 so the recovery replay itself is exercised twice against
// freshly written logs.
func TestLogicCorpus(t *testing.T) {
	files, err := Files(filepath.Join("testdata", "logictest"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 15 {
		t.Fatalf("corpus has %d files, want at least 15", len(files))
	}
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			t.Parallel()
			r := &Runner{Fatalf: t.Fatalf}
			r.RunFile(path, t.TempDir())
		})
	}
}

// TestLogicCorpusExecutorKinds pins which executor every corpus query plans
// onto: it replays each script on a fresh in-memory database and records
// Stmt.ExecutorKind for every query record, before the record runs, in
// testdata/executor_kinds.golden. A change to the engine that moves a query
// between the vectorized executor and the operator pipeline shows up here as
// a diff; regenerate with -update only for a change meant to move one.
func TestLogicCorpusExecutorKinds(t *testing.T) {
	files, err := Files(filepath.Join("testdata", "logictest"))
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, path := range files {
		recs, err := ParseFile(path)
		if err != nil {
			t.Fatal(err)
		}
		db := sqldb.New()
		for _, rec := range recs {
			if rec.Kind == "query" {
				kind, err := planKind(db, rec.SQL)
				if err != nil {
					kind = "error: " + err.Error()
				}
				fmt.Fprintf(&sb, "%s:%d %s\n", filepath.Base(path), rec.Line, kind)
			}
			db.Query(rec.SQL) // results are TestLogicCorpus's concern
		}
		db.Close()
	}
	golden := filepath.Join("testdata", "executor_kinds.golden")
	if *updateKinds {
		if err := writeFile(golden, sb.String()); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden (run with -update to create): %v", err)
	}
	if diff := diffRows(strings.Split(string(want), "\n"), strings.Split(sb.String(), "\n")); diff != "" {
		t.Fatalf("executor kinds differ from %s\n%s", golden, diff)
	}
}

// planKind prepares sql and names the executor its plan runs on.
func planKind(db *sqldb.DB, sql string) (string, error) {
	stmt, err := db.Prepare(sql)
	if err != nil {
		return "", err
	}
	defer stmt.Close()
	return stmt.ExecutorKind()
}

// TestParseErrors locks the harness's own rejection surface.
func TestParseErrors(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := writeFile(p, body); err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, tc := range []struct{ name, body string }{
		{"bad_directive.slt", "wibble\nSELECT 1\n"},
		{"no_sql.slt", "statement ok\n\n"},
		{"no_result.slt", "query\nSELECT 1\n"},
		{"bare_error.slt", "statement error\nSELECT 1\n"},
	} {
		if _, err := ParseFile(write(tc.name, tc.body)); err == nil {
			t.Errorf("%s: want parse error", tc.name)
		}
	}
}

// TestHarnessCatchesWrongResults proves the diff actually fires.
func TestHarnessCatchesWrongResults(t *testing.T) {
	p := filepath.Join(t.TempDir(), "wrong.slt")
	if err := writeFile(p, "statement ok\nCREATE TABLE t (a integer)\n\nstatement ok\nINSERT INTO t VALUES (1)\n\nquery\nSELECT a FROM t\n----\n2\n"); err != nil {
		t.Fatal(err)
	}
	failed := false
	r := &Runner{Fatalf: func(string, ...any) { failed = true }}
	r.RunFile(p, t.TempDir())
	if !failed {
		t.Fatal("harness accepted a wrong expected result")
	}
}
