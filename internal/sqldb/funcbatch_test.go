package sqldb

import (
	"context"
	"io"
	"testing"

	"repro/internal/variant"
)

// Function scans over a table UDF run on the operator pipeline: the leaf's
// pushed filter, then projection and OFFSET/LIMIT above it. These cases hold
// them to the reference executor on rows (in order) and on error text.

// funcSrcStream is a table-UDF result stream of n rows (i integer,
// f float, s text) with i = 0..n-1, f = i/2 and s "even" or "odd", counting
// the rows it hands out.
type funcSrcStream struct {
	n, pos    int
	nextCalls *int
}

func (cs *funcSrcStream) Columns() []Column {
	return []Column{
		{Name: "i", Type: "integer"},
		{Name: "f", Type: "float"},
		{Name: "s", Type: "text"},
	}
}

func (cs *funcSrcStream) Next() (Row, error) {
	*cs.nextCalls++
	if cs.pos >= cs.n {
		return nil, io.EOF
	}
	i := cs.pos
	cs.pos++
	s := "even"
	if i%2 == 1 {
		s = "odd"
	}
	return Row{variant.NewInt(int64(i)), variant.NewFloat(float64(i) / 2), variant.NewText(s)}, nil
}

func (cs *funcSrcStream) Close() error { return nil }

// newFuncSrcDB registers funcsrc() over n rows and returns its Next counter.
func newFuncSrcDB(t *testing.T, n int) (*DB, *int) {
	t.Helper()
	db := New()
	nextCalls := new(int)
	db.RegisterTable("funcsrc", func(context.Context, *Tx, []variant.Value) (RowStream, error) {
		return &funcSrcStream{n: n, nextCalls: nextCalls}, nil
	}, true)
	return db, nextCalls
}

// checkFuncScan runs q on the operator pipeline and on the reference
// executor and requires the same rows in the same order, or the same error.
func checkFuncScan(t *testing.T, db *DB, q string) {
	t.Helper()
	if k := planKind(t, db, q); k != physOps {
		t.Errorf("%s: plan kind %d, want physOps", q, k)
	}
	got, err := db.Query(q)
	ref, rerr := refQuery(t, db, q)
	switch {
	case (err == nil) != (rerr == nil) || (err != nil && err.Error() != rerr.Error()):
		t.Errorf("%s:\noperators err = %v\nreference err = %v", q, err, rerr)
	case err == nil && !rowsEqual(got, ref):
		t.Errorf("%s diverges:\noperators %v\nreference %v", q, got.Rows, ref.Rows)
	}
}

// TestFuncScanBatchSource: filters, arithmetic projections and OFFSET/LIMIT
// over a filtered function scan of several thousand rows.
func TestFuncScanBatchSource(t *testing.T) {
	db, _ := newFuncSrcDB(t, 3000)
	for _, q := range []string{
		`SELECT i, f, s FROM funcsrc() WHERE f > 10.5`,
		`SELECT i * 2 + 1, s FROM funcsrc() WHERE s = 'odd'`,
		`SELECT i FROM funcsrc() WHERE i % 7 = 0 LIMIT 10 OFFSET 5`,
		`SELECT f FROM funcsrc() WHERE i >= 2990`,
		`SELECT i, s FROM funcsrc() WHERE s IN ('odd', 'none') AND i < 40`,
		`SELECT r.i FROM funcsrc() AS r WHERE r.f BETWEEN 100 AND 101`,
	} {
		checkFuncScan(t, db, q)
	}
}

// TestFuncScanBatchSourceErrors: an error behind a LIMIT early-exit is never
// raised, and one within reach surfaces with the reference's message; the
// scan reads no further than the LIMIT needs.
func TestFuncScanBatchSourceErrors(t *testing.T) {
	db, nextCalls := newFuncSrcDB(t, 100)
	// i = 5 divides by zero, but LIMIT stops after the first three rows.
	checkFuncScan(t, db, `SELECT 10 / (i - 5) FROM funcsrc() WHERE i >= 1 LIMIT 3`)
	checkFuncScan(t, db, `SELECT 10 / (i - 5) FROM funcsrc() WHERE i >= 1 LIMIT 6`)
	checkFuncScan(t, db, `SELECT i FROM funcsrc() WHERE 10 / (i - 50) > 0`)
	*nextCalls = 0
	if _, err := db.Query(`SELECT 10 / (i - 5) FROM funcsrc() WHERE i >= 1 LIMIT 3`); err != nil {
		t.Fatal(err)
	}
	if *nextCalls > 4 {
		t.Errorf("LIMIT 3 read %d rows of the function scan, want at most 4", *nextCalls)
	}
}

// TestFuncScanBatchSourceFallback: unfiltered and aggregate shapes over the
// same function scan.
func TestFuncScanBatchSourceFallback(t *testing.T) {
	db, _ := newFuncSrcDB(t, 50)
	for _, q := range []string{
		`SELECT count(*), sum(i) FROM funcsrc()`,
		`SELECT s, count(*), max(f) FROM funcsrc() WHERE i > 10 GROUP BY s`,
		`SELECT * FROM funcsrc() LIMIT 4 OFFSET 45`,
	} {
		checkFuncScan(t, db, q)
	}
}
