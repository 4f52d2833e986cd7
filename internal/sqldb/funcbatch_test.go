package sqldb

import (
	"context"
	"fmt"
	"io"
	"reflect"
	"testing"

	"repro/internal/variant"
)

// countingBatchStream is a table-UDF result stream that also implements
// BatchSource, counting which consumption path the executor takes.
// Columns: (i integer, f float, s text).
type countingBatchStream struct {
	n          int
	pos        int
	nextCalls  *int
	batchCalls *int
}

func (cb *countingBatchStream) Columns() []Column {
	return []Column{
		{Name: "i", Type: "integer"},
		{Name: "f", Type: "float"},
		{Name: "s", Type: "text"},
	}
}

func (cb *countingBatchStream) rowAt(i int) Row {
	s := "even"
	if i%2 == 1 {
		s = "odd"
	}
	return Row{variant.NewInt(int64(i)), variant.NewFloat(float64(i) / 2), variant.NewText(s)}
}

func (cb *countingBatchStream) Next() (Row, error) {
	*cb.nextCalls++
	if cb.pos >= cb.n {
		return nil, io.EOF
	}
	r := cb.rowAt(cb.pos)
	cb.pos++
	return r, nil
}

func (cb *countingBatchStream) NextBatch(max int) (*Batch, error) {
	*cb.batchCalls++
	if cb.pos >= cb.n {
		return nil, io.EOF
	}
	n := cb.n - cb.pos
	if n > max {
		n = max
	}
	b := NewBatch(n)
	iv := make([]variant.Value, n)
	fv := make([]float64, n)
	sv := make([]string, n)
	for j := 0; j < n; j++ {
		r := cb.rowAt(cb.pos + j)
		iv[j] = r[0]
		fv[j], _ = r[1].AsFloat()
		sv[j] = r[2].Text()
	}
	b.AddValueColumn(iv)
	b.AddFloatColumn(fv)
	b.AddTextColumn(sv)
	cb.pos += n
	return b, nil
}

func (cb *countingBatchStream) Close() error { return nil }

// newBatchSrcDB registers batchsrc() over n rows and returns the call
// counters.
func newBatchSrcDB(t *testing.T, n int) (*DB, *int, *int) {
	t.Helper()
	db := New()
	nextCalls, batchCalls := new(int), new(int)
	db.RegisterTable("batchsrc", func(context.Context, *Tx, []variant.Value) (RowStream, error) {
		return &countingBatchStream{n: n, nextCalls: nextCalls, batchCalls: batchCalls}, nil
	}, true)
	return db, nextCalls, batchCalls
}

// TestFuncScanBatchSource proves a BatchSource FROM-clause UDF feeds the
// vectorized tail (NextBatch, no per-row Next) and that results match the
// row iterator exactly.
func TestFuncScanBatchSource(t *testing.T) {
	const rows = 3000
	queries := []string{
		`SELECT i, f, s FROM batchsrc() WHERE f > 10.5`,
		`SELECT i * 2 + 1, s FROM batchsrc() WHERE s = 'odd'`,
		`SELECT i FROM batchsrc() WHERE i % 7 = 0 LIMIT 10 OFFSET 5`,
		`SELECT f FROM batchsrc() WHERE i >= 2990`,
	}
	for _, q := range queries {
		db, nextCalls, batchCalls := newBatchSrcDB(t, rows)
		rs, err := db.Query(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if *batchCalls == 0 || *nextCalls != 0 {
			t.Errorf("%s: batch=%d next=%d, want batch path only", q, *batchCalls, *nextCalls)
		}

		db2, nextCalls2, batchCalls2 := newBatchSrcDB(t, rows)
		db2.setPlanner(plannerOptions{disableVectorized: true})
		rs2, err := db2.Query(q)
		if err != nil {
			t.Fatalf("%s (row path): %v", q, err)
		}
		if *batchCalls2 != 0 || *nextCalls2 == 0 {
			t.Errorf("%s: disableVectorized still used batch path (batch=%d next=%d)", q, *batchCalls2, *nextCalls2)
		}
		if !reflect.DeepEqual(fmt.Sprint(rs.Rows), fmt.Sprint(rs2.Rows)) {
			t.Errorf("%s: vectorized/row mismatch:\n  vec: %v\n  row: %v", q, rs.Rows, rs2.Rows)
		}
	}
}

// TestFuncScanBatchSourceErrors checks lane-error discipline on the batch
// path: an error behind a LIMIT early-exit is discarded, one within reach
// surfaces with the row executor's message.
func TestFuncScanBatchSourceErrors(t *testing.T) {
	db, _, batchCalls := newBatchSrcDB(t, 100)
	// i = 5 divides by zero, but LIMIT stops after the first three lanes.
	rs, err := db.Query(`SELECT 10 / (i - 5) FROM batchsrc() WHERE i >= 1 LIMIT 3`)
	if err != nil {
		t.Fatalf("limited query: %v", err)
	}
	if len(rs.Rows) != 3 || *batchCalls == 0 {
		t.Fatalf("rows=%d batch=%d, want 3 rows via batch path", len(rs.Rows), *batchCalls)
	}
	if _, err := db.Query(`SELECT 10 / (i - 5) FROM batchsrc() WHERE i >= 1 LIMIT 6`); err == nil {
		t.Fatal("expected division by zero within LIMIT")
	} else if got := err.Error(); got != "sql: division by zero" {
		t.Fatalf("error = %q, want sql: division by zero", got)
	}
}

// TestFuncScanBatchSourceFallback: shapes the vectorized tail doesn't take
// (no WHERE, aggregates) still work through the row iterator.
func TestFuncScanBatchSourceFallback(t *testing.T) {
	db, nextCalls, _ := newBatchSrcDB(t, 50)
	rs, err := db.Query(`SELECT count(*), sum(i) FROM batchsrc()`)
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(rs.Rows[0]); got != "[50 1225]" {
		t.Fatalf("aggregate over batchsrc = %s, want [50 1225]", got)
	}
	if *nextCalls == 0 {
		t.Error("aggregate shape should have used the row iterator")
	}
}
