package core

import (
	"fmt"
	"io"
	"testing"

	"repro/internal/fmu"
	"repro/internal/timeseries"
)

// frameResult builds a synthetic simulation result with nt communication
// points over the given variables: Data[c][i] = base(c)*1000 + i.
func frameResult(nt int, cols ...string) *fmu.SimResult {
	f := &timeseries.Frame{Columns: cols, Data: map[string][]float64{}}
	for i := 0; i < nt; i++ {
		f.Times = append(f.Times, float64(i)/2)
	}
	for ci, c := range cols {
		v := make([]float64, nt)
		for i := range v {
			v[i] = float64(ci+1)*1000 + float64(i)
		}
		f.Data[c] = v
	}
	return &fmu.SimResult{Frame: f}
}

// TestSimResultStreamNextBatch checks that batch-wise consumption of a
// trajectory frame yields exactly the rows Next would, in the same order,
// across batch sizes that do and don't divide the variable count, and for
// both float and timestamp time axes.
func TestSimResultStreamNextBatch(t *testing.T) {
	cases := []struct {
		name       string
		nt         int
		cols       []string
		timestamps bool
		max        int
	}{
		{"single-var-zero-copy", 37, []string{"x"}, false, 16},
		{"multi-var", 21, []string{"x", "b", "y"}, false, 8},
		{"multi-var-odd-max", 21, []string{"x", "y"}, false, 7},
		{"timestamps", 9, []string{"x", "y"}, true, 1024},
		{"max-smaller-than-width", 5, []string{"a", "b", "c"}, false, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := frameResult(tc.nt, tc.cols...)
			ref := newSimResultStream("inst", res, tc.timestamps)
			var want []string
			for {
				row, err := ref.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, fmt.Sprint(row))
			}

			bs := newSimResultStream("inst", res, tc.timestamps)
			var got []string
			for {
				b, err := bs.NextBatch(tc.max)
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				if b.NumCols() != 4 {
					t.Fatalf("batch has %d columns, want 4", b.NumCols())
				}
				for i := 0; i < b.Len(); i++ {
					got = append(got, fmt.Sprint([]any{
						b.Value(i, 0), b.Value(i, 1), b.Value(i, 2), b.Value(i, 3)}))
				}
			}
			if len(got) != len(want) {
				t.Fatalf("batch drain produced %d rows, Next produced %d", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("row %d: batch %s, next %s", i, got[i], want[i])
				}
			}
		})
	}
}

// TestSimResultStreamMixedConsumption: a stream half-drained through Next
// refuses NextBatch mid-communication-point rather than corrupting order.
func TestSimResultStreamMixedConsumption(t *testing.T) {
	res := frameResult(4, "x", "y")
	ss := newSimResultStream("inst", res, false)
	if _, err := ss.Next(); err != nil {
		t.Fatal(err)
	}
	if _, err := ss.NextBatch(1024); err == nil {
		t.Fatal("expected mixed-consumption error after partial Next")
	}
}

// TestSimulateVectorizedScan runs fmu_simulate through SQL with a WHERE
// clause — the shape the vectorized function-scan tail takes — and checks
// it agrees with the row-at-a-time path: the same query over a subquery
// source, which drains the stream through Next and filters row by row.
func TestSimulateVectorizedScan(t *testing.T) {
	s := newTestSession(t)
	if _, err := s.Create(hpSource, "i"); err != nil {
		t.Fatal(err)
	}
	_ = s.SetInitial("i", "A", hpTrueA)
	_ = s.SetInitial("i", "B", hpTrueB)
	_ = s.SetInitial("i", "E", hpTrueE)

	const q = `SELECT simulationTime, varName, value
		FROM fmu_simulate('i', NULL, 0, 10) WHERE varName = 'x' AND value > 0`
	rs, err := s.DB().Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) == 0 {
		t.Fatal("no rows from filtered fmu_simulate")
	}
	rs2, err := s.DB().Query(`SELECT simulationTime, varName, value
		FROM (SELECT * FROM fmu_simulate('i', NULL, 0, 10)) AS r WHERE varName = 'x' AND value > 0`)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(rs.Rows) != fmt.Sprint(rs2.Rows) {
		t.Fatalf("vectorized/row mismatch over fmu_simulate:\n  vec: %v\n  row: %v", rs.Rows, rs2.Rows)
	}
}
