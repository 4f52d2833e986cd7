package fmu_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fmu"
	"repro/internal/solver"
	"repro/internal/timeseries"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_trajectories.json from this checkout")

const goldenPath = "testdata/golden_trajectories.json"

// probeSource exercises what the paper's three models do not: two states,
// the time builtin, '^', comparisons and one- and two-argument builtins.
const probeSource = `
model probe
  parameter Real a = 0.7;
  parameter Real b = 2;
  input Real u(start=0.3);
  Real x(start=1);
  Real v(start=0);
  output Real e;
equation
  der(x) = v;
  der(v) = -a^b*x - 0.1*v*abs(v) + sin(0.5*time)*u + max(0, min(u, 0.5)) / (1 + exp(-x));
  e = 0.5*v^2 + 0.5*a^b*x^2 + (x > 0)*0.001;
end probe;
`

// goldenRecord is what is frozen per case: enough to tell a trajectory that
// differs in any bit of any sample from one that does not.
type goldenRecord struct {
	Steps int      `json:"steps"`
	Final []string `json:"final"` // last row, column order, as %016x of Float64bits
	Hash  string   `json:"hash"`  // FNV-64a over times then every column, 8 bytes per value
}

// lcgSeries builds an input series from integer arithmetic only, so the
// inputs themselves cannot differ between platforms or math libraries.
func lcgSeries(seed uint64, start, step float64, n int, lo, hi float64) *timeseries.Series {
	return timeseries.Uniform(start, step, n, func(float64) float64 {
		seed = seed*6364136223846793005 + 1442695040888963407
		return lo + (hi-lo)*float64(seed>>40)/float64(1<<24)
	})
}

type goldenModel struct {
	name   string
	source string
	// inputs are sampled on [2, 26] while the window is [0, 30], so both
	// clamped ends of every series are read.
	inputs map[string]*timeseries.Series
}

func goldenModels() []goldenModel {
	return []goldenModel{
		{name: "hp0", source: dataset.HP0Source},
		{name: "hp1", source: dataset.HP1Source, inputs: map[string]*timeseries.Series{
			"u": lcgSeries(1, 2, 1, 25, 0, 1),
		}},
		{name: "classroom", source: dataset.ClassroomSource, inputs: map[string]*timeseries.Series{
			"solrad": lcgSeries(2, 2, 1, 25, 0, 450),
			"tout":   lcgSeries(3, 2, 1, 25, 2, 14),
			"occ":    lcgSeries(4, 2, 1, 25, 0, 25),
			"dpos":   lcgSeries(5, 2, 0.75, 33, 0, 30),
			// vpos is left to its start value: the fallback path.
		}},
		{name: "probe", source: probeSource, inputs: map[string]*timeseries.Series{
			"u": lcgSeries(6, 2, 0.5, 49, -0.2, 0.9),
		}},
	}
}

func goldenCases(t *testing.T) map[string]goldenRecord {
	t.Helper()
	rk4, err := solver.NewRK4(0.125)
	if err != nil {
		t.Fatal(err)
	}
	methods := []struct {
		name   string
		method solver.Method
	}{
		{"default", nil},
		{"calibration", solver.NewDormandPrince(1e-9, 1e-11)},
		{"rk4", rk4},
	}
	interps := []struct {
		name string
		mode timeseries.Interpolation
	}{{"linear", timeseries.Linear}, {"hold", timeseries.Hold}}

	out := make(map[string]goldenRecord)
	for _, gm := range goldenModels() {
		unit, err := fmu.CompileModelica(gm.source)
		if err != nil {
			t.Fatalf("%s: %v", gm.name, err)
		}
		for _, m := range methods {
			for _, step := range []float64{0, 0.5} {
				for _, ip := range interps {
					if gm.inputs == nil && ip.mode == timeseries.Hold {
						continue
					}
					name := fmt.Sprintf("%s/%s/step=%v/%s", gm.name, m.name, step, ip.name)
					inst := unit.Instantiate("golden")
					res, err := inst.Simulate(gm.inputs, 0, 30, &fmu.SimOptions{
						Method: m.method, OutputStep: step, InputInterpolation: ip.mode,
					})
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					out[name] = recordOf(res.Frame)
				}
			}
		}
	}
	return out
}

func recordOf(f *timeseries.Frame) goldenRecord {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		b := math.Float64bits(v)
		for i := range buf {
			buf[i] = byte(b >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, v := range f.Times {
		put(v)
	}
	rec := goldenRecord{Steps: f.Len()}
	for _, c := range f.Columns {
		col := f.Data[c]
		for _, v := range col {
			put(v)
		}
		rec.Final = append(rec.Final, fmt.Sprintf("%016x", math.Float64bits(col[len(col)-1])))
	}
	rec.Hash = fmt.Sprintf("%016x", h.Sum64())
	return rec
}

// TestGoldenTrajectories holds Simulate to the trajectories of the commit
// before the equations were compiled to a slot-indexed kernel, bit for bit:
// step count, final row and a hash of every sample. Regenerate with
// `go test ./internal/fmu -run TestGoldenTrajectories -update` only for a
// change that is meant to alter the numerics.
func TestGoldenTrajectories(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The compiler may fuse x*y+z on other architectures (the solver's
		// stage sums, the interpolation formula), which changes last bits.
		t.Skipf("goldens are frozen on amd64; %s may fuse multiply-add", runtime.GOARCH)
	}
	got := goldenCases(t)
	if *updateGolden {
		raw, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(raw, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]goldenRecord
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Errorf("%d cases, golden file has %d", len(got), len(want))
	}
	for name, w := range want {
		g, ok := got[name]
		if !ok {
			t.Errorf("%s: case no longer produced", name)
			continue
		}
		if g.Steps != w.Steps || g.Hash != w.Hash || fmt.Sprint(g.Final) != fmt.Sprint(w.Final) {
			t.Errorf("%s: got %+v, want %+v", name, g, w)
		}
	}
}
