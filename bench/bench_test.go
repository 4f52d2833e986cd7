package main

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"regexp"
	"testing"

	"repro/internal/dataset"
	"repro/internal/fmu"
)

// These tests run every workload at toy size, so a change to the program's
// public API that would break the benchmark fails here first. Run them with
// `go -C bench test ./...` (the benchmark is its own module).

func testRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	return root
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func TestDeclaredNames(t *testing.T) {
	s, err := loadSpec(testRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the harness has %d", len(s.Workloads), len(workloads))
	}
	seen := make(map[string]bool)
	check := func(name string) {
		if !nameRE.MatchString(name) || len(name) > 64 {
			t.Errorf("name %q is not of the allowed form", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for i, w := range s.Workloads {
		check(w.Name)
		if w.Name != workloads[i].name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, w.Name, workloads[i].name)
		}
	}
	for _, m := range append(append([]specMetric(nil), s.EndToEnd...), s.PerLayer...) {
		check(m.Name)
	}
	if len(s.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, at most 128 allowed", len(s.PerLayer))
	}
}

// TestWorkloadsToy runs each workload untraced at toy size; runOne itself
// fails unless exactly the declared end-to-end metrics come out.
func TestWorkloadsToy(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped with -short")
	}
	root := testRoot(t)
	for _, w := range workloads {
		rec, err := runOne(w, root, 1, 0, sizeToy, false)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !rec.Result.Correct || rec.Result.Attempted < 1 {
			t.Errorf("%s: attempted %d, failed %d: %v", w.name, rec.Result.Attempted, rec.Result.Failed, rec.Info.Failures)
		}
	}
}

// TestTracedToy runs one traced run at toy size: every declared per-layer
// metric must be emitted, and nothing else.
func TestTracedToy(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the probe suite; skipped with -short")
	}
	rec, err := runOne(workloads[0], testRoot(t), 1, 0, sizeToy, true)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.Result.Correct {
		t.Errorf("traced toy run failed verification: %v", rec.Info.Failures)
	}
}

// TestCalibrationGate: a fit is failed when it is reported better than it is,
// and when it is more than 5 % worse than its reference.
func TestCalibrationGate(t *testing.T) {
	unit, err := fmu.CompileModelica(dataset.HP1Source)
	if err != nil {
		t.Fatal(err)
	}
	fr, err := dataset.GenerateHP1(dataset.Config{Hours: 12, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p, err := hp1Problem(unit, "gate", fr)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	at := map[string]float64{"Cp": dataset.TruthHP1["Cp"], "R": dataset.TruthHP1["R"]}
	cost, err := p.Cost([]float64{at["Cp"], at["R"]})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		reported, ref float64
		ok            bool
	}{
		{cost, cost, true},
		{cost, cost / 1.04, true},
		{cost, cost / 1.06, false},
		{cost * 0.99, cost, false},
	} {
		if msg := checkCalibration(p, at, c.reported, c.ref); (msg == "") != c.ok {
			t.Errorf("reported %v, reference %v: got %q, want ok=%v", c.reported, c.ref, msg, c.ok)
		}
	}
}

// TestPlansFollowSeed: the same seed reproduces an op list byte for byte, and
// another seed changes it.
func TestPlansFollowSeed(t *testing.T) {
	for _, w := range workloads {
		for _, size := range []sizeClass{sizeFull, sizeToy} {
			a, err := json.Marshal(w.plan(roundID{1, 0}, size))
			if err != nil {
				t.Fatal(err)
			}
			again, _ := json.Marshal(w.plan(roundID{1, 0}, size))
			other, _ := json.Marshal(w.plan(roundID{2, 0}, size))
			if !bytes.Equal(a, again) {
				t.Errorf("%s: seed 1 gave two different op lists", w.name)
			}
			if bytes.Equal(a, other) {
				t.Errorf("%s: seeds 1 and 2 gave the same op list", w.name)
			}
		}
	}
}
