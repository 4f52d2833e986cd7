package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// spec is what the harness reads of BENCHMARK.json.
type spec struct {
	RunSeconds float64 `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(root string) (*spec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// checkDeclared fails the run unless it emits exactly the metrics
// BENCHMARK.json declares for its kind (end-to-end untraced, per-layer
// traced), each with the declared unit and a finite value. A mismatch is a
// harness bug, so it produces no result at all.
func checkDeclared(root string, res *result, trace bool) error {
	s, err := loadSpec(root)
	if err != nil {
		return err
	}
	declared := s.EndToEnd
	if trace {
		declared = s.PerLayer
	}
	var problems []string
	seen := make(map[string]bool)
	for _, d := range declared {
		seen[d.Name] = true
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			problems = append(problems, d.Name+" not measured")
		case m.Unit != d.Unit:
			problems = append(problems, fmt.Sprintf("%s has unit %s, declared %s", d.Name, m.Unit, d.Unit))
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			problems = append(problems, fmt.Sprintf("%s is %v", d.Name, m.Value))
		}
	}
	for name := range res.Metrics {
		if !seen[name] {
			problems = append(problems, name+" measured but not declared")
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		return fmt.Errorf("metrics differ from BENCHMARK.json: %s", strings.Join(problems, "; "))
	}
	return nil
}

// writeTrace writes the traced run's spans to bench/out/trace-<workload>.json.
func writeTrace(root, workload string, seed int64, tr *tracer, notes []string) (string, error) {
	path := filepath.Join(root, "bench", "out", "trace-"+workload+".json")
	doc := struct {
		Workload string   `json:"workload"`
		Seed     int64    `json:"seed"`
		Notes    []string `json:"notes"`
		Spans    []span   `json:"spans"`
	}{workload, seed, notes, tr.spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}
