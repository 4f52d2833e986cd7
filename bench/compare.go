package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"text/tabwriter"
	"time"
)

// resultSet is a list of runs of one commit.
type resultSet struct {
	Seed int64     `json:"seed,omitempty"`
	Runs []*record `json:"runs"`
}

// baselineDoc is the committed baseline (results/BENCH_11.json).
type baselineDoc struct {
	Env        map[string]string     `json:"env"`
	RunSeconds float64               `json:"run_seconds"`
	Sets       map[string]*resultSet `json:"sets"`
	Agreement  []compareRow          `json:"agreement"`
	Counts     []string              `json:"count_metrics"`
	Supersedes []string              `json:"supersedes"`
	Claim      any                   `json:"claim"`
}

// loadSet reads a result set: a file holding {"runs": [...]}, or
// "<file>#<name>" for one set of a baseline file.
func loadSet(ref string) (*resultSet, error) {
	path, name, _ := strings.Cut(ref, "#")
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if name != "" {
		var doc baselineDoc
		if err := json.Unmarshal(data, &doc); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		set, ok := doc.Sets[name]
		if !ok {
			return nil, fmt.Errorf("%s holds no set %q", path, name)
		}
		return set, nil
	}
	var set resultSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(set.Runs) == 0 {
		return nil, fmt.Errorf("%s holds no runs", path)
	}
	return &set, nil
}

// values lists a metric's readings over a set's runs of one workload, in run
// order (untraced runs carry the end-to-end metrics).
func (s *resultSet) values(workload, metric string) []float64 {
	var out []float64
	for _, r := range s.Runs {
		if r.Workload != workload || r.Trace {
			continue
		}
		if m, ok := r.Result.Metrics[metric]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// compareRow is one metric x workload comparison of set B against set A.
type compareRow struct {
	Workload string     `json:"workload"`
	Metric   string     `json:"metric"`
	Unit     string     `json:"unit"`
	N        [2]int     `json:"n"`
	MedianA  float64    `json:"median_a"`
	MedianB  float64    `json:"median_b"`
	QuartA   [2]float64 `json:"quartiles_a"`
	QuartB   [2]float64 `json:"quartiles_b"`
	// Worse is how much worse B's median is than A's, as a share of A's
	// (negative = better), in the metric's own direction.
	Worse   float64 `json:"worse_by"`
	Bound   float64 `json:"bound"`
	SpreadA float64 `json:"spread_a"`
	SpreadB float64 `json:"spread_b"`
	// Verdict: ok, worse, or unresolved (a set's spread is wider than the
	// bound, so the medians cannot resolve a difference that small).
	Verdict string `json:"verdict"`
	// The paired-runs rule for gain claims: B must win at least nine tenths
	// of the pairs (ties count for neither) and the medians must differ by
	// more than A's interquartile range.
	Pairs    int  `json:"pairs"`
	WinsB    int  `json:"wins_b"`
	GainRule bool `json:"gain_rule_met"`
}

func compareRows(s *spec, a, b *resultSet) []compareRow {
	var rows []compareRow
	for _, w := range s.Workloads {
		for _, m := range s.EndToEnd {
			va, vb := a.values(w.Name, m.Name), b.values(w.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			row := compareRow{
				Workload: w.Name, Metric: m.Name, Unit: m.Unit, N: [2]int{len(va), len(vb)},
				MedianA: a2, MedianB: b2, QuartA: [2]float64{a1, a3}, QuartB: [2]float64{b1, b3},
				Bound: m.Bound, SpreadA: spread(va), SpreadB: spread(vb),
			}
			sign := 1.0 // lower is better: B worse when larger
			if m.Better == "higher" {
				sign = -1
			}
			row.Worse = sign * (b2 - a2) / a2
			switch {
			case row.SpreadA > m.Bound || row.SpreadB > m.Bound:
				row.Verdict = "unresolved"
			case row.Worse > m.Bound:
				row.Verdict = "worse"
			default:
				row.Verdict = "ok"
			}
			for i := 0; i < len(va) && i < len(vb); i++ {
				row.Pairs++
				if sign*(vb[i]-va[i]) < 0 {
					row.WinsB++
				}
			}
			row.GainRule = row.Pairs >= 10 && float64(row.WinsB) >= 0.9*float64(row.Pairs) &&
				sign*(b2-a2) < 0 && math.Abs(b2-a2) > a3-a1
			rows = append(rows, row)
		}
	}
	return rows
}

func printRows(w io.Writer, rows []compareRow) (worse, unresolved int) {
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tmedian A [q1, q3]\tmedian B [q1, q3]\tworse by\tbound\tverdict\tpairs won by B\tgain rule")
	for _, r := range rows {
		fmt.Fprintf(tw, "%s\t%s (%s)\t%.4g [%.4g, %.4g]\t%.4g [%.4g, %.4g]\t%+.1f%%\t%.0f%%\t%s\t%d/%d\t%v\n",
			r.Workload, r.Metric, r.Unit, r.MedianA, r.QuartA[0], r.QuartA[1], r.MedianB, r.QuartB[0], r.QuartB[1],
			100*r.Worse, 100*r.Bound, r.Verdict, r.WinsB, r.Pairs, r.GainRule)
		switch r.Verdict {
		case "worse":
			worse++
		case "unresolved":
			unresolved++
		}
	}
	tw.Flush()
	return
}

// compareSets prints, per metric and workload, both sets' medians and
// quartiles, how much worse B is, the bound, and ok / worse / unresolved.
func compareSets(root, refA, refB string, w io.Writer) error {
	s, err := loadSpec(root)
	if err != nil {
		return err
	}
	a, err := loadSet(refA)
	if err != nil {
		return err
	}
	b, err := loadSet(refB)
	if err != nil {
		return err
	}
	rows := compareRows(s, a, b)
	if len(rows) == 0 {
		return fmt.Errorf("the two sets share no end-to-end readings")
	}
	worse, unresolved := printRows(w, rows)
	for _, line := range countRepeats(a, b) {
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "%d comparisons: %d worse, %d unresolved. A gain may be claimed only where the gain rule is met (>= 10 pairs, B wins >= 9/10, median gap > A's interquartile range).\n",
		len(rows), worse, unresolved)
	if worse > 0 {
		os.Exit(3)
	}
	return nil
}

// countMetrics are per-layer counts that must repeat exactly for one seed.
func isCountMetric(name string) bool {
	return strings.HasPrefix(name, "estimate.cost_evals.") || strings.HasPrefix(name, "loc.") || name == "core.mi_warm_share"
}

// countRepeats checks, within each set, that traced runs of the same seed
// agree exactly on every count metric.
func countRepeats(sets ...*resultSet) []string {
	var out []string
	for _, set := range sets {
		first := make(map[string]float64) // "seed/metric" -> value
		runs, bad := 0, 0
		for _, r := range set.Runs {
			if !r.Trace {
				continue
			}
			runs++
			for name, m := range r.Result.Metrics {
				if !isCountMetric(name) {
					continue
				}
				key := fmt.Sprintf("%d/%s", r.Seed, name)
				if v, ok := first[key]; !ok {
					first[key] = m.Value
				} else if v != m.Value {
					bad++
					out = append(out, fmt.Sprintf("count metric %s differs between traced runs of seed %d: %v vs %v", name, r.Seed, v, m.Value))
				}
			}
		}
		if runs > 1 && bad == 0 {
			out = append(out, fmt.Sprintf("count metrics (estimate.cost_evals.*, loc.*, core.mi_warm_share) repeat exactly across %d traced runs", runs))
		}
	}
	return out
}

// environment describes where the numbers were taken.
func environment(root string) map[string]string {
	env := map[string]string{
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"nproc":      fmt.Sprint(runtime.NumCPU()),
		"gomaxprocs": fmt.Sprint(runtime.GOMAXPROCS(0)),
		"date":       time.Now().UTC().Format(time.RFC3339),
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env["cpu"] = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env["kernel"] = strings.TrimSpace(string(data))
	}
	// File system of the data directory: the longest mount point that is a
	// prefix of bench/out.
	dataDir := filepath.Join(root, "bench", "out")
	if data, err := os.ReadFile("/proc/mounts"); err == nil {
		best := ""
		for _, line := range strings.Split(string(data), "\n") {
			f := strings.Fields(line)
			if len(f) >= 3 && strings.HasPrefix(dataDir, f[1]) && len(f[1]) >= len(best) {
				best = f[1]
				env["data_dir_fs"] = f[2] + " on " + f[1]
			}
		}
	}
	return env
}

// writeBaseline runs two sets of runs of every workload back to back — set
// seed1 with --seed 1 and set seed2 with --seed 2, order alternated — plus
// one traced run per workload and set, and writes them with their
// agreement table.
func writeBaseline(root, out string, runs int, seconds float64) error {
	s, err := loadSpec(root)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(root, "bench", "out"), 0o755); err != nil {
		return err
	}
	doc := &baselineDoc{
		Env:        environment(root),
		RunSeconds: seconds,
		Sets:       map[string]*resultSet{"seed1": {Seed: 1}, "seed2": {Seed: 2}},
		Supersedes: []string{
			"bench_test.go (root): the 23 Benchmark* functions",
			"cmd/benchjson and BENCH_9.json / BENCH_10.json",
			"cmd/pgfmu-loadtest's throughput and p50/p95/p99 figures quoted in CHANGES.md",
		},
	}
	names := []string{"seed1", "seed2"}
	one := func(set, workload string, trace int) error {
		rec, err := runChild(root, workload, doc.Sets[set].Seed, seconds, trace)
		if err != nil {
			return err
		}
		if !rec.Result.Correct {
			return fmt.Errorf("%s (set %s) failed verification: %v", workload, set, rec.Info.Failures)
		}
		doc.Sets[set].Runs = append(doc.Sets[set].Runs, rec)
		return nil
	}
	for i := 0; i < runs; i++ {
		for _, w := range workloads {
			order := names
			if i%2 == 1 {
				order = []string{names[1], names[0]}
			}
			for _, set := range order {
				fmt.Fprintf(os.Stderr, "baseline: run %d/%d of %s, set %s\n", i+1, runs, w.name, set)
				if err := one(set, w.name, 0); err != nil {
					return err
				}
			}
		}
	}
	for _, w := range workloads {
		for _, set := range names {
			fmt.Fprintf(os.Stderr, "baseline: traced run of %s, set %s\n", w.name, set)
			if err := one(set, w.name, 1); err != nil {
				return err
			}
		}
	}
	doc.Agreement = compareRows(s, doc.Sets["seed1"], doc.Sets["seed2"])
	doc.Counts = countRepeats(doc.Sets["seed1"], doc.Sets["seed2"])
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
		return err
	}
	printRows(os.Stdout, doc.Agreement)
	for _, line := range doc.Counts {
		fmt.Println(line)
	}
	return nil
}
