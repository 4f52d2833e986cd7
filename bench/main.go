// Command pgfmu-bench is the repository's benchmark: four paper-shaped
// workloads driven through the program's public entry points, five
// end-to-end metrics per workload, and — on a traced run — per-layer numbers
// from an entry-point ladder and layer probes. BENCHMARK.json at the root of
// the repository names it; README.md in this directory defines every metric.
//
//	bash bench/run.sh --workload si_workflow --seed 1 --seconds 15 --trace 0
//	bash bench/run.sh --workload all --seed 1
//	bash bench/run.sh --compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

var workloads = []*workload{
	{name: "si_workflow", tailPct: 75, clients: 1, plan: siPlan, run: siRun},
	{name: "mi_fleet", tailPct: 75, clients: 1, plan: miPlan, run: miRun},
	{name: "traj_analytics", tailPct: 95, clients: 1, plan: trajPlan, run: trajRun},
	{name: "served_mix", tailPct: 95, clients: 2, plan: servedPlan, run: servedRun},
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func main() {
	var (
		name     = flag.String("workload", "", "workload to run: "+workloadNames()+", or all")
		seed     = flag.Int64("seed", 1, "seed every input is derived from")
		seconds  = flag.Float64("seconds", 0, "seconds of timed work per run (default: BENCHMARK.json's run_seconds)")
		trace    = flag.Int("trace", 0, "1 = traced run: per-layer metrics, spans written to bench/out/")
		root     = flag.String("root", ".", "root of the checkout (holds BENCHMARK.json)")
		compare  = flag.Bool("compare", false, "compare two result sets: -compare <setA> <setB>")
		baseline = flag.String("baseline", "", "run two alternated sets of -runs runs (seeds 1 and 2) and write them to this file")
		runs     = flag.Int("runs", 5, "runs per set for -baseline")
		recPath  = flag.String("record", "", "also write the run, with its details, to this file")
	)
	flag.Parse()
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		fatal(err)
	}
	s, err := loadSpec(absRoot)
	if err != nil {
		fatal(fmt.Errorf("-root %s: %w", *root, err))
	}
	if *seconds == 0 {
		*seconds = s.RunSeconds
	}

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two result sets"))
		}
		if err := compareSets(absRoot, flag.Arg(0), flag.Arg(1), os.Stdout); err != nil {
			fatal(err)
		}
	case *baseline != "":
		if err := writeBaseline(absRoot, *baseline, *runs, *seconds); err != nil {
			fatal(err)
		}
	case *name == "all":
		if err := runAll(absRoot, *seed, *seconds, *trace); err != nil {
			fatal(err)
		}
	default:
		w := findWorkload(*name)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q (want %s, or all)", *name, workloadNames()))
		}
		rec, err := runOne(w, absRoot, *seed, *seconds, sizeFull, *trace == 1)
		if err != nil {
			fatal(err)
		}
		if *recPath != "" {
			data, err := json.Marshal(rec)
			if err == nil {
				err = os.WriteFile(*recPath, data, 0o644)
			}
			if err != nil {
				fatal(err)
			}
		}
		emit(rec)
	}
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pgfmu-bench:", err)
	os.Exit(1)
}

// record is one run as kept in result sets.
type record struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Trace    bool     `json:"trace"`
	Result   *result  `json:"result"`
	Info     *runInfo `json:"info"`
}

// runOne performs one run of one workload in this process.
func runOne(w *workload, root string, seed int64, seconds float64, size sizeClass, trace bool) (*record, error) {
	res, info, tr, err := runWorkload(w, root, seed, seconds, size, trace)
	if err != nil {
		return nil, err
	}
	if trace {
		// A traced run reports the per-layer metrics in place of the
		// end-to-end ones, which are only valid with tracing off.
		layer, notes, err := runProbes(root, seed, size, tr)
		if err != nil {
			return nil, err
		}
		layer["go.alloc_mb_per_op"] = metric{info.allocMBPerOp, "MB"}
		layer["go.gc_pause_ms_total"] = metric{info.gcPauseMs, "ms"}
		layer["trace.overhead_ratio"] = metric{info.overheadRatio, "ratio"}
		res.Metrics = layer
		info.Notes = append(info.Notes, notes...)
		if info.TraceFile, err = writeTrace(root, w.name, seed, tr, info.Notes); err != nil {
			return nil, err
		}
	}
	if err := checkDeclared(root, res, trace); err != nil {
		return nil, err
	}
	return &record{Workload: w.name, Seed: seed, Trace: trace, Result: res, Info: info}, nil
}

// emit prints a run for people on standard error and the contract's result
// object as the last line of standard output.
func emit(rec *record) {
	info := rec.Info
	fmt.Fprintf(os.Stderr, "%s seed=%d trace=%v: %d rounds, %d ops in %.2f s timed (%.2f s wall), %d client(s), closed loop\n",
		rec.Workload, rec.Seed, rec.Trace, info.Rounds, rec.Result.Attempted, info.TimedSeconds, info.WallSeconds, info.Clients)
	fmt.Fprintf(os.Stderr, "op_tail_ms is p%g of %d samples (%d beyond it)\n", info.TailPct, info.Samples, info.BeyondTail)
	fmt.Fprintf(os.Stderr, "per round: ops/s %.4g, set-up s %.3g\n", info.RoundRates, info.RoundSetups)
	for _, k := range sortedKeys(info.RoundExtras) {
		fmt.Fprintf(os.Stderr, "per round: %s %.4g\n", k, info.RoundExtras[k])
	}
	for _, n := range info.Notes {
		fmt.Fprintln(os.Stderr, "note:", n)
	}
	for _, f := range info.Failures {
		fmt.Fprintln(os.Stderr, "FAILED", f)
	}
	names := make([]string, 0, len(rec.Result.Metrics))
	for n := range rec.Result.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Result.Metrics[n]
		fmt.Fprintf(os.Stderr, "  %-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
	if info.TraceFile != "" {
		fmt.Fprintln(os.Stderr, "spans written to", info.TraceFile)
	}
	line, err := json.Marshal(rec.Result)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !rec.Result.Correct {
		// Verification is broken, not merely slow.
		os.Exit(2)
	}
}

// runChild re-executes this binary for one workload, so peak_rss_mb and
// garbage-collector state never leak from one workload into the next.
func runChild(root, name string, seed int64, seconds float64, trace int) (*record, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	recFile, err := os.CreateTemp(filepath.Join(root, "bench", "out"), "rec-*.json")
	if err != nil {
		return nil, err
	}
	recFile.Close()
	defer os.Remove(recFile.Name())
	cmd := exec.Command(exe, "-root", root, "-workload", name, "-seed", fmt.Sprint(seed),
		"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-record", recFile.Name())
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	var rec record
	data, err := os.ReadFile(recFile.Name())
	if err == nil {
		err = json.Unmarshal(data, &rec)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: no result (%v); output: %s", name, runErr, lastLine(out))
	}
	return &rec, nil
}

func lastLine(out []byte) string {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	return lines[len(lines)-1]
}

// runAll runs every workload once, each in its own process, and prints one
// summary object. This benchmark claims no gain: the summary ends with
// "claim": null.
func runAll(root string, seed int64, seconds float64, trace int) error {
	if err := os.MkdirAll(filepath.Join(root, "bench", "out"), 0o755); err != nil {
		return err
	}
	type summary struct {
		Runs  []*record `json:"runs"`
		Claim any       `json:"claim"`
	}
	var s summary
	ok := true
	for _, w := range workloads {
		rec, err := runChild(root, w.name, seed, seconds, trace)
		if err != nil {
			return err
		}
		ok = ok && rec.Result.Correct
		s.Runs = append(s.Runs, rec)
	}
	line, err := json.Marshal(s)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !ok {
		os.Exit(2)
	}
	return nil
}
