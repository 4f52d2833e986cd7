package main

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
)

// A workload replays a pre-generated, seed-derived operation list of frozen
// length against a fresh database. One such replay is a round; a run repeats
// rounds (each with its own set-up, so set-up time gets several samples)
// until the measured sections add up to the requested seconds. Fixed work
// per round, not fixed time: a time-bounded loop against one growing
// database feeds on itself (see README, "first readings").
type workload struct {
	name string
	// tailPct is the percentile op_tail_ms reports: the highest of
	// 75/90/95/99 that leaves at least ten samples beyond it at the frozen
	// sizes (README lists the sample counts).
	tailPct float64
	// clients is the number of client goroutines the generator uses.
	clients int
	// plan builds a round's operation list from the run's seed and the
	// round's index alone.
	plan func(id roundID, size sizeClass) any
	// run performs one round: set-up, warm-up, timed replay, verification.
	run func(r *round) error
}

// sizeClass selects a workload's sizes: the frozen ones a run measures, the
// same data with fewer ops per round for the per-layer probes' traced rounds,
// or the small ones the tests use.
type sizeClass int

const (
	sizeFull sizeClass = iota
	sizeProbe
	sizeToy
)

// roundID names one round of a run: the run's --seed and the round's index.
type roundID struct {
	Run   int64
	Index int
}

// seed is the round's own seed, for everything a round draws at random.
func (id roundID) seed() int64 { return id.Run*1000 + int64(id.Index) }

// poolWalk returns n members of a fixed pool of size pool for this round: the
// run's seed fixes one order of the pool and consecutive rounds walk through
// it, wrapping round. Inputs whose cost varies a lot from draw to draw (a
// calibration's iteration count depends on the noise it is given) come from
// such a pool, so that two seeds do the same pieces of work in another order
// and pairing and a run's numbers do not hinge on which datasets its seed
// happened to draw.
func (id roundID) poolWalk(pool, n int) []int {
	order := rand.New(rand.NewSource(id.Run)).Perm(pool)
	out := make([]int, n)
	for i := range out {
		out[i] = order[(id.Index*n+i)%pool]
	}
	return out
}

// round carries one round's inputs and collects its measurements.
type round struct {
	id      roundID
	size    sizeClass
	tr      *tracer
	scratch string // per-round directory under bench/out for files the program writes

	setup time.Duration
	timed time.Duration
	lanes []*lane
	// extra holds per-round numbers only the per-layer probes read
	// (recovery time, WAL bytes, warm-start share, ...).
	extra map[string]float64
	notes []string
}

// lane is one client's log. Single-client workloads use one lane; served_mix
// uses one per session so clients never share a slice.
type lane struct {
	r         *round
	client    int
	lat       []time.Duration
	attempted int
	failed    int
	failures  []string
}

func (r *round) newLane(client int) *lane {
	l := &lane{r: r, client: client}
	r.lanes = append(r.lanes, l)
	return l
}

// quietLane is a lane whose measurements are thrown away (warm-up ops).
func quietLane() *lane { return &lane{r: &round{}} }

// fail counts one operation as failed. An op that errors, times out or fails
// verification is counted here and excluded from nothing: its latency stays
// in the sample.
func (l *lane) fail(op int, format string, args ...any) {
	l.failed++
	if len(l.failures) < 5 {
		l.failures = append(l.failures, fmt.Sprintf("op %d: ", op)+fmt.Sprintf(format, args...))
	}
}

// op times one operation and records its span; fn gets the op's span id so
// statement spans can hang off it. It returns the op's error after counting
// it, so callers can skip deferred verification for a failed op.
func (l *lane) op(i int, kind string, fn func(parent int) error) error {
	id := l.r.tr.begin(0, kind, "op", i)
	t0 := time.Now()
	err := fn(id)
	d := time.Since(t0)
	l.r.tr.end(id)
	l.lat = append(l.lat, d)
	l.attempted++
	if err != nil {
		l.fail(i, "%s: %v", kind, err)
	}
	return err
}

// stmt times one statement the harness issues inside an op.
func (l *lane) stmt(parent, op int, name, layer string, fn func() error) error {
	id := l.r.tr.begin(parent, name, layer, op)
	err := fn()
	l.r.tr.end(id)
	return err
}

func (r *round) setExtra(k string, v float64) {
	if r.extra == nil {
		r.extra = make(map[string]float64)
	}
	r.extra[k] = v
}

func (r *round) counts() (attempted, failed int, lat []time.Duration, failures []string) {
	for _, l := range r.lanes {
		attempted += l.attempted
		failed += l.failed
		lat = append(lat, l.lat...)
		failures = append(failures, l.failures...)
	}
	return
}

// runRound executes one round of w in a fresh scratch directory.
func runRound(w *workload, root string, id roundID, size sizeClass, tr *tracer) (*round, error) {
	out := filepath.Join(root, "bench", "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(out, "round-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)
	r := &round{id: id, size: size, tr: tr, scratch: scratch}
	if err := w.run(r); err != nil {
		return nil, fmt.Errorf("%s round %d of seed %d: %w", w.name, id.Index, id.Run, err)
	}
	return r, nil
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object the benchmark contract asks for on the last line of
// standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runInfo is what a run learned beyond the contract's result: printed to
// standard error for people, kept in result sets for -compare.
type runInfo struct {
	Rounds       int       `json:"rounds"`
	TimedSeconds float64   `json:"timed_seconds"`
	WallSeconds  float64   `json:"wall_seconds"`
	TailPct      float64   `json:"tail_pct"`
	Samples      int       `json:"samples"`
	BeyondTail   int       `json:"samples_beyond_tail"`
	Clients      int       `json:"clients"`
	RoundRates   []float64 `json:"round_ops_per_s"`
	RoundSetups  []float64 `json:"round_setup_s"`
	// RoundExtras are the rounds' side readings (recovery time, retried
	// write conflicts, ...), which only the per-layer probes report.
	RoundExtras   map[string][]float64 `json:"round_extras,omitempty"`
	Failures      []string             `json:"failures,omitempty"`
	Notes         []string             `json:"notes,omitempty"`
	TraceFile     string               `json:"trace_file,omitempty"`
	overheadRatio float64
	allocMBPerOp  float64
	gcPauseMs     float64
}

// minRounds is how many set-ups a run measures at least, so setup_s is a
// median and not a single reading.
const minRounds = 3

// runWorkload performs one run: rounds until the timed sections add up to
// seconds. With trace set, rounds alternate untraced/traced (the ratio of
// their op rates is the tracing overhead) and spans are kept for the caller.
func runWorkload(w *workload, root string, seed int64, seconds float64, size sizeClass, trace bool) (*result, *runInfo, *tracer, error) {
	wall := time.Now()
	var tr *tracer
	if trace {
		tr = newTracer()
	}
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	var (
		setups, rates     []float64
		ratesOn, ratesOff []float64
		lat               []time.Duration
		attempted, failed int
		failures, notes   []string
		timed             time.Duration
		extras            map[string][]float64
	)
	need := minRounds
	if size == sizeToy {
		need = 1
	}
	if trace && need < 2 {
		need = 2
	}
	for i := 0; i < need || timed.Seconds() < seconds; i++ {
		var rtr *tracer
		if trace && i%2 == 1 {
			rtr = tr
		}
		r, err := runRound(w, root, roundID{seed, i}, size, rtr)
		if err != nil {
			return nil, nil, nil, err
		}
		a, f, l, fl := r.counts()
		if a == 0 || r.timed <= 0 {
			return nil, nil, nil, fmt.Errorf("%s: round %d measured nothing", w.name, i)
		}
		rate := float64(a) / r.timed.Seconds()
		setups = append(setups, r.setup.Seconds())
		rates = append(rates, rate)
		if rtr != nil {
			ratesOn = append(ratesOn, rate)
		} else {
			ratesOff = append(ratesOff, rate)
		}
		lat = append(lat, l...)
		attempted += a
		failed += f
		failures = append(failures, fl...)
		if i == 0 {
			notes = r.notes
		}
		for k, v := range r.extra {
			if extras == nil {
				extras = make(map[string][]float64)
			}
			extras[k] = append(extras[k], v)
		}
		timed += r.timed
	}

	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	latMs := durationsMs(lat)
	info := &runInfo{
		Rounds:       len(rates),
		TimedSeconds: timed.Seconds(),
		TailPct:      w.tailPct,
		Samples:      len(lat),
		BeyondTail:   len(lat) - int(math.Ceil(float64(len(lat))*w.tailPct/100)),
		Clients:      w.clients,
		RoundRates:   rates,
		RoundSetups:  setups,
		RoundExtras:  extras,
		Failures:     failures,
		Notes:        notes,
		allocMBPerOp: float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6 / float64(attempted),
		gcPauseMs:    float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6,
	}
	if len(ratesOn) > 0 && len(ratesOff) > 0 {
		info.overheadRatio = median(ratesOff) / median(ratesOn)
	}
	res := &result{
		Correct:   failed == 0,
		Attempted: attempted,
		Failed:    failed,
		Metrics: map[string]metric{
			"setup_s":     {median(setups), "s"},
			"ops_per_s":   {float64(attempted) / timed.Seconds(), "1/s"},
			"op_p50_ms":   {percentile(latMs, 50), "ms"},
			"op_tail_ms":  {percentile(latMs, w.tailPct), "ms"},
			"peak_rss_mb": {peakRSSMB(), "MB"},
		},
	}
	info.WallSeconds = time.Since(wall).Seconds()
	return res, info, tr, nil
}

// peakRSSMB reads VmHWM, the process's peak resident set size.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) > 0 {
				kb, _ := strconv.ParseFloat(fields[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// parallel runs fn once per client and waits for all of them.
func parallel(n int, fn func(client int)) {
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	wg.Wait()
}
