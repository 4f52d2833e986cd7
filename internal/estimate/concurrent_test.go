package estimate

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// bowl is a cheap objective with its minimum inside synthProblem's box.
func bowl(x []float64) (float64, error) {
	return (x[0]+0.4)*(x[0]+0.4) + (x[1]-13)*(x[1]-13) + (x[2]-4)*(x[2]-4), nil
}

var bowlParams = []ParamSpec{{Name: "A", Lo: -2, Hi: 0.5}, {Name: "B", Lo: 0, Hi: 30}, {Name: "E", Lo: 0, Hi: 15}}

func candidateKey(x []float64) string {
	return fmt.Sprintf("%x/%x/%x", math.Float64bits(x[0]), math.Float64bits(x[1]), math.Float64bits(x[2]))
}

// serialCandidates lists the candidates a search scores, in the order a
// one-core run scores them.
func serialCandidates(t *testing.T, run func(*search) error) [][]float64 {
	t.Helper()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var seen [][]float64
	s := &search{ctx: context.Background(), params: bowlParams, cost: func(x []float64) (float64, error) {
		seen = append(seen, append([]float64(nil), x...))
		return bowl(x)
	}}
	if err := run(s); err != nil {
		t.Fatal(err)
	}
	return seen
}

// failAt runs a search whose objective fails on the given candidates (the
// lower-index one slowly, so that the other fails first on a multi-core
// run) and returns the error, at 1 and at 4 procs.
func failAt(t *testing.T, run func(*search) error, cands [][]float64) (one, four error) {
	t.Helper()
	fail := map[string]time.Duration{}
	for k, c := range cands {
		fail[candidateKey(c)] = time.Duration(len(cands)-1-k) * 20 * time.Millisecond
	}
	try := func(procs int) error {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		return run(&search{ctx: context.Background(), params: bowlParams, cost: func(x []float64) (float64, error) {
			if d, ok := fail[candidateKey(x)]; ok {
				time.Sleep(d)
				return 0, fmt.Errorf("cost failed at %v", x)
			}
			return bowl(x)
		}})
	}
	return try(1), try(4)
}

var smallGA = GAOptions{Population: 8, Generations: 4, Seed: 3}

// TestGAGenerationErrorIsLowestIndex: candidates k and k+2 of one generation
// fail; the search reports k's error, with the text of a serial run.
func TestGAGenerationErrorIsLowestIndex(t *testing.T) {
	ga := func(s *search) error { _, _, _, err := s.global(smallGA); return err }
	seen := serialCandidates(t, ga)
	const children = 8 - 2 // population minus elites
	gen2 := seen[8+children : 8+2*children]
	// A child that copies its parent unchanged is no distinct candidate:
	// pick k with k and k+2 scored once in the whole run.
	count := map[string]int{}
	for _, c := range seen {
		count[candidateKey(c)]++
	}
	k := 0
	for count[candidateKey(gen2[k])] != 1 || count[candidateKey(gen2[k+2])] != 1 {
		if k++; k+2 >= children {
			t.Fatal("no two distinct children two apart in generation 2")
		}
	}
	one, four := failAt(t, ga, [][]float64{gen2[k], gen2[k+2]})
	want := fmt.Sprintf("estimate: GA generation 2: cost failed at %v", gen2[k])
	if one == nil || one.Error() != want {
		t.Fatalf("1 proc: err = %v, want %q", one, want)
	}
	if four == nil || four.Error() != want {
		t.Fatalf("4 procs: err = %v, want %q", four, want)
	}
}

// TestGradientProbeErrorIsLowestIndex: two probes of the first gradient fail;
// the search reports the lower one's error, with the text of a serial run.
func TestGradientProbeErrorIsLowestIndex(t *testing.T) {
	start := []float64{0.1, 20, 9}
	qn := func(s *search) error { _, _, _, err := s.quasiNewton(start, LocalOptions{}.withDefaults()); return err }
	seen := serialCandidates(t, qn)
	probes := seen[1:4] // after the start point, one probe per parameter
	one, four := failAt(t, qn, [][]float64{probes[0], probes[2]})
	want := fmt.Sprintf("cost failed at %v", probes[0])
	if one == nil || one.Error() != want {
		t.Fatalf("1 proc: err = %v, want %q", one, want)
	}
	if four == nil || four.Error() != want {
		t.Fatalf("4 procs: err = %v, want %q", four, want)
	}
}

// TestCancelMidBatchStartsNoFurtherBatch: a context cancelled during a GA
// generation fails that generation with ctx.Err(), and no evaluation of a
// later generation starts.
func TestCancelMidBatchStartsNoFurtherBatch(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	s := &search{ctx: ctx, params: bowlParams, cost: func(x []float64) (float64, error) {
		// Generation 2 scores calls 15..20 on four workers. Its second call
		// cancels, and its others return only after that, so the candidates
		// claimed next see the cancelled context.
		switch n := calls.Add(1); {
		case n == 16:
			cancel()
		case n > 14:
			<-ctx.Done()
		}
		return bowl(x)
	}}
	_, _, _, err := s.global(smallGA)
	if !errors.Is(err, context.Canceled) || err.Error() != "estimate: GA generation 2: context canceled" {
		t.Fatalf("err = %v, want generation 2's ctx.Err()", err)
	}
	if n := calls.Load(); n > 20 {
		t.Errorf("%d objective calls; generation 2 ends at call 20", n)
	}
}

// TestSearchesSameAtAnyGOMAXPROCS: GA, quasi-Newton and Nelder–Mead score the
// same candidates whatever the core count, and reach the same bits.
func TestSearchesSameAtAnyGOMAXPROCS(t *testing.T) {
	start := []float64{0.1, 20, 9}
	for name, run := range map[string]func(*search) ([]float64, float64, []TracePoint, error){
		"ga": func(s *search) ([]float64, float64, []TracePoint, error) { return s.global(smallGA) },
		"qn": func(s *search) ([]float64, float64, []TracePoint, error) {
			return s.quasiNewton(start, LocalOptions{}.withDefaults())
		},
		"nm": func(s *search) ([]float64, float64, []TracePoint, error) {
			return s.nelderMead(start, LocalOptions{MaxIters: 20}.withDefaults())
		},
	} {
		var results []string
		for _, procs := range []int{1, 4} {
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				var mu sync.Mutex
				var seen []string
				s := &search{ctx: context.Background(), params: bowlParams, cost: func(x []float64) (float64, error) {
					mu.Lock()
					seen = append(seen, candidateKey(x))
					mu.Unlock()
					return bowl(x)
				}}
				best, cost, _, err := run(s)
				if err != nil {
					t.Fatal(err)
				}
				sort.Strings(seen)
				results = append(results, fmt.Sprintf("%s %x evals=%d %v", candidateKey(best), math.Float64bits(cost), s.evals, seen))
			}()
		}
		if results[0] != results[1] {
			t.Errorf("%s: 1 proc %s, 4 procs %s", name, results[0], results[1])
		}
	}
}

// lineCands are the candidates project(x + 2⁻ᵏ·d), k = 0..29, of a line
// search from x along d.
func lineCands(x, d []float64) [][]float64 {
	s := &search{params: bowlParams}
	cands := make([][]float64, 30)
	for k := range cands {
		cands[k] = make([]float64, len(x))
		for i := range x {
			cands[k][i] = x[i] + math.Ldexp(1, -k)*d[i]
		}
		s.project(cands[k])
	}
	return cands
}

// lineFrom is the line search these tests drive directly: a step along d
// from x, where every candidate stays inside bowlParams' box but the first.
var lineFrom, lineDir = []float64{0, 10, 5}, []float64{1, 2, 3}

// TestLineSearchScoresEveryHalvingInOrder: a line search that never improves
// scores 1, ½, …, 2⁻²⁹ — on one core in that order — and then stops.
func TestLineSearchScoresEveryHalvingInOrder(t *testing.T) {
	want := lineCands(lineFrom, lineDir)
	for _, procs := range []int{1, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			var mu sync.Mutex
			var seen []string
			s := &search{ctx: context.Background(), params: bowlParams, cost: func(x []float64) (float64, error) {
				mu.Lock()
				seen = append(seen, candidateKey(x))
				mu.Unlock()
				return 1, nil
			}}
			x, _, err := s.lineSearch(lineFrom, lineDir, 1)
			if x != nil || err != nil {
				t.Fatalf("%d procs: lineSearch = %v, %v; want no step", procs, x, err)
			}
			if len(seen) != len(want) || s.evals != len(want) {
				t.Fatalf("%d procs: %d candidates scored, %d counted; want %d", procs, len(seen), s.evals, len(want))
			}
			for k, c := range want {
				// Only the pairs' order is fixed on more than one core.
				if got := seen[k]; got != candidateKey(c) && (procs == 1 || got != candidateKey(want[k^1])) {
					t.Fatalf("%d procs: candidate %d is %s, want 2^-%d: %s", procs, k, got, k, candidateKey(c))
				}
			}
		}()
	}
}

// TestLineSearchErrorIsSerial: a failing α is returned even when α/2, scored
// beside it (and, on more than one core, finished first), improves; a
// failing α/2 is returned when α does not improve.
func TestLineSearchErrorIsSerial(t *testing.T) {
	cands := lineCands(lineFrom, lineDir)
	for _, tc := range []struct {
		name      string
		fail      int
		improving int
	}{
		{"alpha fails", 2, 3},
		{"partner fails", 3, 4},
	} {
		for _, procs := range []int{1, 4} {
			func() {
				defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
				s := &search{ctx: context.Background(), params: bowlParams, cost: func(x []float64) (float64, error) {
					switch candidateKey(x) {
					case candidateKey(cands[tc.fail]):
						time.Sleep(20 * time.Millisecond)
						return 0, fmt.Errorf("cost failed at %v", x)
					case candidateKey(cands[tc.improving]):
						return 0, nil
					}
					return 1, nil
				}}
				x, _, err := s.lineSearch(lineFrom, lineDir, 1)
				want := fmt.Sprintf("cost failed at %v", cands[tc.fail])
				if x != nil || err == nil || err.Error() != want {
					t.Fatalf("%s, %d procs: lineSearch = %v, %v; want %q", tc.name, procs, x, err, want)
				}
			}()
		}
	}
}

// TestLineSearchTakesStepBeforeFailingPartner: when α improves, its partner
// α/2 failing changes nothing: the search goes on to the same bits, with the
// same evaluation count, as when the partner succeeds.
func TestLineSearchTakesStepBeforeFailingPartner(t *testing.T) {
	start := []float64{0.1, 20, 9}
	var results []string
	qn := func(s *search) error {
		best, cost, _, err := s.quasiNewton(start, LocalOptions{}.withDefaults())
		results = append(results, fmt.Sprintf("%s %x evals=%d", candidateKey(best), math.Float64bits(cost), s.evals))
		return err
	}
	seen := serialCandidates(t, qn)
	// seen[0] is the start and seen[1:4] its gradient probes; the first line
	// search's pairs follow. Its accepted step must be the first of a pair.
	k := 4
	for bowlAt(seen[k]) >= bowlAt(seen[0]) {
		k++
	}
	if (k-4)%2 != 0 {
		t.Fatalf("first line search accepts candidate %d, the second of its pair", k-4)
	}
	one, four := failAt(t, qn, [][]float64{seen[k+1]})
	if one != nil || four != nil {
		t.Fatalf("err = %v (1 proc), %v (4 procs); want none", one, four)
	}
	if results[1] != results[0] || results[2] != results[0] {
		t.Fatalf("partner failing: %s (1 proc), %s (4 procs); succeeding: %s", results[1], results[2], results[0])
	}
}

func bowlAt(x []float64) float64 { c, _ := bowl(x); return c }

// TestCancelInLineSearch: a context cancelled while a line search scores a
// pair fails the search with ctx.Err(), and no evaluation starts after the
// pair's partner.
func TestCancelInLineSearch(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	s := &search{ctx: ctx, params: bowlParams, cost: func(x []float64) (float64, error) {
		// Calls 1..4 are the start and its gradient probes; 5 and 6 are the
		// first line search's first pair.
		if calls.Add(1) == 5 {
			cancel()
		}
		return bowl(x)
	}}
	_, _, _, err := s.quasiNewton([]float64{0.1, 20, 9}, LocalOptions{}.withDefaults())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ctx.Err()", err)
	}
	if n := calls.Load(); n > 6 {
		t.Errorf("%d objective calls; the cancelled pair ends at call 6", n)
	}
}
