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
