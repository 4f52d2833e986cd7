package estimate

import (
	"context"
	"fmt"
	"math"
	"math/rand"
)

// GAOptions configures the genetic-algorithm Global Search (G). The defaults
// mirror ModestPy's modest GA settings: small population, few generations —
// G only needs to land in the right basin; LaG does the precision work.
type GAOptions struct {
	// Population size; 0 picks 32.
	Population int
	// Generations; 0 picks 24.
	Generations int
	// TournamentSize for selection; 0 picks 3.
	TournamentSize int
	// CrossoverRate in [0,1]; 0 picks 0.9.
	CrossoverRate float64
	// MutationRate per gene in [0,1]; 0 picks 0.15.
	MutationRate float64
	// MutationSigma as a fraction of each parameter's range; 0 picks 0.1.
	MutationSigma float64
	// Elites carried over unchanged per generation; 0 picks 2.
	Elites int
	// Seed makes runs reproducible. The paper fixes a randomly derived seed
	// for its GA runs (§8.1); 0 picks 1.
	Seed int64
	// Trace enables per-generation best tracking.
	Trace bool
}

func (o GAOptions) withDefaults() GAOptions {
	if o.Population == 0 {
		o.Population = 32
	}
	if o.Generations == 0 {
		o.Generations = 24
	}
	if o.TournamentSize == 0 {
		o.TournamentSize = 3
	}
	if o.CrossoverRate == 0 {
		o.CrossoverRate = 0.9
	}
	if o.MutationRate == 0 {
		o.MutationRate = 0.15
	}
	if o.MutationSigma == 0 {
		o.MutationSigma = 0.1
	}
	if o.Elites == 0 {
		o.Elites = 2
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

type individual struct {
	genes []float64
	cost  float64
}

// GlobalSearch runs the GA over the problem's bounds and returns the best
// candidate, its cost, the number of objective evaluations, and an optional
// trace of per-generation bests. The context is polled before every
// objective evaluation — each one is a full model simulation — so
// cancellation takes effect within one evaluation per worker.
func GlobalSearch(ctx context.Context, p *Problem, opts GAOptions) ([]float64, float64, int, []TracePoint, error) {
	s := newSearch(ctx, p)
	best, cost, trace, err := s.global(opts)
	return best, cost, s.evals, trace, err
}

// global is GlobalSearch over s. A generation's children are all bred, on
// the calling goroutine, before any is scored: tournament selection reads the
// previous generation alone, so the candidates are those of a serial run.
func (s *search) global(opts GAOptions) ([]float64, float64, []TracePoint, error) {
	opts = opts.withDefaults()
	rng := rand.New(rand.NewSource(opts.Seed))
	dim := len(s.params)

	genes := make([][]float64, opts.Population)
	for i := range genes {
		genes[i] = randomCandidate(s.params, rng)
	}
	costs, _, err := s.scoreAll(genes)
	if err != nil {
		return nil, 0, nil, fmt.Errorf("estimate: GA init: %w", err)
	}
	pop := make([]individual, opts.Population)
	for i := range pop {
		pop[i] = individual{genes: genes[i], cost: costs[i]}
	}

	best := bestOf(pop)
	var trace []TracePoint
	if opts.Trace {
		trace = append(trace, TracePoint{Phase: "G", Iter: 0, Params: append([]float64(nil), best.genes...), Cost: best.cost})
	}

	tournament := func() individual {
		winner := pop[rng.Intn(len(pop))]
		for k := 1; k < opts.TournamentSize; k++ {
			c := pop[rng.Intn(len(pop))]
			if c.cost < winner.cost {
				winner = c
			}
		}
		return winner
	}

	for gen := 1; gen <= opts.Generations; gen++ {
		next := make([]individual, 0, opts.Population)
		// Elitism: carry the best individuals unchanged.
		sorted := append([]individual(nil), pop...)
		sortIndividuals(sorted)
		for e := 0; e < opts.Elites && e < len(sorted); e++ {
			next = append(next, sorted[e])
		}
		children := make([][]float64, 0, opts.Population-len(next))
		for len(next)+len(children) < opts.Population {
			p1, p2 := tournament(), tournament()
			child := make([]float64, dim)
			if rng.Float64() < opts.CrossoverRate {
				// BLX-alpha blend crossover (alpha = 0.5), clipped to bounds.
				const alpha = 0.5
				for i := 0; i < dim; i++ {
					lo := math.Min(p1.genes[i], p2.genes[i])
					hi := math.Max(p1.genes[i], p2.genes[i])
					span := hi - lo
					a := lo - alpha*span
					b := hi + alpha*span
					child[i] = clip(a+rng.Float64()*(b-a), s.params[i].Lo, s.params[i].Hi)
				}
			} else {
				copy(child, p1.genes)
			}
			for i := 0; i < dim; i++ {
				if rng.Float64() < opts.MutationRate {
					sigma := opts.MutationSigma * (s.params[i].Hi - s.params[i].Lo)
					child[i] = clip(child[i]+rng.NormFloat64()*sigma, s.params[i].Lo, s.params[i].Hi)
				}
			}
			children = append(children, child)
		}
		costs, _, err := s.scoreAll(children)
		if err != nil {
			return nil, 0, nil, fmt.Errorf("estimate: GA generation %d: %w", gen, err)
		}
		for i, child := range children {
			next = append(next, individual{genes: child, cost: costs[i]})
		}
		pop = next
		if b := bestOf(pop); b.cost < best.cost {
			best = b
		}
		if opts.Trace {
			trace = append(trace, TracePoint{Phase: "G", Iter: gen, Params: append([]float64(nil), best.genes...), Cost: best.cost})
		}
	}
	return append([]float64(nil), best.genes...), best.cost, trace, nil
}

func bestOf(pop []individual) individual {
	best := pop[0]
	for _, ind := range pop[1:] {
		if ind.cost < best.cost {
			best = ind
		}
	}
	return best
}

func sortIndividuals(pop []individual) {
	// Insertion sort: populations are small and this avoids pulling in sort
	// with a closure allocation per generation.
	for i := 1; i < len(pop); i++ {
		for j := i; j > 0 && pop[j].cost < pop[j-1].cost; j-- {
			pop[j], pop[j-1] = pop[j-1], pop[j]
		}
	}
}
