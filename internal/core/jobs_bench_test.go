package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/estimate"
)

func benchSession(b *testing.B, opts ...Option) *Session {
	b.Helper()
	opts = append([]Option{WithEstimateOptions(estimate.Options{
		GA: estimate.GAOptions{Population: 16, Generations: 10, Seed: 2},
	})}, opts...)
	s, err := NewSession(opts...)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { s.Close() })
	if _, err := s.Create(hpSource, "hp"); err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkSimCache measures the content-addressed result cache on the
// trajectory-frame path both executors consume (row rendering is identical
// either way and benchmarked elsewhere): Cold re-integrates the fine-grid
// trajectory every run (cache disabled), Warm serves the stored frame.
func BenchmarkSimCache(b *testing.B) {
	from, to := 0.0, 24.0
	req := SimulateRequest{InstanceID: "hp", TimeFrom: &from, TimeTo: &to,
		OutputStep: 0.005} // 4800 communication points over the day
	frame := func(s *Session) error {
		_, _, err := s.simulateFrame(context.Background(), s.db, req)
		return err
	}
	b.Run("Cold", func(b *testing.B) {
		s := benchSession(b, WithSimCacheEntries(0))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := frame(s); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("Warm", func(b *testing.B) {
		s := benchSession(b)
		if err := frame(s); err != nil { // prime
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := frame(s); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		if cs := s.SimCacheStats(); cs.Hits < uint64(b.N) {
			b.Fatalf("warm runs missed the cache: %+v", cs)
		}
	})
}

// BenchmarkSweep measures parameter-grid scenario-sweep throughput through
// the async job pool at two widths; the pair reports the pool's parallel
// speedup. Each iteration fans a 200-point grid across the workers.
func BenchmarkSweep(b *testing.B) {
	const grid = "{B=0:20:100, E=0:10:20}" // 2000 points
	for _, workers := range []int{4, 1} {
		b.Run(fmt.Sprintf("Workers%d", workers), func(b *testing.B) {
			s := benchSession(b, WithJobWorkers(workers), WithSimCacheEntries(0))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id, err := s.SubmitJob("sweep", "hp", grid)
				if err != nil {
					b.Fatal(err)
				}
				ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
				state, err := s.WaitJob(ctx, id)
				cancel()
				if err != nil || state != JobDone {
					b.Fatalf("sweep job: state %q, err %v", state, err)
				}
			}
			b.StopTimer()
			elapsed := b.Elapsed().Seconds()
			if elapsed > 0 {
				b.ReportMetric(float64(2000*b.N)/elapsed, "points/s")
			}
		})
	}
}
