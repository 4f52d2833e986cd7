package main

import (
	"sync"
	"time"
)

// span is one timed interval recorded by the harness around a call into the
// program. Spans inside the program are a later change (roadmap item 5); they
// should then reproduce these numbers.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	Op      int    `json:"op"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory; a nil *tracer records nothing, which is how
// the untraced run pays no tracing cost beyond a nil check.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (0 when tracing is off).
func (t *tracer) begin(parent int, name, layer string, op int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Layer: layer, Op: op, StartNs: now})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// byName groups by name the durations of the closed op spans (ops true) or
// of the closed statement spans (ops false).
func (t *tracer) byName(ops bool) map[string][]time.Duration {
	out := make(map[string][]time.Duration)
	if t == nil {
		return out
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.EndNs > 0 && (s.Layer == "op") == ops {
			out[s.Name] = append(out[s.Name], time.Duration(s.EndNs-s.StartNs))
		}
	}
	return out
}
