package sqldb

import (
	"context"
	"time"
)

// Trace records where one statement's time went. Attach one to the
// statement's context with WithTrace; the engine adds each phase it passes
// through, so a Trace reused across statements accumulates. The phases are
// disjoint: none includes another. With no Trace attached a statement pays
// one context lookup and nothing else. Statements a function runs for its
// caller are not traced: their time is part of the caller's Open.
type Trace struct {
	// Cached reports that the statement skipped the parser: its text hit the
	// plan cache, or it was prepared.
	Cached bool
	// Parse is the plan-cache lookup plus, on a miss, parsing.
	Parse time.Duration
	// LatchWait is the wait for the latches a writing statement takes
	// before its snapshot: DML's target table, a writing function's
	// registered tables. A read's is zero.
	LatchWait time.Duration
	// Open is planning and opening the statement's executor; DML and DDL
	// do all their work here.
	Open time.Duration
	// WALAppend is writing the commit's log frames.
	WALAppend time.Duration
	// Fsync is the wait for the log's fsync.
	Fsync time.Duration
	// Commit is the rest of the commit: the commit lock, publishing the
	// catalogue and flipping the version stamps.
	Commit time.Duration
}

type traceKey struct{}

// WithTrace returns ctx carrying tr, which statements run with the returned
// context fill in.
func WithTrace(ctx context.Context, tr *Trace) context.Context {
	return context.WithValue(ctx, traceKey{}, tr)
}

// traceFor returns the Trace a statement sent to h records into: the one
// attached to ctx, or nil for a statement a function runs.
func traceFor(ctx context.Context, h handle) *Trace {
	if tx, ok := h.(*Tx); (ok && tx.fn) || ctx == nil {
		return nil
	}
	tr, _ := ctx.Value(traceKey{}).(*Trace)
	return tr
}

// now is the start of a phase: the zero time when tracing is off, so an
// untraced statement reads no clock.
func (tr *Trace) now() time.Time {
	if tr == nil {
		return time.Time{}
	}
	return time.Now()
}
