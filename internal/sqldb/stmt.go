package sqldb

import (
	"context"
	"sync/atomic"
)

// Stmt is a prepared statement: the parsed plan is resolved once at Prepare
// time and reused by every execution, skipping the parser and even the
// text-keyed plan-cache lookup on the hot path. The entry also carries the
// compiled physical plan, which executions revalidate against the catalogue
// epoch — DDL, ANALYZE, or planner-option changes force a transparent
// replan (see plan.go). A Stmt is safe for concurrent use by multiple
// goroutines — the parsed statement is immutable, the physical-plan slot is
// atomic, and every execution binds its own parameters.
type Stmt struct {
	db     *DB
	text   string
	cp     *cachedPlan
	closed atomic.Bool
}

// Prepare parses sql once and returns a reusable statement handle. The plan
// is shared with the text-keyed plan cache, so preparing an already-cached
// statement is free.
func (db *DB) Prepare(sql string) (*Stmt, error) {
	return db.PrepareContext(context.Background(), sql)
}

// PrepareContext is Prepare honouring ctx (parsing is fast; the context
// matters when the call races a shutdown).
func (db *DB) PrepareContext(ctx context.Context, sql string) (*Stmt, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	db.mu.RLock()
	closed := db.closed
	db.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	cp, err := db.parse(sql)
	if err != nil {
		return nil, err
	}
	return &Stmt{db: db, text: sql, cp: cp}, nil
}

// Query executes the prepared statement and materializes its rows.
func (s *Stmt) Query(args ...any) (*ResultSet, error) {
	return s.QueryContext(context.Background(), args...)
}

// QueryContext is Query honouring ctx.
func (s *Stmt) QueryContext(ctx context.Context, args ...any) (*ResultSet, error) {
	it, err := s.QueryRowsContext(ctx, args...)
	if err != nil {
		return nil, err
	}
	return it.Materialize()
}

// QueryRows executes the prepared statement as a streaming row iterator.
func (s *Stmt) QueryRows(args ...any) (*RowIter, error) {
	return s.QueryRowsContext(context.Background(), args...)
}

// QueryRowsContext is QueryRows honouring ctx.
func (s *Stmt) QueryRowsContext(ctx context.Context, args ...any) (*RowIter, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	params, err := bindArgs(args)
	if err != nil {
		return nil, err
	}
	return s.db.queryStmt(ctx, s.text, s.cp, params)
}

// Plan resolves (or revalidates) the statement's physical plan without
// executing it, so callers can observe planning cost separately from
// execution — the pgfmu shell's \timing uses it to report parse / plan /
// execute phases. It is a no-op for statements that are not SELECTs.
func (s *Stmt) Plan() error {
	if s.closed.Load() {
		return ErrClosed
	}
	sel, ok := s.cp.stmt.(*SelectStmt)
	if !ok {
		return nil
	}
	s.db.mu.RLock()
	defer s.db.mu.RUnlock()
	if s.db.closed {
		return ErrClosed
	}
	_, err := s.cp.physFor(s.db, sel)
	return err
}

// ExecutorKind resolves the statement's physical plan and names the
// executor it will run on: "vectorized" (columnar batches), "operators" (the
// streaming operator pipeline) or "materialize" (the reference executor).
// Non-SELECT statements report "". The pgfmu shell surfaces this next to
// \timing so a user can see which executor a query took.
func (s *Stmt) ExecutorKind() (string, error) {
	if s.closed.Load() {
		return "", ErrClosed
	}
	sel, ok := s.cp.stmt.(*SelectStmt)
	if !ok {
		return "", nil
	}
	s.db.mu.RLock()
	defer s.db.mu.RUnlock()
	if s.db.closed {
		return "", ErrClosed
	}
	plan, err := s.cp.physFor(s.db, sel)
	if err != nil {
		return "", err
	}
	switch plan.kind {
	case physVectorized:
		return "vectorized", nil
	case physOps:
		return "operators", nil
	default:
		return "materialize", nil
	}
}

// Exec executes the prepared statement for its side effects, returning the
// affected row count.
func (s *Stmt) Exec(args ...any) (int, error) {
	return s.ExecContext(context.Background(), args...)
}

// ExecContext is Exec honouring ctx.
func (s *Stmt) ExecContext(ctx context.Context, args ...any) (int, error) {
	rs, err := s.QueryContext(ctx, args...)
	if err != nil {
		return 0, err
	}
	return len(rs.Rows), nil
}

// Text returns the statement's SQL.
func (s *Stmt) Text() string { return s.text }

// Close releases the handle; subsequent executions return ErrClosed. The
// shared plan-cache entry (if any) is unaffected.
func (s *Stmt) Close() error {
	s.closed.Store(true)
	return nil
}
