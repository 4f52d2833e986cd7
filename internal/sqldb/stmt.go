package sqldb

import (
	"context"
	"sync/atomic"

	"repro/internal/variant"
)

// Stmt is a prepared statement: the parsed plan is resolved once at Prepare
// time and reused by every execution, skipping the parser and even the
// text-keyed plan-cache lookup on the hot path. The entry also carries the
// compiled physical plan, which executions revalidate against the catalogue
// epoch — DDL, ANALYZE, or planner-option changes force a transparent
// replan (see plan.go). A Stmt runs on the handle it was prepared on: a
// Conn, the DB (its default Conn) or a Tx. A Stmt is safe for concurrent
// use by multiple goroutines — the parsed statement is immutable, the
// physical-plan slot is atomic, and every execution binds its own
// parameters.
type Stmt struct {
	db     *DB
	on     handle
	text   string
	cp     *cachedPlan
	closed atomic.Bool
}

// handle is what a statement runs on: a *Conn or a *Tx. tr is the
// statement's trace, nil when it is not traced.
type handle interface {
	queryRows(ctx context.Context, tr *Trace, text string, cp *cachedPlan, params []variant.Value) (*RowIter, error)
}

// query parses and binds one statement and runs it on h.
func (db *DB) query(ctx context.Context, h handle, sql string, args []any) (*RowIter, error) {
	tr := traceFor(ctx, h)
	cp, err := db.parse(sql, tr)
	if err != nil {
		return nil, err
	}
	params, err := bindArgs(args)
	if err != nil {
		return nil, err
	}
	return h.queryRows(ctx, tr, sql, cp, params)
}

// materialize drains a statement's rows (Query); rowCount counts them
// (Exec).
func materialize(it *RowIter, err error) (*ResultSet, error) {
	if err != nil {
		return nil, err
	}
	return it.Materialize()
}

func rowCount(rs *ResultSet, err error) (int, error) {
	if err != nil {
		return 0, err
	}
	return len(rs.Rows), nil
}

// Prepare parses sql once and returns a reusable statement handle that runs
// on the DB's default connection. The plan is shared with the text-keyed
// plan cache, so preparing an already-cached statement is free.
func (db *DB) Prepare(sql string) (*Stmt, error) {
	return db.PrepareContext(context.Background(), sql)
}

// PrepareContext is Prepare honouring ctx (parsing is fast; the context
// matters when the call races a shutdown).
func (db *DB) PrepareContext(ctx context.Context, sql string) (*Stmt, error) {
	return db.prepare(ctx, sql, &db.conn)
}

// prepare parses sql into a Stmt that runs on h.
func (db *DB) prepare(ctx context.Context, sql string, h handle) (*Stmt, error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	if db.closed.Load() {
		return nil, ErrClosed
	}
	cp, err := db.parse(sql, nil)
	if err != nil {
		return nil, err
	}
	return &Stmt{db: db, on: h, text: sql, cp: cp}, nil
}

// Query executes the prepared statement and materializes its rows.
func (s *Stmt) Query(args ...any) (*ResultSet, error) {
	return s.QueryContext(context.Background(), args...)
}

// QueryContext is Query honouring ctx.
func (s *Stmt) QueryContext(ctx context.Context, args ...any) (*ResultSet, error) {
	return materialize(s.QueryRowsContext(ctx, args...))
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
	tr := traceFor(ctx, s.on)
	if tr != nil {
		tr.Cached = true
	}
	return s.on.queryRows(ctx, tr, s.text, s.cp, params)
}

// Plan resolves (or revalidates) the statement's physical plan without
// executing it, so callers can observe planning cost separately from
// execution — the pgfmu shell's \timing uses it to report parse / plan /
// execute phases. It is a no-op for statements that are not SELECTs.
func (s *Stmt) Plan() error {
	_, err := s.physPlan()
	return err
}

// ExecutorKind resolves the statement's physical plan and names the
// executor it will run on: "vectorized" (columnar batches) or "operators"
// (the operator pipeline).
// Non-SELECT statements report "". The pgfmu shell surfaces this next to
// \timing so a user can see which executor a query took.
func (s *Stmt) ExecutorKind() (string, error) {
	plan, err := s.physPlan()
	if plan == nil || err != nil {
		return "", err
	}
	if plan.kind == physVectorized {
		return "vectorized", nil
	}
	return "operators", nil
}

// physPlan resolves a SELECT's physical plan in the catalogue its execution
// would see: the committed one, with the uncommitted DDL of the transaction
// it would join laid over it. nil for other statements.
func (s *Stmt) physPlan() (*physPlan, error) {
	if s.closed.Load() {
		return nil, ErrClosed
	}
	sel, ok := s.cp.stmt.(*SelectStmt)
	if !ok {
		return nil, nil
	}
	tx, _ := s.on.(*Tx)
	if c, ok := s.on.(*Conn); ok {
		tx = c.current()
	}
	var t *txnState
	if tx != nil {
		// A function's handle never takes its mu: it is free here.
		tx.mu.Lock()
		defer tx.mu.Unlock()
		if !tx.done.Load() {
			t = tx.state
		}
	}
	if s.db.closed.Load() {
		return nil, ErrClosed
	}
	cat, err := s.db.catalogFor(t)
	if err != nil {
		return nil, err
	}
	return s.cp.physFor(s.db, cat, sel)
}

// Exec executes the prepared statement for its side effects, returning the
// affected row count.
func (s *Stmt) Exec(args ...any) (int, error) {
	return s.ExecContext(context.Background(), args...)
}

// ExecContext is Exec honouring ctx.
func (s *Stmt) ExecContext(ctx context.Context, args ...any) (int, error) {
	return rowCount(s.QueryContext(ctx, args...))
}

// Close releases the handle; subsequent executions return ErrClosed. The
// shared plan-cache entry (if any) is unaffected.
func (s *Stmt) Close() error {
	s.closed.Store(true)
	return nil
}
