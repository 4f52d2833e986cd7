package sqldb

import (
	"context"
	"errors"
	"sync/atomic"

	"repro/internal/variant"
)

// Conn is one client's statements plus the transaction SQL BEGIN opened on
// them: a server session's, a pooled database/sql connection's, or the
// DB's (every statement sent to the DB runs on its default Conn). BEGIN,
// COMMIT and ROLLBACK are recognised by the grammar. BEGIN opens a
// Concurrent Tx that the Conn holds and every other statement sent to the
// Conn joins, from any goroutine, until COMMIT or ROLLBACK; outside one a
// statement runs as a transaction of its own. A second BEGIN fails with
// ErrTxInProgress, COMMIT or ROLLBACK with none open with ErrNoTx. A Conn
// is safe for concurrent use.
type Conn struct {
	db     *DB
	tx     atomic.Pointer[Tx]
	closed atomic.Bool
}

// Conn returns a new connection to the database.
func (db *DB) Conn() *Conn { return &Conn{db: db} }

// current returns the Conn's open transaction, forgetting one its handle
// ended.
func (c *Conn) current() *Tx {
	t := c.tx.Load()
	if t != nil && t.done.Load() {
		c.tx.CompareAndSwap(t, nil)
		return nil
	}
	return t
}

// InTx reports whether a transaction is open on the Conn.
func (c *Conn) InTx() bool { return c.current() != nil }

// BeginTx opens the Conn's transaction, as SQL BEGIN sent to it does, and
// returns its handle; committing or rolling back the handle ends it too.
func (c *Conn) BeginTx(ctx context.Context) (*Tx, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	if c.current() != nil {
		return nil, ErrTxInProgress
	}
	tx, err := c.db.BeginTx(ctx)
	if err != nil {
		return nil, err
	}
	if !c.tx.CompareAndSwap(nil, tx) {
		return nil, errors.Join(ErrTxInProgress, tx.Rollback())
	}
	if c.closed.Load() { // Close ran meanwhile and may have missed tx
		return nil, errors.Join(ErrClosed, c.Close())
	}
	return tx, nil
}

// end runs COMMIT or ROLLBACK sent to the Conn.
func (c *Conn) end(commit bool, tr *Trace) error {
	t := c.current()
	if t == nil || !c.tx.CompareAndSwap(t, nil) {
		return ErrNoTx
	}
	return t.end(commit, tr)
}

// Close rolls back the transaction open on the Conn, if any; later
// statements fail with ErrClosed.
func (c *Conn) Close() error {
	c.closed.Store(true)
	if t := c.tx.Swap(nil); t != nil {
		if err := t.Rollback(); !errors.Is(err, ErrTxDone) {
			return err
		}
	}
	return nil
}

// ExecContext runs a statement for its side effects and returns the number
// of rows affected.
func (c *Conn) ExecContext(ctx context.Context, sql string, args ...any) (int, error) {
	return rowCount(c.QueryContext(ctx, sql, args...))
}

// QueryContext runs a statement and materializes its result.
func (c *Conn) QueryContext(ctx context.Context, sql string, args ...any) (*ResultSet, error) {
	return materialize(c.QueryRowsContext(ctx, sql, args...))
}

// QueryRowsContext runs a statement as a streaming row iterator.
func (c *Conn) QueryRowsContext(ctx context.Context, sql string, args ...any) (*RowIter, error) {
	return c.db.query(ctx, c, sql, args)
}

// PrepareContext returns a statement that runs on the Conn.
func (c *Conn) PrepareContext(ctx context.Context, sql string) (*Stmt, error) {
	return c.db.prepare(ctx, sql, c)
}

// queryRows runs one parsed statement on the Conn.
func (c *Conn) queryRows(ctx context.Context, tr *Trace, text string, cp *cachedPlan, params []variant.Value) (*RowIter, error) {
	if c.closed.Load() {
		return nil, ErrClosed
	}
	var err error
	switch cp.stmt.(type) {
	case *BeginStmt:
		_, err = c.BeginTx(ctx)
	case *CommitStmt:
		err = c.end(true, tr)
	case *RollbackStmt:
		err = c.end(false, tr)
	default:
		for {
			t := c.current()
			if t == nil {
				return c.db.exec(ctx, tr, nil, text, cp, params)
			}
			it, err := t.queryRows(ctx, tr, text, cp, params)
			if errors.Is(err, ErrTxDone) && t.done.Load() {
				continue // the transaction ended first: run after it
			}
			return it, err
		}
	}
	if err != nil {
		return nil, err
	}
	return newRowIter(ctx, NewSliceStream(nil, nil)), nil
}
