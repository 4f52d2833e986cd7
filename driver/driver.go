// Package driver provides a database/sql driver for pgFMU, so the engine —
// SQL tables, the fmu_* UDF suite, and the ML UDFs — is usable from any
// standard-library consumer:
//
//	import (
//	    "database/sql"
//	    _ "repro/driver"
//	)
//
//	db, _ := sql.Open("pgfmu", "")          // volatile in-memory engine
//	db, _ := sql.Open("pgfmu", "/data/dir") // crash-safe durable engine
//	rows, _ := db.Query(`SELECT * FROM fmu_simulate('HP1Instance1',
//	                     'SELECT * FROM measurements')`)
//
// # DSN
//
// The data source name mirrors pgfmu.Open: "" or ":memory:" opens a
// volatile in-memory database; any other string names a directory holding a
// WAL-backed crash-safe database.
//
// # Connection model
//
// database/sql pools connections, but a pgFMU engine is an embedded,
// process-local object. The driver therefore implements
// driver.DriverContext: each sql.DB gets one Connector owning one shared
// engine, and every pooled connection is an engine connection (pgfmu.Conn)
// over it. Statement concurrency is handled by the engine's reader/writer
// lock (read-only SELECTs run in parallel). sql.DB.Close closes the engine.
//
// Result rows stream: driver.Rows wraps the engine's snapshot-backed
// iterator, so scanning a large fmu_simulate result does bounded work per
// Next and holds no engine lock between calls.
//
// # Transactions
//
// A transaction belongs to the connection it began on. Tx opens it, and so
// does SQL-text BEGIN sent through a sql.Conn (or a pool of one
// connection); every statement on that connection, Tx.Prepare's included,
// runs in it until it ends, and closing the connection rolls it back. Any
// number can be open concurrently, each on its own connection, each
// reading from the snapshot taken at Begin and writing under per-table
// latches. Two transactions updating the same row surface
// pgfmu.ErrWriteConflict (errors.Is-able through database/sql) on the
// later one — retry the whole transaction. Isolation options are rejected
// unless they request the default (snapshot isolation).
package driver

import (
	"context"
	"database/sql"
	stddriver "database/sql/driver"
	"errors"
	"fmt"
	"io"
	"sync"

	pgfmu "repro"
	"repro/internal/variant"
)

func init() {
	sql.Register("pgfmu", &Driver{})
}

// ErrWriteConflict is re-exported so database/sql consumers can test for
// snapshot-isolation write-write conflicts without importing the engine
// package: errors.Is(err, driver.ErrWriteConflict). The driver returns
// engine errors unwrapped, so the pgfmu.ErrWriteConflict sentinel survives
// the database/sql boundary.
var ErrWriteConflict = pgfmu.ErrWriteConflict

// Driver is the pgFMU database/sql driver, registered under the name
// "pgfmu".
type Driver struct{}

// Open opens a standalone connection with its own engine. database/sql
// never calls this (the driver implements DriverContext), but it keeps the
// plain driver.Driver contract usable for tools that dial directly. Note
// that two Opens of the same durable directory conflict on the engine's
// file lock — pooled use must go through OpenConnector.
func (d *Driver) Open(dsn string) (stddriver.Conn, error) {
	c, err := d.OpenConnector(dsn)
	if err != nil {
		return nil, err
	}
	return c.Connect(context.Background())
}

// OpenConnector returns the Connector that owns the shared engine for dsn.
func (d *Driver) OpenConnector(dsn string) (stddriver.Connector, error) {
	return &Connector{dsn: dsn}, nil
}

// Connector owns one pgFMU engine, opened lazily on the first connection;
// all pooled connections share it. It implements io.Closer, so sql.DB.Close
// shuts the engine down.
type Connector struct {
	dsn string

	mu  sync.Mutex
	eng *pgfmu.DB
}

// Connect returns a new connection facade over the shared engine.
func (c *Connector) Connect(ctx context.Context) (stddriver.Conn, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.eng == nil {
		eng, err := pgfmu.Open(c.dsn)
		if err != nil {
			return nil, err
		}
		c.eng = eng
	}
	return &conn{conn: c.eng.Conn()}, nil
}

// Driver returns the parent driver.
func (c *Connector) Driver() stddriver.Driver { return &Driver{} }

// Close shuts the shared engine down (invoked by sql.DB.Close).
func (c *Connector) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.eng == nil {
		return nil
	}
	err := c.eng.Close()
	c.eng = nil
	return err
}

// conn is one pooled connection over the shared engine; its engine
// connection holds its transaction.
type conn struct{ conn *pgfmu.Conn }

var (
	_ stddriver.Conn               = (*conn)(nil)
	_ stddriver.ConnPrepareContext = (*conn)(nil)
	_ stddriver.ConnBeginTx        = (*conn)(nil)
	_ stddriver.QueryerContext     = (*conn)(nil)
	_ stddriver.ExecerContext      = (*conn)(nil)
	_ stddriver.Pinger             = (*conn)(nil)
)

func (c *conn) Prepare(query string) (stddriver.Stmt, error) {
	return c.PrepareContext(context.Background(), query)
}

func (c *conn) PrepareContext(ctx context.Context, query string) (stddriver.Stmt, error) {
	st, err := c.conn.PrepareContext(ctx, query)
	if err != nil {
		return nil, err
	}
	return &stmt{st: st}, nil
}

// Close rolls back the connection's open transaction; the engine belongs
// to the Connector.
func (c *conn) Close() error { return c.conn.Close() }

func (c *conn) Begin() (stddriver.Tx, error) {
	return c.BeginTx(context.Background(), stddriver.TxOptions{})
}

func (c *conn) BeginTx(ctx context.Context, opts stddriver.TxOptions) (stddriver.Tx, error) {
	if iso := sql.IsolationLevel(opts.Isolation); iso != sql.LevelDefault {
		return nil, fmt.Errorf("pgfmu: unsupported isolation level %s (transactions run under snapshot isolation)", iso)
	}
	etx, err := c.conn.BeginTx(ctx)
	if err != nil {
		return nil, err
	}
	return etx, nil
}

func (c *conn) QueryContext(ctx context.Context, query string, args []stddriver.NamedValue) (stddriver.Rows, error) {
	goArgs, err := namedToArgs(args)
	if err != nil {
		return nil, err
	}
	it, err := c.conn.QueryRowsContext(ctx, query, goArgs...)
	if err != nil {
		return nil, err
	}
	return &rows{it: it}, nil
}

func (c *conn) ExecContext(ctx context.Context, query string, args []stddriver.NamedValue) (stddriver.Result, error) {
	goArgs, err := namedToArgs(args)
	if err != nil {
		return nil, err
	}
	n, err := c.conn.ExecContext(ctx, query, goArgs...)
	if err != nil {
		return nil, err
	}
	return result{rowsAffected: int64(n)}, nil
}

func (c *conn) Ping(ctx context.Context) error {
	_, err := c.conn.QueryContext(ctx, "SELECT 1")
	if errors.Is(err, pgfmu.ErrClosed) {
		return stddriver.ErrBadConn
	}
	return err
}

// stmt adapts a pgfmu prepared statement.
type stmt struct{ st *pgfmu.Stmt }

var (
	_ stddriver.Stmt             = (*stmt)(nil)
	_ stddriver.StmtQueryContext = (*stmt)(nil)
	_ stddriver.StmtExecContext  = (*stmt)(nil)
)

func (s *stmt) Close() error { return s.st.Close() }

// NumInput reports -1: the engine binds $n placeholders at execution and
// validates arity there.
func (s *stmt) NumInput() int { return -1 }

func (s *stmt) Query(args []stddriver.Value) (stddriver.Rows, error) {
	return s.QueryContext(context.Background(), valuesToNamed(args))
}

func (s *stmt) QueryContext(ctx context.Context, args []stddriver.NamedValue) (stddriver.Rows, error) {
	goArgs, err := namedToArgs(args)
	if err != nil {
		return nil, err
	}
	it, err := s.st.QueryRowsContext(ctx, goArgs...)
	if err != nil {
		return nil, err
	}
	return &rows{it: it}, nil
}

func (s *stmt) Exec(args []stddriver.Value) (stddriver.Result, error) {
	return s.ExecContext(context.Background(), valuesToNamed(args))
}

func (s *stmt) ExecContext(ctx context.Context, args []stddriver.NamedValue) (stddriver.Result, error) {
	goArgs, err := namedToArgs(args)
	if err != nil {
		return nil, err
	}
	n, err := s.st.ExecContext(ctx, goArgs...)
	if err != nil {
		return nil, err
	}
	return result{rowsAffected: int64(n)}, nil
}

// rows adapts the engine's streaming iterator to driver.Rows. The iterator
// holds no engine lock, so scanning may interleave freely with other
// statements on the pool.
type rows struct {
	it   *pgfmu.RowIter
	cols []string
}

func (r *rows) Columns() []string {
	if r.cols == nil {
		engineCols := r.it.Columns()
		r.cols = make([]string, len(engineCols))
		for i, c := range engineCols {
			r.cols[i] = c.Name
		}
	}
	return r.cols
}

func (r *rows) Close() error { return r.it.Close() }

func (r *rows) Next(dest []stddriver.Value) error {
	if !r.it.Next() {
		if err := r.it.Err(); err != nil {
			return err
		}
		return io.EOF
	}
	row := r.it.Row()
	for i := range dest {
		if i < len(row) {
			dest[i] = nativeValue(row[i])
		} else {
			dest[i] = nil
		}
	}
	return nil
}

// result implements driver.Result. The engine has no rowid concept, so
// LastInsertId is unsupported.
type result struct{ rowsAffected int64 }

func (r result) LastInsertId() (int64, error) {
	return 0, errors.New("pgfmu: LastInsertId is not supported")
}

func (r result) RowsAffected() (int64, error) { return r.rowsAffected, nil }

// nativeValue converts an engine datum to a driver.Value (nil, bool, int64,
// float64, string, or time.Time — all within the allowed set).
func nativeValue(v variant.Value) stddriver.Value {
	return v.Native()
}

// namedToArgs converts driver arguments to the engine's positional args.
// Only ordinal ($1, $2, ...) binding is supported.
func namedToArgs(args []stddriver.NamedValue) ([]any, error) {
	out := make([]any, len(args))
	for _, a := range args {
		if a.Name != "" {
			return nil, fmt.Errorf("pgfmu: named parameter %q not supported (use $%d)", a.Name, a.Ordinal)
		}
		v := a.Value
		if b, ok := v.([]byte); ok {
			// The engine has no blob type; []byte arrives from the default
			// converter for some callers and binds as text.
			v = string(b)
		}
		out[a.Ordinal-1] = v
	}
	return out, nil
}

// valuesToNamed adapts the legacy positional-args form.
func valuesToNamed(args []stddriver.Value) []stddriver.NamedValue {
	out := make([]stddriver.NamedValue, len(args))
	for i, v := range args {
		out[i] = stddriver.NamedValue{Ordinal: i + 1, Value: v}
	}
	return out
}
