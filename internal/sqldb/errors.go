package sqldb

import "errors"

// Sentinel errors returned at the API boundary. They are wrapped with
// contextual detail (table names, statement text) via fmt.Errorf("%w: ..."),
// so callers must test them with errors.Is, never by string matching.
var (
	// ErrNoSuchTable is returned when a statement references a table that
	// does not exist in the catalogue.
	ErrNoSuchTable = errors.New("sql: no such table")

	// ErrNoSuchIndex is returned when DROP INDEX names an unknown index.
	ErrNoSuchIndex = errors.New("sql: no such index")

	// ErrTxDone is returned by operations on a Tx handle whose transaction
	// has already been committed or rolled back.
	ErrTxDone = errors.New("sql: transaction has already been committed or rolled back")

	// ErrTxInProgress is returned by a second BEGIN on the same Conn (SQL
	// text or Conn.BeginTx) while the transaction the first opened is open.
	ErrTxInProgress = errors.New("sql: a transaction is already in progress")

	// ErrNoTx is returned by SQL COMMIT or ROLLBACK sent to a Conn with no
	// transaction open.
	ErrNoTx = errors.New("sql: COMMIT or ROLLBACK without a transaction in progress")

	// ErrClosed is returned by any operation on a closed DB or Stmt.
	ErrClosed = errors.New("sql: database is closed")

	// ErrWriteConflict is returned when a write loses a write-write race:
	// another transaction updated or deleted a row this one also wants to
	// change (first updater wins), or holds a table write latch this one
	// cannot wait for without risking deadlock. The losing transaction's
	// statement fails; retry it (or the whole transaction) to proceed.
	ErrWriteConflict = errors.New("sql: write conflict with a concurrent transaction")

	// ErrInternal is returned when a user-defined function panics: the
	// statement that called it fails with this error, naming the function
	// and the panic value, and the database keeps serving. A panic inside
	// the Next of a stream a table function returned is not contained.
	ErrInternal = errors.New("sql: internal error")
)
