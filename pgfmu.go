// Package pgfmu is the public API of the pgFMU reproduction: an embedded
// SQL database extended with in-DBMS storage, simulation, calibration, and
// validation of FMU-based physical models (Rybnytska et al., "pgFMU:
// Integrating Data Management with Physical System Modelling", EDBT 2020).
//
// Open a database, load measurements, and drive everything with SQL:
//
//	db, _ := pgfmu.Open("")
//	db.Exec(`CREATE TABLE measurements (time float, x float, u float)`)
//	// ... INSERT measurements ...
//	db.Query(`SELECT fmu_create('/tmp/hp1.fmu', 'HP1Instance1')`)
//	db.Query(`SELECT fmu_parest('{HP1Instance1}',
//	                            '{SELECT * FROM measurements}', '{Cp, R}')`)
//	rows, _ := db.Query(`SELECT * FROM fmu_simulate('HP1Instance1',
//	                            'SELECT * FROM measurements')`)
//
// Every UDF is also reachable through typed Go methods (CreateModel,
// Calibrate, Simulate, ...). The MADlib-equivalent ML UDFs (arima_train,
// logregr_train, ...) are installed alongside; as in MADlib, a trained
// model lives in its output table, so it commits, rolls back and survives
// a reopen like any other row.
//
// # Standard-shaped execution API
//
// The execution surface follows the database/sql contract:
//
//   - Exec/Query plus ExecContext/QueryContext — context cancellation is
//     honoured inside long row scans, fmu_simulate integration stepping,
//     and fmu_parest search iterations.
//   - QueryRows/QueryRowsContext return a streaming *RowIter
//     (Next/Scan/Close): rows are produced on demand over a point-in-time
//     snapshot, so LIMIT early-exits and large fmu_simulate results stream
//     with bounded memory. Query remains the materializing wrapper.
//   - Prepare/PrepareContext return a *Stmt holding the parsed plan,
//     shareable across goroutines — the paper's "prepared SQL queries"
//     without per-call parsing.
//   - Begin/BeginTx return a *Tx handle (Commit/Rollback/Exec/Query/
//     Prepare) over the engine's undo-journal transaction machinery.
//   - Failures are errors.Is-able sentinels: ErrNoSuchTable,
//     ErrNoSuchInstance, ErrNoSuchVariable, ErrTxDone, ErrClosed.
//
// The sibling package repro/driver wraps all of this as a database/sql
// driver: sql.Open("pgfmu", "") for in-memory, sql.Open("pgfmu", dir) for a
// crash-safe durable database. See docs/go-api.md.
//
// # Query performance
//
// Two engine features back the paper's in-DBMS performance claims:
//
//   - Plan cache: parsed statements are cached by SQL text (the paper's
//     "prepared SQL queries avoid repeated reevaluation"). It is on by
//     default and toggled with db.SQL().EnablePlanCache.
//   - Secondary indexes: CREATE INDEX name ON table (col) [USING hash|btree]
//     builds a hash (equality) or ordered (equality + range) index, and
//     WHERE predicates of the form col = $1, col BETWEEN lo AND hi, and
//     col </<=/>/>= bound resolve through it instead of scanning. Indexes
//     are maintained across INSERT/UPDATE/DELETE, survive checkpoints and
//     crash recovery, and are also reachable as typed helpers (CreateIndex,
//     DropIndex).
//
// The engine runs statements under a reader/writer lock: read-only SELECTs
// execute concurrently, so multi-instance fan-out workloads (paper Fig. 7)
// scale with available cores.
//
// # Durability
//
// Open("") is a volatile in-memory database (the zero-config default).
// Open(dir) is crash-safe: every committed write is recorded in a
// write-ahead log under dir, periodically folded into a snapshot, and
// recovered on the next Open(dir) — including after a process kill. SQL
// transactions (BEGIN/COMMIT/ROLLBACK) group statements atomically, and
// Checkpoint/Close expose the durability points. The directory is the only
// on-disk image: db.SQL().Dump writes a SQL export, and a dump placed as
// <dir>/snapshot.sql opens with Open(dir). See docs/architecture.md for the
// full model.
package pgfmu

import (
	"context"
	"time"

	"repro/internal/core"
	"repro/internal/estimate"
	"repro/internal/ml"
	"repro/internal/sqldb"
	"repro/internal/variant"
)

// DB is one pgFMU environment: SQL engine + model catalogue + FMU storage.
type DB struct {
	session *core.Session
}

// Rows is a materialized query result.
type Rows = sqldb.ResultSet

// RowIter is a streaming query result: a pull cursor with Next/Scan/Close
// semantics that holds no lock. See DB.QueryRows.
type RowIter = sqldb.RowIter

// Stmt is a prepared statement holding its parsed plan; safe for concurrent
// use. See DB.Prepare.
type Stmt = sqldb.Stmt

// Tx is a transaction handle (Commit/Rollback/Exec/Query/Prepare). See
// DB.Begin.
type Tx = sqldb.Tx

// Conn is one client's statements plus the transaction SQL BEGIN opened on
// them. See DB.Conn.
type Conn = sqldb.Conn

// Sentinel errors surfaced at the API boundary; test with errors.Is.
var (
	// ErrNoSuchTable reports a statement referencing an unknown table.
	ErrNoSuchTable = sqldb.ErrNoSuchTable
	// ErrNoSuchInstance reports an operation on an unknown model instance.
	ErrNoSuchInstance = core.ErrNoSuchInstance
	// ErrNoSuchVariable reports an operation on a variable the model does
	// not declare.
	ErrNoSuchVariable = core.ErrNoSuchVariable
	// ErrTxDone reports use of a Tx that was already committed/rolled back.
	ErrTxDone = sqldb.ErrTxDone
	// ErrTxInProgress reports a second BEGIN on the same connection while
	// the transaction the first opened is still open.
	ErrTxInProgress = sqldb.ErrTxInProgress
	// ErrNoTx reports a SQL COMMIT or ROLLBACK on a connection with no
	// transaction open.
	ErrNoTx = sqldb.ErrNoTx
	// ErrWriteConflict reports a write-write conflict under snapshot
	// isolation: another transaction committed a change to the same row
	// first, or holds a latch/lock the statement cannot wait for without
	// risking deadlock. Roll the transaction back and retry it.
	ErrWriteConflict = sqldb.ErrWriteConflict
	// ErrClosed reports use of a closed DB or Stmt.
	ErrClosed = sqldb.ErrClosed
	// ErrInternal reports a statement failed by a panic in a SQL function
	// it called; the database keeps serving.
	ErrInternal = sqldb.ErrInternal
)

// Value is a dynamically typed SQL datum.
type Value = variant.Value

// CalibrationResult reports one instance's fmu_parest outcome.
type CalibrationResult = core.ParestResult

// Option configures Open.
type Option = core.Option

// WithMIOptimization toggles the multi-instance warm-start optimization
// (on = the paper's pgFMU+, off = pgFMU-). Default on.
func WithMIOptimization(on bool) Option { return core.WithMIOptimization(on) }

// WithSimilarityThreshold sets the MI gate as a relative L2 fraction
// (paper default 0.20).
func WithSimilarityThreshold(t float64) Option { return core.WithThreshold(t) }

// EstimatorOptions tunes the parameter-estimation engine.
type EstimatorOptions = estimate.Options

// GAOptions tunes the Global Search phase.
type GAOptions = estimate.GAOptions

// LocalOptions tunes the Local Search phase.
type LocalOptions = estimate.LocalOptions

// WithEstimatorOptions overrides the estimation configuration.
func WithEstimatorOptions(o EstimatorOptions) Option { return core.WithEstimateOptions(o) }

// WithWALSyncEvery is the group-commit knob for durable databases: fsync
// the write-ahead log once every n commits (default 1 = every commit;
// larger values trade the durability of the last n-1 commits for write
// throughput).
func WithWALSyncEvery(n int) Option { return core.WithWALSyncEvery(n) }

// WithLockWaitTimeout bounds how long a statement waits for a row or table
// lock held by a concurrent transaction before failing (0 keeps the default
// of one second).
func WithLockWaitTimeout(d time.Duration) Option { return core.WithLockWaitTimeout(d) }

// Open creates a pgFMU database with the model catalogue, the fmu_* UDF
// suite, and the ML UDFs installed.
//
// path selects the storage mode. "" (or ":memory:") is a volatile
// in-memory database. Any other path names a directory holding a crash-safe
// database: committed writes are WAL-logged and snapshot-checkpointed
// there, and reopening the same path recovers everything a previous process
// committed — models, calibrated instances, indexes, and user tables —
// even after a kill, dropping uncommitted transactions and torn log tails.
// A directory holding only a snapshot.sql written by db.SQL().Dump opens as
// the dumped database; that is how a database is copied or migrated.
func Open(path string, opts ...Option) (*DB, error) {
	var session *core.Session
	var err error
	if path == "" || path == ":memory:" {
		session, err = core.NewSession(opts...)
	} else {
		session, err = core.OpenDurable(path, opts...)
	}
	if err != nil {
		return nil, err
	}
	ml.RegisterUDFs(session.DB())
	return &DB{session: session}, nil
}

// Checkpoint folds a durable database's WAL into a fresh snapshot — a
// manual durability point that bounds the next Open's recovery work. It
// errors on in-memory databases and while an open transaction has run DDL.
func (db *DB) Checkpoint() error { return db.session.Checkpoint() }

// Close shuts the database down: a durable database's write-ahead log is
// flushed and detached, and every subsequent statement returns ErrClosed.
// Abandoning a durable DB without Close is safe — that is the crash the WAL
// exists for — but Close makes even group-commit-deferred writes durable.
// Close is idempotent.
func (db *DB) Close() error { return db.session.Close() }

// Exec runs a statement for its side effects; the int is the affected row
// count (SELECT row count for queries).
func (db *DB) Exec(sql string, args ...any) (int, error) {
	return db.session.DB().Exec(sql, args...)
}

// ExecContext is Exec honouring ctx: cancellation is observed inside long
// row loops and context-aware UDFs (fmu_simulate stepping, fmu_parest
// iterations), rolling the statement back.
func (db *DB) ExecContext(ctx context.Context, sql string, args ...any) (int, error) {
	return db.session.DB().ExecContext(ctx, sql, args...)
}

// Query runs a statement and returns its rows, fully materialized.
// Placeholders $1, $2, ... bind args. For large results prefer QueryRows.
func (db *DB) Query(sql string, args ...any) (*Rows, error) {
	return db.session.DB().Query(sql, args...)
}

// QueryContext is Query honouring ctx.
func (db *DB) QueryContext(ctx context.Context, sql string, args ...any) (*Rows, error) {
	return db.session.DB().QueryContext(ctx, sql, args...)
}

// QueryRows runs a statement and returns a streaming row iterator: rows are
// produced on demand over a point-in-time snapshot (no lock is held), LIMIT
// early-exits, and large fmu_simulate results never materialize. Close the
// iterator when done.
func (db *DB) QueryRows(sql string, args ...any) (*RowIter, error) {
	return db.session.DB().QueryRows(sql, args...)
}

// QueryRowsContext is QueryRows honouring ctx: once cancelled, iteration
// stops with the context's error.
func (db *DB) QueryRowsContext(ctx context.Context, sql string, args ...any) (*RowIter, error) {
	return db.session.DB().QueryRowsContext(ctx, sql, args...)
}

// Prepare parses sql once into a reusable *Stmt — the paper's "prepared SQL
// queries avoid repeated reevaluation", as a handle. The Stmt shares the
// engine's plan cache and is safe for concurrent use.
func (db *DB) Prepare(sql string) (*Stmt, error) {
	return db.session.DB().Prepare(sql)
}

// PrepareContext is Prepare honouring ctx.
func (db *DB) PrepareContext(ctx context.Context, sql string) (*Stmt, error) {
	return db.session.DB().PrepareContext(ctx, sql)
}

// Begin opens a transaction and returns its handle — the typed equivalent of
// BEGIN ... COMMIT/ROLLBACK, but private to the handle. Any number of handles
// may be open at once, beside a SQL-text BEGIN too, each reading its own
// Begin-time snapshot; see sqldb.Tx.
func (db *DB) Begin() (*Tx, error) {
	return db.session.DB().Begin()
}

// BeginTx is Begin honouring ctx.
func (db *DB) BeginTx(ctx context.Context) (*Tx, error) {
	return db.session.DB().BeginTx(ctx)
}

// Conn opens a connection: its own statements plus the transaction SQL
// BEGIN opens on it, isolated from the DB's. The DB's own methods run on
// one default connection, so a SQL BEGIN sent to the DB is joined by every
// statement sent to the DB, from any goroutine. See sqldb.Conn.
func (db *DB) Conn() *Conn { return db.session.DB().Conn() }

// SQL exposes the underlying engine (UDF registration, direct access).
func (db *DB) SQL() *sqldb.DB { return db.session.DB() }

// Index access methods for CreateIndex.
const (
	IndexHash    = sqldb.IndexHash
	IndexOrdered = sqldb.IndexOrdered
)

// IndexInfo describes one secondary index.
type IndexInfo = sqldb.IndexInfo

// CreateIndex builds a secondary index on table(column). kind is IndexHash
// (equality lookups), IndexOrdered (equality + range), or "" for the
// default (ordered). Equivalent to CREATE INDEX name ON table (column).
func (db *DB) CreateIndex(name, table, column, kind string) error {
	return db.session.DB().CreateIndex(name, table, column, kind)
}

// DropIndex removes a secondary index by name.
func (db *DB) DropIndex(name string) error {
	return db.session.DB().DropIndex(name)
}

// Indexes lists the database's secondary indexes, ordered by (table, name).
func (db *DB) Indexes() []IndexInfo {
	return db.session.DB().Indexes()
}

// Analyze refreshes the planner statistics (row counts and per-column
// cardinalities) for one table, or for every table when name is empty —
// the typed equivalent of the ANALYZE statement.
func (db *DB) Analyze(table string) error {
	return db.session.DB().Analyze(table)
}

// EngineStats is a point-in-time snapshot of the engine's operational
// counters (commits, checkpoints, WAL records, open concurrent
// transactions); see sqldb.EngineStats. cmd/pgfmu-server surfaces it on
// /stats.
type EngineStats = sqldb.EngineStats

// EngineStats returns the engine's operational counters.
func (db *DB) EngineStats() EngineStats { return db.session.DB().EngineStats() }

// JobStats is a snapshot of the async job subsystem's counters (pool width,
// submissions, completions, failures, cancellations, live jobs).
type JobStats = core.JobStats

// JobStats returns the job subsystem's counters.
func (db *DB) JobStats() JobStats { return db.session.JobStats() }

// SimCacheStats is a snapshot of the content-addressed simulation result
// cache (entries, hits, misses, evictions, invalidations).
type SimCacheStats = core.CacheStats

// SimCacheStats returns the simulation cache counters.
func (db *DB) SimCacheStats() SimCacheStats { return db.session.SimCacheStats() }

// Session exposes the pgFMU core for advanced use.
func (db *DB) Session() *core.Session { return db.session }

// CreateModel implements fmu_create: modelRef is a .fmu path, a .mo path,
// or inline Modelica source; instanceID may be empty to auto-generate.
func (db *DB) CreateModel(modelRef, instanceID string) (string, error) {
	return db.session.Create(modelRef, instanceID)
}

// CopyInstance implements fmu_copy.
func (db *DB) CopyInstance(instanceID, newInstanceID string) (string, error) {
	return db.session.Copy(instanceID, newInstanceID)
}

// Variables implements fmu_variables: one row per model variable with
// varType, current initial value and bounds.
func (db *DB) Variables(instanceID string) (*Rows, error) {
	return db.session.Variables(instanceID)
}

// Get implements fmu_get: current value and bounds for one variable.
func (db *DB) Get(instanceID, varName string) (initial, minV, maxV Value, err error) {
	return db.session.Get(instanceID, varName)
}

// SetInitial implements fmu_set_initial.
func (db *DB) SetInitial(instanceID, varName string, v float64) error {
	return db.session.SetInitial(instanceID, varName, v)
}

// SetMinimum implements fmu_set_minimum.
func (db *DB) SetMinimum(instanceID, varName string, v float64) error {
	return db.session.SetMinimum(instanceID, varName, v)
}

// SetMaximum implements fmu_set_maximum.
func (db *DB) SetMaximum(instanceID, varName string, v float64) error {
	return db.session.SetMaximum(instanceID, varName, v)
}

// ResetInstance implements fmu_reset.
func (db *DB) ResetInstance(instanceID string) error {
	return db.session.Reset(instanceID)
}

// DeleteInstance implements fmu_delete_instance.
func (db *DB) DeleteInstance(instanceID string) error {
	return db.session.DeleteInstance(instanceID)
}

// DeleteModel implements fmu_delete_model (cascades to instances).
func (db *DB) DeleteModel(modelID string) error {
	return db.session.DeleteModel(modelID)
}

// Calibrate implements fmu_parest: estimate pars (nil = all parameters) of
// each instance against its input query, write fitted values back, and
// return per-instance errors.
func (db *DB) Calibrate(instanceIDs, inputSQLs, pars []string) ([]CalibrationResult, error) {
	return db.session.Parest(instanceIDs, inputSQLs, pars)
}

// CalibrateContext is Calibrate honouring ctx: cancellation aborts the
// search within one objective evaluation per worker, the transaction rolls
// back, and the instances keep their pre-call parameters.
func (db *DB) CalibrateContext(ctx context.Context, instanceIDs, inputSQLs, pars []string) ([]CalibrationResult, error) {
	return db.session.ParestContext(ctx, instanceIDs, inputSQLs, pars)
}

// Validate computes the hold-out RMSE of an instance's current parameters.
func (db *DB) Validate(instanceID, inputSQL string, pars []string) (float64, error) {
	return db.session.ValidateInstance(instanceID, inputSQL, pars)
}

// ValidateContext is Validate honouring ctx.
func (db *DB) ValidateContext(ctx context.Context, instanceID, inputSQL string, pars []string) (float64, error) {
	return db.session.ValidateInstanceContext(ctx, instanceID, inputSQL, pars)
}

// SimulateOptions mirrors fmu_simulate's optional arguments.
type SimulateOptions = core.SimulateRequest

// Simulate implements fmu_simulate, returning the Table-4-shaped relation
// (simulationTime, instanceId, varName, value).
func (db *DB) Simulate(req SimulateOptions) (*Rows, error) {
	return db.session.Simulate(req)
}

// SimulateContext is Simulate honouring ctx: cancellation is observed
// during integration stepping, aborting a long simulation mid-run.
func (db *DB) SimulateContext(ctx context.Context, req SimulateOptions) (*Rows, error) {
	return db.session.SimulateContext(ctx, req)
}

// ControlOptions mirrors fmu_control's arguments (§9 future work: in-DBMS
// FMU-based dynamic optimization).
type ControlOptions = core.ControlRequest

// Control implements fmu_control: optimize a control input over a horizon
// so a target state/output tracks a setpoint, returning the schedule and the
// predicted trajectory as a relation (time, varName, value).
func (db *DB) Control(req ControlOptions) (*Rows, error) {
	return db.session.Control(req)
}
