// Package core implements pgFMU itself — the paper's contribution: an
// in-DBMS model- and data-management environment for FMU-based physical
// models. A Session owns the model catalogue (the four tables of Figure 4:
// Model, ModelVariable, ModelInstance, ModelInstanceValues), the FMU storage,
// and the UDF suite (fmu_create, fmu_copy, fmu_variables, fmu_get,
// fmu_set_initial/minimum/maximum, fmu_reset, fmu_delete_instance,
// fmu_delete_model, fmu_parest, fmu_simulate), registered into the embedded
// SQL engine so every operation is reachable from plain SQL queries exactly
// as in §5–§7.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/estimate"
	"repro/internal/fmu"
	"repro/internal/sqldb"
	"repro/internal/variant"
)

// Session is one pgFMU environment: a database with the model catalogue
// and the FMU storage installed. Model instances live in the catalogue
// only.
type Session struct {
	db *sqldb.DB

	// mu guards units and seq. It is a leaf lock: see "Locking" below.
	mu sync.Mutex
	// units caches the loaded FMU of each model UUID, read from fmustorage
	// on first use (see unit). Loading an FMU once and sharing it across
	// instances is one of the paper's Challenge-3 optimizations. An archive
	// never changes under its UUID, so an entry may be dropped at any time.
	units map[string]*fmu.Unit
	// seq feeds generated instance identifiers.
	seq int

	// miOptimization enables the multi-instance warm-start path (pgFMU+).
	miOptimization bool
	// threshold is the MI similarity gate (relative L2); the paper sets 20%.
	threshold float64
	// estOpts configures the underlying estimator.
	estOpts estimate.Options
	// walSyncEvery is the group-commit knob for durable sessions (fsync
	// once per N commits; 1 = every commit).
	walSyncEvery int
	// lockWait overrides the bounded row/table lock wait (0 = keep the
	// engine default of one second).
	lockWait time.Duration

	// simcache is the content-addressed simulation result cache
	// (simcache.go); simCacheEntries bounds it (0 disables).
	simcache        *simCache
	simCacheEntries int
	// jobs is the async job subsystem (jobs.go); jobWorkers bounds its
	// worker pool. deferJobStart keeps the dispatcher parked until durable
	// recovery has settled the fmujobs table (OpenDurable starts it).
	jobs          *jobManager
	jobWorkers    int
	deferJobStart bool
}

// Option configures a Session.
type Option func(*Session)

// WithMIOptimization toggles the multi-instance optimization; on is the
// pgFMU+ configuration, off is pgFMU-.
func WithMIOptimization(on bool) Option {
	return func(s *Session) { s.miOptimization = on }
}

// WithThreshold sets the MI similarity gate (relative L2 fraction).
func WithThreshold(t float64) Option {
	return func(s *Session) { s.threshold = t }
}

// WithEstimateOptions overrides the estimator configuration.
func WithEstimateOptions(o estimate.Options) Option {
	return func(s *Session) { s.estOpts = o }
}

// WithWALSyncEvery sets the group-commit knob for durable sessions: the WAL
// is fsynced once every n commits (default 1 = every commit; larger values
// trade the durability of the last n-1 commits for INSERT throughput).
func WithWALSyncEvery(n int) Option {
	return func(s *Session) { s.walSyncEvery = n }
}

// WithLockWaitTimeout bounds how long a statement waits for a row or table
// lock held by a concurrent transaction before giving up (0 keeps the
// engine default of one second).
func WithLockWaitTimeout(d time.Duration) Option {
	return func(s *Session) { s.lockWait = d }
}

// WithJobWorkers bounds the async job subsystem's worker pool (fmu_submit /
// fmu_sweep execution slots). Default 4; n < 1 is clamped to 1.
func WithJobWorkers(n int) Option {
	return func(s *Session) {
		if n < 1 {
			n = 1
		}
		s.jobWorkers = n
	}
}

// WithSimCacheEntries bounds the content-addressed simulation result cache
// (default 128 trajectory frames; 0 disables caching).
func WithSimCacheEntries(n int) Option {
	return func(s *Session) { s.simCacheEntries = n }
}

// deferJobs keeps the job dispatcher parked; OpenDurable uses it so
// recovery settles the fmujobs table before any worker runs.
func deferJobs() Option {
	return func(s *Session) { s.deferJobStart = true }
}

// NewSession creates a database, installs the model catalogue and all pgFMU
// UDFs, and returns the session. MI optimization defaults to on (pgFMU+)
// with the paper's 20% threshold.
func NewSession(opts ...Option) (*Session, error) {
	s := &Session{
		db:             sqldb.New(),
		units:          make(map[string]*fmu.Unit),
		miOptimization: true,
		threshold:      estimate.DefaultSimilarityThreshold,
		estOpts: estimate.Options{
			GA: estimate.GAOptions{Population: 24, Generations: 16, Seed: 1},
		},
		walSyncEvery:    1,
		simCacheEntries: defaultSimCacheEntries,
		jobWorkers:      defaultJobWorkers,
	}
	for _, o := range opts {
		o(s)
	}
	if s.lockWait > 0 {
		s.db.SetLockWaitTimeout(s.lockWait)
	}
	s.simcache = newSimCache(s.simCacheEntries)
	s.jobs = newJobManager(s, s.jobWorkers)
	if err := s.installCatalog(); err != nil {
		return nil, err
	}
	if err := s.installStorage(); err != nil {
		return nil, err
	}
	s.registerUDFs()
	if !s.deferJobStart {
		s.jobs.start()
	}
	return s, nil
}

// SimCacheStats reports the simulation result cache counters.
func (s *Session) SimCacheStats() CacheStats { return s.simcache.stats() }

// JobStats reports the async job subsystem counters.
func (s *Session) JobStats() JobStats { return s.jobs.statsSnapshot() }

// DB exposes the underlying database for direct SQL.
func (s *Session) DB() *sqldb.DB { return s.db }

// Locking. s.mu is a leaf: it guards the unit cache and seq, is held for
// map reads/writes only, and is never held across a call into s.db, a
// simulation, an estimation or an MPC solve. An instance's values live in
// the catalogue alone: a reader builds a private fmu.Instance from
// modelinstancevalues through the querier it has (snapshot), so it sees what
// that querier's snapshot sees — committed data plus its own transaction's
// writes — and works lock-free. A writer's catalogue statement is its only
// publication: competing writers serialise on the table latches, the loser
// rolls back with ErrWriteConflict, and a rollback leaves nothing to undo
// outside the tables. See docs/architecture.md "Lock hierarchy".

// snapshot builds a private instance from the catalogue, read through q:
// the instance's modelinstancevalues rows (which carry its model UUID) on
// its model's unit. NULL values and outputs keep the model default. It
// returns the instance and its model UUID.
func (s *Session) snapshot(ctx context.Context, q querier, instanceID string) (*fmu.Instance, string, error) {
	rs, err := q.QueryContext(ctx,
		`SELECT modelid, varname, value FROM modelinstancevalues WHERE instanceid = $1`, instanceID)
	if err != nil {
		return nil, "", err
	}
	if len(rs.Rows) == 0 {
		return nil, "", fmt.Errorf("%w: %q", ErrNoSuchInstance, instanceID)
	}
	modelID := rs.Rows[0][0].AsText()
	unit, err := s.unit(ctx, q, modelID)
	if err != nil {
		return nil, "", err
	}
	inst := unit.Instantiate(instanceID)
	for _, r := range rs.Rows {
		name := r[1].AsText()
		if r[2].IsNull() || inst.KindOf(name) == fmu.VarOutput {
			continue
		}
		f, err := r[2].AsFloat()
		if err != nil {
			continue // non-numeric catalogue value: leave the default
		}
		if err := inst.SetReal(name, f); err != nil {
			return nil, "", fmt.Errorf("core: reading %s.%s: %w", instanceID, name, err)
		}
	}
	return inst, modelID, nil
}

// installCatalog creates the Figure-4 model catalogue tables.
func (s *Session) installCatalog() error {
	ddl := []string{
		`CREATE TABLE IF NOT EXISTS model (
			modelid text, modelname text, fmusize int)`,
		`CREATE TABLE IF NOT EXISTS modelvariable (
			modelid text, varname text, vartype text,
			initialvalue variant, minvalue variant, maxvalue variant)`,
		`CREATE TABLE IF NOT EXISTS modelinstance (
			instanceid text, modelid text)`,
		`CREATE TABLE IF NOT EXISTS modelinstancevalues (
			modelid text, instanceid text, varname text, value variant)`,
		fmujobsDDL,
	}
	for _, q := range ddl {
		if _, err := s.db.Exec(q); err != nil {
			return fmt.Errorf("core: installing catalogue: %w", err)
		}
	}
	return nil
}

// varType classifies a scalar variable for the ModelVariable table, matching
// the paper's terminology (input/output/parameter/state).
func varTypeOf(inst *fmu.Instance, name string) string {
	switch inst.KindOf(name) {
	case fmu.VarParameter:
		return "parameter"
	case fmu.VarInput:
		return "input"
	case fmu.VarState:
		return "state"
	case fmu.VarOutput:
		return "output"
	default:
		return "unknown"
	}
}

// Create implements fmu_create (Algorithm 1): load or compile modelRef,
// store the FMU in FMU storage, fill the catalogue, and register the
// instance. modelRef may be a .fmu path, a .mo path, or inline Modelica.
// instanceID may be empty to auto-generate one.
func (s *Session) Create(modelRef, instanceID string) (string, error) {
	unit, err := resolveModelRef(modelRef)
	if err != nil {
		return "", err
	}
	var id string
	err = s.inTx(context.Background(), sqldb.Exclusive, func(tx *sqldb.Tx) (err error) {
		id, err = s.create(context.Background(), tx, unit, instanceID)
		return err
	})
	return id, err
}

// inTx runs fn as one transaction begun in mode: committed when fn returns
// nil, rolled back when it fails. The typed catalogue writers run
// Exclusive, as their UDFs' statements do; calibration runs Concurrent.
func (s *Session) inTx(ctx context.Context, mode sqldb.TxMode, fn func(tx *sqldb.Tx) error) error {
	tx, err := s.db.BeginTx(ctx, mode)
	if err != nil {
		return err
	}
	if err := fn(tx); err != nil {
		return errors.Join(err, tx.Rollback())
	}
	return tx.Commit()
}

// querier runs SQL for a reader: a statement's or typed writer's *sqldb.Tx,
// or the *sqldb.DB on a typed read path.
type querier interface {
	QueryContext(ctx context.Context, sql string, args ...any) (*sqldb.ResultSet, error)
}

// create and the other catalogue writers below run their statements in tx:
// the invoking statement's transaction or a typed writer's.
func (s *Session) create(ctx context.Context, tx *sqldb.Tx, unit *fmu.Unit, instanceID string) (string, error) {
	modelID := unit.GUID
	instanceID, err := s.newInstanceID(ctx, tx, instanceID, unit.Model.Name+"_instance")
	if err != nil {
		return "", err
	}

	// Store the FMU once per model (Challenge 3); the UUID is the archive's
	// content identity, so a stored model's archive is this one.
	known, err := exists(ctx, tx, `SELECT count(*) FROM model WHERE modelid = $1`, modelID)
	if err != nil {
		return "", err
	}
	if !known {
		data, err := unit.Bytes()
		if err != nil {
			return "", err
		}
		if _, err := tx.QueryContext(ctx,
			`INSERT INTO model VALUES ($1, $2, $3)`,
			modelID, unit.Model.Name, len(data)); err != nil {
			return "", err
		}
		if err := s.storeFMU(ctx, tx, modelID, data); err != nil {
			return "", err
		}
		// ModelVariable rows: one per scalar variable with initial/min/max.
		probe := unit.Instantiate("probe")
		for _, sv := range unit.Description.ModelVariables.Variables {
			initial, minV, maxV := variantAttr(sv)
			if _, err := tx.QueryContext(ctx,
				`INSERT INTO modelvariable VALUES ($1, $2, $3, $4, $5, $6)`,
				modelID, sv.Name, varTypeOf(probe, sv.Name), initial, minV, maxV); err != nil {
				return "", err
			}
		}
		s.cacheUnit(unit)
	}
	return instanceID, s.addInstance(ctx, tx, unit.Instantiate(instanceID), modelID)
}

// newInstanceID returns id — or, when id is empty, a generated one — after
// checking through tx that modelinstance does not hold it. A generated id
// skips the ids already taken. An id a concurrent open transaction has
// written is refused later, by the modelinstance write latch.
func (s *Session) newInstanceID(ctx context.Context, tx *sqldb.Tx, id, prefix string) (string, error) {
	generated := id == ""
	for {
		if generated {
			s.mu.Lock()
			s.seq++
			id = fmt.Sprintf("%s_%d", prefix, s.seq)
			s.mu.Unlock()
		}
		taken, err := exists(ctx, tx, `SELECT count(*) FROM modelinstance WHERE instanceid = $1`, id)
		if err != nil || !taken {
			return id, err
		}
		if !generated {
			return "", fmt.Errorf("core: instance %q already exists", id)
		}
	}
}

// exists reports whether a count(*) query finds any row.
func exists(ctx context.Context, q querier, sql string, args ...any) (bool, error) {
	rs, err := q.QueryContext(ctx, sql, args...)
	if err != nil {
		return false, err
	}
	return rs.Rows[0][0].Int() > 0, nil
}

// addInstance catalogues a new instance: its ModelInstance row plus one
// ModelInstanceValues row per variable.
func (s *Session) addInstance(ctx context.Context, tx *sqldb.Tx, inst *fmu.Instance, modelID string) error {
	id := inst.Name()
	if _, err := tx.QueryContext(ctx, `INSERT INTO modelinstance VALUES ($1, $2)`, id, modelID); err != nil {
		return err
	}
	for _, sv := range inst.Unit().Description.ModelVariables.Variables {
		if _, err := tx.QueryContext(ctx,
			`INSERT INTO modelinstancevalues VALUES ($1, $2, $3, $4)`,
			modelID, id, sv.Name, valueOf(inst, sv.Name)); err != nil {
			return err
		}
	}
	return nil
}

// valueOf renders an instance variable for the catalogue: NULL for computed
// outputs and variables without a value.
func valueOf(inst *fmu.Instance, name string) variant.Value {
	if v, err := inst.GetReal(name); err == nil {
		return variant.NewFloat(v)
	}
	return variant.NewNull()
}

// variantAttr converts the XML attributes to variant catalogue values.
func variantAttr(sv fmu.ScalarVariable) (initial, minV, maxV variant.Value) {
	initial, minV, maxV = variant.NewNull(), variant.NewNull(), variant.NewNull()
	if sv.Real == nil {
		return
	}
	if sv.Real.Start != "" {
		initial = variant.Parse(sv.Real.Start)
	}
	if sv.Real.Min != "" {
		minV = variant.Parse(sv.Real.Min)
	}
	if sv.Real.Max != "" {
		maxV = variant.Parse(sv.Real.Max)
	}
	return
}

// resolveModelRef turns a model reference into a Unit: a .fmu file path, a
// .mo file path, or inline Modelica source.
func resolveModelRef(modelRef string) (*fmu.Unit, error) {
	ref := strings.TrimSpace(modelRef)
	switch {
	case strings.HasSuffix(ref, ".fmu"):
		return fmu.Load(ref)
	case strings.HasSuffix(ref, ".mo"):
		src, err := os.ReadFile(ref)
		if err != nil {
			return nil, fmt.Errorf("core: reading %s: %w", ref, err)
		}
		return fmu.CompileModelica(string(src))
	case strings.Contains(ref, "model "):
		return fmu.CompileModelica(ref)
	default:
		return nil, fmt.Errorf("core: model reference %q is neither a .fmu path, a .mo path, nor inline Modelica", modelRef)
	}
}

// Copy implements fmu_copy: duplicate an instance (values included) under a
// new identifier, reusing the stored FMU.
func (s *Session) Copy(instanceID, newInstanceID string) (string, error) {
	var id string
	err := s.inTx(context.Background(), sqldb.Exclusive, func(tx *sqldb.Tx) (err error) {
		id, err = s.copy(context.Background(), tx, instanceID, newInstanceID)
		return err
	})
	return id, err
}

func (s *Session) copy(ctx context.Context, tx *sqldb.Tx, instanceID, newInstanceID string) (string, error) {
	src, modelID, err := s.snapshot(ctx, tx, instanceID)
	if err != nil {
		return "", err
	}
	newInstanceID, err = s.newInstanceID(ctx, tx, newInstanceID, instanceID+"_copy")
	if err != nil {
		return "", err
	}
	return newInstanceID, s.addInstance(ctx, tx, src.Clone(newInstanceID), modelID)
}

// setValue updates one variable of an instance in the catalogue; which of
// initial/min/max is written depends on attr.
func (s *Session) setValue(ctx context.Context, tx *sqldb.Tx, instanceID, varName, attr string, value float64) error {
	inst, modelID, err := s.snapshot(ctx, tx, instanceID)
	if err != nil {
		return err
	}
	switch attr {
	case "initial":
		// The snapshot takes the value first: it rejects unknown variables
		// and computed outputs before anything is written.
		if err := inst.SetReal(varName, value); err != nil {
			return err
		}
		_, err := tx.QueryContext(ctx,
			`UPDATE modelinstancevalues SET value = $1
			 WHERE instanceid = $2 AND varname = $3`,
			value, instanceID, varName)
		return err
	case "min", "max":
		if inst.KindOf(varName) == fmu.VarUnknown {
			return fmt.Errorf("%w: %q", ErrNoSuchVariable, varName)
		}
		col := "minvalue"
		if attr == "max" {
			col = "maxvalue"
		}
		_, err := tx.QueryContext(ctx,
			`UPDATE modelvariable SET `+col+` = $1
			 WHERE modelid = $2 AND varname = $3`,
			value, modelID, varName)
		return err
	default:
		return fmt.Errorf("core: unknown attribute %q", attr)
	}
}

// SetInitial implements fmu_set_initial.
func (s *Session) SetInitial(instanceID, varName string, value float64) error {
	return s.setTyped(instanceID, varName, "initial", value)
}

// SetMinimum implements fmu_set_minimum.
func (s *Session) SetMinimum(instanceID, varName string, value float64) error {
	return s.setTyped(instanceID, varName, "min", value)
}

// SetMaximum implements fmu_set_maximum.
func (s *Session) SetMaximum(instanceID, varName string, value float64) error {
	return s.setTyped(instanceID, varName, "max", value)
}

func (s *Session) setTyped(instanceID, varName, attr string, value float64) error {
	ctx := context.Background()
	return s.inTx(ctx, sqldb.Exclusive, func(tx *sqldb.Tx) error {
		return s.setValue(ctx, tx, instanceID, varName, attr, value)
	})
}

// Get implements fmu_get: the current value plus catalogue min/max for one
// variable.
func (s *Session) Get(instanceID, varName string) (initial, minV, maxV variant.Value, err error) {
	return s.get(context.Background(), s.db, instanceID, varName)
}

func (s *Session) get(ctx context.Context, q querier, instanceID, varName string) (initial, minV, maxV variant.Value, err error) {
	inst, modelID, err := s.snapshot(ctx, q, instanceID)
	if err != nil {
		return variant.Value{}, variant.Value{}, variant.Value{}, err
	}
	if inst.KindOf(varName) == fmu.VarUnknown {
		return variant.Value{}, variant.Value{}, variant.Value{}, fmt.Errorf("%w: %q", ErrNoSuchVariable, varName)
	}
	rs, err := q.QueryContext(ctx,
		`SELECT minvalue, maxvalue FROM modelvariable WHERE modelid = $1 AND varname = $2`,
		modelID, varName)
	if err != nil {
		return variant.Value{}, variant.Value{}, variant.Value{}, err
	}
	minV, maxV = variant.NewNull(), variant.NewNull()
	if len(rs.Rows) > 0 {
		minV, maxV = rs.Rows[0][0], rs.Rows[0][1]
	}
	return valueOf(inst, varName), minV, maxV, nil
}

// Reset implements fmu_reset: restore the instance to model defaults and
// refresh the catalogue values.
func (s *Session) Reset(instanceID string) error {
	ctx := context.Background()
	return s.inTx(ctx, sqldb.Exclusive, func(tx *sqldb.Tx) error { return s.reset(ctx, tx, instanceID) })
}

func (s *Session) reset(ctx context.Context, tx *sqldb.Tx, instanceID string) error {
	inst, _, err := s.snapshot(ctx, tx, instanceID)
	if err != nil {
		return err
	}
	inst.Reset()
	for _, sv := range inst.Unit().Description.ModelVariables.Variables {
		if _, err := tx.QueryContext(ctx,
			`UPDATE modelinstancevalues SET value = $1
			 WHERE instanceid = $2 AND varname = $3`,
			valueOf(inst, sv.Name), instanceID, sv.Name); err != nil {
			return err
		}
	}
	return nil
}

// DeleteInstance implements fmu_delete_instance.
func (s *Session) DeleteInstance(instanceID string) error {
	ctx := context.Background()
	return s.inTx(ctx, sqldb.Exclusive, func(tx *sqldb.Tx) error { return s.deleteInstance(ctx, tx, instanceID) })
}

func (s *Session) deleteInstance(ctx context.Context, tx *sqldb.Tx, instanceID string) error {
	n, err := tx.ExecContext(ctx, `DELETE FROM modelinstance WHERE instanceid = $1`, instanceID)
	if err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("%w: %q", ErrNoSuchInstance, instanceID)
	}
	_, err = tx.ExecContext(ctx, `DELETE FROM modelinstancevalues WHERE instanceid = $1`, instanceID)
	return err
}

// DeleteModel implements fmu_delete_model: remove the FMU and cascade to all
// its instances.
func (s *Session) DeleteModel(modelID string) error {
	ctx := context.Background()
	return s.inTx(ctx, sqldb.Exclusive, func(tx *sqldb.Tx) error { return s.deleteModel(ctx, tx, modelID) })
}

func (s *Session) deleteModel(ctx context.Context, tx *sqldb.Tx, modelID string) error {
	n, err := tx.ExecContext(ctx, `DELETE FROM model WHERE modelid = $1`, modelID)
	if err != nil {
		return err
	}
	if n == 0 {
		return fmt.Errorf("core: unknown model %q", modelID)
	}
	for _, q := range []string{
		`DELETE FROM modelvariable WHERE modelid = $1`,
		`DELETE FROM modelinstance WHERE modelid = $1`,
		`DELETE FROM modelinstancevalues WHERE modelid = $1`,
		`DELETE FROM fmustorage WHERE modelid = $1`,
	} {
		if _, err := tx.ExecContext(ctx, q, modelID); err != nil {
			return err
		}
	}
	// Eviction is always safe: if tx rolls back, the next use reloads the
	// unit from fmustorage.
	s.mu.Lock()
	delete(s.units, modelID)
	s.mu.Unlock()
	return nil
}

// Variables implements fmu_variables: the catalogue view of all variables of
// an instance with current initial values.
func (s *Session) Variables(instanceID string) (*sqldb.ResultSet, error) {
	return s.variables(context.Background(), s.db, instanceID)
}

func (s *Session) variables(ctx context.Context, q querier, instanceID string) (*sqldb.ResultSet, error) {
	inst, modelID, err := s.snapshot(ctx, q, instanceID)
	if err != nil {
		return nil, err
	}
	rs, err := q.QueryContext(ctx,
		`SELECT varname, vartype, minvalue, maxvalue FROM modelvariable WHERE modelid = $1`,
		modelID)
	if err != nil {
		return nil, err
	}
	out := &sqldb.ResultSet{Columns: []sqldb.Column{
		{Name: "instanceId", Type: "text"},
		{Name: "varName", Type: "text"},
		{Name: "varType", Type: "text"},
		{Name: "initialValue", Type: "variant"},
		{Name: "minValue", Type: "variant"},
		{Name: "maxValue", Type: "variant"},
	}}
	for _, r := range rs.Rows {
		out.Rows = append(out.Rows, sqldb.Row{
			variant.NewText(instanceID), r[0], r[1], valueOf(inst, r[0].AsText()), r[2], r[3],
		})
	}
	return out, nil
}

// parameterBounds reads the min/max bounds of a catalogued variable (the
// estimation bounds of a parameter, the range of a control input); a missing
// bound is NaN.
func (s *Session) parameterBounds(ctx context.Context, q querier, modelID, varName string) (lo, hi float64, err error) {
	rs, err := q.QueryContext(ctx,
		`SELECT minvalue, maxvalue FROM modelvariable WHERE modelid = $1 AND varname = $2`,
		modelID, varName)
	if err != nil {
		return 0, 0, err
	}
	lo, hi = math.NaN(), math.NaN()
	if len(rs.Rows) > 0 {
		if !rs.Rows[0][0].IsNull() {
			if f, err := rs.Rows[0][0].AsFloat(); err == nil {
				lo = f
			}
		}
		if !rs.Rows[0][1].IsNull() {
			if f, err := rs.Rows[0][1].AsFloat(); err == nil {
				hi = f
			}
		}
	}
	return lo, hi, nil
}
