package core

import (
	"context"
	"encoding/base64"
	"fmt"
	"io"

	"repro/internal/fmu"
	"repro/internal/sqldb"
)

// defaultAutoCheckpointEvery bounds WAL growth (and so recovery time) on
// durable sessions: after this many logged records, the next commit folds
// the WAL into a fresh snapshot.
const defaultAutoCheckpointEvery = 4096

// The fmustorage table persists the .fmu archives themselves (base64 text),
// making the catalogue self-contained: a dumped database carries everything
// needed to rebuild the session — the paper's "FMU storage (non-volatile
// memory)".

func (s *Session) installStorage() error {
	_, err := s.db.Exec(
		`CREATE TABLE IF NOT EXISTS fmustorage (modelid text, content text)`)
	if err != nil {
		return fmt.Errorf("core: installing FMU storage: %w", err)
	}
	return nil
}

// storeFMU persists the archive bytes for a model.
func (s *Session) storeFMU(ctx context.Context, tx *sqldb.Tx, modelID string, data []byte) error {
	encoded := base64.StdEncoding.EncodeToString(data)
	_, err := tx.QueryContext(ctx, `INSERT INTO fmustorage VALUES ($1, $2)`, modelID, encoded)
	return err
}

// Dump writes the whole environment (catalogue, FMU archives, user tables)
// as a SQL script.
func (s *Session) Dump(w io.Writer) error {
	return s.db.Dump(w)
}

// RestoreSession rebuilds a live session from a database that carries a
// dumped pgFMU catalogue: FMUs are re-read from fmustorage and every
// catalogued instance is re-instantiated with its persisted variable values.
func RestoreSession(dump io.Reader, opts ...Option) (*Session, error) {
	s, err := NewSession(append(append([]Option{}, opts...), deferJobs())...)
	if err != nil {
		return nil, err
	}
	// Drop the freshly installed empty catalogue; the dump recreates it.
	for _, t := range []string{"model", "modelvariable", "modelinstance", "modelinstancevalues", "fmustorage", "fmujobs"} {
		if _, err := s.db.Exec("DROP TABLE IF EXISTS " + t); err != nil {
			return nil, err
		}
	}
	if err := s.db.Restore(dump); err != nil {
		return nil, err
	}
	if err := s.rehydrate(); err != nil {
		return nil, err
	}
	// Dumps predating the job subsystem carry no fmujobs table; jobs that
	// were running when the dump was taken cannot resume from it.
	if err := s.recoverJobs(); err != nil {
		return nil, err
	}
	s.jobs.start()
	return s, nil
}

// OpenDurable opens (or creates) a crash-safe session rooted at dir. The
// directory holds a snapshot (the Dump format) plus a write-ahead log; on
// open, the snapshot is restored, committed WAL transactions are replayed
// on top (truncating any torn tail a crash left behind), and the FMU
// catalogue is rehydrated — so models, calibrated instances, and user
// tables all survive a process kill. Durability knobs: WithWALSyncEvery
// (group commit) and WithAutoCheckpointEvery.
func OpenDurable(dir string, opts ...Option) (*Session, error) {
	// Job workers stay parked until recovery finishes: the snapshot restore
	// below replaces the whole catalogue, and running a queued job against a
	// half-recovered database would corrupt it.
	s, err := NewSession(append(append([]Option{}, opts...), deferJobs())...)
	if err != nil {
		return nil, err
	}
	if err := s.db.EnableDurability(dir, sqldb.DurabilityOptions{
		SyncEvery:       s.walSyncEvery,
		CheckpointEvery: s.autoCheckpointEvery,
	}); err != nil {
		return nil, fmt.Errorf("core: opening durable session: %w", err)
	}
	if err := s.rehydrate(); err != nil {
		// Release the WAL descriptor and the directory's single-opener
		// lock, or a retry in this process would see the directory as
		// still held.
		s.db.Close()
		return nil, err
	}
	// Crash protocol for jobs: the restored snapshot may predate the job
	// subsystem (ensure the table), jobs that died mid-run become
	// 'interrupted', and still-queued rows re-dispatch once the pool starts.
	if err := s.recoverJobs(); err != nil {
		s.db.Close()
		return nil, err
	}
	s.jobs.start()
	return s, nil
}

// Checkpoint folds the session's WAL into a fresh snapshot — a manual
// durability point that bounds the next open's recovery work. It errors on
// in-memory sessions.
func (s *Session) Checkpoint() error { return s.db.Checkpoint() }

// Close stops the job worker pool (cancelling live jobs; queued rows stay
// queued for the next open), then flushes and detaches a durable session's
// WAL; in-memory sessions close trivially. The catalogue stays usable, but
// further writes are no longer logged.
func (s *Session) Close() error {
	s.jobs.shutdown()
	return s.db.Close()
}

// rehydrate loads units and instances from the catalogue tables. It runs
// during open, before the session is shared, and publishes the rebuilt maps
// at the end.
func (s *Session) rehydrate() error {
	// Required catalogue tables must exist after the restore.
	for _, t := range []string{"model", "modelvariable", "modelinstance", "modelinstancevalues", "fmustorage"} {
		if !s.db.HasTable(t) {
			return fmt.Errorf("core: restored database is missing catalogue table %q", t)
		}
	}

	units := make(map[string]*fmu.Unit)
	stored, err := s.db.Query(`SELECT modelid, content FROM fmustorage`)
	if err != nil {
		return err
	}
	for _, row := range stored.Rows {
		modelID := row[0].AsText()
		data, err := base64.StdEncoding.DecodeString(row[1].AsText())
		if err != nil {
			return fmt.Errorf("core: decoding stored FMU %s: %w", modelID, err)
		}
		unit, err := fmu.Read(data)
		if err != nil {
			return fmt.Errorf("core: reading stored FMU %s: %w", modelID, err)
		}
		if unit.GUID != modelID {
			return fmt.Errorf("core: stored FMU %s has mismatched GUID %s", modelID, unit.GUID)
		}
		units[modelID] = unit
	}

	instances := make(map[string]*fmu.Instance)
	instanceModel := make(map[string]string)
	rows, err := s.db.Query(`SELECT instanceid, modelid FROM modelinstance`)
	if err != nil {
		return err
	}
	for _, row := range rows.Rows {
		instanceID, modelID := row[0].AsText(), row[1].AsText()
		unit, ok := units[modelID]
		if !ok {
			return fmt.Errorf("core: instance %q references unknown model %q", instanceID, modelID)
		}
		inst := unit.Instantiate(instanceID)
		values, err := s.db.Query(
			`SELECT varname, value FROM modelinstancevalues WHERE instanceid = $1`, instanceID)
		if err != nil {
			return err
		}
		for _, vr := range values.Rows {
			if vr[1].IsNull() {
				continue
			}
			f, err := vr[1].AsFloat()
			if err != nil {
				continue // non-numeric catalogue value: leave the default
			}
			// Outputs are not settable; skip silently.
			if inst.KindOf(vr[0].AsText()) == fmu.VarOutput {
				continue
			}
			if err := inst.SetReal(vr[0].AsText(), f); err != nil {
				return fmt.Errorf("core: restoring %s.%s: %w", instanceID, vr[0].AsText(), err)
			}
		}
		instances[instanceID] = inst
		instanceModel[instanceID] = modelID
	}

	s.mu.Lock()
	s.units, s.instances, s.instanceModel = units, instances, instanceModel
	s.mu.Unlock()
	return nil
}
