package core

import (
	"context"
	"encoding/base64"
	"fmt"

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

// unit returns the loaded FMU of a model: the cached one, or the archive
// read from fmustorage through q, which it then caches.
func (s *Session) unit(ctx context.Context, q querier, modelID string) (*fmu.Unit, error) {
	s.mu.Lock()
	unit, ok := s.units[modelID]
	s.mu.Unlock()
	if ok {
		return unit, nil
	}
	rs, err := q.QueryContext(ctx, `SELECT content FROM fmustorage WHERE modelid = $1`, modelID)
	if err != nil {
		return nil, err
	}
	if len(rs.Rows) == 0 {
		return nil, fmt.Errorf("core: unknown model %q", modelID)
	}
	data, err := base64.StdEncoding.DecodeString(rs.Rows[0][0].AsText())
	if err != nil {
		return nil, fmt.Errorf("core: decoding stored FMU %s: %w", modelID, err)
	}
	if unit, err = fmu.Read(data); err != nil {
		return nil, fmt.Errorf("core: reading stored FMU %s: %w", modelID, err)
	}
	if unit.GUID != modelID {
		return nil, fmt.Errorf("core: stored FMU %s has mismatched GUID %s", modelID, unit.GUID)
	}
	s.cacheUnit(unit)
	return unit, nil
}

// cacheUnit keeps a loaded FMU for reuse under its model UUID.
func (s *Session) cacheUnit(unit *fmu.Unit) {
	s.mu.Lock()
	s.units[unit.GUID] = unit
	s.mu.Unlock()
}

// OpenDurable opens (or creates) a crash-safe session rooted at dir. The
// directory holds a snapshot (the Dump format) plus a write-ahead log; on
// open, the snapshot is restored, committed WAL transactions are replayed
// on top (truncating any torn tail a crash left behind), and the FMU
// catalogue is checked — so models, calibrated instances, and user tables
// all survive a process kill. WithWALSyncEvery is the group-commit knob;
// the WAL is folded into a fresh snapshot every defaultAutoCheckpointEvery
// records. A Dump placed as <dir>/snapshot.sql opens the same way: that is
// how a database is copied or migrated.
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
		CheckpointEvery: defaultAutoCheckpointEvery,
	}); err != nil {
		return nil, fmt.Errorf("core: opening durable session: %w", err)
	}
	if err := s.checkCatalog(); err != nil {
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

// checkCatalog refuses a restored database that lacks a catalogue table.
func (s *Session) checkCatalog() error {
	for _, t := range []string{"model", "modelvariable", "modelinstance", "modelinstancevalues", "fmustorage"} {
		if !s.db.HasTable(t) {
			return fmt.Errorf("core: restored database is missing catalogue table %q", t)
		}
	}
	return nil
}
