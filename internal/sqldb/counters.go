package sqldb

// EngineStats is a point-in-time snapshot of the engine's operational
// counters — the numbers a monitoring endpoint (cmd/pgfmu-server's /stats)
// or an operator wants without poking at internals. All counters reset at
// Open; none of them affect execution.
type EngineStats struct {
	// Tables is the number of user tables in the catalogue.
	Tables int
	// Commits counts committed transactions (implicit single-statement
	// transactions included) since open.
	Commits uint64
	// Checkpoints counts successful WAL checkpoints since open.
	Checkpoints uint64
	// WALRecords counts WAL records appended since open (0 when the
	// database is not durable).
	WALRecords uint64
	// WALGeneration is the current WAL generation number (0 when not
	// durable); it advances by one per checkpoint.
	WALGeneration int
	// ActiveTxns is the number of concurrent transaction handles (db.Begin)
	// currently open.
	ActiveTxns int
	// Durable reports whether a write-ahead log is attached.
	Durable bool
}

// EngineStats returns the engine's operational counters. Safe for
// concurrent use, and takes no lock; the snapshot is internally consistent
// enough for monitoring (counters are read individually).
func (db *DB) EngineStats() EngineStats {
	s := EngineStats{
		Tables:      len(db.TableNames()),
		Commits:     db.commitCount.Load(),
		Checkpoints: db.checkpointCount.Load(),
		WALRecords:  db.walRecordCount.Load(),
		ActiveTxns:  db.snaps.count(),
	}
	if w := db.wal.Load(); w != nil {
		s.Durable = true
		s.WALGeneration = w.gen
	}
	return s
}
