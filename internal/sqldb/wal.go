package sqldb

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/variant"
)

// Write-ahead logging and crash recovery.
//
// A durable database lives in a directory:
//
//	<dir>/snapshot.sql   full dump (the existing Dump format) prefixed with
//	                     a generation header comment
//	<dir>/wal-NNNNNN.log the write-ahead log for that generation
//
// Each committed transaction appends its records plus a commit marker and
// (subject to the group-commit knob) fsyncs. A record frame is
//
//	uint32 LE payload length | uint32 LE CRC-32 (IEEE) of payload | payload
//
// where the payload is a JSON walRecord. Recovery replays, in order, every
// transaction that ends in a commit marker; anything after the last commit
// marker — an uncommitted transaction or a torn tail from a crash
// mid-write — is truncated away.
//
// Checkpointing rotates generations so a crash at any point yields a
// consistent (snapshot, WAL) pair: first the next generation's empty WAL is
// created and synced, then the new snapshot (naming that generation) is
// written to a temp file and atomically renamed over snapshot.sql, and only
// then is the previous WAL deleted. A crash before the rename recovers from
// the old pair; after it, from the new.

const (
	snapshotFile   = "snapshot.sql"
	snapshotTmp    = "snapshot.sql.tmp"
	snapshotHeader = "-- pgfmu snapshot generation="
	walFilePattern = "wal-*.log"
	// pagedImageFile is the page file of the retired paged storage format.
	// A directory holding one is refused, never silently reinterpreted.
	pagedImageFile = "pages.db"
	// maxWALFrame bounds a frame's declared payload size; anything larger is
	// treated as a torn/corrupt tail.
	maxWALFrame = 1 << 30
)

// DurabilityOptions tunes EnableDurability.
type DurabilityOptions struct {
	// SyncEvery is the group-commit knob: fsync the WAL once every N
	// commits (default/minimum 1 = fsync at every commit). Larger values
	// trade the durability of the last N-1 commits for write throughput.
	SyncEvery int
	// CheckpointEvery triggers an automatic checkpoint after N logged
	// records (0 = manual checkpoints only).
	CheckpointEvery int
}

// walRecord is one logged unit. Op selects the shape:
//
//	"stmt"   logical record: re-executable SQL text plus bound parameters
//	         (DDL, and builtin-only DML of a transaction holding db.mu
//	         exclusively from begin to end)
//	"ins"    physical record: one row version inserted into Table
//	"upd"    physical record: the visible row matching Old superseded by Row
//	"del"    physical record: the visible row matching Old deleted
//	"commit" transaction boundary
//
// Physical records identify rows by value, not position: under concurrent
// transactions a slot index is meaningless (each session sees its own
// snapshot of the version arrays), while replaying commits in WAL order
// against latest-committed visibility makes value matching deterministic —
// the log's commit order is the stamp order (see DB.commitTxn).
type walRecord struct {
	Op     string     `json:"op"`
	SQL    string     `json:"sql,omitempty"`
	Params []walValue `json:"params,omitempty"`
	Table  string     `json:"table,omitempty"`
	Old    []walValue `json:"old,omitempty"`
	Row    []walValue `json:"row,omitempty"`
}

// walValue is a kind-tagged variant encoding that round-trips losslessly
// (unlike SQL literals, a text value is never confused with a timestamp).
type walValue struct {
	K string `json:"k"`
	V string `json:"v,omitempty"`
}

func encodeWALValue(v variant.Value) walValue {
	switch v.Kind() {
	case variant.Bool:
		if v.Bool() {
			return walValue{K: "b", V: "t"}
		}
		return walValue{K: "b", V: "f"}
	case variant.Int:
		return walValue{K: "i", V: strconv.FormatInt(v.Int(), 10)}
	case variant.Float:
		return walValue{K: "f", V: strconv.FormatFloat(v.Float(), 'g', -1, 64)}
	case variant.Text:
		return walValue{K: "s", V: v.Text()}
	case variant.Time:
		return walValue{K: "t", V: v.Time().Format(time.RFC3339Nano)}
	default:
		return walValue{K: "z"}
	}
}

func decodeWALValue(w walValue) (variant.Value, error) {
	switch w.K {
	case "z":
		return variant.NewNull(), nil
	case "b":
		return variant.NewBool(w.V == "t"), nil
	case "i":
		i, err := strconv.ParseInt(w.V, 10, 64)
		if err != nil {
			return variant.Value{}, fmt.Errorf("sql: wal integer %q: %w", w.V, err)
		}
		return variant.NewInt(i), nil
	case "f":
		f, err := strconv.ParseFloat(w.V, 64)
		if err != nil {
			return variant.Value{}, fmt.Errorf("sql: wal float %q: %w", w.V, err)
		}
		return variant.NewFloat(f), nil
	case "s":
		return variant.NewText(w.V), nil
	case "t":
		t, err := time.Parse(time.RFC3339Nano, w.V)
		if err != nil {
			return variant.Value{}, fmt.Errorf("sql: wal timestamp %q: %w", w.V, err)
		}
		return variant.NewTime(t), nil
	default:
		return variant.Value{}, fmt.Errorf("sql: unknown wal value kind %q", w.K)
	}
}

func encodeWALValues(vals []variant.Value) []walValue {
	if len(vals) == 0 {
		return nil
	}
	out := make([]walValue, len(vals))
	for i, v := range vals {
		out[i] = encodeWALValue(v)
	}
	return out
}

func decodeWALValues(ws []walValue) ([]variant.Value, error) {
	if len(ws) == 0 {
		return nil, nil
	}
	out := make([]variant.Value, len(ws))
	for i, w := range ws {
		v, err := decodeWALValue(w)
		if err != nil {
			return nil, err
		}
		out[i] = v
	}
	return out, nil
}

func stmtWALRecord(text string, params []variant.Value) walRecord {
	return walRecord{Op: "stmt", SQL: text, Params: encodeWALValues(params)}
}

// appendFrame serializes one record into buf.
func appendFrame(buf *bytes.Buffer, rec walRecord) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("sql: encoding wal record: %w", err)
	}
	var hdr [8]byte
	binary.LittleEndian.PutUint32(hdr[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:8], crc32.ChecksumIEEE(payload))
	buf.Write(hdr[:])
	buf.Write(payload)
	return nil
}

// readWALTxns reads a WAL file and decodes it with decodeWALTxns. A missing
// file is an empty log.
func readWALTxns(path string) (txns [][]walRecord, keep int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, 0, nil
		}
		return nil, 0, err
	}
	txns, keep = decodeWALTxns(data)
	return txns, keep, nil
}

// decodeWALTxns returns a log's committed transactions in order, plus the
// byte offset just past the last commit marker. Torn or corrupt tails
// (short frame, CRC mismatch, bad JSON) and trailing uncommitted records
// end the scan cleanly — they are exactly what recovery truncates.
func decodeWALTxns(data []byte) (txns [][]walRecord, keep int64) {
	off := 0
	var cur []walRecord
	for {
		if off+8 > len(data) {
			break
		}
		n := int(binary.LittleEndian.Uint32(data[off : off+4]))
		sum := binary.LittleEndian.Uint32(data[off+4 : off+8])
		if n > maxWALFrame || off+8+n > len(data) {
			break
		}
		payload := data[off+8 : off+8+n]
		if crc32.ChecksumIEEE(payload) != sum {
			break
		}
		var rec walRecord
		if json.Unmarshal(payload, &rec) != nil {
			break
		}
		off += 8 + n
		if rec.Op == "commit" {
			txns = append(txns, cur)
			cur = nil
			keep = int64(off)
		} else {
			cur = append(cur, rec)
		}
	}
	return txns, keep
}

// wal is the open write-ahead log of a durable database. Appends (commit
// and the counters it advances) are guarded by the owning DB's commitMu;
// structural changes — attachment, rotation, close — additionally hold the
// DB's exclusive lock, which excludes every committer (concurrent
// transactions commit under the shared lock).
type wal struct {
	dir string
	gen int
	f   *os.File
	// lock holds the directory's single-opener flock for the life of the
	// attachment (released by Close, or by the kernel on process death).
	lock *os.File
	// off is the committed end of the log: the offset every successful
	// commit advances to, and the point a failed commit rolls the file back
	// to so a torn frame can never sit in front of later commits.
	off             int64
	syncEvery       int
	checkpointEvery int

	commitsSinceSync       int
	recordsSinceCheckpoint int

	// failed poisons the log after an append failure that could not be
	// rolled back: the on-disk tail is unknown, so accepting further
	// commits could silently lose them at recovery (the scan stops at the
	// torn frame). Checkpointing rebuilds a clean generation and clears it.
	failed bool
}

func walGenPath(dir string, gen int) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%06d.log", gen))
}

// commit appends a transaction's records plus the commit marker in a single
// write, then fsyncs per the group-commit policy. On failure the file is
// rolled back to the last committed offset; if even that fails, the log is
// poisoned and every later commit errors until a checkpoint rotates it.
func (w *wal) commit(recs []walRecord) error {
	if w.failed {
		return fmt.Errorf("sql: wal failed a previous append and may be torn; checkpoint to rotate it")
	}
	var buf bytes.Buffer
	for _, rec := range recs {
		if err := appendFrame(&buf, rec); err != nil {
			return err
		}
	}
	if err := appendFrame(&buf, walRecord{Op: "commit"}); err != nil {
		return err
	}
	if _, err := w.f.Write(buf.Bytes()); err != nil {
		w.rollbackTail()
		return fmt.Errorf("sql: appending to wal: %w", err)
	}
	if w.commitsSinceSync+1 >= w.syncEvery {
		if err := w.f.Sync(); err != nil {
			// The frames are written but not durable; keeping them would let
			// a crash resurrect this rolled-back transaction.
			w.rollbackTail()
			return fmt.Errorf("sql: syncing wal: %w", err)
		}
		w.commitsSinceSync = 0
	} else {
		w.commitsSinceSync++
	}
	w.off += int64(buf.Len())
	w.recordsSinceCheckpoint += len(recs)
	return nil
}

// rollbackTail discards everything past the last committed offset after a
// failed append, poisoning the log if the file cannot be restored.
func (w *wal) rollbackTail() {
	if err := w.f.Truncate(w.off); err != nil {
		w.failed = true
		return
	}
	if _, err := w.f.Seek(w.off, io.SeekStart); err != nil {
		w.failed = true
	}
}

// snapshotGeneration parses the generation header of a snapshot file
// (absent header = generation 0, for forward compatibility with plain
// dumps placed by hand).
func snapshotGeneration(script string) int {
	line, _, _ := strings.Cut(script, "\n")
	if rest, ok := strings.CutPrefix(line, snapshotHeader); ok {
		if g, err := strconv.Atoi(strings.TrimSpace(rest)); err == nil && g >= 0 {
			return g
		}
	}
	return 0
}

// EnableDurability attaches a write-ahead log rooted at dir to the
// database, recovering any state a previous process left there: the
// snapshot (if present) replaces the current table set, committed WAL
// transactions are replayed on top, and a torn or uncommitted WAL tail is
// truncated. After it returns, every committed transaction survives a
// process kill. Call it once, before the database serves queries.
func (db *DB) EnableDurability(dir string, o DurabilityOptions) error {
	if o.SyncEvery < 1 {
		o.SyncEvery = 1
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.wal != nil {
		return fmt.Errorf("sql: durability already enabled (dir %s)", db.wal.dir)
	}
	if db.snaps.count() > 0 {
		return fmt.Errorf("sql: cannot enable durability with a transaction in progress")
	}
	// Checked before anything in dir is created, locked or truncated.
	if _, err := os.Stat(filepath.Join(dir, pagedImageFile)); err == nil {
		return fmt.Errorf("sql: %s is a paged-format database file, which this build no longer reads; "+
			"to migrate, open %s with an older build that reads it, Dump it, and place the dump as %s in a new directory",
			filepath.Join(dir, pagedImageFile), dir, snapshotFile)
	}

	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("sql: creating database directory: %w", err)
	}
	lock, err := lockDir(dir)
	if err != nil {
		return err
	}
	ok := false
	defer func() {
		if !ok {
			lock.Close()
		}
	}()

	gen := 0
	if data, err := os.ReadFile(filepath.Join(dir, snapshotFile)); err == nil {
		gen = snapshotGeneration(string(data))
		stmts, err := ParseScript(string(data))
		if err != nil {
			return fmt.Errorf("sql: parsing snapshot: %w", err)
		}
		// The snapshot is a complete image: it replaces whatever the caller
		// pre-installed (e.g. an empty catalogue).
		var drops []catEdit
		for _, t := range db.tables.Load().tables {
			drops = append(drops, catEdit{name: t.Name, base: t})
		}
		if _, err := db.editCatalog(db.replayCtx(), drops); err != nil {
			return err
		}
		for _, stmt := range stmts {
			if _, err := db.execLocked(db.replayCtx(), stmt); err != nil {
				return fmt.Errorf("sql: restoring snapshot: %w", err)
			}
		}
	} else if !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("sql: reading snapshot: %w", err)
	}

	path := walGenPath(dir, gen)
	txns, keep, err := readWALTxns(path)
	if err != nil {
		return fmt.Errorf("sql: reading wal: %w", err)
	}
	for _, txn := range txns {
		for _, rec := range txn {
			if err := db.applyWALRecord(rec); err != nil {
				return fmt.Errorf("sql: replaying wal: %w", err)
			}
		}
	}
	// Replay of updates and deletes leaves dead versions behind; compact
	// them away before serving queries.
	db.vacuumLocked()

	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("sql: opening wal: %w", err)
	}
	if err := f.Truncate(keep); err != nil {
		f.Close()
		return fmt.Errorf("sql: truncating torn wal tail: %w", err)
	}
	if _, err := f.Seek(keep, io.SeekStart); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	removeStaleWALs(dir, gen)

	db.wal = &wal{
		dir:             dir,
		gen:             gen,
		f:               f,
		lock:            lock,
		off:             keep,
		syncEvery:       o.SyncEvery,
		checkpointEvery: o.CheckpointEvery,
	}
	ok = true
	return nil
}

// removeStaleWALs deletes WAL generations other than the live one — the
// leftovers of a checkpoint that crashed between its atomic steps.
func removeStaleWALs(dir string, liveGen int) {
	matches, err := filepath.Glob(filepath.Join(dir, walFilePattern))
	if err != nil {
		return
	}
	live := walGenPath(dir, liveGen)
	for _, m := range matches {
		if m != live {
			os.Remove(m)
		}
	}
	os.Remove(filepath.Join(dir, snapshotTmp))
}

// walRowEqual reports whether row encodes to the logged pre-image old. The
// encoding is canonical (one string per kinded value), so byte equality is
// value equality; cells are encoded one at a time and the first mismatch
// ends the comparison — nearly every version replay passes over differs from
// the logged row in its first cells.
func walRowEqual(row Row, old []walValue) bool {
	if len(row) != len(old) {
		return false
	}
	for i, v := range row {
		if encodeWALValue(v) != old[i] {
			return false
		}
	}
	return true
}

// findWALRow locates the committed-visible version of t whose values match
// a logged pre-image. Replay applies commits in WAL order — which is stamp
// order — so "the visible row equal to Old" at each step is exactly the row
// the original statement ended. Duplicate rows match in version order, also
// mirroring the original scan.
func (db *DB) findWALRow(t *Table, old []walValue) (*rowMeta, error) {
	v := t.loadView()
	snap := snapshot{ts: db.clock.Load()}
	for i, m := range v.meta {
		if !snap.visible(m) {
			continue
		}
		if walRowEqual(v.rows[i], old) {
			return m, nil
		}
	}
	return nil, fmt.Errorf("table %q: logged row not found for replay", t.Name)
}

// replayCtx is the context recovery replays one statement or record in: no
// transaction, the latest committed state.
func (db *DB) replayCtx() *evalCtx {
	return &evalCtx{db: db, snap: snapshot{ts: db.clock.Load()}, cat: db.tables.Load()}
}

// applyWALRecord redoes one logged record during recovery, rebuilding
// committed state directly: replayed versions get begin (and, when ended,
// end) stamp 1, matching the clock's starting position.
func (db *DB) applyWALRecord(rec walRecord) error {
	cx := db.replayCtx()
	switch rec.Op {
	case "stmt":
		cp, err := db.parse(rec.SQL)
		if err != nil {
			return fmt.Errorf("statement %q: %w", rec.SQL, err)
		}
		params, err := decodeWALValues(rec.Params)
		if err != nil {
			return err
		}
		cx.params = params
		if _, err := db.execLocked(cx, cp.stmt); err != nil {
			return fmt.Errorf("statement %q: %w", rec.SQL, err)
		}
		return nil
	case "ins":
		t, ok := cx.cat.get(rec.Table)
		if !ok {
			return fmt.Errorf("insert into unknown table %q", rec.Table)
		}
		row, err := decodeWALValues(rec.Row)
		if err != nil {
			return err
		}
		if len(row) != len(t.Columns) {
			return fmt.Errorf("table %q: logged row has %d values for %d columns", rec.Table, len(row), len(t.Columns))
		}
		return db.insertVersion(cx, t, row)
	case "upd":
		t, ok := cx.cat.get(rec.Table)
		if !ok {
			return fmt.Errorf("update of unknown table %q", rec.Table)
		}
		m, err := db.findWALRow(t, rec.Old)
		if err != nil {
			return err
		}
		row, err := decodeWALValues(rec.Row)
		if err != nil {
			return err
		}
		if len(row) != len(t.Columns) {
			return fmt.Errorf("table %q: logged row has %d values for %d columns", rec.Table, len(row), len(t.Columns))
		}
		if err := db.endVersion(cx, t, m); err != nil {
			return err
		}
		return db.insertVersion(cx, t, row)
	case "del":
		t, ok := cx.cat.get(rec.Table)
		if !ok {
			return fmt.Errorf("delete from unknown table %q", rec.Table)
		}
		m, err := db.findWALRow(t, rec.Old)
		if err != nil {
			return err
		}
		return db.endVersion(cx, t, m)
	default:
		return fmt.Errorf("unknown wal record op %q", rec.Op)
	}
}

// walCommit writes a finished transaction's buffered records to the WAL.
func (db *DB) walCommit(t *txnState) error {
	if db.wal == nil || len(t.pending) == 0 {
		return nil
	}
	if err := db.wal.commit(t.pending); err != nil {
		return err
	}
	db.walRecordCount.Add(uint64(len(t.pending)))
	return nil
}

// walCheckpointDue reports whether the configured record budget is
// exhausted. Caller holds commitMu or excludes all committers.
func (db *DB) walCheckpointDue() bool {
	w := db.wal
	return w != nil && w.checkpointEvery > 0 && w.recordsSinceCheckpoint >= w.checkpointEvery
}

// Checkpoint writes a fresh snapshot of the committed state and resets the
// WAL, bounding recovery time. It is automatic every
// DurabilityOptions.CheckpointEvery records; call it manually for a
// durability point before e.g. handing the directory to another process.
func (db *DB) Checkpoint() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.checkpointLocked()
}

func (db *DB) checkpointLocked() error {
	w := db.wal
	if w == nil {
		return fmt.Errorf("sql: database is not durable (no WAL attached)")
	}
	// Reclaim dead versions while we hold the exclusive lock anyway: the
	// snapshot about to be written contains only visible rows, so compacting
	// first keeps memory in line with it. (Open concurrent transactions are
	// fine — vacuum skips their latched tables, and the snapshot simply
	// omits their uncommitted versions and DDL; their WAL records land in
	// the new generation at commit.)
	db.vacuumLocked()
	// Flush group-commit residue: if the snapshot write fails midway we fall
	// back to the current (snapshot, WAL) pair, which must be complete. A
	// poisoned log skips this — its tail is being abandoned anyway, and the
	// in-memory state the snapshot captures is the committed truth.
	if !w.failed {
		if err := w.f.Sync(); err != nil {
			return fmt.Errorf("sql: syncing wal before checkpoint: %w", err)
		}
	}

	newGen := w.gen + 1
	nf, err := os.OpenFile(walGenPath(w.dir, newGen), os.O_CREATE|os.O_RDWR|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("sql: creating checkpoint wal: %w", err)
	}
	if err := nf.Sync(); err != nil {
		nf.Close()
		return err
	}

	tmp := filepath.Join(w.dir, snapshotTmp)
	tf, err := os.Create(tmp)
	if err != nil {
		nf.Close()
		return fmt.Errorf("sql: creating snapshot: %w", err)
	}
	writeErr := func() error {
		if _, err := fmt.Fprintf(tf, "%s%d\n", snapshotHeader, newGen); err != nil {
			return err
		}
		if err := db.dumpCommitted(tf); err != nil {
			return err
		}
		return tf.Sync()
	}()
	if cerr := tf.Close(); writeErr == nil {
		writeErr = cerr
	}
	if writeErr != nil {
		nf.Close()
		os.Remove(tmp)
		return fmt.Errorf("sql: writing snapshot: %w", writeErr)
	}
	// The rename is the commit point of the checkpoint.
	if err := os.Rename(tmp, filepath.Join(w.dir, snapshotFile)); err != nil {
		nf.Close()
		os.Remove(tmp)
		return fmt.Errorf("sql: publishing snapshot: %w", err)
	}
	syncDir(w.dir)

	old := w.f
	w.f = nf
	w.gen = newGen
	w.off = 0
	w.commitsSinceSync = 0
	w.recordsSinceCheckpoint = 0
	w.failed = false
	old.Close()
	os.Remove(walGenPath(w.dir, newGen-1))
	db.checkpointCount.Add(1)
	return nil
}

// syncDir fsyncs a directory so renames/creates inside it are durable
// (best effort: not all platforms support it).
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}

// SimulateCrash abruptly drops the WAL attachment: the descriptors close
// without syncing, checkpointing, or orderly unlocking — exactly what the
// kernel does to a killed process. It exists so crash-recovery tests can
// simulate a kill in-process; production code uses Close.
func (db *DB) SimulateCrash() {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.wal == nil {
		return
	}
	db.wal.f.Close()
	db.wal.lock.Close()
	db.wal = nil
}

// Durable reports whether a write-ahead log is attached.
func (db *DB) Durable() bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.wal != nil
}

// Close shuts the database down: the write-ahead log (if any) is flushed
// and detached, and every subsequent statement entry point returns
// ErrClosed (errors.Is-able). Close is idempotent.
func (db *DB) Close() error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.closed {
		return nil
	}
	db.closed = true
	if db.wal == nil {
		return nil
	}
	syncErr := db.wal.f.Sync()
	closeErr := db.wal.f.Close()
	lockErr := db.wal.lock.Close()
	db.wal = nil
	return errors.Join(syncErr, closeErr, lockErr)
}
