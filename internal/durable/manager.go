package durable

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"foresight/internal/frame"
	"foresight/internal/obs"
	"foresight/internal/query"
	"foresight/internal/sketch"
)

// Options configures a Manager. Only Dir is required.
type Options struct {
	// Dir is the WAL/snapshot directory (created when absent).
	Dir string
	// FS overrides the filesystem (tests use ErrFS); nil means OS.
	FS FS
	// Fsync is the WAL flush policy (FsyncInterval by default).
	Fsync FsyncPolicy
	// FsyncInterval is the background flush period under
	// FsyncInterval (0 → 100ms).
	FsyncInterval time.Duration
	// SegmentBytes rotates WAL segments at this size (0 → 8 MiB).
	SegmentBytes int64
	// CheckpointRows triggers a checkpoint once this many rows have
	// been appended since the last one (0 → 50000; negative disables
	// the row trigger).
	CheckpointRows int
	// CheckpointBytes triggers a checkpoint once this many WAL bytes
	// have been appended since the last one (0 → 64 MiB; negative
	// disables the byte trigger).
	CheckpointBytes int64
	// SnapshotsKept bounds retained snapshots (0 → 2; older ones are
	// fallbacks against a corrupted newest snapshot).
	SnapshotsKept int
	// Permissive lets recovery keep the valid WAL prefix on mid-log
	// corruption instead of refusing to start (-recover-permissive).
	Permissive bool
	// ReadOnly verifies without mutating: recovery never repairs a
	// torn tail, opens no WAL for appending, and installs no ingest
	// sink (used by `foresight selfcheck -wal`).
	ReadOnly bool
	// Logf receives recovery warnings and checkpoint errors; nil
	// discards them.
	Logf func(format string, args ...any)
}

func (o *Options) fill() {
	if o.FS == nil {
		o.FS = OS
	}
	if o.FsyncInterval <= 0 {
		o.FsyncInterval = 100 * time.Millisecond
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 8 << 20
	}
	if o.CheckpointRows == 0 {
		o.CheckpointRows = 50000
	}
	if o.CheckpointBytes == 0 {
		o.CheckpointBytes = 64 << 20
	}
	if o.SnapshotsKept <= 0 {
		o.SnapshotsKept = 2
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
}

// RecoveryStats reports what startup recovery found and did.
type RecoveryStats struct {
	SnapshotSeq      uint64  `json:"snapshot_seq"`
	SnapshotRows     int     `json:"snapshot_rows"`
	SnapshotsSkipped int     `json:"snapshots_skipped"`
	ReplayedBatches  int     `json:"replayed_batches"`
	ReplayedRows     int     `json:"replayed_rows"`
	LastSeq          uint64  `json:"last_seq"`
	TornTailDetected bool    `json:"torn_tail_detected"`
	TornTailRepaired bool    `json:"torn_tail_repaired"`
	DurationSeconds  float64 `json:"duration_seconds"`
}

// Stats is the durability section of /api/stats.
type Stats struct {
	Dir                 string        `json:"dir"`
	Fsync               string        `json:"fsync"`
	LastSeq             uint64        `json:"last_seq"`
	CheckpointSeq       uint64        `json:"checkpoint_seq"`
	WALSegments         int           `json:"wal_segments"`
	RowsSinceCheckpoint int           `json:"rows_since_checkpoint"`
	Appends             uint64        `json:"appends"`
	AppendErrors        uint64        `json:"append_errors"`
	AppendedBytes       uint64        `json:"appended_bytes"`
	Fsyncs              uint64        `json:"fsyncs"`
	FsyncErrors         uint64        `json:"fsync_errors"`
	Checkpoints         uint64        `json:"checkpoints"`
	CheckpointErrors    uint64        `json:"checkpoint_errors"`
	Recovery            RecoveryStats `json:"recovery"`
}

// Manager owns one WAL directory and wires durability into an engine:
// Recover replays the on-disk state into the engine at startup, after
// which the manager installs itself as the engine's DurableSink so
// every applied ingest batch is logged before it is acknowledged, and
// checkpoints fold the log back into snapshots.
type Manager struct {
	opts Options
	fsys FS
	dir  string

	engine   *query.Engine
	baseRows int
	// cols are the engine frame's column names, the order of every row
	// in rows.
	cols []string

	mu        sync.Mutex
	wal       *wal
	lastSeq   uint64
	ckptSeq   uint64
	rowsSince int
	byteSince int64
	// rows is the snapshot row section of every row the engine has
	// appended since the base dataset — each batch's cells as the WAL
	// logs them, in frame column order — including a batch the WAL
	// refused, which the engine applied all the same. snapRows (a prefix
	// of rows), snapProfile and snapSeq are what the next checkpoint
	// writes: the section and the engine's profile as of a logged batch.
	// AppendBatch (which runs under the engine's ingest lock) extends rows
	// and captures the triple, so a checkpoint always snapshots rows and
	// a profile that describe the same data even while ingest continues,
	// and renders no row to do it.
	rows        rowSection
	snapRows    rowSection
	snapProfile *sketch.DatasetProfile
	snapSeq     uint64

	checkpointing atomic.Bool
	ckptWG        sync.WaitGroup

	recovered atomic.Bool
	recovery  RecoveryStats

	appends      atomic.Uint64
	appendErrors atomic.Uint64
	appendBytes  atomic.Uint64
	fsyncs       atomic.Uint64
	fsyncErrors  atomic.Uint64
	checkpoints  atomic.Uint64
	ckptErrors   atomic.Uint64
	ckptSeconds  *obs.Histogram
}

// Open validates the options and prepares the directory. Call Recover
// next; the manager refuses to log batches until recovery has run.
func Open(opts Options) (*Manager, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("durable: empty WAL directory")
	}
	opts.fill()
	m := &Manager{opts: opts, fsys: opts.FS, dir: opts.Dir}
	if !opts.ReadOnly {
		if err := m.fsys.MkdirAll(m.dir); err != nil {
			return nil, fmt.Errorf("durable: creating WAL directory: %w", err)
		}
	}
	return m, nil
}

// Recover restores the engine from the newest valid snapshot plus the
// WAL tail, then (unless ReadOnly) opens the log for appending and
// installs the manager as the engine's durable sink. A torn final WAL
// record is truncated with a warning — never a startup failure;
// corruption anywhere else fails recovery unless Permissive keeps the
// valid prefix. The engine stays fully queryable while replay runs:
// every replayed batch goes through Engine.Ingest, so concurrent
// queries see consistent pre- or post-batch snapshots throughout.
func (m *Manager) Recover(e *query.Engine) (RecoveryStats, error) {
	start := time.Now()
	var stats RecoveryStats
	m.engine = e
	m.baseRows = e.Frame().Rows()
	m.cols = e.Frame().Names()

	// Newest valid snapshot wins; corrupted ones are skipped with a
	// warning (an older snapshot plus a longer WAL replay is still a
	// correct recovery).
	snaps, err := listSnapshots(m.fsys, m.dir)
	if err != nil && !IsNotExist(err) {
		// A missing directory in ReadOnly mode means nothing to verify;
		// otherwise report it.
		return stats, fmt.Errorf("durable: listing snapshots: %w", err)
	}
	var snap *snapshotBody
	var snapProfile *sketch.DatasetProfile
	for _, si := range snaps {
		s, p, err := loadSnapshot(m.fsys, si.name, m.opts.Logf)
		if err != nil {
			stats.SnapshotsSkipped++
			m.opts.Logf("durable: skipping snapshot %s: %v", si.name, err)
			continue
		}
		snap, snapProfile = s, p
		break
	}
	// The row section starts as the snapshot's and grows by every
	// replayed batch, so the next checkpoint writes what this one did
	// plus the tail.
	var rows rowSection
	if snap != nil {
		if snap.BaseRows != m.baseRows || !slices.Equal(snap.Cols, m.cols) {
			return stats, fmt.Errorf("durable: WAL directory %s belongs to a different dataset (snapshot base %d rows × %d cols, engine %d rows × %d cols)",
				m.dir, snap.BaseRows, len(snap.Cols), m.baseRows, len(m.cols))
		}
		if err := m.applySnapshot(e, snap.Records, snapProfile); err != nil {
			return stats, err
		}
		stats.SnapshotSeq = snap.Seq
		stats.SnapshotRows = snap.Rows.n
		rows = rowSection{n: snap.Rows.n, b: slices.Clone(snap.Rows.b)}
	}

	ctx := context.Background()
	scan, err := scanWAL(m.fsys, m.dir, stats.SnapshotSeq, m.opts.Permissive, !m.opts.ReadOnly, m.opts.Logf,
		func(rec batchRecord) error {
			_, err := e.Ingest(ctx, frame.RowBatch{Columns: rec.Columns, Records: rec.Records}, nil)
			if err != nil {
				return err
			}
			rows.add(m.cols, rec.Columns, rec.Records)
			stats.ReplayedBatches++
			stats.ReplayedRows += len(rec.Records)
			return nil
		})
	stats.TornTailDetected = scan.TornDetected
	stats.TornTailRepaired = scan.Truncated
	if err != nil {
		return stats, err
	}
	stats.LastSeq = scan.LastSeq
	if stats.SnapshotSeq > stats.LastSeq {
		stats.LastSeq = stats.SnapshotSeq
	}
	stats.DurationSeconds = time.Since(start).Seconds()

	m.mu.Lock()
	m.lastSeq = stats.LastSeq
	m.ckptSeq = stats.SnapshotSeq
	// A long replayed tail counts toward the next checkpoint so a node
	// that recovered a lot of rows folds them into a snapshot soon
	// instead of replaying them again on every restart.
	m.rowsSince = stats.ReplayedRows
	m.rows, m.snapRows = rows, rows
	m.snapProfile, m.snapSeq = e.Profile(), stats.LastSeq
	m.recovery = stats
	m.mu.Unlock()

	if !m.opts.ReadOnly {
		w, err := openWAL(m.fsys, m.dir, stats.LastSeq+1, m.opts.Fsync, m.opts.FsyncInterval, m.opts.SegmentBytes, m.onSync)
		if err != nil {
			return stats, err
		}
		m.mu.Lock()
		m.wal = w
		m.mu.Unlock()
		e.SetDurableSink(m)
	}
	m.recovered.Store(true)
	return stats, nil
}

func (m *Manager) onSync(err error) {
	if err != nil {
		m.fsyncErrors.Add(1)
		m.opts.Logf("durable: WAL fsync failed: %v", err)
		return
	}
	m.fsyncs.Add(1)
}

// applySnapshot installs a snapshot's rows (and profile, when both
// sides have one) into the engine. With a snapshot profile the sketch
// store is restored directly — no re-sketching of snapshot rows; the
// frame is rebuilt by appending the stored rows to the base frame.
func (m *Manager) applySnapshot(e *query.Engine, records [][]string, p *sketch.DatasetProfile) error {
	if p != nil && e.Profile() != nil {
		f2, err := e.Frame().AppendRows(frame.RowBatch{Records: records}, nil)
		if err != nil {
			return fmt.Errorf("durable: applying snapshot rows: %w", err)
		}
		return e.RestoreSnapshot(f2, p)
	}
	if len(records) == 0 {
		return nil
	}
	// No usable snapshot profile (none was written, or it was written
	// under another wire version): replay the rows through Ingest so the
	// engine's own profile (when present) extends incrementally.
	_, err := e.Ingest(context.Background(), frame.RowBatch{Records: records}, nil)
	if err != nil {
		return fmt.Errorf("durable: applying snapshot rows: %w", err)
	}
	return nil
}

// AppendBatch implements query.DurableSink: it is called by
// Engine.Ingest, under the engine's ingest lock, after the batch has
// been applied and before the caller acknowledges it. The WAL append
// (and, under FsyncAlways, its flush) must succeed for the ingest to
// report success. The batch's cells join the row section either way,
// since the engine serves them either way; only a logged batch captures
// the (rows, profile, seq) triple for the checkpointer and may fire a
// checkpoint, when the rows- or bytes-since-checkpoint trigger trips. A
// refused batch has no seq, so it reaches a snapshot only under the seq
// of a later batch the log took.
//
// The triple is captured only while the section holds as many rows as
// the engine's frame does past the base, which it always does while the
// engine moves by Ingest alone. An engine rolled back behind the
// manager's back (RestoreSnapshot), or a batch logged that the engine
// does not hold, breaks that for good; the last triple captured then
// stands, and recovery replays the log past it.
func (m *Manager) AppendBatch(batch frame.RowBatch, res query.IngestResult) error {
	if !m.recovered.Load() {
		return fmt.Errorf("durable: ingest before recovery completed")
	}
	seq, n, err := m.wal.Append(batch.Columns, batch.Records)

	m.mu.Lock()
	defer m.mu.Unlock()
	m.rows.add(m.cols, batch.Columns, batch.Records)
	if err != nil {
		m.appendErrors.Add(1)
		return err
	}
	m.appends.Add(1)
	m.appendBytes.Add(uint64(n))
	m.lastSeq = seq
	m.rowsSince += res.RowsAppended
	m.byteSince += int64(n)
	if m.rows.n != m.engine.Frame().Rows()-m.baseRows {
		return nil
	}
	m.snapRows, m.snapProfile, m.snapSeq = m.rows, m.engine.Profile(), seq
	trigger := (m.opts.CheckpointRows > 0 && m.rowsSince >= m.opts.CheckpointRows) ||
		(m.opts.CheckpointBytes > 0 && m.byteSince >= m.opts.CheckpointBytes)
	if trigger && m.checkpointing.CompareAndSwap(false, true) {
		m.rowsSince, m.byteSince = 0, 0
		m.ckptWG.Add(1)
		go m.runCheckpoint(m.snapRows, m.snapProfile, seq)
	}
	return nil
}

// Checkpoint forces a snapshot of the last logged state; it blocks
// until the write completes (tests and shutdown hooks use it — the
// steady-state path is the async trigger in AppendBatch).
func (m *Manager) Checkpoint() error {
	if !m.recovered.Load() || m.opts.ReadOnly {
		return fmt.Errorf("durable: checkpoint before recovery completed")
	}
	if !m.checkpointing.CompareAndSwap(false, true) {
		return fmt.Errorf("durable: checkpoint already in progress")
	}
	m.mu.Lock()
	rows, p, seq := m.snapRows, m.snapProfile, m.snapSeq
	m.rowsSince, m.byteSince = 0, 0
	m.mu.Unlock()
	m.ckptWG.Add(1)
	return m.runCheckpoint(rows, p, seq)
}

// runCheckpoint writes one snapshot — the captured row section as it
// is, and p's Save bytes — and retires the WAL segments it covers.
// Profiles are immutable once published and appends leave a captured
// section's bytes alone, so this runs concurrently with live ingest
// without any engine lock.
func (m *Manager) runCheckpoint(rows rowSection, p *sketch.DatasetProfile, seq uint64) error {
	defer m.ckptWG.Done()
	defer m.checkpointing.Store(false)
	start := time.Now()
	body := &snapshotBody{Seq: seq, BaseRows: m.baseRows, Cols: m.cols, Rows: rows}
	var err error
	if p != nil {
		var buf bytes.Buffer
		if err = p.Save(&buf); err != nil {
			err = fmt.Errorf("durable: serializing profile for snapshot: %w", err)
		}
		body.Profile = buf.Bytes()
	}
	if err == nil {
		_, err = writeSnapshot(m.fsys, m.dir, body)
	}
	if err != nil {
		m.ckptErrors.Add(1)
		m.opts.Logf("durable: checkpoint at seq %d failed: %v", seq, err)
		return err
	}
	m.checkpoints.Add(1)
	if m.ckptSeconds != nil {
		m.ckptSeconds.Observe(time.Since(start).Seconds())
	}
	m.mu.Lock()
	if seq > m.ckptSeq {
		m.ckptSeq = seq
	}
	m.mu.Unlock()
	if _, err := m.wal.TruncateThrough(seq); err != nil {
		m.opts.Logf("durable: retiring WAL segments through seq %d: %v", seq, err)
	}
	pruneSnapshots(m.fsys, m.dir, m.opts.SnapshotsKept)
	return nil
}

// Recovery returns the stats of the startup recovery pass.
func (m *Manager) Recovery() RecoveryStats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.recovery
}

// Stats returns the durability counters for /api/stats.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	lastSeq, ckptSeq, rowsSince := m.lastSeq, m.ckptSeq, m.rowsSince
	w := m.wal
	rec := m.recovery
	m.mu.Unlock()
	segments := 0
	if w != nil {
		segments = w.Segments()
	}
	return Stats{
		Dir:                 m.dir,
		Fsync:               m.opts.Fsync.String(),
		LastSeq:             lastSeq,
		CheckpointSeq:       ckptSeq,
		WALSegments:         segments,
		RowsSinceCheckpoint: rowsSince,
		Appends:             m.appends.Load(),
		AppendErrors:        m.appendErrors.Load(),
		AppendedBytes:       m.appendBytes.Load(),
		Fsyncs:              m.fsyncs.Load(),
		FsyncErrors:         m.fsyncErrors.Load(),
		Checkpoints:         m.checkpoints.Load(),
		CheckpointErrors:    m.ckptErrors.Load(),
		Recovery:            rec,
	}
}

// Instrument registers the foresight_durable_* metric families.
func (m *Manager) Instrument(reg *obs.Registry) {
	reg.CounterFunc("foresight_durable_wal_appends_total",
		"Ingest batches appended to the write-ahead log.", m.appends.Load)
	reg.CounterFunc("foresight_durable_wal_append_errors_total",
		"WAL appends that failed (the batch was not acknowledged).", m.appendErrors.Load)
	reg.CounterFunc("foresight_durable_wal_bytes_total",
		"Bytes appended to the write-ahead log.", m.appendBytes.Load)
	reg.CounterFunc("foresight_durable_wal_fsyncs_total",
		"Successful WAL fsyncs.", m.fsyncs.Load)
	reg.CounterFunc("foresight_durable_wal_fsync_errors_total",
		"Failed WAL fsyncs.", m.fsyncErrors.Load)
	reg.CounterFunc("foresight_durable_checkpoints_total",
		"Snapshots written by the checkpoint manager.", m.checkpoints.Load)
	reg.CounterFunc("foresight_durable_checkpoint_errors_total",
		"Checkpoint attempts that failed.", m.ckptErrors.Load)
	reg.GaugeFunc("foresight_durable_last_seq",
		"Sequence number of the last batch appended to the WAL.",
		func() float64 { m.mu.Lock(); defer m.mu.Unlock(); return float64(m.lastSeq) })
	reg.GaugeFunc("foresight_durable_checkpoint_seq",
		"Sequence number covered by the newest snapshot.",
		func() float64 { m.mu.Lock(); defer m.mu.Unlock(); return float64(m.ckptSeq) })
	reg.GaugeFunc("foresight_durable_wal_segments",
		"Live WAL segment files.",
		func() float64 {
			m.mu.Lock()
			w := m.wal
			m.mu.Unlock()
			if w == nil {
				return 0
			}
			return float64(w.Segments())
		})
	reg.GaugeFunc("foresight_durable_replayed_rows",
		"Rows replayed from the WAL tail by startup recovery.",
		func() float64 { m.mu.Lock(); defer m.mu.Unlock(); return float64(m.recovery.ReplayedRows) })
	m.ckptSeconds = reg.Histogram("foresight_durable_checkpoint_seconds",
		"Checkpoint (snapshot write + WAL truncation) latency in seconds.", nil)
}

// Close detaches the sink, waits for an in-flight checkpoint, flushes
// the WAL and closes it. Safe to call once after the server stops
// ingesting.
func (m *Manager) Close() error {
	if m.engine != nil && !m.opts.ReadOnly {
		m.engine.SetDurableSink(nil)
	}
	m.ckptWG.Wait()
	m.mu.Lock()
	w := m.wal
	m.wal = nil
	m.mu.Unlock()
	if w == nil {
		return nil
	}
	return w.Close()
}
