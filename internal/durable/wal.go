package durable

import (
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// FsyncPolicy decides when WAL appends are flushed to stable storage.
type FsyncPolicy int

const (
	// FsyncAlways syncs before every append returns: an acknowledged
	// batch is durable the moment the client sees 202. Strongest
	// guarantee, one fsync per engine ingest.
	FsyncAlways FsyncPolicy = iota
	// FsyncInterval syncs on a background timer (default 100ms): an
	// acknowledged batch can be lost if the process dies inside the
	// window, bounded by the interval. The production default, and the
	// policy under which the repository benchmark's ingest_stream times
	// the WAL.
	FsyncInterval
	// FsyncOff never syncs explicitly; durability rides on the OS page
	// cache. Survives process crashes (the kernel has the writes) but
	// not power loss.
	FsyncOff
)

// ParseFsyncPolicy maps the -fsync flag values.
func ParseFsyncPolicy(s string) (FsyncPolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "always":
		return FsyncAlways, nil
	case "interval", "":
		return FsyncInterval, nil
	case "off", "none":
		return FsyncOff, nil
	}
	return 0, fmt.Errorf("durable: unknown fsync policy %q (want always|interval|off)", s)
}

func (p FsyncPolicy) String() string {
	switch p {
	case FsyncAlways:
		return "always"
	case FsyncInterval:
		return "interval"
	case FsyncOff:
		return "off"
	}
	return "unknown"
}

// segmentName formats the file name of the segment whose first record
// is seq.
func segmentName(seq uint64) string { return fmt.Sprintf("wal-%016x.log", seq) }

type segmentInfo struct {
	firstSeq uint64
	name     string // full path
}

// listSegments returns the directory's WAL segments sorted by first
// sequence number.
func listSegments(fsys FS, dir string) ([]segmentInfo, error) {
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var segs []segmentInfo
	for _, name := range names {
		if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
			continue
		}
		hexpart := strings.TrimSuffix(strings.TrimPrefix(name, "wal-"), ".log")
		seq, err := strconv.ParseUint(hexpart, 16, 64)
		if err != nil {
			continue // foreign file; ignore
		}
		segs = append(segs, segmentInfo{firstSeq: seq, name: join(dir, name)})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].firstSeq < segs[j].firstSeq })
	return segs, nil
}

// wal is the append side of the log. One goroutine at a time calls
// Append (the engine serializes ingests); the interval syncer runs
// concurrently under mu.
type wal struct {
	fsys     FS
	dir      string
	policy   FsyncPolicy
	segBytes int64
	onSync   func(err error) // metrics hook; may be called with or without mu held, must not block

	mu       sync.Mutex
	f        File
	name     string // active segment path
	size     int64
	nextSeq  uint64
	dirty    bool
	failed   error // sticky: log unusable, appends fail fast
	segments []segmentInfo

	stop     chan struct{}
	syncDone chan struct{}
}

// openWAL starts a fresh segment whose first record will be nextSeq
// (recovery always rotates rather than appending to a possibly
// repaired tail segment) and, under FsyncInterval, starts the
// background syncer.
func openWAL(fsys FS, dir string, nextSeq uint64, policy FsyncPolicy, interval time.Duration, segBytes int64, onSync func(error)) (*wal, error) {
	if segBytes <= 0 {
		segBytes = 8 << 20
	}
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	if onSync == nil {
		onSync = func(error) {}
	}
	segs, err := listSegments(fsys, dir)
	if err != nil {
		return nil, err
	}
	w := &wal{
		fsys: fsys, dir: dir, policy: policy, segBytes: segBytes,
		onSync: onSync, nextSeq: nextSeq, segments: segs,
		stop: make(chan struct{}), syncDone: make(chan struct{}),
	}
	if err := w.startSegment(); err != nil {
		return nil, err
	}
	if policy == FsyncInterval {
		go w.syncLoop(interval)
	} else {
		close(w.syncDone)
	}
	return w, nil
}

// startSegment creates the next segment file, writes its magic, and
// makes its directory entry durable. Callers hold mu (or own the wal
// exclusively during open).
func (w *wal) startSegment() error {
	name := join(w.dir, segmentName(w.nextSeq))
	f, err := w.fsys.Create(name)
	if err != nil {
		return fmt.Errorf("durable: creating WAL segment: %w", err)
	}
	if _, err := f.Write([]byte(walMagic)); err != nil {
		f.Close()
		return fmt.Errorf("durable: writing WAL segment header: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("durable: syncing WAL segment header: %w", err)
	}
	if err := w.fsys.SyncDir(w.dir); err != nil {
		f.Close()
		return fmt.Errorf("durable: syncing WAL directory: %w", err)
	}
	if w.f != nil {
		// Flush the retiring segment so rotation never widens the
		// interval policy's bounded-loss window (rare, so the in-lock
		// fsync is fine here).
		if w.dirty {
			serr := w.f.Sync()
			w.onSync(serr)
			if serr == nil {
				w.dirty = false
			}
		}
		w.f.Close()
	}
	w.f = f
	w.name = name
	w.size = int64(len(walMagic))
	// trim first: recovery can rotate onto a name left over from a
	// crash-during-rotation, which must not appear twice in the list.
	w.segments = append(trimSegment(w.segments, name), segmentInfo{firstSeq: w.nextSeq, name: name})
	return nil
}

// Append logs one batch and returns its sequence number and the framed
// record it wrote. Under FsyncAlways the record is durable on return;
// under the other policies it is buffered. A failed write is rolled back by
// truncating the segment to the last good record boundary so the tail
// stays parseable; if even the rollback fails the log latches failed
// and every later append errors immediately (the server then refuses
// to ack, which is the honest outcome).
func (w *wal) Append(columns []string, records [][]string) (seq uint64, frame []byte, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.failed != nil {
		return 0, nil, fmt.Errorf("durable: WAL failed earlier: %w", w.failed)
	}
	if w.size >= w.segBytes {
		w.nextSeqSegment()
	}
	seq = w.nextSeq
	frame = frameBatch(seq, columns, records)
	wrote, werr := w.f.Write(frame)
	if werr != nil || wrote != len(frame) {
		if werr == nil {
			werr = io.ErrShortWrite
		}
		w.rollbackTail(werr)
		return 0, nil, fmt.Errorf("durable: WAL append: %w", werr)
	}
	w.size += int64(len(frame))
	w.dirty = true
	if w.policy == FsyncAlways {
		if serr := w.f.Sync(); serr != nil {
			w.onSync(serr)
			// The bytes may or may not be durable; roll the tail back so
			// the unacked record cannot surface after recovery.
			w.rollbackTail(serr)
			return 0, nil, fmt.Errorf("durable: WAL fsync: %w", serr)
		}
		w.onSync(nil)
		w.dirty = false
	}
	w.nextSeq++
	return seq, frame, nil
}

// nextSeqSegment rotates to a fresh segment; on failure the current
// segment simply keeps growing (rotation is an optimization, not a
// correctness requirement). Callers hold mu.
func (w *wal) nextSeqSegment() {
	if err := w.startSegment(); err != nil {
		// Keep appending to the old segment; startSegment may have
		// half-created the new file, which recovery treats as a torn
		// (empty) tail segment.
		w.segments = trimSegment(w.segments, join(w.dir, segmentName(w.nextSeq)))
	}
}

func trimSegment(segs []segmentInfo, name string) []segmentInfo {
	out := segs[:0]
	for _, s := range segs {
		if s.name != name {
			out = append(out, s)
		}
	}
	return out
}

// rollbackTail truncates the active segment back to the last good
// record boundary after a failed append, preserving the invariant that
// only the final record of the final segment can ever be torn. Callers
// hold mu.
func (w *wal) rollbackTail(cause error) {
	if err := w.fsys.Truncate(w.name, w.size); err != nil {
		w.failed = fmt.Errorf("append failed (%v) and tail rollback failed: %w", cause, err)
	}
}

// Failed returns the error the log latched failed with, or nil.
func (w *wal) Failed() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.failed
}

// Sync flushes buffered appends. Used by the interval loop and Close.
// The fsync itself runs outside mu — on a disk where fsync takes
// milliseconds, holding the lock would stall every append landing in
// that window, turning the interval policy's background cost into
// foreground latency. dirty is cleared optimistically before the sync:
// an append racing the fsync sets it again, so its bytes are covered
// by the next tick; on failure dirty is restored (unless the segment
// rotated, whose close path already flushed it).
func (w *wal) Sync() error {
	w.mu.Lock()
	if !w.dirty || w.f == nil || w.failed != nil {
		w.mu.Unlock()
		return nil
	}
	f, name := w.f, w.name
	w.dirty = false
	w.mu.Unlock()
	err := f.Sync()
	if errors.Is(err, fs.ErrClosed) {
		// The segment rotated under us; its close path already flushed.
		err = nil
	}
	w.onSync(err)
	if err != nil {
		w.mu.Lock()
		if w.name == name {
			w.dirty = true
		}
		w.mu.Unlock()
	}
	return err
}

func (w *wal) syncLoop(interval time.Duration) {
	defer close(w.syncDone)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case <-t.C:
			_ = w.Sync() // error already reported through onSync
		}
	}
}

// LastSeq returns the sequence number of the most recently appended
// record (nextSeq-1).
func (w *wal) LastSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextSeq - 1
}

// Segments returns the number of live segment files.
func (w *wal) Segments() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.segments)
}

// TruncateThrough removes segments made obsolete by a checkpoint at
// seq: a segment can go once the NEXT segment's first sequence number
// is ≤ seq+1, because then every record it holds is ≤ seq and the
// snapshot already covers them. The active segment never qualifies
// (its successor does not exist).
func (w *wal) TruncateThrough(seq uint64) (removed int, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	keep := w.segments[:0]
	changed := false
	for i, s := range w.segments {
		if i+1 < len(w.segments) && w.segments[i+1].firstSeq <= seq+1 && s.name != w.name {
			if rerr := w.fsys.Remove(s.name); rerr != nil {
				err = rerr
				keep = append(keep, s)
				continue
			}
			removed++
			changed = true
			continue
		}
		keep = append(keep, s)
	}
	w.segments = keep
	if changed {
		if derr := w.fsys.SyncDir(w.dir); derr != nil && err == nil {
			err = derr
		}
	}
	return removed, err
}

// Close stops the interval syncer, flushes, and closes the active
// segment.
func (w *wal) Close() error {
	select {
	case <-w.stop:
	default:
		close(w.stop)
	}
	<-w.syncDone
	err := w.Sync()
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f != nil {
		if cerr := w.f.Close(); cerr != nil && err == nil {
			err = cerr
		}
		w.f = nil
	}
	return err
}

// ScanStats summarizes one pass over the on-disk log.
type ScanStats struct {
	Segments int    `json:"segments"`
	Records  int    `json:"records"`
	Rows     int    `json:"rows"`
	LastSeq  uint64 `json:"last_seq"`
	// TornDetected is set when the final record of the final segment
	// was incomplete or failed its CRC; Truncated additionally reports
	// that the tail was repaired in place.
	TornDetected bool `json:"torn_detected"`
	Truncated    bool `json:"truncated"`
}

// errMidLogCorruption marks corruption anywhere but the final
// segment's tail — the case recovery refuses to accept silently.
var errMidLogCorruption = errors.New("durable: WAL corrupted mid-log")

// IsMidLogCorruption reports whether err is the recovery-refusing
// mid-log corruption error (as opposed to a tolerated torn tail).
func IsMidLogCorruption(err error) bool { return errors.Is(err, errMidLogCorruption) }

// scanWAL reads every segment in order, invoking apply for each record
// with seq > afterSeq. The final record of the final segment may be
// torn (partial header, short payload, or CRC mismatch): it is
// discarded with a warning and, when repair is set, the segment is
// truncated to the last good boundary so the next scan is clean. The
// same damage anywhere else — or a sequence-number gap — is mid-log
// corruption: scanning stops with errMidLogCorruption unless
// permissive is set, in which case the valid prefix is kept and the
// rest of the log is dropped with a warning.
func scanWAL(fsys FS, dir string, afterSeq uint64, permissive, repair bool, warnf func(string, ...any), apply func(batchRecord) error) (ScanStats, error) {
	if warnf == nil {
		warnf = func(string, ...any) {}
	}
	var stats ScanStats
	segs, err := listSegments(fsys, dir)
	if err != nil {
		if IsNotExist(err) {
			return stats, nil // no directory yet: an empty log
		}
		return stats, err
	}
	stats.Segments = len(segs)
	var prevSeq uint64
	havePrev := false
	for i, seg := range segs {
		last := i == len(segs)-1
		corrupt, err := scanSegment(fsys, seg, last, repair, &stats, &prevSeq, &havePrev, afterSeq, warnf, apply)
		if err != nil {
			return stats, err
		}
		if corrupt != "" {
			if last {
				stats.TornDetected = true
				warnf("durable: torn WAL tail in %s (%s): discarding partial record", seg.name, corrupt)
				break
			}
			if !permissive {
				return stats, fmt.Errorf("%w: %s in segment %s (re-run with -recover-permissive to keep the valid prefix)", errMidLogCorruption, corrupt, seg.name)
			}
			warnf("durable: mid-log corruption in %s (%s): permissive mode keeps the %d-record prefix and drops the rest of the log", seg.name, corrupt, stats.Records)
			break
		}
	}
	return stats, nil
}

// scanSegment reads one segment. It returns a non-empty corruption
// description when the segment's tail is damaged; hard errors (I/O,
// apply failures) come back as err.
func scanSegment(fsys FS, seg segmentInfo, last, repair bool, stats *ScanStats, prevSeq *uint64, havePrev *bool, afterSeq uint64, warnf func(string, ...any), apply func(batchRecord) error) (corruption string, err error) {
	rc, err := fsys.Open(seg.name)
	if err != nil {
		return "", fmt.Errorf("durable: opening WAL segment %s: %w", seg.name, err)
	}
	defer rc.Close()
	size, err := fsys.Size(seg.name)
	if err != nil {
		return "", fmt.Errorf("durable: sizing WAL segment %s: %w", seg.name, err)
	}
	magic := make([]byte, len(walMagic))
	if _, err := io.ReadFull(rc, magic); err != nil {
		return "missing segment header", truncateTo(fsys, seg.name, 0, last, repair, stats)
	}
	if string(magic) != walMagic {
		return "bad segment magic", nil
	}
	goodOff := int64(len(walMagic))
	hdr := make([]byte, recordHeaderSize)
	for {
		_, err := io.ReadFull(rc, hdr)
		if err == io.EOF {
			return "", nil // clean end of segment
		}
		if err != nil {
			return "partial record header", truncateTo(fsys, seg.name, goodOff, last, repair, stats)
		}
		length := uint32(hdr[0]) | uint32(hdr[1])<<8 | uint32(hdr[2])<<16 | uint32(hdr[3])<<24
		sum := uint32(hdr[4]) | uint32(hdr[5])<<8 | uint32(hdr[6])<<16 | uint32(hdr[7])<<24
		if length > maxRecordPayload {
			return "implausible record length", truncateTo(fsys, seg.name, goodOff, last, repair, stats)
		}
		// A length past the segment's end is a short payload: say so
		// before allocating what the header states.
		if int64(length) > size-goodOff-recordHeaderSize {
			return "short record payload", truncateTo(fsys, seg.name, goodOff, last, repair, stats)
		}
		payload := make([]byte, length)
		if _, err := io.ReadFull(rc, payload); err != nil {
			return "short record payload", truncateTo(fsys, seg.name, goodOff, last, repair, stats)
		}
		if crc32.Checksum(payload, crcTable) != sum {
			return "record CRC mismatch", truncateTo(fsys, seg.name, goodOff, last, repair, stats)
		}
		rec, derr := decodeBatchRecord(payload)
		if derr != nil {
			return "undecodable record: " + derr.Error(), truncateTo(fsys, seg.name, goodOff, last, repair, stats)
		}
		if *havePrev && rec.Seq != *prevSeq+1 {
			return fmt.Sprintf("sequence gap (%d after %d)", rec.Seq, *prevSeq), nil
		}
		*prevSeq, *havePrev = rec.Seq, true
		goodOff += int64(recordHeaderSize) + int64(length)
		stats.Records++
		stats.LastSeq = rec.Seq
		if rec.Seq > afterSeq && apply != nil {
			stats.Rows += len(rec.Records)
			if err := apply(rec); err != nil {
				return "", fmt.Errorf("durable: replaying WAL record %d: %w", rec.Seq, err)
			}
		}
	}
}

// truncateTo repairs a torn tail in place when allowed; older-segment
// corruption is never repaired here (the caller decides whether the
// scan may continue).
func truncateTo(fsys FS, name string, off int64, last, repair bool, stats *ScanStats) error {
	if !last || !repair {
		return nil
	}
	if err := fsys.Truncate(name, off); err != nil {
		return fmt.Errorf("durable: truncating torn WAL tail of %s: %w", name, err)
	}
	stats.Truncated = true
	return nil
}
