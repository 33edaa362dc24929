package durable

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

func testBatch(i int) ([]string, [][]string) {
	return nil, [][]string{
		{fmt.Sprintf("%d", i), fmt.Sprintf("g%d", i%3)},
		{fmt.Sprintf("%d.5", i), ""},
	}
}

// collect scans dir and returns the applied records after afterSeq.
func collect(t *testing.T, fsys FS, dir string, afterSeq uint64, permissive bool) ([]batchRecord, ScanStats) {
	t.Helper()
	var recs []batchRecord
	stats, err := scanWAL(fsys, dir, afterSeq, permissive, true, t.Logf, func(r batchRecord) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil {
		t.Fatalf("scanWAL: %v", err)
	}
	return recs, stats
}

// TestWALRoundTrip: appended batches come back in order, bit-identical,
// with contiguous sequence numbers, across every fsync policy.
func TestWALRoundTrip(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncOff} {
		t.Run(policy.String(), func(t *testing.T) {
			fs := NewErrFS()
			w, err := openWAL(fs, "wal", 1, policy, time.Millisecond, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 10; i++ {
				cols, rows := testBatch(i)
				seq, rec, err := w.Append(cols, rows)
				if err != nil {
					t.Fatalf("append %d: %v", i, err)
				}
				if seq != uint64(i+1) || len(rec) <= 0 {
					t.Fatalf("append %d: seq=%d n=%d", i, seq, len(rec))
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			recs, stats := collect(t, fs, "wal", 0, false)
			if len(recs) != 10 || stats.LastSeq != 10 || stats.TornDetected {
				t.Fatalf("scan: %d records, stats=%+v", len(recs), stats)
			}
			for i, r := range recs {
				_, want := testBatch(i)
				if r.Seq != uint64(i+1) || len(r.Records) != len(want) {
					t.Fatalf("record %d: seq=%d rows=%d", i, r.Seq, len(r.Records))
				}
				for ri, row := range r.Records {
					if strings.Join(row, "\x00") != strings.Join(want[ri], "\x00") {
						t.Fatalf("record %d row %d: %q != %q", i, ri, row, want[ri])
					}
				}
			}
		})
	}
}

// TestWALRotationAndTruncateThrough: a tiny segment size forces
// rotation; TruncateThrough retires exactly the fully-covered segments
// and never the active one.
func TestWALRotationAndTruncateThrough(t *testing.T) {
	fs := NewErrFS()
	w, err := openWAL(fs, "wal", 1, FsyncAlways, 0, 64, nil) // rotate almost every append
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		cols, rows := testBatch(i)
		if _, _, err := w.Append(cols, rows); err != nil {
			t.Fatal(err)
		}
	}
	if w.Segments() < 3 {
		t.Fatalf("expected rotation, got %d segments", w.Segments())
	}
	before := w.Segments()
	removed, err := w.TruncateThrough(5)
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 || w.Segments() != before-removed {
		t.Fatalf("truncate through 5: removed=%d segments %d→%d", removed, before, w.Segments())
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Everything after the checkpoint must still replay.
	recs, _ := collect(t, fs, "wal", 5, false)
	if len(recs) != 3 || recs[0].Seq != 6 || recs[2].Seq != 8 {
		t.Fatalf("post-checkpoint replay: %d records, first=%d", len(recs), recs[0].Seq)
	}
}

// TestWALTornTailTruncated: a partial final record is discarded with
// the segment repaired, and the valid prefix replays — never a startup
// failure.
func TestWALTornTailTruncated(t *testing.T) {
	fs := NewErrFS()
	w, err := openWAL(fs, "wal", 1, FsyncAlways, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	name := w.name
	for i := 0; i < 5; i++ {
		cols, rows := testBatch(i)
		if _, _, err := w.Append(cols, rows); err != nil {
			t.Fatal(err)
		}
	}
	_ = w.Close()
	// Tear the tail: chop a few bytes off the last record.
	sz, _ := fs.Size(name)
	if err := fs.Truncate(name, sz-3); err != nil {
		t.Fatal(err)
	}
	recs, stats := collect(t, fs, "wal", 0, false)
	if len(recs) != 4 || !stats.TornDetected || !stats.Truncated {
		t.Fatalf("torn tail: %d records, stats=%+v", len(recs), stats)
	}
	// After repair the segment scans clean.
	recs2, stats2 := collect(t, fs, "wal", 0, false)
	if len(recs2) != 4 || stats2.TornDetected {
		t.Fatalf("post-repair scan: %d records, stats=%+v", len(recs2), stats2)
	}
}

// TestWALMidLogCorruptionRefusal: damage in a non-final segment stops
// recovery with errMidLogCorruption; permissive mode keeps the valid
// prefix instead.
func TestWALMidLogCorruptionRefusal(t *testing.T) {
	fs := NewErrFS()
	w, err := openWAL(fs, "wal", 1, FsyncAlways, 0, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	var firstSeg string
	for i := 0; i < 8; i++ {
		cols, rows := testBatch(i)
		if _, _, err := w.Append(cols, rows); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			firstSeg = w.name
		}
	}
	_ = w.Close()
	if w.Segments() < 2 {
		t.Fatalf("need multiple segments, got %d", w.Segments())
	}
	// Tear the END of the FIRST segment: torn-tail shape, wrong place.
	sz, _ := fs.Size(firstSeg)
	if err := fs.Truncate(firstSeg, sz-3); err != nil {
		t.Fatal(err)
	}
	_, err = scanWAL(fs, "wal", 0, false, true, t.Logf, func(batchRecord) error { return nil })
	if !IsMidLogCorruption(err) {
		t.Fatalf("mid-log corruption = %v, want errMidLogCorruption", err)
	}
	// Permissive: the prefix up to the damage replays, the rest drops.
	recs, _ := collect(t, fs, "wal", 0, true)
	if len(recs) == 0 || len(recs) >= 8 {
		t.Fatalf("permissive prefix: %d records", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(i+1) {
			t.Fatalf("permissive prefix not contiguous at %d: seq %d", i, r.Seq)
		}
	}
}

// TestWALSequenceGapIsCorruption: a missing record (deleted segment in
// the middle) must not replay silently.
func TestWALSequenceGapIsCorruption(t *testing.T) {
	fs := NewErrFS()
	w, err := openWAL(fs, "wal", 1, FsyncAlways, 0, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		cols, rows := testBatch(i)
		if _, _, err := w.Append(cols, rows); err != nil {
			t.Fatal(err)
		}
	}
	segs := append([]segmentInfo(nil), w.segments...)
	_ = w.Close()
	if len(segs) < 3 {
		t.Fatalf("need ≥3 segments, got %d", len(segs))
	}
	if err := fs.Remove(segs[1].name); err != nil {
		t.Fatal(err)
	}
	_, err = scanWAL(fs, "wal", 0, false, true, t.Logf, func(batchRecord) error { return nil })
	if !IsMidLogCorruption(err) {
		t.Fatalf("sequence gap = %v, want errMidLogCorruption", err)
	}
}

// TestWALAppendRollbackOnWriteError: a failed append truncates back to
// the record boundary, so the next append and the final scan stay
// clean — one bad write cannot poison the log.
func TestWALAppendRollbackOnWriteError(t *testing.T) {
	fs := NewErrFS()
	w, err := openWAL(fs, "wal", 1, FsyncAlways, 0, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	cols, rows := testBatch(0)
	if _, _, err := w.Append(cols, rows); err != nil {
		t.Fatal(err)
	}
	fs.FailWriteAt(fs.writeCallsSnapshot() + 1)
	if _, _, err := w.Append(cols, rows); err == nil {
		t.Fatal("append with injected short write should fail")
	}
	// The log must still accept appends and scan cleanly.
	seq, _, err := w.Append(cols, rows)
	if err != nil {
		t.Fatalf("append after rollback: %v", err)
	}
	if seq != 2 {
		t.Fatalf("failed append must not consume a seq: got %d, want 2", seq)
	}
	_ = w.Close()
	recs, stats := collect(t, fs, "wal", 0, false)
	if len(recs) != 2 || stats.TornDetected {
		t.Fatalf("post-rollback scan: %d records, stats=%+v", len(recs), stats)
	}
}

// TestWALFsyncIntervalFlushes: under the interval policy a buffered
// append becomes durable once the background syncer fires.
func TestWALFsyncIntervalFlushes(t *testing.T) {
	fs := NewErrFS()
	w, err := openWAL(fs, "wal", 1, FsyncInterval, time.Millisecond, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	cols, rows := testBatch(0)
	if _, _, err := w.Append(cols, rows); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		w.mu.Lock()
		dirty := w.dirty
		w.mu.Unlock()
		if !dirty {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("interval syncer never flushed")
		}
		time.Sleep(time.Millisecond)
	}
	// Crash without Close: the flushed record must survive.
	fs.Crash()
	fs.Restart()
	recs, _ := collect(t, fs, "wal", 0, false)
	if len(recs) != 1 {
		t.Fatalf("after crash with interval fsync: %d records, want 1", len(recs))
	}
	_ = w.Close()
}

func TestParseFsyncPolicy(t *testing.T) {
	for in, want := range map[string]FsyncPolicy{
		"always": FsyncAlways, "Interval": FsyncInterval, "": FsyncInterval,
		"off": FsyncOff, "none": FsyncOff,
	} {
		got, err := ParseFsyncPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseFsyncPolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseFsyncPolicy("bogus"); err == nil {
		t.Fatal("bogus policy should error")
	}
}

// writeSegment stores b as the WAL segment whose first record is seq.
func writeSegment(t *testing.T, fs *ErrFS, seq uint64, b []byte) {
	t.Helper()
	f, err := fs.Create(join("wal", segmentName(seq)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

func discardf(string, ...any) {}

// scanAllocCeiling is what a scan of an L-byte log may allocate: the
// reader's copy and the payloads are each at most L, every record's
// decode is held to decodeAllocCeiling, and the constant covers the
// segment list, the headers and the warning.
func scanAllocCeiling(l int) uint64 { return 2*uint64(l) + decodeAllocCeiling(l) + 64<<10 }

// scanAllocBytes scans fsys's log without repair and reports the heap
// bytes the scan allocated: the fewer of two runs, as decodeAllocBytes
// does.
func scanAllocBytes(fsys FS) uint64 {
	least := ^uint64(0)
	var before, after runtime.MemStats
	for range 2 {
		runtime.ReadMemStats(&before)
		_, _ = scanWAL(fsys, "wal", 0, false, false, discardf, nil)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return least
}

// TestScanBoundsPayloadBySegment: a 16-byte segment, the magic and one
// header stating a payload of 2^30-1 bytes, is a torn tail with a
// short record payload, found without allocating the stated length.
func TestScanBoundsPayloadBySegment(t *testing.T) {
	seg := append([]byte(walMagic), appendU32(appendU32(nil, 1<<30-1), 0)...)
	fs := NewErrFS()
	writeSegment(t, fs, 1, seg)
	if alloc, limit := scanAllocBytes(fs), scanAllocCeiling(len(seg)); alloc > limit {
		t.Fatalf("scanning a %d-byte segment allocated %d bytes, ceiling %d", len(seg), alloc, limit)
	}
	var warned string
	stats, err := scanWAL(fs, "wal", 0, false, false, func(format string, args ...any) {
		warned = fmt.Sprintf(format, args...)
	}, nil)
	if err != nil || !stats.TornDetected || stats.Records != 0 {
		t.Fatalf("scan = %+v, %v; want a torn tail and no records", stats, err)
	}
	if !strings.Contains(warned, "short record payload") {
		t.Errorf("warning %q should name a short record payload", warned)
	}
}

// FuzzScanWAL feeds arbitrary bytes to the WAL scan as a segment file,
// since recovery reads whatever a segment holds. The scan must never
// panic; it allocates within a constant times the segment's bytes
// however large a length a header states; it applies only records
// framed under a valid CRC in those bytes; and damage it forgives as a
// torn tail at the end of the log, strict mode refuses once another
// segment follows.
func FuzzScanWAL(f *testing.F) {
	seg := func(recs ...batchRecord) []byte {
		b := []byte(walMagic)
		for _, r := range recs {
			b = append(b, frameRecord(r.encode())...)
		}
		return b
	}
	rec := func(seq uint64) batchRecord {
		cols, rows := testBatch(int(seq))
		return batchRecord{Seq: seq, Columns: cols, Records: rows}
	}
	valid := seg(rec(1), rec(2), rec(3))
	for n := range len(valid) + 1 {
		f.Add(valid[:n])
	}
	badCRC := bytes.Clone(valid)
	badCRC[len(badCRC)-1] ^= 1
	f.Add(badCRC)
	f.Add(seg(rec(1), rec(3))) // a sequence gap
	f.Add(append(seg(rec(1)), 1, 2, 3))
	for _, n := range []uint32{1<<30 - 1, 1<<30 + 1, 0xFFFFFFFF} {
		f.Add(append([]byte(walMagic), appendU32(appendU32(nil, n), 0)...))
	}
	f.Add([]byte("FWALSEG2"))

	f.Fuzz(func(t *testing.T, b []byte) {
		lone := NewErrFS()
		writeSegment(t, lone, 1, b)
		if alloc, limit := scanAllocBytes(lone), scanAllocCeiling(len(b)); alloc > limit {
			t.Fatalf("scanning a %d-byte segment allocated %d bytes, ceiling %d", len(b), alloc, limit)
		}
		var applied []batchRecord
		stats, err := scanWAL(lone, "wal", 0, false, false, discardf, func(r batchRecord) error {
			applied = append(applied, r)
			return nil
		})
		if err != nil {
			t.Fatalf("the last segment's damage is a torn tail, got %v", err)
		}
		for _, r := range applied {
			if !bytes.Contains(b, frameRecord(r.encode())) {
				t.Fatalf("applied record %d is not framed under its CRC in the segment", r.Seq)
			}
		}
		two := NewErrFS()
		writeSegment(t, two, 1, b)
		writeSegment(t, two, 1<<40, []byte(walMagic))
		_, err = scanWAL(two, "wal", 0, false, false, discardf, nil)
		if stats.TornDetected && !IsMidLogCorruption(err) {
			t.Fatalf("strict scan with a segment after the damage = %v, want mid-log corruption", err)
		}
		if !stats.TornDetected && err != nil {
			t.Fatalf("strict scan of an undamaged segment = %v", err)
		}
	})
}
