package durable

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"foresight/internal/core"
	"foresight/internal/datagen"
	"foresight/internal/frame"
	"foresight/internal/query"
	"foresight/internal/sketch"
)

// lifeFrame is the base dataset of the multi-life test: two numeric and
// two categorical columns, so batches can name them in any order or
// leave some out.
func lifeFrame() *frame.Frame {
	return frame.MustNew("lives",
		frame.NewNumericColumn("x", []float64{1, 2, 3, 4, 5, 6}),
		frame.NewCategoricalColumn("g", []string{"a", "b", "a", "b", "c", "a"}),
		frame.NewNumericColumn("y", []float64{0.5, math.NaN(), 1.5, 2, 2.5, 3}),
		frame.NewCategoricalColumn("h", []string{"p", "q", "", "p", "q", "p"}),
	)
}

// lifeConfig sizes the store of every engine the life tests build.
var lifeConfig = sketch.ProfileConfig{Seed: 7, K: 32, Spearman: true}

// lifeBatch is batch i of the multi-life test. Batches come in four
// shapes — the frame's order, all columns reordered, two columns, one
// column — and carry missing tokens, padded cells and labels new to
// the dictionaries.
func lifeBatch(i int) frame.RowBatch {
	var b frame.RowBatch
	for r := 0; r < 3+i%3; r++ {
		v := fmt.Sprintf("%d.%d", i, r)
		switch i % 4 {
		case 0:
			b.Records = append(b.Records, []string{v, fmt.Sprintf("n%d", i), "NA", "p"})
		case 1:
			b.Columns = []string{"h", "y", "g", "x"}
			b.Records = append(b.Records, []string{fmt.Sprintf(" m%d ", r), v, "a", ""})
		case 2:
			b.Columns = []string{"g", "x"}
			b.Records = append(b.Records, []string{"b", " " + v})
		case 3:
			b.Columns = []string{"y"}
			b.Records = append(b.Records, []string{[]string{"-", v, "1e3"}[r%3]})
		}
	}
	return b
}

// sameFrame fails unless a and b hold the same columns with the same
// bits: every numeric value's Float64bits, every code and dictionary.
func sameFrame(t *testing.T, label string, a, b *frame.Frame) {
	t.Helper()
	if !slices.Equal(a.Names(), b.Names()) || a.Rows() != b.Rows() {
		t.Fatalf("%s: %v × %d rows vs %v × %d rows", label, a.Names(), a.Rows(), b.Names(), b.Rows())
	}
	for i := range a.Cols() {
		switch ca := a.Column(i).(type) {
		case *frame.NumericColumn:
			va, vb := ca.Values(), b.Column(i).(*frame.NumericColumn).Values()
			for r := range va {
				if math.Float64bits(va[r]) != math.Float64bits(vb[r]) {
					t.Fatalf("%s: %s row %d is %v, want %v", label, a.Names()[i], r, vb[r], va[r])
				}
			}
		case *frame.CategoricalColumn:
			cb := b.Column(i).(*frame.CategoricalColumn)
			if !slices.Equal(ca.Codes(), cb.Codes()) || !slices.Equal(ca.Dict(), cb.Dict()) {
				t.Fatalf("%s: %s codes/dictionary differ", label, a.Names()[i])
			}
		}
	}
}

func saved(t *testing.T, p *sketch.DatasetProfile) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLivesMatchUninterruptedRun: recover → ingest → checkpoint → kill,
// three times over, ends bit for bit where one uninterrupted run of the
// same batches does — the frame (values, codes, dictionaries), the
// profile's Save bytes, and the row section the next checkpoint would
// write. The second life checkpoints a row section seeded from the
// first life's snapshot and its replayed tail; the third recovers from
// it. Every life's store runs on two workers, the uninterrupted one on
// one.
func TestLivesMatchUninterruptedRun(t *testing.T) {
	const batches = 12
	ctx := context.Background()
	whole := lifeEngine(t, batches)

	fs := NewErrFS()
	// life recovers, ingests batches [from, to) with a checkpoint after
	// batch ckpt, and is killed.
	life := func(from, to, ckpt int, want RecoveryStats) (*query.Engine, *Manager) {
		t.Helper()
		fs.Restart()
		par := lifeConfig
		par.Workers = 2
		f := lifeFrame()
		e, err := query.NewEngine(f, core.NewRegistry(), sketch.BuildProfile(f, par))
		if err != nil {
			t.Fatal(err)
		}
		m, err := Open(Options{Dir: "wal", FS: fs, Fsync: FsyncAlways, CheckpointRows: -1, CheckpointBytes: -1})
		if err != nil {
			t.Fatal(err)
		}
		rec, err := m.Recover(e)
		if err != nil {
			t.Fatal(err)
		}
		if rec.SnapshotSeq != want.SnapshotSeq || rec.ReplayedBatches != want.ReplayedBatches {
			t.Fatalf("life from batch %d recovered %+v, want snapshot %d and %d replayed", from, rec, want.SnapshotSeq, want.ReplayedBatches)
		}
		if got := e.Profile().Config.Workers; got != 2 {
			t.Fatalf("life from batch %d: recovered store runs on %d workers, want 2", from, got)
		}
		for i := from; i < to; i++ {
			if _, err := e.Ingest(ctx, lifeBatch(i), nil); err != nil {
				t.Fatalf("batch %d: %v", i, err)
			}
			if i+1 == ckpt {
				if err := m.Checkpoint(); err != nil {
					t.Fatal(err)
				}
			}
		}
		fs.Crash()
		_ = m.Close() // the filesystem is gone; this only stops the manager
		return e, m
	}
	life(0, 6, 4, RecoveryStats{})
	life(6, 11, 9, RecoveryStats{SnapshotSeq: 4, ReplayedBatches: 2})
	e, m := life(11, batches, 0, RecoveryStats{SnapshotSeq: 9, ReplayedBatches: 2})

	sameFrame(t, "frame", whole.Frame(), e.Frame())
	if !bytes.Equal(saved(t, whole.Profile()), saved(t, e.Profile())) {
		t.Error("the profile after three lives saves to other bytes than the uninterrupted one")
	}
	replayed, err := lifeFrame().AppendRows(frame.RowBatch{Records: sectionRecords(t, m.snapRows)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameFrame(t, "row section", whole.Frame(), replayed)
}

// lifeEngine is an engine over lifeFrame with its store under
// lifeConfig, after lifeBatch 0 … batches−1.
func lifeEngine(t *testing.T, batches int) *query.Engine {
	t.Helper()
	f := lifeFrame()
	e, err := query.NewEngine(f, core.NewRegistry(), sketch.BuildProfile(f, lifeConfig))
	if err != nil {
		t.Fatal(err)
	}
	for i := range batches {
		if _, err := e.Ingest(context.Background(), lifeBatch(i), nil); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	return e
}

// recoverLife opens fs's WAL directory, checkpoints left to the caller,
// and recovers e from it.
func recoverLife(t *testing.T, fs *ErrFS, e *query.Engine) (*Manager, RecoveryStats) {
	t.Helper()
	m, err := Open(Options{Dir: "wal", FS: fs, Fsync: FsyncAlways, CheckpointRows: -1, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := m.Recover(e)
	if err != nil {
		t.Fatal(err)
	}
	return m, rec
}

// checkRecovered kills the process behind m and recovers fs into a
// fresh engine. Recovery must start from want's snapshot, replay want's
// number of batches, and end bit for bit where an uninterrupted run of
// lifeBatch 0 … batches−1 does.
func checkRecovered(t *testing.T, fs *ErrFS, m *Manager, want RecoveryStats, batches int) {
	t.Helper()
	fs.Crash()
	_ = m.Close()
	fs.Restart()
	got := lifeEngine(t, 0)
	m, rec := recoverLife(t, fs, got)
	defer m.Close()
	if rec.SnapshotSeq != want.SnapshotSeq || rec.ReplayedBatches != want.ReplayedBatches {
		t.Fatalf("recovered %+v, want the snapshot at seq %d and %d batches replayed", rec, want.SnapshotSeq, want.ReplayedBatches)
	}
	whole := lifeEngine(t, batches)
	sameFrame(t, "frame", whole.Frame(), got.Frame())
	if !bytes.Equal(saved(t, whole.Profile()), saved(t, got.Profile())) {
		t.Error("the recovered profile saves to other bytes than the uninterrupted one")
	}
}

// TestRefusedAppendStaysInSnapshot: a batch whose WAL append fails is
// unacknowledged but live — the engine applied it before the log
// refused it — so the next snapshot's rows and profile must both hold
// it. Batch 1's append is cut short and rolled back, batch 2 is logged
// and checkpointed, batch 3 is logged, and the process dies: recovery
// ends bit for bit where an uninterrupted run of all four batches does.
func TestRefusedAppendStaysInSnapshot(t *testing.T) {
	const batches, refused, ckpt = 4, 1, 2
	ctx := context.Background()
	fs := NewErrFS()
	e := lifeEngine(t, 0)
	m, _ := recoverLife(t, fs, e)
	for i := range batches {
		if i == refused {
			fs.mu.Lock()
			fs.failWriteAt = fs.writeCalls + 1 // this batch's record
			fs.mu.Unlock()
		}
		_, err := e.Ingest(ctx, lifeBatch(i), nil)
		if (err != nil) != (i == refused) {
			t.Fatalf("batch %d: error %v", i, err)
		}
		if i == ckpt {
			if err := m.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	checkRecovered(t, fs, m, RecoveryStats{SnapshotSeq: 2, ReplayedBatches: 1}, batches)
}

// TestEngineMovedBehindManager: an engine rolled back by RestoreSnapshot
// while the manager is its sink, and a batch logged that the engine does
// not hold — both of which the repository benchmark's layered trace does
// to time one ingest over and over — leave a row section that no longer
// describes the engine, so no later (rows, profile, seq) is captured. A
// checkpoint writes the last one that was, whole, and recovery replays
// the log past it, ending where an uninterrupted run of every logged
// batch does.
func TestEngineMovedBehindManager(t *testing.T) {
	ctx := context.Background()
	fs := NewErrFS()
	e := lifeEngine(t, 0)
	m, _ := recoverLife(t, fs, e)
	ingest := func(i int) {
		t.Helper()
		if _, err := e.Ingest(ctx, lifeBatch(i), nil); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	ingest(0)
	ingest(1)
	f, p := e.Frame(), e.Profile()
	ingest(2) // seq 3: the last triple captured
	if err := e.RestoreSnapshot(f, p); err != nil {
		t.Fatal(err)
	}
	ingest(3)
	f4, err := e.Frame().AppendRows(lifeBatch(4), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AppendBatch(lifeBatch(4), query.IngestResult{RowsAppended: f4.Rows() - e.Frame().Rows(), TotalRows: f4.Rows()}); err != nil {
		t.Fatal(err)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	checkRecovered(t, fs, m, RecoveryStats{SnapshotSeq: 3, ReplayedBatches: 2}, 5)
}

// TestCheckpointWhileAppending runs checkpoints — forced ones back to
// back, and the row trigger's on every batch — while batches keep
// arriving. A checkpoint writes the row section it captured while
// AppendBatch appends past it (under -race, a write to the captured
// bytes is reported outright). Every snapshot left is whole batches up
// to its sequence number, and recovery finds every batch.
func TestCheckpointWhileAppending(t *testing.T) {
	const batches = 60
	fs := NewErrFS()
	e, err := newScenarioEngine()
	if err != nil {
		t.Fatal(err)
	}
	m, err := Open(Options{Dir: "wal", FS: fs, Fsync: FsyncAlways, CheckpointRows: crashBatchRows, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Recover(e); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = m.Checkpoint() // fails while the trigger's is running
		}
	}()
	for i := range batches {
		if _, err := e.Ingest(context.Background(), crashBatch(i), nil); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
	}
	close(stop)
	wg.Wait()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if m.Stats().CheckpointErrors != 0 {
		t.Fatalf("%d checkpoints failed", m.Stats().CheckpointErrors)
	}

	snaps, err := listSnapshots(fs, "wal")
	if err != nil || len(snaps) == 0 {
		t.Fatalf("no snapshots (%v)", err)
	}
	for _, si := range snaps {
		body, _, err := loadSnapshot(fs, si.name, t.Logf)
		if err != nil {
			t.Fatal(err)
		}
		if body.Rows.n != int(body.Seq)*crashBatchRows {
			t.Fatalf("snapshot %d holds %d rows", body.Seq, body.Rows.n)
		}
		for b := range int(body.Seq) {
			for r, row := range crashBatch(b).Records {
				if !slices.Equal(body.Records[b*crashBatchRows+r], row) {
					t.Fatalf("snapshot %d: batch %d row %d is %q, want %q", body.Seq, b, r, body.Records[b*crashBatchRows+r], row)
				}
			}
		}
	}
	fs.Restart()
	recoverAndVerify(t, fs, batches, batches, "after concurrent checkpoints")
}

// snapshotFile frames body as a snapshot file with the given checksum.
func snapshotFile(body []byte, sum uint32) []byte {
	return append(appendU32(appendU64([]byte(snapMagic), uint64(len(body))), sum), body...)
}

func joinPieces(b *snapshotBody) []byte {
	p := b.pieces()
	return bytes.Join(p[:], nil)
}

// parseAllocBytes parses file and reports the heap bytes it allocated:
// the fewer of two runs, as decodeAllocBytes does.
func parseAllocBytes(file []byte) (*snapshotBody, uint64, error) {
	var body *snapshotBody
	var err error
	least := ^uint64(0)
	var before, after runtime.MemStats
	for range 2 {
		runtime.ReadMemStats(&before)
		body, err = parseSnapshot(file)
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	return body, least, err
}

// FuzzSnapshotBody feeds arbitrary bodies to the snapshot decoder,
// which reads whatever bytes it finds on disk, framed with their
// correct checksum so that the fuzzer reaches the decoding. It must
// never panic; its allocation stays within what the length guards
// allow however large a count the body states; the same body under a
// wrong checksum is refused; and any body it accepts is canonical:
// re-encoding it, rows rebuilt from the decoded cells, reproduces it
// byte for byte. The profile section is opaque bytes here — its own
// decoder is sketch.LoadProfile's.
func FuzzSnapshotBody(f *testing.F) {
	var rows rowSection
	rows.add([]string{"x", "g"}, nil, [][]string{{"1.5", "a"}, {"", "b"}})
	rows.add([]string{"x", "g"}, []string{"g"}, [][]string{{"c"}})
	full := joinPieces(&snapshotBody{Seq: 9, BaseRows: 4, Cols: []string{"x", "g"}, Rows: rows, Profile: []byte("profile")})
	f.Add(joinPieces(&snapshotBody{}))
	f.Add(full)
	f.Add(joinPieces(&snapshotBody{Seq: 1 << 40, Cols: []string{"x"}, Profile: []byte{}}))
	for n := range len(full) {
		f.Add(full[:n])
	}
	f.Add(append(slices.Clone(full), 0))
	noProfile := joinPieces(&snapshotBody{Seq: 2, Cols: []string{"x"}})
	f.Add(append(noProfile[:len(noProfile)-1:len(noProfile)-1], 2)) // a profile flag of 2
	// In each count position (columns, column-name length, rows, row
	// width, profile length), a count the bytes cannot hold: a moderate
	// one and a huge one.
	head := appendU64(appendU64(nil, 3), 4)
	for _, n := range []uint32{1 << 12, 0xFFFFFFFF} {
		f.Add(appendU32(head, n))
		f.Add(appendU32(appendU32(head, 1), n))
		f.Add(appendU32(appendU32(head, 0), n))
		f.Add(appendU32(appendU32(appendU32(head, 0), 1), n))
		f.Add(appendU64(append(appendU32(appendU32(head, 0), 0), 1), uint64(n)<<20))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		sum := crc32.Checksum(body, crcTable)
		if _, err := parseSnapshot(snapshotFile(body, sum^1)); err == nil {
			t.Fatal("accepted a body under a wrong checksum")
		}
		got, alloc, err := parseAllocBytes(snapshotFile(body, sum))
		if limit := decodeAllocCeiling(len(body)); alloc > limit {
			t.Fatalf("parsing a %d-byte body allocated %d, ceiling %d", len(body), alloc, limit)
		}
		if err != nil {
			return
		}
		rebuilt := *got
		rebuilt.Rows = rowSection{}
		rebuilt.Rows.add(nil, nil, got.Records)
		if enc := joinPieces(&rebuilt); !bytes.Equal(enc, body) {
			t.Fatalf("accepted body re-encodes differently:\n in  %x\n out %x", body, enc)
		}
	})
}

// BenchmarkCheckpoint is one forced checkpoint at the repository
// benchmark's ingest shape after its ingests: a 20 000-row × (48+4)
// base, 12 060 rows appended since (48 batches of 250, 6 of 10), and
// the profile, written to a snapshot in a temporary directory. It
// reports ms per checkpoint beside the allocations.
func BenchmarkCheckpoint(b *testing.B) {
	const base, appended = 20000, 12060
	src := datagen.Scalable(datagen.ScalableConfig{Rows: base + appended, NumericCols: 48, CatCols: 4, Seed: 5})
	keep := make([]bool, src.Rows())
	for i := range base {
		keep[i] = true
	}
	f, err := src.FilterRows(keep)
	if err != nil {
		b.Fatal(err)
	}
	e, err := query.NewEngine(f, core.NewRegistry(), sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 1, Spearman: true, Workers: -1}))
	if err != nil {
		b.Fatal(err)
	}
	m, err := Open(Options{Dir: b.TempDir(), Fsync: FsyncOff, CheckpointRows: -1, CheckpointBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Recover(e); err != nil {
		b.Fatal(err)
	}
	for from := base; from < base+appended; {
		n := 250
		if from >= base+48*250 {
			n = 10
		}
		batch := frame.RowBatch{}
		for r := from; r < from+n; r++ {
			rec := make([]string, src.Cols())
			for c := range rec {
				rec[c] = src.Column(c).StringAt(r)
			}
			batch.Records = append(batch.Records, rec)
		}
		if _, err := e.Ingest(context.Background(), batch, nil); err != nil {
			b.Fatal(err)
		}
		from += n
	}
	b.ReportAllocs()
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		if err := m.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(time.Since(start).Seconds()*1e3/float64(b.N), "ms")
}
