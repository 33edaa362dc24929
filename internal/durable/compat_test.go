package durable

import (
	"bytes"
	"context"
	"os"
	"slices"
	"strings"
	"testing"

	"foresight/internal/query"
	"foresight/internal/sketch/sketchcheck"
)

// plantSnapshot puts the fixture testdata/<file> into a fresh ErrFS as
// the snapshot of sequence seq, durably.
func plantSnapshot(t *testing.T, file string, seq uint64) *ErrFS {
	t.Helper()
	snap, err := os.ReadFile("testdata/" + file)
	if err != nil {
		t.Fatal(err)
	}
	fs := NewErrFS()
	if err := fs.MkdirAll("wal"); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("wal/" + snapshotName(seq))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(snap); err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir("wal"); err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestRecoverSnapshotWithV2Profile restarts on a WAL directory whose
// only record of six acked batches is a snapshot written by the release
// before profile wire version 3 (testdata/v2-snap-…: runScenario's six
// batches, checkpointed, so the WAL segments that held them are gone).
// Its profile's dots follow the old direction stream and must not be
// extended; its rows are as good as ever. Recovery — not permissive —
// has to keep the rows and re-sketch them, not skip the snapshot (which
// would lose the batches) and not fail.
func TestRecoverSnapshotWithV2Profile(t *testing.T) {
	fs := plantSnapshot(t, "v2-snap-0000000000000006.snap", 6)
	recoverAndVerify(t, fs, 6, 6, "v2 snapshot")

	// The same again by hand, for what recoverAndVerify does not look at.
	fs.Restart()
	e := newCrashEngine(t)
	base := e.Frame().Rows()
	var logged []string
	m, err := Open(Options{Dir: "wal", FS: fs, Fsync: FsyncAlways, CheckpointRows: -1,
		Logf: func(format string, args ...any) { logged = append(logged, format) }})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	rec, err := m.Recover(e)
	if err != nil {
		t.Fatal(err)
	}
	if rec.SnapshotSeq != 6 || rec.SnapshotRows != 6*crashBatchRows || rec.SnapshotsSkipped != 0 || rec.LastSeq != 6 {
		t.Errorf("recovery stats %+v: the snapshot's rows were not taken", rec)
	}
	if len(logged) != 1 || !strings.Contains(logged[0], "re-sketching") {
		t.Errorf("logged %q, want one line saying the rows are re-sketched", logged)
	}
	if p := e.Profile(); p == nil || p.Rows != base+6*crashBatchRows {
		t.Fatalf("profile after recovery covers %v rows, frame has %d", p, e.Frame().Rows())
	}
	// The re-sketched profile extends, and the next ack is sequence 7.
	if _, err := e.Ingest(context.Background(), crashBatch(6), nil); err != nil {
		t.Fatalf("ingest after recovery: %v", err)
	}
	if st := m.Stats(); st.LastSeq != 7 || e.Profile().Rows != e.Frame().Rows() {
		t.Errorf("after one more batch: last seq %d, profile rows %d, frame rows %d", st.LastSeq, e.Profile().Rows, e.Frame().Rows())
	}
}

// TestRecoverSnapshotWithParentV3Profile restarts on a snapshot written
// by the release before sketch coins were hashed from stream position
// (testdata/v3-snap-…: the same six batches, checkpointed, from an
// engine whose row sample holds 8 of its 22 rows, and whose numeric
// column still kept a value reservoir, which the decoder skips). The
// wire version did not change: that profile's sketches — a row sample
// drawn by the old shuffle — are valid states for the new coins to
// continue. Recovery restores it as it is, it keeps extending, and a
// crash four batches later recovers (snapshot plus WAL tail) to the
// bytes the engine had reached.
func TestRecoverSnapshotWithParentV3Profile(t *testing.T) {
	fs := plantSnapshot(t, "v3-snap-0000000000000006.snap", 6)
	recoverAndVerify(t, fs, 6, 6, "v3 snapshot")

	life := func() (*Manager, *query.Engine, RecoveryStats) {
		t.Helper()
		fs.Restart()
		e := newCrashEngine(t)
		m, err := Open(Options{Dir: "wal", FS: fs, Fsync: FsyncAlways, CheckpointRows: -1,
			Logf: func(format string, args ...any) { t.Errorf("recovery logged: "+format, args...) }})
		if err != nil {
			t.Fatal(err)
		}
		rec, err := m.Recover(e)
		if err != nil {
			t.Fatal(err)
		}
		return m, e, rec
	}
	m, e, rec := life()
	p := e.Profile()
	if rec.SnapshotSeq != 6 || p.Config.RowSampleSize != 8 || !slices.Equal(p.RowSample.Indexes(), []int{2, 3, 8, 11, 13, 15, 16, 21}) {
		t.Fatalf("recovery %+v did not restore the snapshot's profile: sample size %d, row sample %v",
			rec, p.Config.RowSampleSize, p.RowSample.Indexes())
	}
	for i := 6; i < 10; i++ {
		if _, err := e.Ingest(context.Background(), crashBatch(i), nil); err != nil {
			t.Fatalf("batch %d after recovery: %v", i, err)
		}
		p, x := e.Profile(), e.Frame().NumericColumns()[0].Values()
		r := &sketchcheck.Report{}
		sketchcheck.CheckProfileInvariants(r, p, e.Frame())
		if !r.Ok() {
			t.Fatalf("after batch %d: %v", i, r.Violations)
		}
		// The row sample still names distinct rows of the frame, and the
		// gathers still hold them.
		sampled, _ := p.Sample().Numeric("x")
		for j, row := range p.RowSample.Indexes() {
			if row < 0 || row >= len(x) || slices.Index(p.RowSample.Indexes(), row) != j {
				t.Fatalf("after batch %d: row sample %v over %d rows", i, p.RowSample.Indexes(), len(x))
			}
			if got := sampled.At(j); got != x[row] {
				t.Fatalf("after batch %d: slot %d holds %v, row %d is %v", i, j, got, row, x[row])
			}
		}
	}
	want := saved(t, e.Profile())
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	m, e, rec = life()
	defer m.Close()
	if rec.SnapshotSeq != 6 || rec.ReplayedBatches != 4 {
		t.Fatalf("second recovery %+v: want the snapshot and a tail of 4 batches", rec)
	}
	if !bytes.Equal(saved(t, e.Profile()), want) {
		t.Error("the profile recovered from snapshot + WAL tail saves to other bytes than the one that was live")
	}
}
