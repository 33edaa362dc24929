package durable

import (
	"context"
	"os"
	"strings"
	"testing"
)

// TestRecoverSnapshotWithV2Profile restarts on a WAL directory whose
// only record of six acked batches is a snapshot written by the release
// before profile wire version 3 (testdata/v2-snap-…: runScenario's six
// batches, checkpointed, so the WAL segments that held them are gone).
// Its profile's dots follow the old direction stream and must not be
// extended; its rows are as good as ever. Recovery — not permissive —
// has to keep the rows and re-sketch them, not skip the snapshot (which
// would lose the batches) and not fail.
func TestRecoverSnapshotWithV2Profile(t *testing.T) {
	snap, err := os.ReadFile("testdata/v2-snap-0000000000000006.snap")
	if err != nil {
		t.Fatal(err)
	}
	fs := NewErrFS()
	if err := fs.MkdirAll("wal"); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create("wal/" + snapshotName(6))
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
	recoverAndVerify(t, fs, 6, 6, "v2 snapshot")

	// The same again by hand, for what recoverAndVerify does not look at.
	fs.Restart()
	e := newCrashEngine(t)
	base := e.Frame().Rows()
	var logged []string
	m, err := Open(Options{Dir: "wal", FS: fs, Fsync: FsyncAlways, CheckpointRows: -1, CheckpointBytes: -1,
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
