package durable

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"foresight/internal/core"
	"foresight/internal/frame"
	"foresight/internal/query"
	"foresight/internal/sketch"
	"foresight/internal/sketch/sketchcheck"
)

// The crash-matrix tests drive the full durability stack — manager,
// WAL, snapshots — through ErrFS with a simulated crash at EVERY
// mutating filesystem operation a scenario performs, then restart and
// recover. The invariant under every crash point:
//
//	acked batches ⊆ recovered rows ⊆ attempted batches,
//
// recovered rows are a whole-batch prefix (no torn batch half-applied),
// and every recovered cell is bit-identical to what was ingested.

const crashBatchRows = 3

// crashProfileConfig sizes the sketch store of every scenario engine
// and of the cold rebuild recovery is checked against.
var crashProfileConfig = sketch.ProfileConfig{Seed: 7, K: 32}

// baseTestFrame returns the fixed base dataset every scenario starts
// from: numeric x, categorical g — enough to exercise both column
// kinds through snapshot render and replay.
func baseTestFrame() *frame.Frame {
	return frame.MustNew("crash",
		frame.NewNumericColumn("x", []float64{1, 2, 3, 4}),
		frame.NewCategoricalColumn("g", []string{"a", "b", "a", "b"}),
	)
}

func newCrashEngine(t *testing.T) *query.Engine {
	t.Helper()
	f := baseTestFrame()
	p := sketch.BuildProfile(f, crashProfileConfig)
	e, err := query.NewEngine(f, core.NewRegistry(), p)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// crashBatch renders batch i: rows with distinct, recognizable cells.
func crashBatch(i int) frame.RowBatch {
	rows := make([][]string, crashBatchRows)
	for r := range rows {
		rows[r] = []string{fmt.Sprintf("%d.25", i*10+r), fmt.Sprintf("g%d", (i+r)%4)}
	}
	return frame.RowBatch{Records: rows}
}

// runScenario executes one ingest scenario against fs: open + recover,
// ingest `batches` batches (forcing a synchronous checkpoint after
// checkpointAfter batches when > 0), close. It returns how many
// batches were acked before the first failure. fsync=always, so an ack
// means durable.
func runScenario(fs *ErrFS, batches, checkpointAfter int) (acked int) {
	e, err := newScenarioEngine()
	if err != nil {
		return 0
	}
	m, err := Open(Options{
		Dir: "wal", FS: fs, Fsync: FsyncAlways,
		CheckpointRows: -1, CheckpointBytes: -1, // explicit checkpoints only: deterministic op sequence
	})
	if err != nil {
		return 0
	}
	defer m.Close()
	if _, err := m.Recover(e); err != nil {
		return 0
	}
	prior := int(m.Recovery().LastSeq) // batches already durable from an earlier life
	ctx := context.Background()
	for i := 0; i < batches; i++ {
		if _, err := e.Ingest(ctx, crashBatch(prior+i), nil); err != nil {
			return acked
		}
		acked++
		if checkpointAfter > 0 && i+1 == checkpointAfter {
			_ = m.Checkpoint() // a failed checkpoint must not lose acked batches
		}
	}
	return acked
}

// newScenarioEngine builds the engine outside the testing.T path so
// runScenario can be reused by the dry run and every crash point.
func newScenarioEngine() (*query.Engine, error) {
	f := baseTestFrame()
	p := sketch.BuildProfile(f, crashProfileConfig)
	return query.NewEngine(f, core.NewRegistry(), p)
}

// recoverAndVerify restarts fs, recovers into a fresh engine, and
// checks the durability invariant: at least ackedMin whole batches
// present, in order, bit-identical, no partial batch.
func recoverAndVerify(t *testing.T, fs *ErrFS, ackedMin, attempted int, label string) {
	t.Helper()
	fs.Restart()
	e := newCrashEngine(t)
	base := e.Frame().Rows()
	m, err := Open(Options{Dir: "wal", FS: fs, Fsync: FsyncAlways, CheckpointRows: -1, CheckpointBytes: -1})
	if err != nil {
		t.Fatalf("%s: open after restart: %v", label, err)
	}
	defer m.Close()
	rec, err := m.Recover(e)
	if err != nil {
		t.Fatalf("%s: recover: %v", label, err)
	}
	got := e.Frame().Rows() - base
	if got%crashBatchRows != 0 {
		t.Fatalf("%s: recovered %d rows — not a whole number of batches", label, got)
	}
	gotBatches := got / crashBatchRows
	if gotBatches < ackedMin {
		t.Fatalf("%s: recovered %d batches < %d acked (recovery=%+v)", label, gotBatches, ackedMin, rec)
	}
	if gotBatches > attempted {
		t.Fatalf("%s: recovered %d batches > %d attempted", label, gotBatches, attempted)
	}
	// Bit-identical replay: every recovered cell matches what the
	// original batch carried, in ingest order.
	xcol, _ := e.Frame().Lookup("x")
	gcol, _ := e.Frame().Lookup("g")
	for b := 0; b < gotBatches; b++ {
		want := crashBatch(b)
		for r, row := range want.Records {
			i := base + b*crashBatchRows + r
			if xcol.StringAt(i) != row[0] || gcol.StringAt(i) != row[1] {
				t.Fatalf("%s: batch %d row %d: got (%s,%s) want (%s,%s)",
					label, b, r, xcol.StringAt(i), gcol.StringAt(i), row[0], row[1])
			}
		}
	}
	if m.wal == nil {
		t.Fatalf("%s: recovery did not open the WAL for appending", label)
	}
	checkRowSection(t, m, gotBatches, label)
}

// sectionRecords decodes a row section.
func sectionRecords(t *testing.T, s rowSection) [][]string {
	t.Helper()
	c := &cursor{b: slices.Concat(append([][]byte{appendU32(nil, uint32(s.n))}, s.blocks...)...)}
	recs := c.rows("section row")
	if c.err != nil || c.off != len(c.b) {
		t.Fatalf("row section does not decode: %v (%d of %d bytes read)", c.err, c.off, len(c.b))
	}
	return recs
}

// checkRowSection requires the row section m's next checkpoint writes
// to be exactly the first `batches` scenario batches: the manager's
// memory is the durable prefix, neither more nor less.
func checkRowSection(t *testing.T, m *Manager, batches int, label string) {
	t.Helper()
	m.mu.Lock()
	rows := m.snapRows
	m.mu.Unlock()
	recs := sectionRecords(t, rows)
	if len(recs) != batches*crashBatchRows {
		t.Fatalf("%s: row section holds %d rows, want %d batches of %d", label, len(recs), batches, crashBatchRows)
	}
	for b := 0; b < batches; b++ {
		for r, row := range crashBatch(b).Records {
			if !slices.Equal(recs[b*crashBatchRows+r], row) {
				t.Fatalf("%s: row section batch %d row %d is %q, want %q", label, b, r, recs[b*crashBatchRows+r], row)
			}
		}
	}
}

// TestCrashMatrixFreshLog crashes a fresh-directory scenario (6
// batches, checkpoint after 3) at every filesystem operation it
// performs, restarts, and verifies recovery each time.
func TestCrashMatrixFreshLog(t *testing.T) {
	const batches, ckptAfter = 6, 3
	dry := NewErrFS()
	ackedFull := runScenario(dry, batches, ckptAfter)
	if ackedFull != batches {
		t.Fatalf("fault-free dry run acked %d/%d", ackedFull, batches)
	}
	ops := dry.Ops()
	if ops < 20 {
		t.Fatalf("implausibly few ops in dry run: %d", ops)
	}
	recoverAndVerify(t, dry, batches, batches, "fault-free")

	for n := 1; n <= ops; n++ {
		fs := NewErrFS()
		fs.CrashAt(n)
		acked := runScenario(fs, batches, ckptAfter)
		if !fs.Crashed() {
			t.Fatalf("crash point %d/%d did not fire", n, ops)
		}
		recoverAndVerify(t, fs, acked, batches, fmt.Sprintf("crash@%d (acked %d)", n, acked))
	}
}

// runAsyncScenario is runScenario with the checkpoints left to the
// row trigger, which fires every second batch; each is waited for
// before the next batch, so the op sequence is deterministic. After
// every batch, acked or not, the row section the next checkpoint writes
// must be exactly the acked batches, and the running section must hold
// every row the engine does, a batch the WAL refused included.
func runAsyncScenario(t *testing.T, fs *ErrFS, batches int) (acked int) {
	e, err := newScenarioEngine()
	if err != nil {
		return 0
	}
	m, err := Open(Options{
		Dir: "wal", FS: fs, Fsync: FsyncAlways,
		CheckpointRows: 2 * crashBatchRows, CheckpointBytes: -1,
	})
	if err != nil {
		return 0
	}
	defer m.Close()
	if _, err := m.Recover(e); err != nil {
		return 0
	}
	prior := int(m.Recovery().LastSeq)
	for i := 0; i < batches; i++ {
		_, err := e.Ingest(context.Background(), crashBatch(prior+i), nil)
		m.ckptWG.Wait()
		if err == nil {
			acked++
		}
		label := fmt.Sprintf("after batch %d", prior+i)
		checkRowSection(t, m, prior+acked, label)
		m.mu.Lock()
		running := m.rows.n
		m.mu.Unlock()
		if want := e.Frame().Rows() - baseTestFrame().Rows(); running != want {
			t.Fatalf("%s: running row section holds %d rows, the engine appended %d", label, running, want)
		}
		if err != nil {
			return acked
		}
	}
	return acked
}

// TestCrashMatrixAsyncCheckpoints crashes a scenario whose checkpoints
// the row trigger fires (every second batch, CheckpointRows = 6) at
// every filesystem operation it performs. At every fault point the row
// section a checkpoint would write is the acked prefix, and recovery — from
// whichever snapshot survived, re-seeding the section from it and the
// replayed tail — yields that prefix again, in the frame and in the
// section the next checkpoint would write.
func TestCrashMatrixAsyncCheckpoints(t *testing.T) {
	const batches = 7
	dry := NewErrFS()
	if acked := runAsyncScenario(t, dry, batches); acked != batches {
		t.Fatalf("fault-free dry run acked %d/%d", acked, batches)
	}
	ops := dry.Ops()
	recoverAndVerify(t, dry, batches, batches, "fault-free")
	if snaps, _ := listSnapshots(dry, "wal"); len(snaps) == 0 {
		t.Fatal("the row trigger wrote no snapshot")
	}

	for n := 1; n <= ops; n++ {
		fs := NewErrFS()
		fs.CrashAt(n)
		acked := runAsyncScenario(t, fs, batches)
		if !fs.Crashed() {
			t.Fatalf("crash point %d/%d did not fire", n, ops)
		}
		recoverAndVerify(t, fs, acked, batches, fmt.Sprintf("crash@%d (acked %d)", n, acked))
	}
}

// TestCrashMatrixRestartedLog is the second life: a populated
// directory (snapshot + WAL tail from a clean first run) crashed at
// every operation of a recover-and-continue scenario. Batches from the
// first life must survive every second-life crash.
func TestCrashMatrixRestartedLog(t *testing.T) {
	const first, second, ckptAfter = 4, 3, 2
	seed := func() *ErrFS {
		fs := NewErrFS()
		if acked := runScenario(fs, first, ckptAfter); acked != first {
			t.Fatalf("seeding run acked %d/%d", acked, first)
		}
		fs.Restart() // the first life ends with a clean restart
		return fs
	}

	dry := seed()
	before := dry.Ops()
	if acked := runScenario(dry, second, 0); acked != second {
		t.Fatalf("dry second life acked %d/%d", acked, second)
	}
	ops := dry.Ops() - before
	recoverAndVerify(t, dry, first+second, first+second, "fault-free second life")

	for n := 1; n <= ops; n++ {
		fs := seed()
		fs.CrashAt(fs.Ops() + n)
		acked := runScenario(fs, second, 0)
		if !fs.Crashed() {
			t.Fatalf("crash point %d/%d did not fire", n, ops)
		}
		recoverAndVerify(t, fs, first+acked, first+second,
			fmt.Sprintf("second-life crash@%d (acked %d+%d)", n, first, acked))
	}
}

// TestRecoverySurvivesConcurrentQueries replays a long WAL tail into a
// live engine while query goroutines hammer it — the readiness window
// where foresightd already serves reads. Run under -race: replay uses
// the same ingest path as live traffic, so every query must see a
// consistent snapshot.
func TestRecoverySurvivesConcurrentQueries(t *testing.T) {
	fs := NewErrFS()
	const batches = 40
	if acked := runScenario(fs, batches, 0); acked != batches {
		t.Fatalf("seed acked %d/%d", acked, batches)
	}
	fs.Restart()

	e := newCrashEngine(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := e.ExecuteContext(context.Background(), query.Query{K: 2}); err != nil {
					t.Errorf("query during replay: %v", err)
					return
				}
			}
		}()
	}
	m, err := Open(Options{Dir: "wal", FS: fs, Fsync: FsyncAlways, CheckpointRows: -1, CheckpointBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	rec, err := m.Recover(e)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("recover under load: %v", err)
	}
	if want := baseTestFrame().Rows() + batches*crashBatchRows; e.Frame().Rows() != want {
		t.Fatalf("recovered rows = %d, want %d (recovery=%+v)", e.Frame().Rows(), want, rec)
	}
}

// TestRecoveredProfileMatchesColdRebuild is the selfcheck -wal gate in
// unit form: after recovery, the engine's incrementally-extended
// profile must agree with a cold from-scratch build of the recovered
// frame within the estimator tolerance.
func TestRecoveredProfileMatchesColdRebuild(t *testing.T) {
	fs := NewErrFS()
	const batches = 12
	if acked := runScenario(fs, batches, 6); acked != batches {
		t.Fatalf("seed acked %d/%d", acked, batches)
	}
	fs.Restart()
	e := newCrashEngine(t)
	m, err := Open(Options{Dir: "wal", FS: fs, Fsync: FsyncAlways, ReadOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Recover(e); err != nil {
		t.Fatal(err)
	}
	p := e.Profile()
	if p == nil {
		t.Fatal("recovered engine lost its profile")
	}
	if p.Rows != e.Frame().Rows() {
		t.Fatalf("recovered profile covers %d rows, frame has %d", p.Rows, e.Frame().Rows())
	}
	r := &sketchcheck.Report{}
	cold := sketch.BuildProfile(e.Frame(), crashProfileConfig)
	sketchcheck.CheckProfilesCompatible(r, "wal-recovered", p, cold, sketchcheck.DefaultScoreTol, false)
	if r.Checked == 0 || !r.Ok() {
		t.Fatalf("recovered vs cold rebuild: %d checks, %v", r.Checked, r.Err())
	}
}

// TestRecoverRefusesForeignDataset: pointing -wal-dir at another
// dataset's log must fail loudly, not replay nonsense.
func TestRecoverRefusesForeignDataset(t *testing.T) {
	fs := NewErrFS()
	if acked := runScenario(fs, 4, 2); acked != 4 {
		t.Fatal("seed failed")
	}
	fs.Restart()
	other := frame.MustNew("other",
		frame.NewNumericColumn("y", []float64{9, 8}),
		frame.NewCategoricalColumn("g", []string{"a", "b"}),
	)
	e, err := query.NewEngine(other, core.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Open(Options{Dir: "wal", FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	if _, err := m.Recover(e); err == nil {
		t.Fatal("recovery into a different dataset should refuse")
	}
}

// TestManagerCheckpointTruncatesWAL: after a checkpoint, retired
// segments are gone, and a restart recovers from snapshot + short tail
// rather than replaying the whole history.
func TestManagerCheckpointTruncatesWAL(t *testing.T) {
	fs := NewErrFS()
	e, err := newScenarioEngine()
	if err != nil {
		t.Fatal(err)
	}
	m, err := Open(Options{
		Dir: "wal", FS: fs, Fsync: FsyncAlways, SegmentBytes: 64,
		CheckpointRows: -1, CheckpointBytes: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := m.Recover(e); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := e.Ingest(ctx, crashBatch(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	segsBefore := m.wal.Segments()
	if err := m.Checkpoint(); err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if m.wal.Segments() >= segsBefore {
		t.Fatalf("checkpoint retired no segments (%d → %d)", segsBefore, m.wal.Segments())
	}
	st := m.Stats()
	if st.Checkpoints != 1 || st.CheckpointSeq != st.LastSeq {
		t.Fatalf("stats after checkpoint: %+v", st)
	}
	_ = m.Close()
	recoverAndVerify(t, fs, 6, 6, "post-checkpoint restart")
}
