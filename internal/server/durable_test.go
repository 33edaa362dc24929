package server

import (
	"context"
	"encoding/json"
	"flag"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"foresight/internal/core"
	"foresight/internal/durable"
	"foresight/internal/frame"
	"foresight/internal/query"
	"foresight/internal/sketch"
)

// newDurableServer serves a small live-ingest dataset with a WAL
// manager over an ErrFS, recovered and ready.
func newDurableServer(t *testing.T) (*httptest.Server, *Server, *durable.Manager, *durable.ErrFS) {
	t.Helper()
	f := frame.MustNew("live",
		frame.NewNumericColumn("x", []float64{1, 2, 3}),
		frame.NewCategoricalColumn("g", []string{"a", "b", "a"}),
	)
	profile := sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 1, K: 32})
	engine, err := query.NewEngine(f, core.NewRegistry(), profile)
	if err != nil {
		t.Fatal(err)
	}
	fs := durable.NewErrFS()
	m, err := durable.Open(durable.Options{Dir: "wal", FS: fs, Fsync: durable.FsyncAlways, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Recover(engine); err != nil {
		t.Fatal(err)
	}
	srv := New(engine, 5, true, Options{Durable: m})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		_ = m.Close()
	})
	return ts, srv, m, fs
}

// holdFS is the production filesystem with every snapshot read held
// until release is closed; held is closed by the first one.
type holdFS struct {
	durable.FS
	once    sync.Once
	held    chan struct{}
	release chan struct{}
}

func (h *holdFS) Open(name string) (io.ReadCloser, error) {
	if strings.HasSuffix(name, ".snap") {
		h.once.Do(func() { close(h.held) })
		<-h.release
	}
	return h.FS.Open(name)
}

// oecdRows is a batch of n rows of f from row from on, every cell as
// the frame renders it.
func oecdRows(f *frame.Frame, from, n int) frame.RowBatch {
	recs := make([][]string, n)
	for r := range recs {
		for _, name := range f.Names() {
			col, _ := f.Lookup(name)
			recs[r] = append(recs[r], col.StringAt(from+r))
		}
	}
	return frame.RowBatch{Records: recs}
}

// TestRestartAnswersWithEveryAckedRow restarts foresightd's Run on a WAL
// directory holding a snapshot and a tail, with the snapshot read held
// for a while. Nothing may answer before recovery ends: the first
// /api/stats reply, during the hold or after it, reports the base
// dataset plus every acknowledged row.
func TestRestartAnswersWithEveryAckedRow(t *testing.T) {
	dir := t.TempDir()
	f, err := LoadData("oecd", 42)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Preprocess(f, "", 42, 1)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := query.NewEngine(f, core.NewRegistry(), p)
	if err != nil {
		t.Fatal(err)
	}
	m, err := durable.Open(durable.Options{Dir: dir, Fsync: durable.FsyncAlways, CheckpointRows: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Recover(engine); err != nil {
		t.Fatal(err)
	}
	for i, n := range []int{2, 3, 1} { // the snapshot takes two batches, the tail one
		if i == 2 {
			if err := m.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := engine.Ingest(context.Background(), oecdRows(f, i, n), nil); err != nil {
			t.Fatal(err)
		}
	}
	acked := engine.Frame().Rows()
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	hold := &holdFS{FS: durable.OS, held: make(chan struct{}), release: make(chan struct{})}
	durable.OS = hold
	prevLog := log.Writer()
	log.SetOutput(io.Discard)
	t.Cleanup(func() { durable.OS = hold.FS; log.SetOutput(prevLog) })
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	flags := flag.NewFlagSet("foresightd", flag.ContinueOnError)
	fl := RegisterFlags(flags)
	if err := flags.Parse([]string{"-data", "oecd", "-addr", addr, "-quiet", "-wal-dir", dir, "-fsync", "always"}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- fl.Run("test") }()
	select {
	case <-hold.held:
	case err := <-done:
		t.Fatalf("Run returned before it read the snapshot: %v", err)
	case <-time.After(time.Minute):
		t.Fatal("recovery never read the snapshot")
	}

	type restartStats struct {
		Rows    int `json:"rows"`
		Durable struct {
			Recovery durable.RecoveryStats `json:"recovery"`
		} `json:"durable"`
	}
	client := &http.Client{Timeout: time.Second}
	firstReply := func(within time.Duration) *restartStats {
		for deadline := time.Now().Add(within); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
			res, err := client.Get("http://" + addr + "/api/stats")
			if err != nil {
				continue
			}
			var st restartStats
			err = json.NewDecoder(res.Body).Decode(&st)
			res.Body.Close()
			if err != nil {
				t.Fatalf("decoding /api/stats: %v", err)
			}
			return &st
		}
		return nil
	}
	first := firstReply(300 * time.Millisecond)
	close(hold.release)
	if first == nil {
		first = firstReply(time.Minute)
	}
	if first == nil {
		t.Fatal("the restarted server never answered")
	}
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Run: %v", err)
	}
	if first.Rows != acked {
		t.Fatalf("the first reply after the restart reports %d rows, want the base %d plus every acked row: %d",
			first.Rows, f.Rows(), acked)
	}
	if rec := first.Durable.Recovery; rec.SnapshotSeq != 2 || rec.ReplayedBatches != 1 {
		t.Fatalf("recovery = %+v, want the snapshot at seq 2 and one replayed batch", rec)
	}
}

// TestIngestFailsFastAfterClose: once Close has run, a POST
// /api/ingest answers 503 + Retry-After naming the shutdown, and its
// batch does not apply.
func TestIngestFailsFastAfterClose(t *testing.T) {
	ts, srv := newIngestServer(t)
	srv.Close()
	res, body := postIngest(t, ts.URL, "application/json", `{"rows": [["4", "b"]]}`)
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest after Close = %d (%v), want 503", res.StatusCode, body)
	}
	if res.Header.Get("Retry-After") == "" {
		t.Error("fail-fast 503 missing Retry-After")
	}
	if msg, _ := body["error"].(string); !strings.Contains(msg, "closing") {
		t.Errorf("fail-fast error %q should name the shutdown", msg)
	}
	if n := srv.engine.Frame().Rows(); n != 3 {
		t.Errorf("rows after a refused post = %d, want 3", n)
	}
}

// TestStatsDurableSection: with a manager attached, /api/stats carries
// the durable section and it advances with acked batches.
func TestStatsDurableSection(t *testing.T) {
	ts, _, m, _ := newDurableServer(t)
	res, body := postIngest(t, ts.URL, "application/json", `{"rows": [["4", "b"], ["5", "a"]]}`)
	if res.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest = %d (%v)", res.StatusCode, body)
	}

	var st struct {
		Durable *durable.Stats `json:"durable"`
	}
	if res := getJSON(t, ts.URL+"/api/stats", &st); res.StatusCode != 200 {
		t.Fatalf("/api/stats = %d", res.StatusCode)
	}
	if st.Durable == nil {
		t.Fatal("stats missing durable section")
	}
	if st.Durable.Appends != 1 || st.Durable.LastSeq != 1 || st.Durable.Fsync != "always" {
		t.Fatalf("durable stats after one batch: %+v", st.Durable)
	}
	if m.Stats().AppendedBytes == 0 {
		t.Fatal("appended bytes not counted")
	}
}

// TestReadyzReportsLatchedWALFailure: an append whose write crashes the
// filesystem cannot roll its tail back either, so the WAL latches
// failed. Every later ingest then fails fast, /readyz answers 503 with
// the cause, /api/stats names it, and reads keep serving.
func TestReadyzReportsLatchedWALFailure(t *testing.T) {
	ts, _, m, fs := newDurableServer(t)
	fs.CrashAt(fs.Ops() + 1)
	if res, body := postIngest(t, ts.URL, "application/json", `{"rows": [["4", "b"]]}`); res.StatusCode < 500 {
		t.Fatalf("ingest onto a crashing write = %d (%v), want a 5xx", res.StatusCode, body)
	}
	res, body := postIngest(t, ts.URL, "application/json", `{"rows": [["5", "a"]]}`)
	if msg, _ := body["error"].(string); res.StatusCode < 500 || !strings.Contains(msg, "WAL failed earlier") {
		t.Fatalf("ingest after the latch = %d %q, want a 5xx naming the earlier failure", res.StatusCode, msg)
	}

	failed := m.Stats().Failed
	if !strings.Contains(failed, "tail rollback failed") {
		t.Fatalf("durable.Stats().Failed = %q, want the rollback failure", failed)
	}
	var ready struct {
		Ready  bool   `json:"ready"`
		Reason string `json:"reason"`
	}
	if res := getJSON(t, ts.URL+"/readyz", &ready); res.StatusCode != http.StatusServiceUnavailable ||
		ready.Ready || ready.Reason != "WAL failed: "+failed {
		t.Fatalf("/readyz after the latch = %d %+v, want 503 naming %q", res.StatusCode, ready, failed)
	}
	var st struct {
		Durable durable.Stats `json:"durable"`
	}
	if res := getJSON(t, ts.URL+"/api/stats", &st); res.StatusCode != 200 || st.Durable.Failed != failed {
		t.Fatalf("/api/stats durable.failed = %q (status %d), want %q", st.Durable.Failed, res.StatusCode, failed)
	}
	if res := getJSON(t, ts.URL+"/api/carousels?k=2", nil); res.StatusCode != 200 {
		t.Fatalf("carousel after the latch = %d, want 200", res.StatusCode)
	}
}

// TestRefusedIngestServesNothing: a POST /api/ingest whose WAL append
// is cut short answers 500, and /api/stats' rows and a carousel body
// stay byte for byte what they were: a batch the log refused is never
// served. The log rolled its tail back, so the next post lands.
func TestRefusedIngestServesNothing(t *testing.T) {
	ts, _, _, fs := newDurableServer(t)
	if res, body := postIngest(t, ts.URL, "application/json", `{"rows": [["4", "b"]]}`); res.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest = %d (%v)", res.StatusCode, body)
	}
	served := func() (int, string) {
		t.Helper()
		code, _, carousel := fetch(t, ts.URL+"/api/carousels?k=2")
		if code != http.StatusOK {
			t.Fatalf("/api/carousels = %d", code)
		}
		return readStats(t, ts.URL).Rows, carousel
	}
	rows, carousel := served()

	fs.FailWriteAt(1) // the batch's record
	if res, body := postIngest(t, ts.URL, "application/json", `{"rows": [["9", "c"], ["10", "c"]]}`); res.StatusCode != http.StatusInternalServerError {
		t.Fatalf("ingest onto a short write = %d (%v), want 500", res.StatusCode, body)
	}
	if gotRows, gotCarousel := served(); gotRows != rows || gotCarousel != carousel {
		t.Fatalf("after a refused ingest: %d rows (was %d), carousel body equal: %v", gotRows, rows, gotCarousel == carousel)
	}
	if res, body := postIngest(t, ts.URL, "application/json", `{"rows": [["5", "a"]]}`); res.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest after the refusal = %d (%v), want 202", res.StatusCode, body)
	}
	if got := readStats(t, ts.URL).Rows; got != rows+1 {
		t.Fatalf("rows after the next ingest = %d, want %d", got, rows+1)
	}
}

// TestIngestAckSurvivesSimulatedCrash is the HTTP-level durability
// contract: a 202 with fsync=always means the rows are recoverable
// even if the process dies immediately after.
func TestIngestAckSurvivesSimulatedCrash(t *testing.T) {
	ts, _, _, fs := newDurableServer(t)
	res, body := postIngest(t, ts.URL, "application/json", `{"rows": [["7", "b"]]}`)
	if res.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest = %d (%v)", res.StatusCode, body)
	}
	fs.Crash()
	fs.Restart()

	f := frame.MustNew("live",
		frame.NewNumericColumn("x", []float64{1, 2, 3}),
		frame.NewCategoricalColumn("g", []string{"a", "b", "a"}),
	)
	engine, err := query.NewEngine(f, core.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := durable.Open(durable.Options{Dir: "wal", FS: fs, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Close()
	rec, err := m2.Recover(engine)
	if err != nil {
		t.Fatal(err)
	}
	if engine.Frame().Rows() != 4 {
		t.Fatalf("recovered rows = %d, want 4 (recovery=%+v)", engine.Frame().Rows(), rec)
	}
	xcol, _ := engine.Frame().Lookup("x")
	if xcol.StringAt(3) != "7" {
		t.Fatalf("recovered cell = %q, want %q", xcol.StringAt(3), "7")
	}
}
