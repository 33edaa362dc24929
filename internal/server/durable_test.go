package server

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

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

// TestHealthzAlwaysUp: liveness answers 200 even while not ready.
func TestHealthzAlwaysUp(t *testing.T) {
	f := frame.MustNew("live", frame.NewNumericColumn("x", []float64{1, 2, 3}))
	engine, err := query.NewEngine(f, core.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(engine, 5, false, Options{StartUnready: true})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })

	var health struct {
		Status string `json:"status"`
	}
	if res := getJSON(t, ts.URL+"/healthz", &health); res.StatusCode != 200 || health.Status != "ok" {
		t.Fatalf("/healthz = %d %q while unready", res.StatusCode, health.Status)
	}
}

// TestReadyzGatesUntilRecovery: /readyz is 503 and ingest is rejected
// until SetReady; both flip together. Queries serve throughout.
func TestReadyzGatesUntilRecovery(t *testing.T) {
	ts, srv := newIngestServerUnready(t)

	var ready struct {
		Ready bool `json:"ready"`
	}
	res := getJSON(t, ts.URL+"/readyz", &ready)
	if res.StatusCode != http.StatusServiceUnavailable || ready.Ready {
		t.Fatalf("/readyz before recovery = %d ready=%v, want 503", res.StatusCode, ready.Ready)
	}
	if res.Header.Get("Retry-After") == "" {
		t.Error("unready /readyz missing Retry-After")
	}

	// Reads still serve while unready (recovery replays in background).
	if res := getJSON(t, ts.URL+"/api/dataset", nil); res.StatusCode != 200 {
		t.Fatalf("/api/dataset while unready = %d", res.StatusCode)
	}

	// Writes are rejected: acking a batch with no WAL open would break
	// the durability contract.
	res2, body := postIngest(t, ts.URL, "application/json", `{"rows": [["4", "b"]]}`)
	if res2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("ingest while unready = %d (%v)", res2.StatusCode, body)
	}

	srv.SetReady()
	res = getJSON(t, ts.URL+"/readyz", &ready)
	if res.StatusCode != 200 || !ready.Ready {
		t.Fatalf("/readyz after SetReady = %d ready=%v", res.StatusCode, ready.Ready)
	}
	res3, body := postIngest(t, ts.URL, "application/json", `{"rows": [["4", "b"]]}`)
	if res3.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest after SetReady = %d (%v)", res3.StatusCode, body)
	}
}

// newIngestServerUnready mirrors newIngestServer but starts unready.
func newIngestServerUnready(t *testing.T) (*httptest.Server, *Server) {
	t.Helper()
	f := frame.MustNew("live",
		frame.NewNumericColumn("x", []float64{1, 2, 3}),
		frame.NewCategoricalColumn("g", []string{"a", "b", "a"}),
	)
	engine, err := query.NewEngine(f, core.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(engine, 5, false, Options{StartUnready: true})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return ts, srv
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
		Ready   struct {
			Ready bool `json:"ready"`
		}
		Lifecycle map[string]interface{} `json:"lifecycle"`
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
	if ready, _ := st.Lifecycle["ready"].(bool); !ready {
		t.Fatalf("lifecycle.ready = %v, want true", st.Lifecycle["ready"])
	}
	if m.Stats().AppendedBytes == 0 {
		t.Fatal("appended bytes not counted")
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
