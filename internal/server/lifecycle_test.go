package server

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"foresight/internal/core"
	"foresight/internal/datagen"
	"foresight/internal/frame"
	"foresight/internal/query"
	"foresight/internal/sketch"
)

// lagClass scores slowly (and, with gate set, blocks until the gate
// is closed), so tests can hold a request mid-scoring on purpose.
type lagClass struct {
	calls atomic.Int64
	delay time.Duration
	gate  chan struct{}
}

func (c *lagClass) Name() string          { return "lag" }
func (c *lagClass) Description() string   { return "test class with slow scoring" }
func (c *lagClass) Arity() int            { return 1 }
func (c *lagClass) Metrics() []string     { return []string{"len"} }
func (c *lagClass) VisKind() core.VisKind { return core.VisBar }
func (c *lagClass) Candidates(f *frame.Frame) [][]string {
	var out [][]string
	for _, nc := range f.NumericColumns() {
		out = append(out, []string{nc.Name()})
	}
	return out
}
func (c *lagClass) Score(f *frame.Frame, attrs []string, metric string) (core.Insight, error) {
	c.calls.Add(1)
	if c.gate != nil {
		<-c.gate
	}
	if c.delay > 0 {
		time.Sleep(c.delay)
	}
	return core.Insight{
		Class: "lag", Metric: "len", Attrs: attrs,
		Score: float64(len(attrs[0])), Raw: float64(len(attrs[0])), Vis: core.VisBar,
	}, nil
}
func (c *lagClass) ScoreApprox(p *sketch.DatasetProfile, attrs []string, metric string) (core.Insight, error) {
	return c.Score(nil, attrs, metric)
}

// boomClass panics on every Score call.
type boomClass struct{}

func (boomClass) Name() string          { return "boom" }
func (boomClass) Description() string   { return "test class that panics" }
func (boomClass) Arity() int            { return 1 }
func (boomClass) Metrics() []string     { return []string{"len"} }
func (boomClass) VisKind() core.VisKind { return core.VisBar }
func (boomClass) Candidates(f *frame.Frame) [][]string {
	var out [][]string
	for _, nc := range f.NumericColumns() {
		out = append(out, []string{nc.Name()})
	}
	return out
}
func (boomClass) Score(f *frame.Frame, attrs []string, metric string) (core.Insight, error) {
	panic("scorer exploded in a test")
}
func (boomClass) ScoreApprox(p *sketch.DatasetProfile, attrs []string, metric string) (core.Insight, error) {
	panic("scorer exploded in a test")
}

// newLifecycleServer builds a test server over the given classes with
// explicit serving options, returning the engine for assertions.
func newLifecycleServer(t *testing.T, classes []core.Class, opts Options) (*httptest.Server, *query.Engine) {
	t.Helper()
	f := datagen.OECD(0, 42)
	reg := core.NewEmptyRegistry()
	for _, c := range classes {
		if err := reg.Register(c); err != nil {
			t.Fatal(err)
		}
	}
	engine, err := query.NewEngine(f, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(engine, 5, false, opts))
	t.Cleanup(ts.Close)
	return ts, engine
}

func waitForCond(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func metricsBody(t *testing.T, ts *httptest.Server) string {
	t.Helper()
	res, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// A request that outlives -request-timeout gets a 504 JSON error with
// a request ID, the engine counts the cancellation, and the timeout
// counter shows up at /metrics.
func TestRequestTimeoutReturns504(t *testing.T) {
	lag := &lagClass{delay: 20 * time.Millisecond}
	ts, engine := newLifecycleServer(t, []core.Class{lag}, Options{RequestTimeout: 50 * time.Millisecond})

	var body struct {
		Error     string `json:"error"`
		RequestID string `json:"request_id"`
	}
	res := getJSON(t, ts.URL+"/api/overview?class=lag", &body)
	if res.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504", res.StatusCode)
	}
	if body.Error == "" || body.RequestID == "" {
		t.Errorf("504 body = %+v, want error and request_id", body)
	}
	if engine.Cancellations() == 0 {
		t.Error("expired deadline did not reach the engine's cancellation counter")
	}
	waitForCond(t, "worker pool to drain after 504", func() bool { return engine.ScoringInflight() == 0 })
	if m := metricsBody(t, ts); !strings.Contains(m, "foresight_http_timeouts_total 1") {
		t.Errorf("/metrics missing timeout counter:\n%s", m)
	}
}

// A client that disconnects mid-request cancels the engine's work:
// the cancellation is counted and the scoring gauge drains to zero
// instead of grinding on for a reader that is gone.
func TestClientDisconnectCancelsEngine(t *testing.T) {
	lag := &lagClass{delay: 20 * time.Millisecond}
	ts, engine := newLifecycleServer(t, []core.Class{lag}, Options{})

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, ts.URL+"/api/overview?class=lag", nil)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		res, err := http.DefaultClient.Do(req)
		if err == nil {
			res.Body.Close()
			t.Error("request succeeded despite client cancellation")
		}
	}()
	waitForCond(t, "engine to start scoring", func() bool { return lag.calls.Load() >= 1 })
	cancel()
	<-done

	waitForCond(t, "engine to count the disconnect", func() bool { return engine.Cancellations() >= 1 })
	waitForCond(t, "worker pool to drain after disconnect", func() bool { return engine.ScoringInflight() == 0 })
}

// Once -max-inflight requests are being served, the next API request
// is shed with 503 + Retry-After instead of queueing; the blocked
// request still completes once unblocked.
func TestMaxInflightShedsExcessLoad(t *testing.T) {
	lag := &lagClass{gate: make(chan struct{})}
	ts, _ := newLifecycleServer(t, []core.Class{lag}, Options{MaxInflight: 1})

	firstStatus := make(chan int, 1)
	go func() {
		res, err := http.Get(ts.URL + "/api/overview?class=lag")
		if err != nil {
			firstStatus <- -1
			return
		}
		defer res.Body.Close()
		_, _ = io.Copy(io.Discard, res.Body)
		firstStatus <- res.StatusCode
	}()
	waitForCond(t, "first request to hold the gate", func() bool { return lag.calls.Load() >= 1 })

	var body struct {
		Error string `json:"error"`
	}
	res := getJSON(t, ts.URL+"/api/dataset", &body)
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("second request = %d, want 503", res.StatusCode)
	}
	if res.Header.Get("Retry-After") == "" {
		t.Error("503 missing Retry-After header")
	}
	if !strings.Contains(body.Error, "saturated") {
		t.Errorf("503 body = %+v", body)
	}

	// The index page and /metrics stay reachable under saturation.
	if res, err := http.Get(ts.URL + "/"); err != nil || res.StatusCode != 200 {
		t.Errorf("index under saturation: res=%v err=%v", res, err)
	} else {
		res.Body.Close()
	}
	if m := metricsBody(t, ts); !strings.Contains(m, "foresight_http_sheds_total 1") {
		t.Errorf("/metrics missing shed counter:\n%s", m)
	}

	close(lag.gate)
	if st := <-firstStatus; st != http.StatusOK {
		t.Errorf("gated request finished with %d, want 200", st)
	}
}

// A panicking scorer becomes a 500 JSON error on that request only:
// the process keeps serving, and the panic counter is visible.
func TestPanicIsolatedTo500(t *testing.T) {
	ts, engine := newLifecycleServer(t, []core.Class{boomClass{}, &lagClass{}}, Options{})

	var body struct {
		Error     string `json:"error"`
		RequestID string `json:"request_id"`
	}
	res := getJSON(t, ts.URL+"/api/overview?class=boom", &body)
	if res.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", res.StatusCode)
	}
	if !strings.Contains(body.Error, "panic") || body.RequestID == "" {
		t.Errorf("500 body = %+v, want panic mention and request_id", body)
	}

	// The server survives: unrelated endpoints and other classes work.
	res2 := getJSON(t, ts.URL+"/api/dataset", nil)
	if res2.StatusCode != http.StatusOK {
		t.Errorf("post-panic /api/dataset = %d, want 200", res2.StatusCode)
	}
	res3 := getJSON(t, ts.URL+"/api/overview?class=lag", nil)
	if res3.StatusCode != http.StatusOK {
		t.Errorf("post-panic /api/overview?class=lag = %d, want 200", res3.StatusCode)
	}
	waitForCond(t, "worker pool to drain after panic", func() bool { return engine.ScoringInflight() == 0 })
	if m := metricsBody(t, ts); !strings.Contains(m, "foresight_http_panics_total 1") {
		t.Errorf("/metrics missing panic counter:\n%s", m)
	}
}

// Oversized POST bodies are rejected with 413 on both JSON endpoints.
func TestOversizedBodiesRejected(t *testing.T) {
	ts := newTestServer(t)
	// A syntactically valid prefix, so the decoder keeps reading until
	// the MaxBytesReader cap fires rather than erroring on byte one.
	huge := []byte(`{"pad":"` + strings.Repeat("x", 1<<20+512) + `"}`)
	for _, path := range []string{"/api/focus", "/api/state"} {
		res, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(huge))
		if err != nil {
			t.Fatalf("POST %s: %v", path, err)
		}
		res.Body.Close()
		if res.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with 1MB+ body = %d, want 413", path, res.StatusCode)
		}
	}
}

// JSON responses are written in one shot with an accurate
// Content-Length (the half-written-200 bug class is gone).
func TestJSONResponsesCarryContentLength(t *testing.T) {
	ts := newTestServer(t)
	for _, path := range []string{"/api/dataset", "/api/state", "/api/stats"} {
		res, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		b, err := io.ReadAll(res.Body)
		res.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		cl := res.Header.Get("Content-Length")
		if cl == "" {
			t.Errorf("GET %s: no Content-Length", path)
			continue
		}
		if n, _ := strconv.Atoi(cl); n != len(b) {
			t.Errorf("GET %s: Content-Length %s != body %d", path, cl, len(b))
		}
	}
}

// TestListenURL: the startup log names the URL a listener answers at,
// built from its -addr: localhost only when the address names no host.
func TestListenURL(t *testing.T) {
	for _, c := range []struct{ addr, want string }{
		{":8600", "http://localhost:8600"},
		{"127.0.0.1:7071", "http://127.0.0.1:7071"},
		{"[::1]:80", "http://[::1]:80"},
		{"example.test:8080", "http://example.test:8080"},
	} {
		if got := listenURL(c.addr); got != c.want {
			t.Errorf("listenURL(%q) = %q, want %q", c.addr, got, c.want)
		}
	}
}
