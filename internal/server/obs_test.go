package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"foresight/internal/core"
	"foresight/internal/datagen"
	"foresight/internal/obs"
	"foresight/internal/query"
)

// End-to-end observability tests: drive the real HTTP API and assert
// the registry, trace log, structured log and stats endpoints reflect
// the traffic.

func newObsServer(t *testing.T, logW io.Writer) (*httptest.Server, *Server) {
	t.Helper()
	f := datagen.OECD(0, 42)
	engine, err := query.NewEngine(f, core.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(engine, 5, false, Options{LogWriter: logW, Version: "test-1"})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, srv
}

func fetch(t *testing.T, url string) (int, http.Header, string) {
	t.Helper()
	res, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	b, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res.StatusCode, res.Header, string(b)
}

func TestMetricsEndToEnd(t *testing.T) {
	ts, _ := newObsServer(t, nil)
	// Issue one query and one carousel request, then scrape /metrics.
	if code, _, _ := fetch(t, ts.URL+"/api/query?class=linear&k=3"); code != 200 {
		t.Fatalf("query = %d", code)
	}
	if code, _, _ := fetch(t, ts.URL+"/api/carousels?k=2"); code != 200 {
		t.Fatalf("carousels = %d", code)
	}
	code, hdr, body := fetch(t, ts.URL+"/metrics")
	if code != 200 || !strings.Contains(hdr.Get("Content-Type"), "text/plain") {
		t.Fatalf("metrics = %d %s", code, hdr.Get("Content-Type"))
	}
	for _, want := range []string{
		`foresight_http_requests_total{route="/api/query",code="200"} 1`,
		`foresight_http_requests_total{route="/api/carousels",code="200"} 1`,
		`foresight_http_request_seconds_count{route="/api/query"} 1`,
		`foresight_engine_ops_total{op="execute"} 1`,
		`foresight_engine_ops_total{op="carousels"} 1`,
		`foresight_insight_class_queries_total{class="linear"} 2`,
		"foresight_build_info{version=\"test-1\",goversion=\"go",
		"foresight_cache_misses_total",
		"foresight_cache_hits_total",
		"foresight_cache_entries",
		"foresight_uptime_seconds",
		"go_goroutines",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	// The query latency histogram observed a nonzero duration.
	m := regexp.MustCompile(`foresight_http_request_seconds_sum\{route="/api/query"\} (\S+)`).FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("no latency sum for /api/query in:\n%s", body)
	}
	if v, err := strconv.ParseFloat(m[1], 64); err != nil || v <= 0 {
		t.Errorf("latency sum = %q, want > 0", m[1])
	}
}

func TestDebugTracesShowSpans(t *testing.T) {
	ts, _ := newObsServer(t, nil)
	if code, _, _ := fetch(t, ts.URL+"/api/query?class=linear&k=3"); code != 200 {
		t.Fatal("query failed")
	}
	var out struct {
		Traces []obs.TraceSnapshot `json:"traces"`
		Count  int                 `json:"count"`
	}
	_, _, body := fetch(t, ts.URL+"/api/debug/traces")
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	var qt *obs.TraceSnapshot
	for i := range out.Traces {
		if out.Traces[i].Name == "/api/query" {
			qt = &out.Traces[i]
			break
		}
	}
	if qt == nil {
		t.Fatalf("no /api/query trace in %+v", out)
	}
	if qt.ID == "" {
		t.Error("trace has no request id")
	}
	spans := map[string]bool{}
	for _, sp := range qt.Spans {
		spans[sp.Name] = true
	}
	for _, want := range []string{"parse", "enumerate:linear", "score:linear", "rank:linear"} {
		if !spans[want] {
			t.Errorf("trace missing span %q: %+v", want, qt.Spans)
		}
	}
	// min_ms filter: an absurd threshold filters everything out.
	_, _, filtered := fetch(t, ts.URL+"/api/debug/traces?min_ms=999999")
	var fout struct {
		Count int `json:"count"`
	}
	_ = json.Unmarshal([]byte(filtered), &fout)
	if fout.Count != 0 {
		t.Errorf("min_ms filter kept %d traces", fout.Count)
	}
}

func TestRequestIDPropagation(t *testing.T) {
	ts, _ := newObsServer(t, nil)
	// Server-generated ID on the response.
	_, hdr, _ := fetch(t, ts.URL+"/api/dataset")
	if hdr.Get("X-Request-ID") == "" {
		t.Error("no generated request id")
	}
	// Caller-provided ID is honored and echoed in error bodies.
	req, _ := http.NewRequest("GET", ts.URL+"/api/query?class=bogus", nil)
	req.Header.Set("X-Request-ID", "my-id-42")
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.Header.Get("X-Request-ID") != "my-id-42" {
		t.Errorf("echoed id = %q", res.Header.Get("X-Request-ID"))
	}
	var e struct {
		Error     string `json:"error"`
		RequestID string `json:"request_id"`
	}
	if err := json.NewDecoder(res.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if res.StatusCode != 400 || e.Error == "" || e.RequestID != "my-id-42" {
		t.Errorf("error body = %+v (status %d)", e, res.StatusCode)
	}
}

func TestMethodGuards(t *testing.T) {
	ts, _ := newObsServer(t, nil)
	// POST to GET-only /api/* endpoints → consistent 405 JSON.
	for _, route := range []string{
		"/api/dataset", "/api/classes", "/api/carousels", "/api/query",
		"/api/overview", "/api/render", "/api/neighborhood", "/api/stats",
		"/api/debug/traces",
	} {
		res, err := http.Post(ts.URL+route, "application/json", strings.NewReader("{}"))
		if err != nil {
			t.Fatal(err)
		}
		if res.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s = %d, want 405", route, res.StatusCode)
		}
		if allow := res.Header.Get("Allow"); !strings.Contains(allow, "GET") {
			t.Errorf("POST %s Allow = %q", route, allow)
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.NewDecoder(res.Body).Decode(&e); err != nil || e.Error == "" {
			t.Errorf("POST %s: not a JSON error (%v)", route, err)
		}
		res.Body.Close()
	}
	// DELETE on a POST route and on the dual-method state route.
	for _, route := range []string{"/api/focus", "/api/unfocus", "/api/state"} {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+route, nil)
		res, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		if res.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("DELETE %s = %d, want 405", route, res.StatusCode)
		}
		res.Body.Close()
	}
}

func TestStatsView(t *testing.T) {
	ts, _ := newObsServer(t, nil)
	fetch(t, ts.URL+"/api/carousels?k=2")
	fetch(t, ts.URL+"/api/carousels?k=2")
	var out struct {
		Cache    query.CacheStats `json:"cache"`
		Workers  int              `json:"workers"`
		UptimeS  float64          `json:"uptime_s"`
		Runtime  map[string]any   `json:"runtime"`
		Build    map[string]any   `json:"build"`
		HTTPInfo map[string]any   `json:"http"`
	}
	_, _, body := fetch(t, ts.URL+"/api/stats")
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if out.Cache.Misses == 0 || out.Cache.Hits == 0 {
		t.Errorf("cache counters missing: %+v", out.Cache)
	}
	if out.UptimeS <= 0 {
		t.Errorf("uptime = %v", out.UptimeS)
	}
	if g, ok := out.Runtime["goroutines"].(float64); !ok || g < 1 {
		t.Errorf("runtime.goroutines = %v", out.Runtime["goroutines"])
	}
	if out.Runtime["heap_alloc"].(float64) <= 0 {
		t.Errorf("runtime.heap_alloc = %v", out.Runtime["heap_alloc"])
	}
	if out.Build["version"] != "test-1" || out.Build["go"] == "" {
		t.Errorf("build info = %v", out.Build)
	}
	if rt, ok := out.HTTPInfo["requests_total"].(float64); !ok || rt < 2 {
		t.Errorf("http.requests_total = %v", out.HTTPInfo["requests_total"])
	}
}

func TestStructuredRequestLog(t *testing.T) {
	var logBuf strings.Builder
	ts, _ := newObsServer(t, &logBuf)
	fetch(t, ts.URL+"/api/dataset")
	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	if len(lines) < 1 {
		t.Fatal("no log lines")
	}
	var line map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		t.Fatalf("log line not JSON: %v", err)
	}
	if line["route"] != "/api/dataset" || line["method"] != "GET" ||
		line["status"] != float64(200) || line["request_id"] == "" {
		t.Errorf("log line = %v", line)
	}
	if line["duration_ms"].(float64) < 0 || line["bytes"].(float64) <= 0 {
		t.Errorf("log line timing/size = %v", line)
	}
}

// TestMetricsUnderConcurrency hammers instrumented endpoints from
// many goroutines (for -race) and checks the request counter adds up.
func TestMetricsUnderConcurrency(t *testing.T) {
	ts, srv := newObsServer(t, nil)
	const clients, rounds = 8, 5
	done := make(chan struct{})
	for c := 0; c < clients; c++ {
		go func() {
			defer func() { done <- struct{}{} }()
			for i := 0; i < rounds; i++ {
				res, err := http.Get(ts.URL + "/api/carousels?k=2")
				if err != nil {
					t.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, res.Body)
				res.Body.Close()
			}
		}()
	}
	for c := 0; c < clients; c++ {
		<-done
	}
	got := srv.httpRequests.With("/api/carousels", "200").Value()
	if got != clients*rounds {
		t.Errorf("request counter = %d, want %d", got, clients*rounds)
	}
}
