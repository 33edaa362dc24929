package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"foresight/internal/core"
	"foresight/internal/datagen"
	"foresight/internal/obs/telemetry"
	"foresight/internal/query"
)

func TestDebugInsightsEndpoint(t *testing.T) {
	ts, srv := newObsServer(t, nil)
	if code, _, _ := fetch(t, ts.URL+"/api/query?class=linear&k=2"); code != 200 {
		t.Fatal("query failed")
	}
	if code, _, _ := fetch(t, ts.URL+"/api/carousels?k=2"); code != 200 {
		t.Fatal("carousels failed")
	}
	code, hdr, body := fetch(t, ts.URL+"/api/debug/insights")
	if code != 200 || !strings.Contains(hdr.Get("Content-Type"), "application/json") {
		t.Fatalf("insights = %d %s", code, hdr.Get("Content-Type"))
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatalf("bad JSON: %v\n%s", err, body)
	}
	if snap.Stale {
		t.Errorf("telemetry stale right after queries: %+v", snap)
	}
	if snap.CurrentGeneration != srv.engine.CacheStats().Generation {
		t.Errorf("current_generation = %d, engine = %d",
			snap.CurrentGeneration, srv.engine.CacheStats().Generation)
	}
	if snap.ScoreRankError <= 0 {
		t.Errorf("score_rank_error = %v", snap.ScoreRankError)
	}
	var linear *telemetry.ClassSnapshot
	for i := range snap.Classes {
		if snap.Classes[i].Class == "linear" {
			linear = &snap.Classes[i]
		}
	}
	if linear == nil {
		t.Fatalf("no linear class: %s", body)
	}
	for _, q := range []string{"p50", "p90", "p99"} {
		if _, ok := linear.Quantiles[q]; !ok {
			t.Errorf("linear missing %s: %+v", q, linear.Quantiles)
		}
	}
	if len(linear.HotColumns) == 0 || linear.Candidates == 0 || linear.Emitted == 0 {
		t.Errorf("linear class underpopulated: %+v", linear)
	}
	ops := map[string]bool{}
	for _, r := range snap.RecentQueries {
		ops[r.Op] = true
	}
	if !ops["execute"] || !ops["carousels"] {
		t.Errorf("recent queries missing ops: %+v", snap.RecentQueries)
	}

	// ?top= bounds the hot-item lists server-side.
	_, _, capped := fetch(t, ts.URL+"/api/debug/insights?top=1")
	var cs telemetry.Snapshot
	if err := json.Unmarshal([]byte(capped), &cs); err != nil {
		t.Fatal(err)
	}
	for _, c := range cs.Classes {
		if len(c.HotColumns) > 1 || len(c.HotTuples) > 1 {
			t.Errorf("top=1 not honored for %s: %d cols, %d tuples",
				c.Class, len(c.HotColumns), len(c.HotTuples))
		}
	}
}

func TestDebugTracesLimitAndBounds(t *testing.T) {
	ts, _ := newObsServer(t, nil)
	for i := 0; i < 5; i++ {
		fetch(t, ts.URL+"/api/query?class=linear&k=2")
	}
	var out struct {
		Count         int `json:"count"`
		TotalRecorded int `json:"total_recorded"`
	}
	// limit bounds the response.
	_, _, body := fetch(t, ts.URL+"/api/debug/traces?limit=2")
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	if out.Count != 2 {
		t.Errorf("limit=2 returned %d traces", out.Count)
	}
	// The legacy n alias keeps working.
	_, _, body = fetch(t, ts.URL+"/api/debug/traces?n=1")
	_ = json.Unmarshal([]byte(body), &out)
	if out.Count != 1 {
		t.Errorf("n=1 returned %d traces", out.Count)
	}
	// Garbage and negative values clamp instead of erroring or
	// unbounding.
	for _, qs := range []string{"?limit=-3", "?limit=99999999", "?min_ms=NaN", "?min_ms=-5&limit=bogus"} {
		code, _, body := fetch(t, ts.URL+"/api/debug/traces"+qs)
		if code != 200 {
			t.Errorf("traces%s = %d", qs, code)
		}
		if err := json.Unmarshal([]byte(body), &out); err != nil {
			t.Errorf("traces%s bad JSON: %v", qs, err)
		}
		if out.Count > maxDebugTraces {
			t.Errorf("traces%s returned %d > cap", qs, out.Count)
		}
	}
	// min_ms composes with limit.
	_, _, body = fetch(t, ts.URL+"/api/debug/traces?min_ms=0&limit=3")
	_ = json.Unmarshal([]byte(body), &out)
	if out.Count != 3 {
		t.Errorf("min_ms+limit returned %d", out.Count)
	}
}

func TestSampledQueryLogThroughServer(t *testing.T) {
	var logBuf strings.Builder
	tsrv := newOptServer(t, Options{LogWriter: &logBuf, QueryLogSample: 1, Version: "test-1"})
	fetch(t, tsrv.URL+"/api/query?class=linear&k=2")
	var queryLines int
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line not JSON: %v", err)
		}
		if rec["msg"] == "query" {
			queryLines++
			if rec["op"] != "execute" || rec["emitted"].(float64) <= 0 {
				t.Errorf("query log line = %v", rec)
			}
		}
	}
	if queryLines != 1 {
		t.Errorf("query log lines = %d, want 1", queryLines)
	}
}

// TestConcurrentScrapeTelemetryAndGenerationBumps hammers /metrics and
// /api/debug/insights while queries write telemetry and the cache
// generation keeps bumping — the -race coverage the telemetry store's
// striped design is meant to survive.
func TestConcurrentScrapeTelemetryAndGenerationBumps(t *testing.T) {
	ts, srv := newObsServer(t, nil)
	var wg sync.WaitGroup
	const rounds = 20
	get := func(url string) {
		res, err := http.Get(url)
		if err != nil {
			t.Error(err)
			return
		}
		_, _ = io.Copy(io.Discard, res.Body)
		res.Body.Close()
	}
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				get(ts.URL + "/api/carousels?k=2")
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			get(ts.URL + "/metrics")
			get(ts.URL + "/api/debug/insights")
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			// Generation bump (as an ingest's).
			if err := srv.engine.RestoreSnapshot(srv.engine.Frame(), nil); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
	// The store survived and still snapshots cleanly.
	code, _, body := fetch(t, ts.URL+"/api/debug/insights")
	if code != 200 {
		t.Fatalf("insights after churn = %d", code)
	}
	var snap telemetry.Snapshot
	if err := json.Unmarshal([]byte(body), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.TotalQueries == 0 {
		t.Error("no queries recorded under churn")
	}
}

// newOptServer is newObsServer with explicit Options.
func newOptServer(t *testing.T, o Options) *httptest.Server {
	t.Helper()
	f := datagen.OECD(0, 42)
	engine, err := query.NewEngine(f, core.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(engine, 5, false, o))
	t.Cleanup(ts.Close)
	return ts
}
