package server

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"foresight/internal/core"
	"foresight/internal/durable"
	"foresight/internal/obs"
	"foresight/internal/query"
)

// A caller's X-Request-ID is honoured only when it is 1–64 bytes of
// [A-Za-z0-9._:-]. Anything else is replaced by a minted ID, so an
// oversized one is neither echoed nor logged nor kept in the trace
// ring, where it would pin caller bytes.
func TestRequestIDBounded(t *testing.T) {
	ts, _ := newObsServer(t, nil)
	get := func(id string) string {
		t.Helper()
		req, _ := http.NewRequest("GET", ts.URL+"/api/dataset", nil)
		req.Header.Set("X-Request-ID", id)
		res, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, res.Body)
		res.Body.Close()
		return res.Header.Get("X-Request-ID")
	}
	huge := strings.Repeat("a", 100000)
	for _, id := range []string{huge, strings.Repeat("b", 65), "has space", "slash/id", "é"} {
		if got := get(id); got == id || len(got) != 16 {
			t.Errorf("X-Request-ID of %d bytes answered with %.70q, want a minted 16-hex ID", len(id), got)
		}
	}
	valid := "Trace-1.2_3:" + strings.Repeat("z", 52)
	if got := get(valid); got != valid {
		t.Errorf("a valid 64-byte ID came back as %q", got)
	}
	_, _, traces := fetch(t, ts.URL+"/api/debug/traces")
	if strings.Contains(traces, strings.Repeat("a", 65)) || strings.Contains(traces, strings.Repeat("b", 65)) {
		t.Errorf("/api/debug/traces (%d bytes) keeps a refused ID", len(traces))
	}
	if !strings.Contains(traces, `"id":"`+valid+`"`) {
		t.Errorf("/api/debug/traces lacks the honoured ID %q", valid)
	}
}

// scrape parses a Prometheus text exposition into series → value.
func scrape(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("metric line %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// /metrics and /api/stats report the same numbers wherever both report
// one. On a WAL-backed server with a max-inflight gate of 1, after a
// fixed script of reads, one shed, one ingest and one checkpoint, both
// are read with no request in flight, and every shared field must be
// equal; http.requests_total is one more than the scrape's series, the
// scrape itself.
func TestMetricsMatchStats(t *testing.T) {
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
	m, err := durable.Open(durable.Options{Dir: t.TempDir(), Fsync: durable.FsyncAlways, CheckpointRows: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Recover(engine); err != nil {
		t.Fatal(err)
	}
	srv := New(engine, 5, false, Options{Durable: m, MaxInflight: 1})
	m.Instrument(srv.registry)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		_ = m.Close()
	})
	idle := func() {
		t.Helper()
		waitForCond(t, "no request in flight", func() bool { return srv.httpInflight.Value() == 0 })
	}

	for _, path := range []string{
		"/api/carousels?k=2", "/api/carousels?k=2", "/api/query?class=linear&k=3",
		"/api/overview?class=linear", "/api/query?class=bogus",
	} {
		fetch(t, ts.URL+path)
	}
	// An ingest whose body stalls holds the one slot; the read behind
	// it is shed. Then the body completes and the batch lands.
	var batch bytes.Buffer
	w := csv.NewWriter(&batch)
	_ = w.Write(f.Names())
	_ = w.WriteAll(oecdRows(f, 0, 3).Records)
	pr, pw := io.Pipe()
	acked := make(chan int, 1)
	go func() {
		res, err := http.Post(ts.URL+"/api/ingest", "text/csv", pr)
		if err != nil {
			acked <- -1
			return
		}
		_, _ = io.Copy(io.Discard, res.Body)
		res.Body.Close()
		acked <- res.StatusCode
	}()
	waitForCond(t, "the ingest to hold the gate", func() bool { return len(srv.gate) == 1 })
	if code, _, _ := fetch(t, ts.URL+"/api/dataset"); code != http.StatusServiceUnavailable {
		t.Fatalf("read behind a held gate = %d, want 503", code)
	}
	_, _ = pw.Write(batch.Bytes())
	pw.Close()
	if code := <-acked; code != http.StatusAccepted {
		t.Fatalf("ingest = %d, want 202", code)
	}
	if err := m.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	fetch(t, ts.URL+"/api/carousels?k=2")

	idle()
	_, _, body := fetch(t, ts.URL+"/metrics")
	idle()
	var st struct {
		Cache     query.CacheStats  `json:"cache"`
		Prune     query.PruneStats  `json:"prune"`
		HTTP      map[string]uint64 `json:"http"`
		Lifecycle struct {
			EngineCancellations uint64 `json:"engine_cancellations"`
		} `json:"lifecycle"`
		Ingest  map[string]uint64 `json:"ingest"`
		Durable durable.Stats     `json:"durable"`
	}
	_, _, stats := fetch(t, ts.URL+"/api/stats")
	if err := json.Unmarshal([]byte(stats), &st); err != nil {
		t.Fatal(err)
	}
	met := scrape(t, body)
	var served float64
	for k, v := range met {
		if strings.HasPrefix(k, "foresight_http_requests_total{") {
			served += v
		}
	}
	d := st.Durable
	for _, c := range []struct {
		field  string
		stats  float64
		series string
	}{
		{"cache.hits", float64(st.Cache.Hits), "foresight_cache_hits_total"},
		{"cache.misses", float64(st.Cache.Misses), "foresight_cache_misses_total"},
		{"cache.waits", float64(st.Cache.Waits), "foresight_cache_waits_total"},
		{"cache.entries", float64(st.Cache.Entries), "foresight_cache_entries"},
		{"cache.generation", float64(st.Cache.Generation), "foresight_cache_generation"},
		{"prune.considered", float64(st.Prune.Considered), "foresight_engine_prune_considered_total"},
		{"prune.pruned", float64(st.Prune.Pruned), "foresight_engine_pruned_total"},
		{"prune.seeded", float64(st.Prune.Seeded), "foresight_engine_prune_seeded_total"},
		{"prune.carried", float64(st.Prune.Carried), "foresight_engine_carried_bounds_total"},
		{"http.panics", float64(st.HTTP["panics"]), "foresight_http_panics_total"},
		{"http.timeouts", float64(st.HTTP["timeouts"]), "foresight_http_timeouts_total"},
		{"http.sheds", float64(st.HTTP["sheds"]), "foresight_http_sheds_total"},
		{"lifecycle.engine_cancellations", float64(st.Lifecycle.EngineCancellations), "foresight_engine_cancellations_total"},
		{"ingest.queue_depth", float64(st.Ingest["queue_depth"]), "foresight_ingest_queue_depth"},
		{"ingest.requests", float64(st.Ingest["requests"]), "foresight_ingest_requests_total"},
		{"ingest.rejected", float64(st.Ingest["rejected"]), "foresight_ingest_rejected_total"},
		{"ingest.rows", float64(st.Ingest["rows"]), "foresight_ingest_rows_total"},
		{"ingest.batches", float64(st.Ingest["batches"]), "foresight_ingest_batches_total"},
		{"durable.appends", float64(d.Appends), "foresight_durable_wal_appends_total"},
		{"durable.append_errors", float64(d.AppendErrors), "foresight_durable_wal_append_errors_total"},
		{"durable.appended_bytes", float64(d.AppendedBytes), "foresight_durable_wal_bytes_total"},
		{"durable.fsyncs", float64(d.Fsyncs), "foresight_durable_wal_fsyncs_total"},
		{"durable.fsync_errors", float64(d.FsyncErrors), "foresight_durable_wal_fsync_errors_total"},
		{"durable.checkpoints", float64(d.Checkpoints), "foresight_durable_checkpoints_total"},
		{"durable.checkpoint_errors", float64(d.CheckpointErrors), "foresight_durable_checkpoint_errors_total"},
		{"durable.last_seq", float64(d.LastSeq), "foresight_durable_last_seq"},
		{"durable.checkpoint_seq", float64(d.CheckpointSeq), "foresight_durable_checkpoint_seq"},
		{"durable.wal_segments", float64(d.WALSegments), "foresight_durable_wal_segments"},
		{"durable.recovery.replayed_rows", float64(d.Recovery.ReplayedRows), "foresight_durable_replayed_rows"},
	} {
		if got, ok := met[c.series]; !ok || got != c.stats {
			t.Errorf("%s = %v, but %s = %v (present %v)", c.field, c.stats, c.series, got, ok)
		}
	}
	if rt := float64(st.HTTP["requests_total"]); rt != served+1 {
		t.Errorf("http.requests_total = %v, want the scrape's %v requests plus the scrape", rt, served)
	}
	// The script reached every section it compares.
	if st.Cache.Hits == 0 || st.Prune.Considered == 0 || st.HTTP["sheds"] != 1 ||
		st.Ingest["batches"] != 1 || d.Appends != 1 || d.Checkpoints != 1 {
		t.Errorf("the script left a section at zero: %s", stats)
	}
}

// http.ErrAbortHandler is net/http's way to abort a response, not a
// crash: handle re-raises it untouched, counts no panic and writes no
// 500, yet still drains the in-flight gauge and records the request.
func TestAbortHandlerReraised(t *testing.T) {
	_, srv := newObsServer(t, nil)
	srv.handle("/api/abort", func(http.ResponseWriter, *http.Request) { panic(http.ErrAbortHandler) }, http.MethodGet)
	rec := httptest.NewRecorder()
	func() {
		defer func() {
			if r := recover(); r != http.ErrAbortHandler {
				t.Errorf("recovered %v, want http.ErrAbortHandler re-raised", r)
			}
		}()
		srv.ServeHTTP(rec, httptest.NewRequest("GET", "/api/abort", nil))
	}()
	if rec.Body.Len() != 0 || srv.panics.Value() != 0 {
		t.Errorf("abort wrote %q and counted %d panics, want neither", rec.Body.String(), srv.panics.Value())
	}
	if srv.httpInflight.Value() != 0 || srv.httpRequests.With("/api/abort", "200").Value() != 1 {
		t.Errorf("abort left in-flight %d and recorded %d requests, want 0 and 1",
			srv.httpInflight.Value(), srv.httpRequests.With("/api/abort", "200").Value())
	}
}

// The real server's metric families are pinned: the # HELP and # TYPE
// lines of a WAL-backed server's first scrape, before any other
// request, must equal testdata/metric_families.txt. A family that is
// added, renamed, retyped or reworded moves a line here. go test -run
// TestMetricFamiliesPinned -update rewrites the file.
func TestMetricFamiliesPinned(t *testing.T) {
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
	m, err := durable.Open(durable.Options{Dir: t.TempDir(), Fsync: durable.FsyncAlways, CheckpointRows: -1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Recover(engine); err != nil {
		t.Fatal(err)
	}
	srv := New(engine, 5, false, Options{Durable: m, MaxInflight: 1})
	m.Instrument(srv.registry)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
		_ = m.Close()
	})
	_, _, body := fetch(t, ts.URL+"/metrics")
	var got strings.Builder
	for _, line := range strings.SplitAfter(body, "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			got.WriteString(line)
		}
	}
	path := filepath.Join("testdata", "metric_families.txt")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to write it)", err)
	}
	if got.String() != string(want) {
		gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
			var g, w string
			if i < len(gotLines) {
				g = gotLines[i]
			}
			if i < len(wantLines) {
				w = wantLines[i]
			}
			if g != w {
				t.Fatalf("%s line %d:\n got %q\nwant %q", path, i+1, g, w)
			}
		}
	}
}

// TestRepeatedRouteStatusRecordsWithoutAllocating: once a route has
// answered a status, counting another such request allocates nothing,
// and every count lands in the family's child for the pair.
func TestRepeatedRouteStatusRecordsWithoutAllocating(t *testing.T) {
	vec := obs.NewRegistry().CounterVec("requests_total", "", "route", "code")
	rr := &routeRequests{vec: vec, route: "/api/query", byCode: make(map[int]*obs.Counter)}
	rr.inc(http.StatusNotFound)
	if allocs := testing.AllocsPerRun(100, func() { rr.inc(http.StatusNotFound) }); allocs != 0 {
		t.Errorf("a repeated (route, status) allocates %v times a request", allocs)
	}
	rr.inc(http.StatusOK)
	if n404, n200 := vec.With("/api/query", "404").Value(), vec.With("/api/query", "200").Value(); n404 != 102 || n200 != 1 {
		t.Errorf("counted %d 404s and %d 200s, want 102 and 1", n404, n200)
	}
}
