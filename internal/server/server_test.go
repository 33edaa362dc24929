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
	"foresight/internal/query"
	"foresight/internal/sketch"
)

func newTestServer(t *testing.T) *httptest.Server {
	t.Helper()
	f := datagen.OECD(0, 42)
	engine, err := query.NewEngine(f, core.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(engine, 5, false, Options{}))
	t.Cleanup(ts.Close)
	return ts
}

func getJSON(t *testing.T, url string, out interface{}) *http.Response {
	t.Helper()
	res, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if out != nil {
		if err := json.NewDecoder(res.Body).Decode(out); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return res
}

func TestIndexPage(t *testing.T) {
	ts := newTestServer(t)
	res, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if res.StatusCode != 200 || !strings.Contains(res.Header.Get("Content-Type"), "text/html") {
		t.Errorf("index: %d %s", res.StatusCode, res.Header.Get("Content-Type"))
	}
	// Unknown paths 404.
	res2, _ := http.Get(ts.URL + "/nope")
	if res2.StatusCode != 404 {
		t.Errorf("unknown path = %d, want 404", res2.StatusCode)
	}
	res2.Body.Close()
}

func TestDatasetEndpoint(t *testing.T) {
	ts := newTestServer(t)
	var out struct {
		Name    string   `json:"name"`
		Rows    int      `json:"rows"`
		Cols    int      `json:"cols"`
		Classes []string `json:"classes"`
	}
	getJSON(t, ts.URL+"/api/dataset", &out)
	if out.Name != "oecd" || out.Rows != 35 || out.Cols != 25 {
		t.Errorf("dataset = %+v", out)
	}
	if len(out.Classes) != 12 {
		t.Errorf("classes = %d", len(out.Classes))
	}
}

func TestCarouselsAndFocusFlow(t *testing.T) {
	ts := newTestServer(t)
	var out struct {
		Carousels []query.Result `json:"carousels"`
		Focus     []core.Insight `json:"focus"`
	}
	getJSON(t, ts.URL+"/api/carousels?k=3", &out)
	if len(out.Carousels) < 7 {
		t.Fatalf("carousels = %d", len(out.Carousels))
	}
	for _, c := range out.Carousels {
		if len(c.Insights) > 3 {
			t.Errorf("carousel %s exceeds k", c.Class)
		}
	}
	if len(out.Focus) != 0 {
		t.Error("fresh session should have empty focus")
	}

	// Focus the top linear insight.
	var linear *query.Result
	for i := range out.Carousels {
		if out.Carousels[i].Class == "linear" {
			linear = &out.Carousels[i]
		}
	}
	if linear == nil || len(linear.Insights) == 0 {
		t.Fatal("no linear carousel")
	}
	top := linear.Insights[0]
	body, _ := json.Marshal(map[string]interface{}{
		"class": top.Class, "metric": top.Metric, "attrs": top.Attrs,
	})
	res, err := http.Post(ts.URL+"/api/focus", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != 200 {
		t.Fatalf("focus status = %d", res.StatusCode)
	}
	getJSON(t, ts.URL+"/api/carousels?k=3", &out)
	if len(out.Focus) != 1 {
		t.Fatalf("focus count = %d", len(out.Focus))
	}

	// Unfocus by key.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/api/unfocus?key="+top.Key(), nil)
	res2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var un struct {
		Removed bool `json:"removed"`
	}
	_ = json.NewDecoder(res2.Body).Decode(&un)
	res2.Body.Close()
	if !un.Removed {
		t.Error("unfocus did not remove")
	}
	// GET on focus is rejected.
	res3, _ := http.Get(ts.URL + "/api/focus")
	if res3.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET focus = %d", res3.StatusCode)
	}
	res3.Body.Close()
}

// TestCarouselsDefaultToServerK: /api/carousels without k answers the
// carousel length the server was built with (foresightd's -k), not a
// constant of the route.
func TestCarouselsDefaultToServerK(t *testing.T) {
	engine, err := query.NewEngine(datagen.OECD(0, 42), core.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(engine, 3, false, Options{}))
	t.Cleanup(ts.Close)
	var out struct {
		Carousels []query.Result `json:"carousels"`
	}
	getJSON(t, ts.URL+"/api/carousels", &out)
	if len(out.Carousels) < 7 {
		t.Fatalf("carousels = %d", len(out.Carousels))
	}
	for _, c := range out.Carousels {
		if len(c.Insights) != 3 {
			t.Errorf("carousel %s holds %d insights, want the server's k = 3", c.Class, len(c.Insights))
		}
	}
}

func TestQueryEndpoint(t *testing.T) {
	ts := newTestServer(t)
	var out struct {
		Results []query.Result `json:"results"`
	}
	getJSON(t, ts.URL+"/api/query?class=linear&fix=TimeDevotedToLeisure&k=3", &out)
	if len(out.Results) != 1 {
		t.Fatalf("results = %d", len(out.Results))
	}
	for _, in := range out.Results[0].Insights {
		found := false
		for _, a := range in.Attrs {
			if a == "TimeDevotedToLeisure" {
				found = true
			}
		}
		if !found {
			t.Errorf("fixed attr missing in %v", in.Attrs)
		}
	}
	// Bad class → 400 with JSON error.
	res, _ := http.Get(ts.URL + "/api/query?class=bogus")
	if res.StatusCode != 400 {
		t.Errorf("bogus class = %d", res.StatusCode)
	}
	var e struct {
		Error string `json:"error"`
	}
	_ = json.NewDecoder(res.Body).Decode(&e)
	res.Body.Close()
	if e.Error == "" {
		t.Error("error body missing")
	}
}

func TestOverviewEndpoint(t *testing.T) {
	ts := newTestServer(t)
	var ov query.Overview
	getJSON(t, ts.URL+"/api/overview?class=linear", &ov)
	if !ov.Symmetric || len(ov.RowAttrs) != 24 {
		t.Errorf("overview: symmetric=%v attrs=%d", ov.Symmetric, len(ov.RowAttrs))
	}
	// SVG format.
	res, _ := http.Get(ts.URL + "/api/overview?class=linear&format=svg")
	if ct := res.Header.Get("Content-Type"); !strings.Contains(ct, "svg") {
		t.Errorf("overview svg content type = %s", ct)
	}
	res.Body.Close()
	// Arity-3 class has no overview.
	res2, _ := http.Get(ts.URL + "/api/overview?class=segmentation")
	if res2.StatusCode != 400 {
		t.Errorf("segmentation overview = %d, want 400", res2.StatusCode)
	}
	res2.Body.Close()
}

func TestRenderEndpoint(t *testing.T) {
	ts := newTestServer(t)
	res, _ := http.Get(ts.URL + "/api/render?class=skew&attrs=SelfReportedHealth")
	if res.StatusCode != 200 || !strings.Contains(res.Header.Get("Content-Type"), "svg") {
		t.Errorf("render = %d %s", res.StatusCode, res.Header.Get("Content-Type"))
	}
	res.Body.Close()
	for _, bad := range []string{
		"/api/render",                           // missing params
		"/api/render?class=bogus&attrs=x",       // unknown class
		"/api/render?class=skew&attrs=NotThere", // unknown attr
	} {
		res, _ := http.Get(ts.URL + bad)
		if res.StatusCode != 400 {
			t.Errorf("%s = %d, want 400", bad, res.StatusCode)
		}
		res.Body.Close()
	}
}

func TestStateRoundTrip(t *testing.T) {
	ts := newTestServer(t)
	res, err := http.Get(ts.URL + "/api/state")
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	b := make([]byte, 4096)
	for {
		n, err := res.Body.Read(b)
		buf.Write(b[:n])
		if err != nil {
			break
		}
	}
	res.Body.Close()
	if !strings.Contains(buf.String(), "oecd") {
		t.Errorf("state = %q", buf.String())
	}
	res2, err := http.Post(ts.URL+"/api/state", "application/json", strings.NewReader(buf.String()))
	if err != nil {
		t.Fatal(err)
	}
	if res2.StatusCode != 200 {
		t.Errorf("state restore = %d", res2.StatusCode)
	}
	res2.Body.Close()
	// Corrupt state.
	res3, _ := http.Post(ts.URL+"/api/state", "application/json", strings.NewReader("{"))
	if res3.StatusCode != 400 {
		t.Errorf("corrupt state = %d", res3.StatusCode)
	}
	res3.Body.Close()
}

func TestRenderApproxEndpoint(t *testing.T) {
	f := datagen.OECD(0, 42)
	profile := sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 1, K: 64})
	engine, err := query.NewEngine(f, core.NewRegistry(), profile)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(New(engine, 5, true, Options{}))
	defer ts.Close()
	res, _ := http.Get(ts.URL + "/api/render?class=skew&attrs=SelfReportedHealth&approx=1")
	if res.StatusCode != 200 || !strings.Contains(res.Header.Get("Content-Type"), "svg") {
		t.Errorf("approx render = %d %s", res.StatusCode, res.Header.Get("Content-Type"))
	}
	res.Body.Close()
	// Without a profile, approx render is a 400.
	bare, err := query.NewEngine(f, core.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(New(bare, 5, false, Options{}))
	defer ts2.Close()
	res2, _ := http.Get(ts2.URL + "/api/render?class=skew&attrs=SelfReportedHealth&approx=1")
	if res2.StatusCode != 400 {
		t.Errorf("approx render without profile = %d, want 400", res2.StatusCode)
	}
	res2.Body.Close()
}

func TestClassesEndpoint(t *testing.T) {
	ts, srv := newObsServer(t, nil)
	var out struct {
		Classes []struct {
			Name    string   `json:"name"`
			Arity   int      `json:"arity"`
			Metrics []string `json:"metrics"`
		} `json:"classes"`
	}
	_, _, body := fetch(t, ts.URL+"/api/classes")
	if err := json.Unmarshal([]byte(body), &out); err != nil {
		t.Fatal(err)
	}
	// The request path's gauge drains and its byte counter counts the
	// body.
	waitForCond(t, "foresight_http_inflight_requests back to 0", func() bool { return srv.httpInflight.Value() == 0 })
	if got := srv.httpBytes.With("/api/classes").Value(); got != uint64(len(body)) {
		t.Errorf("foresight_http_response_bytes_total = %d, want the body's %d", got, len(body))
	}
	if len(out.Classes) != 12 {
		t.Fatalf("classes = %d, want 12", len(out.Classes))
	}
	for _, c := range out.Classes {
		if c.Name == "" || c.Arity < 1 || len(c.Metrics) == 0 {
			t.Errorf("incomplete class info: %+v", c)
		}
	}
}

func TestOverviewSVGUnaryClass(t *testing.T) {
	ts := newTestServer(t)
	res, _ := http.Get(ts.URL + "/api/overview?class=skew&format=svg")
	body := make([]byte, 4096)
	n, _ := res.Body.Read(body)
	res.Body.Close()
	svg := string(body[:n])
	if !strings.HasPrefix(svg, "<svg") {
		t.Fatalf("unary overview not SVG: %.80s", svg)
	}
	// Bar chart, not a 1×1 correlogram: expect rect bars.
	if !strings.Contains(svg, "<rect") {
		t.Error("unary overview should render bars")
	}
}

func TestNeighborhoodEndpoint(t *testing.T) {
	ts, srv := newObsServer(t, nil)
	var out struct {
		Focus     core.Insight   `json:"focus"`
		Neighbors []core.Insight `json:"neighbors"`
	}
	getJSON(t, ts.URL+"/api/neighborhood?class=linear&attrs=LifeSatisfaction,SelfReportedHealth&k=5&within=linear", &out)
	if len(out.Neighbors) != 5 {
		t.Fatalf("neighbors = %d, want 5", len(out.Neighbors))
	}
	for _, nb := range out.Neighbors {
		if nb.Key() == out.Focus.Key() {
			t.Error("focus must not be its own neighbor")
		}
	}
	// Missing params and bad class.
	res, _ := http.Get(ts.URL + "/api/neighborhood")
	if res.StatusCode != 400 {
		t.Errorf("missing params = %d", res.StatusCode)
	}
	res.Body.Close()
	res2, _ := http.Get(ts.URL + "/api/neighborhood?class=bogus&attrs=x")
	if res2.StatusCode != 400 {
		t.Errorf("bad class = %d", res2.StatusCode)
	}
	res2.Body.Close()
	// A status the handler wrote is the code label.
	waitForCond(t, "no request in flight", func() bool { return srv.httpInflight.Value() == 0 })
	if got := srv.httpRequests.With("/api/neighborhood", "400").Value(); got != 2 {
		t.Errorf(`foresight_http_requests_total{route="/api/neighborhood",code="400"} = %d, want 2`, got)
	}
}

func TestStatsEndpoint(t *testing.T) {
	ts := newTestServer(t)
	// Warm the cache with one carousel request, then a second for hits.
	getJSON(t, ts.URL+"/api/carousels?k=3", nil)
	getJSON(t, ts.URL+"/api/carousels?k=5", nil)
	var out struct {
		Cache   query.CacheStats `json:"cache"`
		Workers int              `json:"workers"`
		Dataset string           `json:"dataset"`
	}
	getJSON(t, ts.URL+"/api/stats", &out)
	if out.Dataset != "oecd" || out.Workers < 1 {
		t.Errorf("stats = %+v", out)
	}
	if out.Cache.Misses == 0 || out.Cache.Entries == 0 {
		t.Errorf("cache never filled: %+v", out.Cache)
	}
	if out.Cache.Hits == 0 {
		t.Errorf("second carousel request should hit the memo: %+v", out.Cache)
	}
}

// TestConcurrentReadEndpoints hammers every read-only endpoint from
// many goroutines against one server (run under -race) and checks the
// carousel payload stays identical to the single-threaded answer.
func TestConcurrentReadEndpoints(t *testing.T) {
	ts := newTestServer(t)
	var golden struct {
		Carousels []query.Result `json:"carousels"`
	}
	getJSON(t, ts.URL+"/api/carousels?k=3", &golden)
	if len(golden.Carousels) == 0 {
		t.Fatal("no golden carousels")
	}
	urls := []string{
		"/api/carousels?k=3",
		"/api/query?class=linear&k=5",
		"/api/overview?class=linear",
		"/api/neighborhood?class=linear&attrs=LifeSatisfaction,SelfReportedHealth&k=5",
		"/api/stats",
		"/api/dataset",
		"/api/state",
	}
	const clients = 8
	var wg sync.WaitGroup
	var idMu sync.Mutex
	ids := map[string]bool{}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				url := urls[(c+round)%len(urls)]
				res, err := http.Get(ts.URL + url)
				if err != nil {
					t.Error(err)
					return
				}
				idMu.Lock()
				ids[res.Header.Get("X-Request-ID")] = true
				idMu.Unlock()
				if res.StatusCode != 200 {
					t.Errorf("%s = %d", url, res.StatusCode)
					res.Body.Close()
					return
				}
				if url == urls[0] {
					var out struct {
						Carousels []query.Result `json:"carousels"`
					}
					if err := json.NewDecoder(res.Body).Decode(&out); err != nil {
						t.Error(err)
						res.Body.Close()
						return
					}
					if len(out.Carousels) != len(golden.Carousels) {
						t.Errorf("carousels %d vs %d", len(out.Carousels), len(golden.Carousels))
					} else {
						for i := range out.Carousels {
							a, b := golden.Carousels[i], out.Carousels[i]
							if a.Class != b.Class || len(a.Insights) != len(b.Insights) {
								t.Errorf("carousel %d shape differs", i)
								continue
							}
							for j := range a.Insights {
								if a.Insights[j].Key() != b.Insights[j].Key() ||
									a.Insights[j].Score != b.Insights[j].Score {
									t.Errorf("carousel %d[%d] differs", i, j)
								}
							}
						}
					}
				} else {
					_, _ = io.Copy(io.Discard, res.Body)
				}
				res.Body.Close()
			}
		}(c)
	}
	wg.Wait()
	// Every request was minted an ID of its own.
	if len(ids) != clients*4 || ids[""] {
		t.Errorf("%d distinct request IDs over %d requests (empty among them: %v)", len(ids), clients*4, ids[""])
	}
}

// TestConcurrentFocusAndReads mixes writers (focus/unfocus) with the
// read endpoints; meant for -race, asserts only well-formed responses.
func TestConcurrentFocusAndReads(t *testing.T) {
	ts := newTestServer(t)
	var golden struct {
		Carousels []query.Result `json:"carousels"`
	}
	getJSON(t, ts.URL+"/api/carousels?k=2", &golden)
	var linear *query.Result
	for i := range golden.Carousels {
		if golden.Carousels[i].Class == "linear" {
			linear = &golden.Carousels[i]
		}
	}
	if linear == nil || len(linear.Insights) == 0 {
		t.Fatal("no linear carousel")
	}
	top := linear.Insights[0]
	body, _ := json.Marshal(map[string]interface{}{
		"class": top.Class, "metric": top.Metric, "attrs": top.Attrs,
	})
	var wg sync.WaitGroup
	for c := 0; c < 6; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for round := 0; round < 4; round++ {
				if c%3 == 0 {
					if round%2 == 0 {
						res, err := http.Post(ts.URL+"/api/focus", "application/json",
							strings.NewReader(string(body)))
						if err != nil {
							t.Error(err)
							return
						}
						res.Body.Close()
					} else {
						req, _ := http.NewRequest(http.MethodPost, ts.URL+"/api/unfocus?key="+top.Key(), nil)
						res, err := http.DefaultClient.Do(req)
						if err != nil {
							t.Error(err)
							return
						}
						res.Body.Close()
					}
					continue
				}
				res, err := http.Get(ts.URL + "/api/carousels?k=2")
				if err != nil {
					t.Error(err)
					return
				}
				if res.StatusCode != 200 {
					t.Errorf("carousels = %d", res.StatusCode)
				}
				_, _ = io.Copy(io.Discard, res.Body)
				res.Body.Close()
			}
		}(c)
	}
	wg.Wait()
}
