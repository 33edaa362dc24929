package server

import (
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"foresight/internal/core"
	"foresight/internal/frame"
	"foresight/internal/query"
	"foresight/internal/sketch"
)

// getOverview fetches path with an optional If-None-Match and returns
// the status, the ETag and the body.
func getOverview(t *testing.T, url, ifNoneMatch string) (int, string, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	res, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	body, err := io.ReadAll(res.Body)
	if err != nil {
		t.Fatal(err)
	}
	return res.StatusCode, res.Header.Get("ETag"), body
}

// TestOverviewConditionalGet: the overview's tag names (generation,
// class, metric, backend) — it survives repeated requests, a matching
// If-None-Match gets a bodyless 304, and an ingest and a restore each
// retire it.
func TestOverviewConditionalGet(t *testing.T) {
	f := frame.MustNew("live",
		frame.NewNumericColumn("x", []float64{1, 2, 3, 4, 5, 6}),
		frame.NewNumericColumn("y", []float64{2, 4, 5, 9, 9, 13}),
		frame.NewNumericColumn("z", []float64{5, 1, 4, 2, 6, 3}),
	)
	engine, err := query.NewEngine(f, core.NewRegistry(), sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 1, K: 32}))
	if err != nil {
		t.Fatal(err)
	}
	srv := New(engine, 5, false, Options{})
	ts := httptest.NewServer(srv)
	defer func() {
		ts.Close()
		srv.Close()
	}()
	url := ts.URL + "/api/overview?class=linear"

	status, tag, body := getOverview(t, url, "")
	if status != 200 || len(tag) < 3 || tag[0] != '"' || tag[len(tag)-1] != '"' || len(body) == 0 {
		t.Fatalf("first reply: status %d, ETag %q, %d bytes", status, tag, len(body))
	}
	if status, again, same := getOverview(t, url, ""); status != 200 || again != tag || string(same) != string(body) {
		t.Errorf("repeat: status %d, ETag %q (was %q), body equal %v", status, again, tag, string(same) == string(body))
	}
	for _, header := range []string{tag, "W/" + tag, `"other", ` + tag, "*"} {
		if status, again, body := getOverview(t, url, header); status != http.StatusNotModified || again != tag || len(body) != 0 {
			t.Errorf("If-None-Match %s: status %d, ETag %q, %d bytes; want 304, %q, none", header, status, again, len(body), tag)
		}
	}
	if status, _, got := getOverview(t, url, `"stale"`); status != 200 || string(got) != string(body) {
		t.Errorf("If-None-Match with another tag: status %d, body equal %v", status, string(got) == string(body))
	}
	// Another metric, another backend: other representations, other tags.
	for _, other := range []string{url + "&metric=r2", url + "&approx=1", ts.URL + "/api/overview?class=monotonic"} {
		if status, otherTag, _ := getOverview(t, other, tag); status != 200 || otherTag == tag {
			t.Errorf("%s: status %d, ETag %q; want 200 and a tag other than %q", other, status, otherTag, tag)
		}
	}

	if res, out := postIngest(t, ts.URL, "application/json", `{"columns": ["x", "y", "z"], "rows": [[7, 14, 0]]}`); res.StatusCode != http.StatusAccepted {
		t.Fatalf("ingest: %d %v", res.StatusCode, out)
	}
	status, afterIngest, grown := getOverview(t, url, tag)
	if status != 200 || afterIngest == tag || string(grown) == string(body) {
		t.Errorf("after ingest: status %d, ETag %q (was %q), body changed %v", status, afterIngest, tag, string(grown) != string(body))
	}
	if err := engine.RestoreSnapshot(engine.Frame(), nil); err != nil {
		t.Fatal(err)
	}
	if status, afterRestore, _ := getOverview(t, url, afterIngest); status != 200 || afterRestore == afterIngest || afterRestore == tag {
		t.Errorf("after a restore: status %d, ETag %q (was %q)", status, afterRestore, afterIngest)
	}
}
