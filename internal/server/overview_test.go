package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
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

// TestOverviewConstantColumn: a constant column's cells are undefined
// under every class here, and the JSON overview holding them is a 200
// with null at exactly those cells and the six documented fields,
// while the SVG overview draws what it drew before.
func TestOverviewConstantColumn(t *testing.T) {
	n := 40
	x, y, k := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range x {
		x[i] = float64(i)
		y[i] = float64(i*i%17) + 0.5*float64(i)
		k[i] = 3
	}
	f := frame.MustNew("constant",
		frame.NewNumericColumn("x", x), frame.NewNumericColumn("y", y), frame.NewNumericColumn("k", k))
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
	// The SVG digests were taken before undefined cells encoded as
	// null; like the reply corpus's, they are amd64 facts.
	for class, svgDigest := range map[string]string{
		"linear":     "288ea42265a2b126fa68bfba6e3ee0004d5814d01400d41603a70186b547e13f",
		"monotonic":  "a96019fecaee1392fae355de136435ebd16c537e064348d7de8aa85a4307bb59",
		"skew":       "e9632a7f36552a313d5768eb9f6f4cb5534a2d74480a383fb6d3ad256deb7d1a",
		"heavytails": "9b0de6035b138c6b2d8d000cca6fceff631e452801d49cc1e23eba6ebcbb8f95",
	} {
		url := ts.URL + "/api/overview?class=" + class
		status, _, body := getOverview(t, url, "")
		if status != http.StatusOK {
			t.Fatalf("%s: status %d: %s", class, status, body)
		}
		var fields map[string]json.RawMessage
		if err := json.Unmarshal(body, &fields); err != nil {
			t.Fatalf("%s: %v", class, err)
		}
		var keys []string
		for key := range fields {
			keys = append(keys, key)
		}
		if sort.Strings(keys); !slices.Equal(keys, []string{"class", "col_attrs", "metric", "row_attrs", "symmetric", "values"}) {
			t.Errorf("%s: fields %v", class, keys)
		}
		var ov struct {
			RowAttrs []string     `json:"row_attrs"`
			ColAttrs []string     `json:"col_attrs"`
			Values   [][]*float64 `json:"values"`
		}
		if err := json.Unmarshal(body, &ov); err != nil {
			t.Fatalf("%s: %v", class, err)
		}
		if len(ov.Values) != len(ov.RowAttrs) {
			t.Fatalf("%s: %d rows for %d row labels", class, len(ov.Values), len(ov.RowAttrs))
		}
		for i, row := range ov.Values {
			for j, cell := range row {
				// A pair holding k is undefined, the diagonal is 1; a
				// unary class has one row, and k's cell is undefined.
				r, c := ov.RowAttrs[i], ov.ColAttrs[j]
				undefined := c == "k" && (len(ov.Values) == 1 || r != "k") || r == "k" && c != "k"
				if undefined != (cell == nil) {
					t.Errorf("%s: cell (%s, %s) null %v, want %v", class, r, c, cell == nil, undefined)
				}
			}
		}

		status, _, svg := getOverview(t, url+"&format=svg", "")
		sum := sha256.Sum256(svg)
		if status != http.StatusOK || runtime.GOARCH == "amd64" && hex.EncodeToString(sum[:]) != svgDigest {
			t.Errorf("%s svg: status %d, digest %x, want %s", class, status, sum, svgDigest)
		}
	}
}

// FuzzIfNoneMatch: etagMatches, which reads the If-None-Match header a
// client sends with a conditional overview GET, never panics. "*"
// matches. A list that holds the tag, weak or strong, amid any
// whitespace and commas and whatever other entries, matches. A header
// that names neither the tag nor "*" does not.
func FuzzIfNoneMatch(f *testing.F) {
	f.Add(`"stale", W/"other"`, uint64(0xcafe), " ", ", \t", true)
	f.Add("", uint64(0), "", "", false)
	f.Add(`W/"1",*`, uint64(1), ",,", " ", false)
	f.Fuzz(func(t *testing.T, header string, h uint64, before, after string, weak bool) {
		etag := `"` + strconv.FormatUint(h, 16) + `"`
		only := func(set string) func(rune) rune {
			return func(r rune) rune {
				if strings.ContainsRune(set, r) {
					return r
				}
				return -1
			}
		}
		if !strings.Contains(header, etag) && !strings.Contains(header, "*") && etagMatches(header, etag) {
			t.Errorf("%q matches %s", header, etag)
		}
		if star := strings.Map(only(" \t"), before) + "*" + strings.Map(only(" \t"), after); !etagMatches(star, etag) {
			t.Errorf("%q does not match %s", star, etag)
		}
		tag := etag
		if weak {
			tag = "W/" + tag
		}
		tag = strings.Map(only(" \t,"), before) + tag + strings.Map(only(" \t,"), after)
		for _, list := range []string{tag, header + "," + tag, tag + "," + header, header + "," + tag + "," + header} {
			if !etagMatches(list, etag) {
				t.Errorf("%q does not match %s", list, etag)
			}
		}
	})
}
