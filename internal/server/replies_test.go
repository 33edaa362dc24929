package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"foresight/internal/core"
	"foresight/internal/datagen"
	"foresight/internal/frame"
	"foresight/internal/query"
)

var update = flag.Bool("update", false, "rewrite testdata/replies from this build's replies")

// TestRepliesPinned is the reply corpus: every body a fixed exploration
// script gets from Server.ServeHTTP, on each demo dataset, exact and
// -approx, set up as foresightd sets it up, at engine workers 1, 2 and
// GOMAXPROCS. Each body's SHA-256 (request_id stripped) must equal the
// one in testdata/replies/<dataset>-<mode>.txt, whatever the worker
// count. go test -run TestRepliesPinned -update rewrites the files; a
// change that moves a line says which and why.
func TestRepliesPinned(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("the digests are amd64 facts: on other architectures (arm64) the compiler may fuse multiply-add, which moves scores by ulps")
	}
	// Engine workers 1, 2 and GOMAXPROCS, each once.
	workerCounts := []int{1, 2, runtime.GOMAXPROCS(0)}
	slices.Sort(workerCounts)
	workerCounts = slices.Compact(workerCounts)
	for _, dataset := range []string{"oecd", "parkinson", "imdb"} {
		for _, approx := range []bool{false, true} {
			mode := "exact"
			if approx {
				mode = "approx"
			}
			path := filepath.Join("testdata", "replies", dataset+"-"+mode+".txt")
			t.Run(dataset+"-"+mode, func(t *testing.T) {
				for _, workers := range workerCounts {
					got := replayScript(t, dataset, approx, workers)
					if *update && workers == 1 {
						if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
							t.Fatal(err)
						}
						if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
							t.Fatal(err)
						}
					}
					want, err := os.ReadFile(path)
					if err != nil {
						t.Fatalf("%v (run with -update to write it)", err)
					}
					wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
					if len(got) != len(wantLines) {
						t.Fatalf("workers=%d: %d replies, %s pins %d", workers, len(got), path, len(wantLines))
					}
					for i := range got {
						if got[i] != wantLines[i] {
							t.Errorf("workers=%d: reply differs:\n got %s\nwant %s", workers, got[i], wantLines[i])
						}
					}
				}
			})
		}
	}
}

// replay drives one server in-process and keeps one line per reply:
// position, method and target, status, and the body's digest.
type replay struct {
	t     *testing.T
	srv   *Server
	lines []string
}

func (r *replay) do(method, target, contentType, body string) []byte {
	r.t.Helper()
	req := httptest.NewRequest(method, target, strings.NewReader(body))
	if contentType != "" {
		req.Header.Set("Content-Type", contentType)
	}
	rec := httptest.NewRecorder()
	r.srv.ServeHTTP(rec, req)
	out := rec.Body.Bytes()
	sum := sha256.Sum256(withoutRequestID(out))
	r.lines = append(r.lines, fmt.Sprintf("%02d %s %s %d %x", len(r.lines)+1, method, target, rec.Code, sum))
	return out
}

// withoutRequestID drops the request_id an error body carries: it names
// the request, not the reply.
func withoutRequestID(body []byte) []byte {
	var obj map[string]json.RawMessage
	if json.Unmarshal(body, &obj) != nil || obj["request_id"] == nil {
		return body
	}
	delete(obj, "request_id")
	out, err := json.Marshal(obj)
	if err != nil {
		return body
	}
	return out
}

// replayScript serves dataset as foresightd -data <dataset> [-approx]
// -workers <workers> would, runs the script on it, and returns its
// lines. The script is the reads below, then a 10-row ingest and the
// reads again, then a 20-row ingest and the reads again. The ingested
// rows are the dataset's own generator at another seed.
func replayScript(t *testing.T, dataset string, approx bool, workers int) []string {
	t.Helper()
	f, err := LoadData(dataset, 42)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Preprocess(f, "", 42, workers)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := query.NewEngine(f, core.NewRegistry(), p)
	if err != nil {
		t.Fatal(err)
	}
	engine.SetWorkers(workers)
	srv := New(engine, 5, approx, Options{})
	defer srv.Close()
	r := &replay{t: t, srv: srv}

	header, rows := ingestRecords(t, dataset)
	r.reads(approx)
	for _, batch := range [][][]string{rows[:10], rows[10:30]} {
		r.do(http.MethodPost, "/api/ingest", "text/csv", csvBody(t, header, batch))
		r.reads(approx)
	}
	return r.lines
}

// reads is the script's read sequence: the classes; the carousels; a
// query fixing the top insight's first attribute under a score range;
// every class's overview; the top insight's neighborhood; focus →
// carousel → state save → unfocus → state restore → carousel → unfocus;
// and the top insight rendered.
func (r *replay) reads(approx bool) {
	r.t.Helper()
	suffix := ""
	if approx {
		suffix = "&approx=1"
	}
	r.do(http.MethodGet, "/api/classes", "", "")
	var carousels struct {
		Carousels []query.Result `json:"carousels"`
	}
	if err := json.Unmarshal(r.do(http.MethodGet, "/api/carousels?k=5", "", ""), &carousels); err != nil || len(carousels.Carousels) == 0 {
		r.t.Fatalf("carousels: %v, %d classes", err, len(carousels.Carousels))
	}
	top := carousels.Carousels[0].Insights[0]
	attrs := url.QueryEscape(strings.Join(top.Attrs, ","))
	r.do(http.MethodGet, "/api/query?fix="+url.QueryEscape(top.Attrs[0])+"&min=0.1&max=0.9&k=10"+suffix, "", "")
	for _, c := range r.srv.engine.Registry().Classes() {
		if c.Arity() <= 2 {
			r.do(http.MethodGet, "/api/overview?class="+c.Name()+suffix, "", "")
		}
	}
	r.do(http.MethodGet, "/api/neighborhood?class="+top.Class+"&metric="+top.Metric+"&attrs="+attrs+"&k=10"+suffix, "", "")
	focus, err := json.Marshal(map[string]any{"class": top.Class, "metric": top.Metric, "attrs": top.Attrs})
	if err != nil {
		r.t.Fatal(err)
	}
	r.do(http.MethodPost, "/api/focus", "application/json", string(focus))
	r.do(http.MethodGet, "/api/carousels?k=5", "", "")
	state := r.do(http.MethodGet, "/api/state", "", "")
	r.do(http.MethodPost, "/api/unfocus?key="+url.QueryEscape(top.Key()), "", "")
	r.do(http.MethodPost, "/api/state", "application/json", string(state))
	r.do(http.MethodGet, "/api/carousels?k=3", "", "")
	r.do(http.MethodPost, "/api/unfocus", "", "")
	r.do(http.MethodGet, "/api/render?class="+top.Class+"&metric="+top.Metric+"&attrs="+attrs+suffix, "", "")
}

// ingestRecords returns 30 rows of dataset's generator at seed 43 as
// CSV cells under their header.
func ingestRecords(t *testing.T, dataset string) ([]string, [][]string) {
	t.Helper()
	src := map[string]func(int, int64) *frame.Frame{
		"oecd": datagen.OECD, "parkinson": datagen.Parkinson, "imdb": datagen.IMDB,
	}[dataset](30, 43)
	var buf bytes.Buffer
	if err := src.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return records[0], records[1:]
}

func csvBody(t *testing.T, header []string, rows [][]string) string {
	t.Helper()
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	if err := w.WriteAll(append([][]string{header}, rows...)); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}
