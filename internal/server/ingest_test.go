package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"foresight/internal/core"
	"foresight/internal/frame"
	"foresight/internal/query"
	"foresight/internal/sketch"
)

// newIngestServer serves a small frame with a known schema (numeric x,
// categorical g) and a live profile, so ingest exercises the sketch
// delta path end to end.
func newIngestServer(t *testing.T) (*httptest.Server, *Server) {
	t.Helper()
	return newIngestServerWith(t, Options{})
}

func newIngestServerWith(t *testing.T, o Options) (*httptest.Server, *Server) {
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
	srv := New(engine, 5, true, o)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts, srv
}

type statsView struct {
	Rows       int    `json:"rows"`
	Generation uint64 `json:"generation"`
	Ingest     struct {
		QueueDepth int    `json:"queue_depth"`
		Requests   uint64 `json:"requests"`
		Rows       uint64 `json:"rows"`
		Batches    uint64 `json:"batches"`
	} `json:"ingest"`
}

func readStats(t *testing.T, url string) statsView {
	t.Helper()
	var st statsView
	res := getJSON(t, url+"/api/stats", &st)
	if res.StatusCode != 200 {
		t.Fatalf("/api/stats = %d", res.StatusCode)
	}
	return st
}

func postIngest(t *testing.T, url, contentType, body string) (*http.Response, map[string]interface{}) {
	t.Helper()
	res, err := http.Post(url+"/api/ingest", contentType, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	var out map[string]interface{}
	_ = json.NewDecoder(res.Body).Decode(&out)
	return res, out
}

func TestIngestEndpointJSON(t *testing.T) {
	ts, _ := newIngestServer(t)
	before := readStats(t, ts.URL)

	res, out := postIngest(t, ts.URL, "application/json",
		`{"columns": ["x", "g"], "rows": [[4.5, "c"], [null, "a"]]}`)
	if res.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, want 202 (%v)", res.StatusCode, out)
	}
	if out["rows_accepted"].(float64) != 2 {
		t.Errorf("rows_accepted = %v, want 2", out["rows_accepted"])
	}
	if out["row_count"].(float64) != float64(before.Rows+2) {
		t.Errorf("row_count = %v, want %d", out["row_count"], before.Rows+2)
	}
	if uint64(out["generation"].(float64)) <= before.Generation {
		t.Errorf("generation %v did not advance past %d", out["generation"], before.Generation)
	}

	after := readStats(t, ts.URL)
	if after.Rows != before.Rows+2 {
		t.Errorf("stats rows = %d, want %d", after.Rows, before.Rows+2)
	}
	if after.Generation <= before.Generation {
		t.Errorf("stats generation = %d, want > %d", after.Generation, before.Generation)
	}
	if after.Ingest.Rows != before.Ingest.Rows+2 || after.Ingest.Batches == before.Ingest.Batches {
		t.Errorf("ingest counters not updated: %+v", after.Ingest)
	}
}

func TestIngestEndpointObjectRows(t *testing.T) {
	ts, _ := newIngestServer(t)
	before := readStats(t, ts.URL)
	// Object rows; absent columns become missing cells.
	res, out := postIngest(t, ts.URL, "application/json",
		`{"rows": [{"x": 9}, {"g": "b"}]}`)
	if res.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d (%v)", res.StatusCode, out)
	}
	if readStats(t, ts.URL).Rows != before.Rows+2 {
		t.Error("object rows not applied")
	}
}

func TestIngestEndpointCSV(t *testing.T) {
	ts, _ := newIngestServer(t)
	before := readStats(t, ts.URL)
	res, out := postIngest(t, ts.URL, "text/csv", "g,x\nc,7\nb,8\n")
	if res.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d (%v)", res.StatusCode, out)
	}
	if out["rows_accepted"].(float64) != 2 {
		t.Errorf("rows_accepted = %v", out["rows_accepted"])
	}
	if readStats(t, ts.URL).Rows != before.Rows+2 {
		t.Error("CSV rows not applied")
	}
}

func TestIngestEndpointErrors(t *testing.T) {
	ts, _ := newIngestServer(t)
	cases := []struct {
		name, ct, body string
	}{
		{"bad json", "application/json", `{"rows": [`},
		{"unknown column", "application/json", `{"columns": ["nope"], "rows": [["1"]]}`},
		{"unknown object key", "application/json", `{"rows": [{"nope": 1}]}`},
		{"mixed shapes", "application/json", `{"rows": [[1, "a"], {"x": 2}]}`},
		{"empty batch", "application/json", `{"rows": []}`},
		{"csv no rows", "text/csv", "x,g\n"},
		{"csv unknown column", "text/csv", "zzz\n1\n"},
	}
	for _, c := range cases {
		res, _ := postIngest(t, ts.URL, c.ct, c.body)
		if res.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", c.name, res.StatusCode)
		}
	}
	// Wrong method.
	res, err := http.Get(ts.URL + "/api/ingest")
	if err != nil {
		t.Fatal(err)
	}
	res.Body.Close()
	if res.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET = %d, want 405", res.StatusCode)
	}
	// Nothing above should have changed the dataset.
	if readStats(t, ts.URL).Rows != 3 {
		t.Error("rejected batches must not change the dataset")
	}
}

func TestIngestQueriesSeeNewRows(t *testing.T) {
	ts, _ := newIngestServer(t)
	res, out := postIngest(t, ts.URL, "application/json",
		`{"rows": [{"x": 10, "g": "a"}, {"x": 11, "g": "b"}, {"x": 12, "g": "a"}]}`)
	if res.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d (%v)", res.StatusCode, out)
	}
	var ds struct {
		Rows int `json:"rows"`
	}
	getJSON(t, ts.URL+"/api/dataset", &ds)
	if ds.Rows != 6 {
		t.Errorf("/api/dataset rows = %d, want 6", ds.Rows)
	}
	// Queries still serve after ingest (against the new snapshot).
	r2, err := http.Get(ts.URL + "/api/carousels")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if r2.StatusCode != 200 {
		t.Errorf("/api/carousels after ingest = %d", r2.StatusCode)
	}
}

func TestIngestClose(t *testing.T) {
	ts, srv := newIngestServer(t)
	_ = ts
	srv.Close()
	srv.Close() // idempotent
}

// gateSink is a DurableSink whose first append blocks until release is
// closed and accepts; every later append returns refuse (nil accepts).
type gateSink struct {
	entered, release chan struct{}
	refuse           error
	calls            atomic.Int32
}

func (g *gateSink) AppendBatch(frame.RowBatch, query.IngestResult) error {
	if g.calls.Add(1) == 1 {
		close(g.entered)
		<-g.release
		return nil
	}
	return g.refuse
}

// newGatedIngestServer is newIngestServer with a gateSink installed as
// the engine's durable sink.
func newGatedIngestServer(t *testing.T, o Options, refuse error) (*httptest.Server, *Server, *gateSink) {
	t.Helper()
	ts, srv := newIngestServerWith(t, o)
	sink := &gateSink{entered: make(chan struct{}), release: make(chan struct{}), refuse: refuse}
	srv.engine.SetDurableSink(sink)
	return ts, srv, sink
}

// postRowAsync posts the one-row batch {x: v, g: "a"} from its own
// goroutine and delivers the reply's status (0 when the post failed).
func postRowAsync(url string, v int) <-chan int {
	c := make(chan int, 1)
	go func() {
		res, err := http.Post(url+"/api/ingest", "application/json",
			strings.NewReader(fmt.Sprintf(`{"rows": [{"x": %d, "g": "a"}]}`, v)))
		if err != nil {
			c <- 0
			return
		}
		_, _ = io.Copy(io.Discard, res.Body)
		res.Body.Close()
		c <- res.StatusCode
	}()
	return c
}

// rowsWithX counts the frame's rows whose x is v.
func rowsWithX(t *testing.T, srv *Server, v int) int {
	t.Helper()
	x, err := srv.engine.Frame().Numeric("x")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, got := range x.Values() {
		if got == float64(v) {
			n++
		}
	}
	return n
}

// TestIngestRefusedBatchesApplyAtMostOnce: two posts wait behind an
// ingest held in the WAL sink, which then refuses every later append.
// Each posted batch lands at most once: a refused batch is never
// applied a second time on its own.
func TestIngestRefusedBatchesApplyAtMostOnce(t *testing.T) {
	ts, srv, sink := newGatedIngestServer(t, Options{}, errors.New("wal refused"))
	first := postRowAsync(ts.URL, 100)
	<-sink.entered
	later := []<-chan int{postRowAsync(ts.URL, 101), postRowAsync(ts.URL, 102)}
	waitForCond(t, "the later posts to be admitted", func() bool {
		return readStats(t, ts.URL).Ingest.QueueDepth >= 2
	})
	close(sink.release)
	if code := <-first; code != http.StatusAccepted {
		t.Errorf("held post = %d, want 202", code)
	}
	for i, c := range later {
		if code := <-c; code != http.StatusInternalServerError {
			t.Errorf("refused post %d = %d, want 500", i, code)
		}
	}
	for _, v := range []int{100, 101, 102} {
		if n := rowsWithX(t, srv, v); n > 1 {
			t.Errorf("batch x=%d is in the frame %d times, want at most once", v, n)
		}
	}
}

// TestIngestDeadlineLeavesBatchUnapplied: a post waiting behind an
// ingest held in the WAL sink answers 504 by its deadline, and its
// batch never lands, not even once the held ingest is released.
func TestIngestDeadlineLeavesBatchUnapplied(t *testing.T) {
	const timeout = 100 * time.Millisecond
	ts, srv, sink := newGatedIngestServer(t, Options{RequestTimeout: timeout}, nil)
	first := postRowAsync(ts.URL, 100)
	<-sink.entered
	start := time.Now()
	res, body := postIngest(t, ts.URL, "application/json", `{"rows": [{"x": 101, "g": "a"}]}`)
	if res.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("waiting post = %d (%v), want 504", res.StatusCode, body)
	}
	if took, slack := time.Since(start), time.Second; took > timeout+slack {
		t.Errorf("504 after %v, want within %v of the %v deadline", took, slack, timeout)
	}
	close(sink.release)
	<-first
	// Ingests apply in turn, so once a later one is acknowledged the
	// timed-out batch has had every chance to land.
	if res, body := postIngest(t, ts.URL, "application/json", `{"rows": [{"x": 102, "g": "a"}]}`); res.StatusCode != http.StatusAccepted {
		t.Fatalf("post after release = %d (%v), want 202", res.StatusCode, body)
	}
	for v, want := range map[int]int{100: 1, 101: 0, 102: 1} {
		if n := rowsWithX(t, srv, v); n != want {
			t.Errorf("batch x=%d is in the frame %d times, want %d", v, n, want)
		}
	}
}

// TestIngestShedsPastPendingBound: while one ingest is held in the WAL
// sink, the rest of maxPendingIngests wait behind it and the next post
// is shed with 503 + Retry-After. Once released, every admitted batch
// lands exactly once and the shed one not at all.
func TestIngestShedsPastPendingBound(t *testing.T) {
	const x0 = 100 // above the frame's own x values
	ts, srv, sink := newGatedIngestServer(t, Options{}, nil)
	admitted := []<-chan int{postRowAsync(ts.URL, x0)}
	<-sink.entered
	for i := 1; i < maxPendingIngests; i++ {
		admitted = append(admitted, postRowAsync(ts.URL, x0+i))
	}
	waitForCond(t, "every admitted post to wait", func() bool {
		return readStats(t, ts.URL).Ingest.QueueDepth == maxPendingIngests
	})
	res, body := postIngest(t, ts.URL, "application/json",
		fmt.Sprintf(`{"rows": [{"x": %d, "g": "a"}]}`, x0+maxPendingIngests))
	if res.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post past the bound = %d (%v), want 503", res.StatusCode, body)
	}
	if res.Header.Get("Retry-After") == "" {
		t.Error("shed 503 missing Retry-After")
	}
	close(sink.release)
	for i, c := range admitted {
		if code := <-c; code != http.StatusAccepted {
			t.Errorf("admitted post x=%d = %d, want 202", x0+i, code)
		}
	}
	for i := 0; i <= maxPendingIngests; i++ {
		want := 1
		if i == maxPendingIngests {
			want = 0
		}
		if n := rowsWithX(t, srv, x0+i); n != want {
			t.Errorf("batch x=%d is in the frame %d times, want %d", x0+i, n, want)
		}
	}
	if st := readStats(t, ts.URL); st.Ingest.QueueDepth != 0 {
		t.Errorf("queue_depth = %d after every reply, want 0", st.Ingest.QueueDepth)
	}
}

// FuzzIngestBody feeds arbitrary bytes to both ingest-body decoders
// against the test server's column list. Neither may panic; a batch
// they accept has one full-width record per row, and no more rows than
// the body has bytes — every row is spelled out in the body, none is
// allocated from a count it states.
func FuzzIngestBody(f *testing.F) {
	for _, body := range []string{
		// What the tests above post, accepted and rejected.
		`{"columns": ["x", "g"], "rows": [[4.5, "c"], [null, "a"]]}`,
		`{"rows": [{"x": 9}, {"g": "b"}]}`,
		"g,x\nc,7\nb,8\n",
		`{"rows": [`,
		`{"columns": ["nope"], "rows": [["1"]]}`,
		`{"rows": [{"nope": 1}]}`,
		`{"rows": [[1, "a"], {"x": 2}]}`,
		`{"rows": []}`,
		"x,g\n",
		"zzz\n1\n",
		`{"rows": [{"x": 10, "g": "a"}, {"x": 11, "g": "b"}, {"x": 12, "g": "a"}]}`,
		`{"rows": [[true, {"nested": 1}]]}`,
		"x,g\n\"1\n",
	} {
		f.Add([]byte(body))
	}
	names := []string{"x", "g"}
	f.Fuzz(func(t *testing.T, body []byte) {
		for name, parse := range map[string]func(io.Reader, []string) ([][]string, error){
			"csv": parseCSVBatch, "json": parseJSONBatch,
		} {
			rows, err := parse(bytes.NewReader(body), names)
			if err != nil {
				continue
			}
			if len(rows) > len(body) {
				t.Fatalf("%s: %d rows from a %d-byte body", name, len(rows), len(body))
			}
			for i, rec := range rows {
				if len(rec) != len(names) {
					t.Fatalf("%s: row %d has %d cells, want %d", name, i, len(rec), len(names))
				}
			}
		}
	})
}
