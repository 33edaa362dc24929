package query

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"testing"

	"foresight/internal/core"
	"foresight/internal/frame"
	"foresight/internal/sketch"
)

// rowCountClass scores every candidate with the row count of whatever
// dataset it was computed against, making snapshot mixing observable:
// if one response ever combined scores from two frames, its insights
// would disagree with each other.
type rowCountClass struct{}

func (rowCountClass) Name() string        { return "rowcount" }
func (rowCountClass) Description() string { return "test class scoring dataset row count" }
func (rowCountClass) Arity() int          { return 1 }
func (rowCountClass) Metrics() []string   { return []string{"rows"} }
func (rowCountClass) VisKind() core.VisKind {
	return core.VisHistogram
}
func (rowCountClass) Candidates(f *frame.Frame) [][]string {
	var out [][]string
	for _, c := range f.NumericColumns() {
		out = append(out, []string{c.Name()})
	}
	return out
}
func (rowCountClass) Score(f *frame.Frame, attrs []string, metric string) (core.Insight, error) {
	return core.Insight{Class: "rowcount", Metric: "rows", Attrs: attrs,
		Score: float64(f.Rows())}, nil
}
func (rowCountClass) ScoreApprox(p *sketch.DatasetProfile, attrs []string, metric string) (core.Insight, error) {
	return core.Insight{Class: "rowcount", Metric: "rows", Attrs: attrs,
		Score: float64(p.Rows), Approx: true}, nil
}

// ingestRows renders n rows matching testFrame's 9-column schema.
func ingestRows(n, from int) frame.RowBatch {
	records := make([][]string, n)
	for i := range records {
		v := strconv.Itoa(from + i)
		records[i] = []string{v, v, v, v, "1.5", v, v, fmt.Sprintf("g%d", i%3), "z1"}
	}
	return frame.RowBatch{Records: records}
}

// TestIngestSnapshotConsistency hammers queries while ingest batches
// land: every response must be computed against a single consistent
// (frame, profile, generation) snapshot — all insights in one response
// carry the same row count, and that count is a state the engine
// actually passed through. Run with -race.
func TestIngestSnapshotConsistency(t *testing.T) {
	const (
		baseRows  = 400
		batchRows = 25
		batches   = 20
	)
	f := testFrame(baseRows, 9)
	reg := core.NewEmptyRegistry()
	if err := reg.Register(rowCountClass{}); err != nil {
		t.Fatal(err)
	}
	profile := sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 3, K: 32})
	e, err := NewEngine(f, reg, profile)
	if err != nil {
		t.Fatal(err)
	}

	valid := map[float64]bool{}
	for i := 0; i <= batches; i++ {
		valid[float64(baseRows+i*batchRows)] = true
	}

	ctx := context.Background()
	done := make(chan struct{})
	var wg sync.WaitGroup
	errc := make(chan error, 64)
	report := func(format string, args ...any) {
		select {
		case errc <- fmt.Errorf(format, args...):
		default:
		}
	}
	checkResults := func(res []Result, approx bool) {
		for _, r := range res {
			var first float64
			for i, in := range r.Insights {
				if i == 0 {
					first = in.Score
					if !valid[first] {
						report("approx=%v: score %v is not a row count the engine passed through", approx, first)
					}
				} else if in.Score != first {
					report("approx=%v: torn response: scores %v and %v in one result", approx, first, in.Score)
				}
			}
		}
	}

	// Query hammers: exact and approximate, plus the carousel path.
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			approx := g%2 == 0
			for {
				select {
				case <-done:
					return
				default:
				}
				res, err := e.ExecuteContext(ctx, Query{Approx: approx})
				if err != nil {
					report("execute: %v", err)
					return
				}
				checkResults(res, approx)
				cres, err := e.CarouselsContext(ctx, 3, approx)
				if err != nil {
					report("carousels: %v", err)
					return
				}
				checkResults(cres, approx)
			}
		}(g)
	}

	// Ingester: generation must strictly advance, and a query issued
	// right after an ingest must see the new row count on both the
	// exact and the sketch path — a stale memoized score would return
	// the old one.
	prevGen := e.CacheStats().Generation
	for b := 0; b < batches; b++ {
		res, err := e.Ingest(ctx, ingestRows(batchRows, baseRows+b*batchRows), nil)
		if err != nil {
			t.Fatalf("ingest %d: %v", b, err)
		}
		want := baseRows + (b+1)*batchRows
		if res.TotalRows != want {
			t.Fatalf("ingest %d: total %d, want %d", b, res.TotalRows, want)
		}
		if res.RowsAppended != batchRows {
			t.Fatalf("ingest %d: appended %d, want %d", b, res.RowsAppended, batchRows)
		}
		if res.Generation <= prevGen {
			t.Fatalf("ingest %d: generation %d did not advance past %d", b, res.Generation, prevGen)
		}
		prevGen = res.Generation
		for _, approx := range []bool{false, true} {
			qres, err := e.ExecuteContext(ctx, Query{Approx: approx})
			if err != nil {
				t.Fatalf("post-ingest execute: %v", err)
			}
			for _, r := range qres {
				for _, in := range r.Insights {
					if in.Score != float64(want) {
						t.Fatalf("post-ingest approx=%v: score %v, want %d (stale snapshot or memo)",
							approx, in.Score, want)
					}
				}
			}
		}
	}
	close(done)
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}
}

// TestIngestCancelled verifies an already-cancelled context refuses
// the batch without mutating engine state.
func TestIngestCancelled(t *testing.T) {
	e := newTestEngine(t, 100, 7)
	cctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.Ingest(cctx, ingestRows(5, 0), nil); err == nil {
		t.Fatal("cancelled ingest should fail")
	}
	if e.Frame().Rows() != 100 {
		t.Errorf("cancelled ingest mutated the frame: %d rows", e.Frame().Rows())
	}
}

// TestIngestNoProfile covers the exact-only engine: ingest still
// applies and queries see the new rows.
func TestIngestNoProfile(t *testing.T) {
	e := newTestEngine(t, 100, 8)
	res, err := e.Ingest(context.Background(), ingestRows(10, 100), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalRows != 110 || e.Frame().Rows() != 110 {
		t.Errorf("rows = %d / %d, want 110", res.TotalRows, e.Frame().Rows())
	}
	if e.Profile() != nil {
		t.Error("profile should stay nil on an exact-only engine")
	}
}

// countingSink counts the batches the engine asks it to log.
type countingSink struct{ batches int }

func (s *countingSink) AppendBatch(frame.RowBatch, IngestResult) error {
	s.batches++
	return nil
}

// TestIngestEmptyBatch: a batch of no rows changes nothing — the frame,
// the profile (Spearman sketches included, which an extension drops),
// the generation and with it the memo — and is not logged.
func TestIngestEmptyBatch(t *testing.T) {
	f := testFrame(100, 9)
	p := sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 1, K: 32, Spearman: true})
	e, err := NewEngine(f, core.NewRegistry(), p)
	if err != nil {
		t.Fatal(err)
	}
	sink := &countingSink{}
	e.SetDurableSink(sink)
	gen := e.CacheStats().Generation

	res, err := e.Ingest(context.Background(), frame.RowBatch{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowsAppended != 0 || res.TotalRows != 100 || res.Generation != gen {
		t.Errorf("empty ingest reported %+v, want 0 rows appended, 100 total, generation %d", res, gen)
	}
	if e.Frame() != f || e.Profile() != p {
		t.Error("empty ingest published a new frame or profile")
	}
	if got := e.CacheStats().Generation; got != gen {
		t.Errorf("empty ingest moved the generation %d → %d", gen, got)
	}
	if sink.batches != 0 {
		t.Errorf("empty ingest was logged %d times", sink.batches)
	}
}
