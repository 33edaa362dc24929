package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"

	"foresight/internal/obs"
	"foresight/internal/stats"
)

func sampleFor(class string, scores []float64, attrs [][]string) QuerySample {
	return QuerySample{
		Op: "execute", Generation: 1, DurationMS: 1,
		Classes: []ClassSample{{
			Class: class, Scores: scores, Attrs: attrs,
			Candidates: len(scores) + 2, Pruned: 2, Filtered: 1, Emitted: len(scores),
			Margin: math.NaN(),
		}},
	}
}

func TestNilStoreIsSafe(t *testing.T) {
	var ins *Insights
	ins.Record(sampleFor("outlier", []float64{0.5}, nil))
	ins.SetQueryLog(nil, 1)
	snap := ins.Snapshot(7, 5)
	if snap.CurrentGeneration != 7 || len(snap.Classes) != 0 {
		t.Fatalf("nil snapshot = %+v", snap)
	}
}

// TestScoreQuantilesWithinKLLBounds is the acceptance check: the
// quantiles served by Snapshot must match the exact quantiles of the
// recorded scores within the sketch's advertised rank-error bound.
// Deterministic: fixed RNG seed and fixed sketch seeds.
func TestScoreQuantilesWithinKLLBounds(t *testing.T) {
	ins := New(Config{ScoreK: 128, Stripes: 4})
	rng := rand.New(rand.NewSource(42))
	const n = 40000
	exact := make([]float64, 0, n)
	batch := make([]float64, 0, 8)
	for len(exact) < n {
		batch = batch[:0]
		for i := 0; i < 8 && len(exact)+len(batch) < n; i++ {
			v := rng.NormFloat64()*0.15 + 0.5 // scores clustered near 0.5
			batch = append(batch, v)
		}
		exact = append(exact, batch...)
		ins.Record(sampleFor("outlier", append([]float64(nil), batch...), nil))
	}
	sort.Float64s(exact)

	snap := ins.Snapshot(1, 5)
	if len(snap.Classes) != 1 || snap.Classes[0].Class != "outlier" {
		t.Fatalf("classes = %+v", snap.Classes)
	}
	cs := snap.Classes[0]
	if cs.ScoreCount != n {
		t.Fatalf("ScoreCount = %d, want %d", cs.ScoreCount, n)
	}
	eps := snap.ScoreRankError
	if eps <= 0 || eps > 0.1 {
		t.Fatalf("ScoreRankError = %v", eps)
	}
	for _, tc := range []struct {
		key string
		q   float64
	}{{"p50", 0.5}, {"p90", 0.9}, {"p99", 0.99}} {
		got, ok := cs.Quantiles[tc.key]
		if !ok {
			t.Fatalf("missing quantile %s", tc.key)
		}
		// Convert the rank bound to a value tolerance via the exact
		// order statistics at q±ε.
		loQ, hiQ := tc.q-eps, tc.q+eps
		if loQ < 0 {
			loQ = 0
		}
		if hiQ > 1 {
			hiQ = 1
		}
		lo := stats.QuantileSorted(exact, loQ)
		hi := stats.QuantileSorted(exact, hiQ)
		if got < lo || got > hi {
			t.Errorf("%s = %v outside exact rank band [%v, %v] (ε=%v)", tc.key, got, lo, hi, eps)
		}
	}
}

func TestCountersHotColumnsAndMargins(t *testing.T) {
	ins := New(Config{Stripes: 2, MarginWindow: 4})
	for i := 0; i < 10; i++ {
		s := sampleFor("correlation", []float64{0.9, 0.8},
			[][]string{{"price", "tax"}, {"price", "tip"}})
		s.Classes[0].Margin = float64(i) / 100
		ins.Record(s)
	}
	snap := ins.Snapshot(1, 3)
	if len(snap.Classes) != 1 {
		t.Fatalf("classes = %d", len(snap.Classes))
	}
	cs := snap.Classes[0]
	if cs.Queries != 10 || cs.Emitted != 20 || cs.Pruned != 20 || cs.Filtered != 10 || cs.Candidates != 40 {
		t.Fatalf("counters = %+v", cs)
	}
	if len(cs.HotColumns) == 0 || cs.HotColumns[0].Item != "price" {
		t.Fatalf("hot columns = %+v", cs.HotColumns)
	}
	if cs.HotColumns[0].Count != 20 {
		t.Fatalf("price count = %d, want 20", cs.HotColumns[0].Count)
	}
	wantTuples := map[string]bool{"price,tax": true, "price,tip": true}
	for _, h := range cs.HotTuples {
		if !wantTuples[h.Item] {
			t.Fatalf("unexpected tuple %q", h.Item)
		}
	}
	// Margin window bounded at 4, keeping the most recent values.
	if len(cs.Margins) != 4 {
		t.Fatalf("margins = %+v", cs.Margins)
	}
	if cs.Margins[3].Margin != 0.09 {
		t.Fatalf("latest margin = %v", cs.Margins[3].Margin)
	}
	if snap.TotalQueries != 10 {
		t.Fatalf("TotalQueries = %d", snap.TotalQueries)
	}
	// Ring is most recent first.
	if len(snap.RecentQueries) != 10 || snap.RecentQueries[0].MinMargin != 0.09 {
		t.Fatalf("recent = %+v", snap.RecentQueries)
	}
}

func TestGenerationBumpResetsSketches(t *testing.T) {
	ins := New(Config{Stripes: 2})
	for i := 0; i < 4; i++ {
		s := sampleFor("dip", []float64{0.3}, [][]string{{"old_col"}})
		ins.Record(s)
	}
	snap := ins.Snapshot(1, 5)
	if snap.Generation != 1 || snap.Classes[0].ScoreCount != 4 {
		t.Fatalf("pre-bump snapshot = %+v", snap)
	}

	// Generation bumps: new-gen samples must reset the sketches.
	s := sampleFor("dip", []float64{0.7}, [][]string{{"new_col"}})
	s.Generation = 2
	ins.Record(s)
	snap = ins.Snapshot(2, 5)
	if snap.Generation != 2 || snap.Stale {
		t.Fatalf("post-bump snapshot = %+v", snap)
	}
	if snap.Resets != 1 {
		t.Fatalf("Resets = %d, want 1", snap.Resets)
	}
	cs := snap.Classes[0]
	if cs.ScoreCount != 1 || cs.Queries != 1 {
		t.Fatalf("post-reset class = %+v", cs)
	}
	for _, h := range cs.HotColumns {
		if h.Item == "old_col" {
			t.Fatal("old-generation column survived the reset")
		}
	}
	// Lifetime counters survive.
	if snap.TotalQueries != 5 {
		t.Fatalf("TotalQueries = %d, want 5", snap.TotalQueries)
	}

	// A straggler sample from the old generation is dropped, not folded.
	old := sampleFor("dip", []float64{0.1}, nil)
	old.Generation = 1
	ins.Record(old)
	snap = ins.Snapshot(2, 5)
	if snap.Classes[0].ScoreCount != 1 {
		t.Fatalf("stale sample polluted sketches: %+v", snap.Classes[0])
	}
	if snap.StaleSamples != 1 {
		t.Fatalf("StaleSamples = %d, want 1", snap.StaleSamples)
	}
}

func TestStalenessReported(t *testing.T) {
	ins := New(Config{})
	ins.Record(sampleFor("outlier", []float64{0.5}, nil))
	snap := ins.Snapshot(3, 5) // engine is already at gen 3
	if !snap.Stale || snap.Generation != 1 || snap.CurrentGeneration != 3 {
		t.Fatalf("staleness not reported: %+v", snap)
	}
}

func TestInstrumentExportsFamilies(t *testing.T) {
	ins := New(Config{})
	reg := obs.NewRegistry()
	ins.Instrument(reg)
	s := sampleFor("outlier", []float64{0.5, 0.95}, nil)
	s.Classes[0].Margin = 0.02
	ins.Record(s)
	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		`foresight_insight_class_queries_total{class="outlier"} 1`,
		`foresight_insight_emitted_total{class="outlier"} 2`,
		`foresight_insight_pruned_total{class="outlier"} 2`,
		`foresight_insight_filtered_total{class="outlier"} 1`,
		`foresight_insight_candidates_total{class="outlier"} 4`,
		`foresight_insight_score_count{class="outlier"} 2`,
		`foresight_insight_topk_margin_count{class="outlier"} 1`,
		"foresight_insight_queries_total 1",
		"foresight_insight_resets_total 0",
		"# TYPE foresight_insight_score histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
}

func TestSampledQueryLog(t *testing.T) {
	ins := New(Config{})
	var buf bytes.Buffer
	ins.SetQueryLog(obs.NewLogger(&buf), 0.25) // every 4th
	for i := 0; i < 12; i++ {
		ins.Record(sampleFor("outlier", []float64{0.5}, nil))
	}
	var lines int
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		lines++
		var rec map[string]interface{}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad log line: %v", err)
		}
		for _, k := range []string{"op", "generation", "duration_ms", "emitted", "sampled_1_in", "msg", "ts"} {
			if _, ok := rec[k]; !ok {
				t.Errorf("log line missing %q: %v", k, rec)
			}
		}
	}
	if lines != 3 {
		t.Fatalf("sampled %d lines from 12 queries at 0.25, want 3", lines)
	}

	// Rate 1 logs everything; rate 0 logs nothing.
	buf.Reset()
	ins.SetQueryLog(obs.NewLogger(&buf), 1)
	ins.Record(sampleFor("outlier", nil, nil))
	if !strings.Contains(buf.String(), `"op":"execute"`) {
		t.Error("rate-1 log missing the query")
	}
	buf.Reset()
	ins.SetQueryLog(obs.NewLogger(&buf), 0)
	ins.Record(sampleFor("outlier", nil, nil))
	if buf.Len() != 0 {
		t.Error("rate-0 log should be silent")
	}
}

func TestQueryRingBounded(t *testing.T) {
	ins := New(Config{QueryLog: 8})
	for i := 0; i < 50; i++ {
		s := sampleFor("outlier", nil, nil)
		s.DurationMS = float64(i)
		ins.Record(s)
	}
	snap := ins.Snapshot(1, 5)
	if len(snap.RecentQueries) != 8 {
		t.Fatalf("ring size = %d, want 8", len(snap.RecentQueries))
	}
	for i, r := range snap.RecentQueries {
		if want := float64(49 - i); r.DurationMS != want {
			t.Fatalf("ring[%d].DurationMS = %v, want %v", i, r.DurationMS, want)
		}
	}
}

func TestSnapshotJSONRoundTrips(t *testing.T) {
	// Margins use a -1 sentinel instead of NaN so snapshots always
	// marshal (encoding/json rejects NaN).
	ins := New(Config{})
	ins.Record(sampleFor("outlier", []float64{0.5}, [][]string{{"a", "b"}}))
	b, err := json.Marshal(ins.Snapshot(1, 5))
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	if !strings.Contains(string(b), `"min_margin":-1`) {
		t.Errorf("no-truncation margin sentinel missing: %s", b)
	}
}

func TestConcurrentRecordSnapshotMerge(t *testing.T) {
	ins := New(Config{Stripes: 4, QueryLog: 64})
	reg := obs.NewRegistry()
	ins.Instrument(reg)
	var wg sync.WaitGroup
	const writers = 8
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s := sampleFor(fmt.Sprintf("class%d", w%3), []float64{float64(i) / 500}, [][]string{{"c"}})
				s.Generation = uint64(1 + i/200) // generations advance mid-stream
				ins.Record(s)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			_ = ins.Snapshot(uint64(1+i/20), 5)
			var buf bytes.Buffer
			reg.WritePrometheus(&buf)
		}
	}()
	wg.Wait()
	<-done
	snap := ins.Snapshot(3, 5)
	if snap.TotalQueries != writers*500 {
		t.Fatalf("TotalQueries = %d, want %d", snap.TotalQueries, writers*500)
	}
}
