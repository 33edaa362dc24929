package query

import (
	"context"
	"strings"
	"sync"
	"testing"

	"foresight/internal/core"
	"foresight/internal/datagen"
	"foresight/internal/frame"
	"foresight/internal/obs"
)

func TestEngineInstrument(t *testing.T) {
	f := datagen.OECD(0, 42)
	e, err := NewEngine(f, core.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	e.Instrument(reg)

	if _, err := e.ExecuteContext(context.Background(), Query{Classes: []string{"linear"}, K: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.OverviewContext(context.Background(), "linear", "", false); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	reg.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		`foresight_engine_ops_total{op="execute"} 1`,
		`foresight_engine_ops_total{op="overview"} 1`,
		"foresight_cache_hits_total",
		"foresight_cache_misses_total",
		"foresight_cache_waits_total",
		"foresight_cache_entries",
		"foresight_engine_workers 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// The cache metrics are a view over CacheStats — the same numbers.
	cs := e.CacheStats()
	if cs.Misses == 0 {
		t.Fatal("expected cache misses after a cold query")
	}
	var cb strings.Builder
	reg.WritePrometheus(&cb)
	if !strings.Contains(cb.String(), "foresight_cache_misses_total "+uitoa(cs.Misses)) {
		t.Errorf("registry misses diverge from CacheStats %d:\n%s", cs.Misses, cb.String())
	}
	// Latency histogram observed at least one sample per op.
	if !strings.Contains(out, `foresight_engine_op_seconds_count{op="execute"} 1`) {
		t.Errorf("execute latency not observed:\n%s", out)
	}
}

func uitoa(v uint64) string {
	if v == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for v > 0 {
		i--
		b[i] = byte('0' + v%10)
		v /= 10
	}
	return string(b[i:])
}

func TestExecuteContextTraceSpans(t *testing.T) {
	f := datagen.OECD(0, 42)
	e, err := NewEngine(f, core.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTrace("/api/query", "rid")
	ctx := obs.WithTrace(context.Background(), tr)
	if _, err := e.ExecuteContext(ctx, Query{Classes: []string{"linear"}, K: 3}); err != nil {
		t.Fatal(err)
	}
	spans := tr.Finish().Spans
	got := map[string]bool{}
	for _, s := range spans {
		got[s.Name] = true
	}
	for _, want := range []string{"parse", "enumerate:linear", "score:linear", "rank:linear"} {
		if !got[want] {
			t.Errorf("missing span %q in %v", want, spans)
		}
	}
}

// TestCacheWaitsCounted drives a thundering herd and checks that the
// singleflight-wait counter moves (run under -race for the usual
// concurrency coverage).
func TestCacheWaitsCounted(t *testing.T) {
	f := datagen.Scalable(datagen.ScalableConfig{Rows: 2000, NumericCols: 12, Seed: 7})
	e, err := NewEngine(f, core.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	e.SetWorkers(4)
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = e.CarouselsContext(context.Background(), 5, false)
		}()
	}
	wg.Wait()
	cs := e.CacheStats()
	if cs.Waits == 0 {
		t.Skip("herd did not overlap on this run (timing-dependent); counters still consistent")
	}
	if cs.Waits > cs.Misses {
		t.Errorf("waits %d exceed misses %d", cs.Waits, cs.Misses)
	}
}

// TestInstrumentedResultsIdentical asserts instrumentation changes no
// answers: same query, instrumented vs not, bit-identical insights.
func TestInstrumentedResultsIdentical(t *testing.T) {
	f := datagen.OECD(0, 42)
	plain, _ := NewEngine(f, core.NewRegistry(), nil)
	inst, _ := NewEngine(f, core.NewRegistry(), nil)
	inst.Instrument(obs.NewRegistry())
	tr := obs.NewTrace("x", "y")
	ctx := obs.WithTrace(context.Background(), tr)

	a, err := plain.ExecuteContext(context.Background(), Query{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	b, err := inst.ExecuteContext(ctx, Query{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("result count %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Class != b[i].Class || len(a[i].Insights) != len(b[i].Insights) {
			t.Fatalf("result %d shape differs", i)
		}
		for j := range a[i].Insights {
			x, y := a[i].Insights[j], b[i].Insights[j]
			if x.Key() != y.Key() || x.Score != y.Score {
				t.Errorf("insight %d/%d differs: %v vs %v", i, j, x, y)
			}
		}
	}
}

// TestCarriedBoundsMetric: the carousel behind an ingest bounds
// segmentation's triples by the certificates the one before it left,
// and /metrics exports the count beside the pruning counters.
func TestCarriedBoundsMetric(t *testing.T) {
	e, _, g := linkedEngines(t, 700, 8, 5)
	reg := obs.NewRegistry()
	e.Instrument(reg)
	s := NewSession(e, 5, false)
	if _, err := s.RecommendationsKContext(context.Background(), s.K); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Ingest(context.Background(), frame.RowBatch{Records: g.rows(10)}, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RecommendationsKContext(context.Background(), s.K); err != nil {
		t.Fatal(err)
	}
	st := e.PruneStats()
	if st.Carried == 0 || st.Pruned == 0 {
		t.Fatalf("the carousel behind an ingest carried %d bounds and pruned %d", st.Carried, st.Pruned)
	}
	var b strings.Builder
	reg.WritePrometheus(&b)
	if want := "foresight_engine_carried_bounds_total " + uitoa(st.Carried); !strings.Contains(b.String(), want) {
		t.Errorf("missing %q in:\n%s", want, b.String())
	}
}
