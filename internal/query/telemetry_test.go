package query

import (
	"context"
	"fmt"
	"math"
	"testing"

	"foresight/internal/core"
	"foresight/internal/datagen"
	"foresight/internal/obs/telemetry"
)

// TestEngineTelemetryWiring drives every labeled engine operation and
// checks the telemetry store saw correctly-labeled, populated samples.
func TestEngineTelemetryWiring(t *testing.T) {
	f := datagen.OECD(0, 42)
	e, err := NewEngine(f, core.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ins := telemetry.New()
	e.SetInsightTelemetry(ins)

	res, err := e.ExecuteContext(context.Background(), Query{Classes: []string{"linear"}, K: 2})
	if err != nil || len(res) == 0 {
		t.Fatalf("execute: %v (%d results)", err, len(res))
	}
	if _, err := e.CarouselsContext(context.Background(), 2, false); err != nil {
		t.Fatal(err)
	}
	if _, err := e.OverviewContext(context.Background(), "linear", "", false); err != nil {
		t.Fatal(err)
	}
	if _, err := e.NeighborhoodContext(context.Background(), res[0].Insights[0], nil, 3, false); err != nil {
		t.Fatal(err)
	}

	snap := ins.Snapshot(e.CacheStats().Generation, 5)
	ops := map[string]int{}
	for _, r := range snap.RecentQueries {
		ops[r.Op]++
	}
	for _, op := range []string{"execute", "carousels", "overview", "neighborhood"} {
		if ops[op] != 1 {
			t.Errorf("op %q recorded %d times, want 1 (ops=%v)", op, ops[op], ops)
		}
	}
	if snap.Stale {
		t.Errorf("telemetry stale against live generation: %+v", snap)
	}
	var linear *telemetry.ClassSnapshot
	for i := range snap.Classes {
		if snap.Classes[i].Class == "linear" {
			linear = &snap.Classes[i]
		}
	}
	if linear == nil {
		t.Fatalf("no linear class in snapshot: %+v", snap.Classes)
	}
	if linear.Emitted == 0 || linear.Candidates == 0 || linear.ScoreCount == 0 {
		t.Errorf("linear sample empty: %+v", linear)
	}
	if _, ok := linear.Quantiles["p50"]; !ok {
		t.Errorf("no p50 for linear: %+v", linear.Quantiles)
	}
	if len(linear.HotColumns) == 0 {
		t.Errorf("no hot columns for linear")
	}
}

// TestEngineTelemetryGenerationFollowsIngest checks that telemetry
// samples carry the cache generation and the store resets when ingest
// bumps it.
func TestEngineTelemetryGenerationFollowsIngest(t *testing.T) {
	f := datagen.OECD(0, 42)
	e, err := NewEngine(f, core.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ins := telemetry.New()
	e.SetInsightTelemetry(ins)
	if _, err := e.CarouselsContext(context.Background(), 2, false); err != nil {
		t.Fatal(err)
	}
	gen0 := e.CacheStats().Generation
	if got := ins.Snapshot(gen0, 5).Generation; got != gen0 {
		t.Fatalf("telemetry generation = %d, engine = %d", got, gen0)
	}

	// A restore starts a new generation (as an ingest does); post-bump
	// queries must carry the new generation and reset the sketches.
	if err := e.RestoreSnapshot(e.Frame(), nil); err != nil {
		t.Fatal(err)
	}
	gen1 := e.CacheStats().Generation
	if gen1 == gen0 {
		t.Fatal("invalidation did not bump the generation")
	}
	if _, err := e.CarouselsContext(context.Background(), 2, false); err != nil {
		t.Fatal(err)
	}
	snap := ins.Snapshot(gen1, 5)
	if snap.Generation != gen1 || snap.Stale {
		t.Fatalf("post-ingest snapshot = gen %d stale=%v, want gen %d", snap.Generation, snap.Stale, gen1)
	}
	if snap.Resets == 0 {
		t.Error("generation bump did not reset the telemetry sketches")
	}
}

// TestTopKMargin pins the margin edge cases, driving the selection
// through core.TopKExcluded exactly as scoreClass does.
func TestTopKMargin(t *testing.T) {
	mk := func(scores ...float64) []core.Insight {
		out := make([]core.Insight, len(scores))
		for i, s := range scores {
			// Distinct keys so ranking ties break deterministically.
			out[i] = core.Insight{Score: s, Attrs: []string{fmt.Sprintf("c%d", i)}}
		}
		return out
	}
	margin := func(scores []core.Insight, k int) float64 {
		top, bestExcluded := core.TopKExcluded(scores, k)
		return topKMargin(top, bestExcluded)
	}
	if m := margin(mk(0.9, 0.7, 0.5), 2); math.Abs(m-0.2) > 1e-12 {
		t.Errorf("margin = %v, want 0.2", m)
	}
	// No truncation → NaN.
	if m := margin(mk(0.9, 0.7, 0.5), 3); !math.IsNaN(m) {
		t.Errorf("untruncated margin = %v, want NaN", m)
	}
	if m := margin(nil, 2); !math.IsNaN(m) {
		t.Errorf("empty margin = %v, want NaN", m)
	}
	// Ties straddling the cut → 0.
	if m := margin(mk(0.9, 0.7, 0.7, 0.5), 2); m != 0 {
		t.Errorf("tied margin = %v, want 0", m)
	}
	// Tie fully retained → margin to the next score below.
	if m := margin(mk(0.9, 0.7, 0.7, 0.5), 3); math.Abs(m-0.2) > 1e-12 {
		t.Errorf("retained-tie margin = %v, want 0.2", m)
	}
}
