package query

import (
	"context"
	"fmt"
	"math"
	"testing"

	"foresight/internal/core"
	"foresight/internal/datagen"
	"foresight/internal/obs/telemetry"
	"foresight/internal/sketch"
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

// TestTelemetryRecordsWhatIsReturned runs every recorded operation
// twice on one engine — an execute with K = 2, CarouselsContext, the
// session's carousels unfocused and focused, exact and from the
// sketches, a neighborhood of k = 3 and an overview — and checks after
// each request that every class's emitted count and score count grew
// by what the request returned for that class: nothing for the
// overview, which returns no insights. A request served from a class
// view records the view's insights only as far as it returns them.
func TestTelemetryRecordsWhatIsReturned(t *testing.T) {
	f := datagen.OECD(0, 42)
	e, err := NewEngine(f, core.NewRegistry(), sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 42, Spearman: true}))
	if err != nil {
		t.Fatal(err)
	}
	ins := telemetry.New()
	e.SetInsightTelemetry(ins)
	ctx := context.Background()
	top, err := e.ExecuteContext(ctx, Query{Classes: []string{"linear"}, K: 1})
	if err != nil || len(top) == 0 {
		t.Fatalf("linear top 1: %v", err)
	}
	focus := top[0].Insights[0]

	perClass := func(rs []Result) map[string]int {
		out := map[string]int{}
		for _, r := range rs {
			out[r.Class] += len(r.Insights)
		}
		return out
	}
	carousels := func(approx, focused bool) func() (map[string]int, error) {
		return func() (map[string]int, error) {
			s := NewSession(e, 5, approx)
			if focused {
				s.FocusOn(focus)
			}
			rs, err := s.RecommendationsKContext(ctx, 2)
			return perClass(rs), err
		}
	}
	requests := []struct {
		name string
		run  func() (map[string]int, error)
	}{
		{"execute", func() (map[string]int, error) {
			rs, err := e.ExecuteContext(ctx, Query{K: 2})
			return perClass(rs), err
		}},
		{"carousels", func() (map[string]int, error) {
			rs, err := e.CarouselsContext(ctx, 2, false)
			return perClass(rs), err
		}},
		{"session exact", carousels(false, false)},
		{"session approx", carousels(true, false)},
		{"session exact focused", carousels(false, true)},
		{"session approx focused", carousels(true, true)},
		{"neighborhood", func() (map[string]int, error) {
			nbrs, err := e.NeighborhoodContext(ctx, focus, nil, 3, false)
			out := map[string]int{}
			for _, in := range nbrs {
				out[in.Class]++
			}
			return out, err
		}},
		{"overview", func() (map[string]int, error) {
			_, err := e.OverviewContext(ctx, "linear", "", false)
			return nil, err
		}},
	}
	counts := func() map[string][2]uint64 {
		out := map[string][2]uint64{}
		for _, c := range ins.Snapshot(e.CacheStats().Generation, 5).Classes {
			out[c.Class] = [2]uint64{c.Emitted, c.ScoreCount}
		}
		return out
	}
	for _, rq := range requests {
		for round := 0; round < 2; round++ {
			before := counts()
			returned, err := rq.run()
			if err != nil {
				t.Fatalf("%s: %v", rq.name, err)
			}
			total := 0
			for _, n := range returned {
				total += n
			}
			if total == 0 && rq.name != "overview" {
				t.Fatalf("%s returned nothing", rq.name)
			}
			for class, after := range counts() {
				want := uint64(returned[class])
				if d := [2]uint64{after[0] - before[class][0], after[1] - before[class][1]}; d != [2]uint64{want, want} {
					t.Errorf("%s, round %d: %s recorded %d emitted and %d scores, returned %d", rq.name, round, class, d[0], d[1], want)
				}
			}
		}
	}
}
