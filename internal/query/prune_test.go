package query

import (
	"context"
	"reflect"
	"slices"
	"sync"
	"testing"

	"foresight/internal/core"
	"foresight/internal/datagen"
	"foresight/internal/frame"
	"foresight/internal/obs/telemetry"
	"foresight/internal/sketch"
)

// pruneMatrix is the query shapes the equivalence suite replays:
// top-k, strength filters, both scoring paths, fixed attributes,
// metric overrides, and a semantic restriction.
func pruneMatrix() []Query {
	return []Query{
		{K: 3},
		{K: 1},
		{K: 3, Approx: true},
		{K: 4, MinScore: 0.3},
		{MinScore: 0.5},
		{K: 2, Classes: []string{"linear"}, Metric: "r2"},
		{K: 3, Fixed: []string{"a"}, MinScore: 0.1},
		{K: 2, Semantic: frame.SemanticCurrency},
	}
}

// TestPruningEquivalence is the contract test of bound pruning: with
// sound bounds, pruning must be invisible in results. Every query
// shape is run twice (the second pass exercises the memo-seeded
// threshold) and compared deeply — scores, attrs, ordering, details —
// against the brute-force oracle; Overview and Neighborhood are
// compared too.
func TestPruningEquivalence(t *testing.T) {
	f := testFrame(800, 3)
	p := sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 3, Spearman: true})
	e, err := NewEngine(f, core.NewRegistry(), p)
	if err != nil {
		t.Fatal(err)
	}
	// Without a profile there are no bounds: same answers, every
	// candidate scored.
	bare, err := NewEngine(f, core.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}

	for pass := 0; pass < 2; pass++ {
		for _, q := range pruneMatrix() {
			got, err := e.ExecuteContext(context.Background(), q)
			if err != nil {
				t.Fatalf("pass %d %+v: %v", pass, q, err)
			}
			want := oracleExecute(t, e, q)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("pass %d %+v: pruned results differ from the oracle:\n got: %+v\nwant: %+v", pass, q, got, want)
			}
			if q.Approx {
				continue
			}
			if got, err := bare.ExecuteContext(context.Background(), q); err != nil || !reflect.DeepEqual(got, want) {
				t.Errorf("pass %d %+v: profile-less results differ from the oracle (err %v)", pass, q, err)
			}
		}
	}

	// Considered counts every candidate of a bounded pass, whether the
	// memo answered it or not. Linear has no view yet, so a fixed-
	// attribute query takes the pass.
	lin, _ := e.registry.Lookup("linear")
	want := uint64(0)
	for _, attrs := range lin.Candidates(f) {
		if slices.Contains(attrs, "a") {
			want++
		}
	}
	fixA := Query{Classes: []string{"linear"}, Fixed: []string{"a"}, K: 1}
	before := e.PruneStats().Considered
	if _, err := e.ExecuteContext(context.Background(), fixA); err != nil {
		t.Fatal(err)
	}
	if got := e.PruneStats().Considered - before; got != want || want == 0 {
		t.Errorf("a bounded pass considered %d candidates, want %d", got, want)
	}

	ov, err := e.OverviewContext(context.Background(), "linear", "", false)
	if err != nil {
		t.Fatalf("overview: %v", err)
	}
	oracleOverview(t, "overview", e, ov, false)

	res, err := e.ExecuteContext(context.Background(), Query{Classes: []string{"linear"}, K: 1})
	if err != nil || len(res) == 0 || len(res[0].Insights) == 0 {
		t.Fatalf("focus query: %v", err)
	}
	focus := res[0].Insights[0]
	nbrs, err := e.NeighborhoodContext(context.Background(), focus, nil, 3, false)
	if err != nil {
		t.Fatalf("neighborhood: %v", err)
	}
	if !reflect.DeepEqual(nbrs, oracleNeighborhood(t, e, focus, nil, 3, false)) {
		t.Error("neighborhood differs from the oracle")
	}

	// The run must have actually pruned (the dip bound alone
	// guarantees it under MinScore 0.5) and seeded from the memo on
	// the repeat pass; the profile-less engine must never have.
	st := e.PruneStats()
	if st.Considered == 0 || st.Pruned == 0 || st.Seeded == 0 {
		t.Errorf("engine never pruned/seeded: %+v", st)
	}
	if st.Pruned > st.Considered {
		t.Errorf("pruned %d > considered %d", st.Pruned, st.Considered)
	}
	if st := bare.PruneStats(); st != (PruneStats{}) {
		t.Errorf("profile-less engine recorded pruning work: %+v", st)
	}
	// A top-k query that finds the class's view (the overview built
	// it) reads the view: no pass runs, so nothing is considered.
	if _, err := e.ExecuteContext(context.Background(), Query{Classes: []string{"linear"}, K: 1}); err != nil {
		t.Fatal(err)
	}
	if got := e.PruneStats().Considered - st.Considered; got != 0 {
		t.Errorf("a view-served query considered %d candidates, want 0", got)
	}
	// So does a fixed-attribute query: it reads the view's index.
	if _, err := e.ExecuteContext(context.Background(), fixA); err != nil {
		t.Fatal(err)
	}
	if got := e.PruneStats().Considered - st.Considered; got != 0 {
		t.Errorf("a view-served fix= query considered %d candidates, want 0", got)
	}
}

// TestPruningEquivalenceUnderIngest hammers a pruning engine with
// queries while ingest batches land (run with -race), then checks the
// settled state still answers identically to the oracle over the same
// extended frame and profile.
func TestPruningEquivalenceUnderIngest(t *testing.T) {
	f := testFrame(800, 7)
	p := sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 7, Spearman: true})
	e, err := NewEngine(f, core.NewRegistry(), p)
	if err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for b := 0; b < 4; b++ {
			if _, err := e.Ingest(context.Background(), ingestRows(40, b*40), nil); err != nil {
				t.Errorf("ingest batch %d: %v", b, err)
			}
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			qs := pruneMatrix()
			for j := 0; j < 3; j++ {
				if _, err := e.ExecuteContext(context.Background(), qs[(g+j)%len(qs)]); err != nil {
					t.Errorf("concurrent execute: %v", err)
				}
			}
		}(g)
	}
	wg.Wait()

	for pass := 0; pass < 2; pass++ {
		for _, q := range pruneMatrix() {
			got, err := e.ExecuteContext(context.Background(), q)
			if err != nil {
				t.Fatalf("%+v: %v", q, err)
			}
			if !reflect.DeepEqual(got, oracleExecute(t, e, q)) {
				t.Errorf("pass %d %+v: post-ingest pruned results differ from the oracle", pass, q)
			}
		}
	}
}

// TestPruningOnDemoDatasets replays the query matrix on the three demo
// datasets (OECD, Parkinson, IMDB; the correctness half of the retired
// E16 experiment): zero differing insights against the oracle, and
// the bounds must actually skip work on at least one of them.
// Segmentation's bound is the constant 1, so every pass of the matrix
// scores all of its triples, twice (the oracle's turn included): on
// OECD (none) and IMDB that is affordable, on Parkinson's 4 730 triples
// of 667 points it is two minutes under -race, so there the class sits
// out (TestPruningEquivalence covers it).
func TestPruningOnDemoDatasets(t *testing.T) {
	withoutSegmentation := core.NewEmptyRegistry()
	for _, c := range core.BuiltinClasses() {
		if c.Name() != "segmentation" {
			if err := withoutSegmentation.Register(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	var pruned uint64
	for _, f := range []*frame.Frame{
		datagen.OECD(0, 42), datagen.Parkinson(0, 42), datagen.IMDB(0, 42),
	} {
		reg := core.NewRegistry()
		if f.Name() == "parkinson" {
			reg = withoutSegmentation
		}
		p := sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 42, Spearman: true})
		e, err := NewEngine(f, reg, p)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ {
			for _, q := range pruneMatrix() {
				q.Fixed, q.Semantic = nil, frame.SemanticNone // testFrame's names
				got, err := e.ExecuteContext(context.Background(), q)
				if err != nil {
					t.Fatalf("%s %+v: %v", f.Name(), q, err)
				}
				want := oracleExecute(t, e, q)
				if len(got) != len(want) {
					t.Fatalf("%s pass %d %+v: %d classes, oracle has %d", f.Name(), pass, q, len(got), len(want))
				}
				for i := range got {
					if got[i].Class != want[i].Class || got[i].Metric != want[i].Metric ||
						!insightsEqual(got[i].Insights, want[i].Insights) {
						t.Errorf("%s pass %d %+v: %s differs from the oracle", f.Name(), pass, q, got[i].Class)
					}
				}
			}
		}
		st := e.PruneStats()
		t.Logf("%s: considered %d, pruned %d, seeded %d", f.Name(), st.Considered, st.Pruned, st.Seeded)
		pruned += st.Pruned
	}
	if pruned == 0 {
		t.Error("no candidate was pruned on any demo dataset")
	}
}

// TestMaxScoreValidation pins the MaxScore contract: 0 means
// unbounded (a plain Query{} must not filter everything out), and a
// negative value is a loud error instead of an empty result.
func TestMaxScoreValidation(t *testing.T) {
	e := newTestEngine(t, 300, 9)
	if _, err := e.ExecuteContext(context.Background(), Query{MaxScore: -0.1}); err == nil {
		t.Error("negative MaxScore accepted")
	}
	res, err := e.ExecuteContext(context.Background(), Query{Classes: []string{"linear"}, K: 2, MaxScore: 0})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0].Insights) == 0 {
		t.Errorf("MaxScore=0 should be unbounded, got %+v", res)
	}
}

// TestPrunedFilteredTelemetrySplit pins the counter semantics the
// issue title complains about: Pruned counts candidates never scored,
// Filtered counts candidates scored and then dropped by a filter —
// and neither leaks into the other.
func TestPrunedFilteredTelemetrySplit(t *testing.T) {
	f := testFrame(600, 5)
	p := sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 5, Spearman: true})
	e, err := NewEngine(f, core.NewRegistry(), p)
	if err != nil {
		t.Fatal(err)
	}
	ins := telemetry.New(telemetry.Config{})
	e.SetInsightTelemetry(ins)

	// Every dip bound is ~0.25, strictly below MinScore 0.5: the whole
	// class is pruned without scoring a single candidate.
	if _, err := e.ExecuteContext(context.Background(), Query{Classes: []string{"multimodality"}, MinScore: 0.5}); err != nil {
		t.Fatal(err)
	}
	// The linear bound (~1) clears MinScore 0.999, so every pair is
	// scored — and then dropped by the filter: pure Filtered traffic.
	if _, err := e.ExecuteContext(context.Background(), Query{Classes: []string{"linear"}, MinScore: 0.999}); err != nil {
		t.Fatal(err)
	}

	snap := ins.Snapshot(e.CacheStats().Generation, 5)
	byClass := map[string]telemetry.ClassSnapshot{}
	for _, c := range snap.Classes {
		byClass[c.Class] = c
	}
	mm, ok := byClass["multimodality"]
	if !ok {
		t.Fatalf("no multimodality sample: %+v", snap.Classes)
	}
	if mm.Pruned == 0 || mm.Filtered != 0 || mm.ScoreCount != 0 || mm.Emitted != 0 {
		t.Errorf("pruned class should be all-Pruned, nothing scored: %+v", mm)
	}
	lin, ok := byClass["linear"]
	if !ok {
		t.Fatalf("no linear sample: %+v", snap.Classes)
	}
	if lin.Filtered == 0 || lin.Pruned != 0 || lin.Candidates != lin.Filtered {
		t.Errorf("filtered class should be all-Filtered, fully scored: %+v", lin)
	}
}
