package query

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"foresight/internal/core"
	"foresight/internal/datagen"
	"foresight/internal/obs/telemetry"
	"foresight/internal/sketch"
)

// viewQueries is the query matrix of the pruning suite plus what a
// view has to slice: strength ranges on both sides, alone and under a
// top-k cut, on both backends.
func viewQueries(n int) []Query {
	qs := pruneMatrix()
	for _, k := range []int{0, 1, 5, n} {
		qs = append(qs,
			Query{K: k},
			Query{K: k, Approx: true},
			Query{K: k, MinScore: 0.2, MaxScore: 0.8},
			Query{K: k, MaxScore: 0.5},
			Query{K: k, MinScore: 0.9, MaxScore: 0.1},
			Query{K: k, Classes: []string{"linear", "skew"}, Metric: "", MinScore: 0.05, Approx: true},
		)
	}
	return qs
}

// checkAgainstOracle replays every whole-class read surface and the
// query matrix against the brute-force oracle. It runs everything
// twice: the first round builds the generation's views where none
// exist, the second reads them.
func checkAgainstOracle(t *testing.T, label string, e *Engine) {
	t.Helper()
	all := oracleExecute(t, e, Query{})
	n := 0
	for _, r := range all {
		n = max(n, len(r.Insights))
	}
	first, last := all[0].Insights, all[len(all)-1].Insights
	focusSets := [][]core.Insight{nil, {first[0]}, {first[len(first)-1], last[0], all[1].Insights[0]}}
	for round := 0; round < 2; round++ {
		for _, q := range viewQueries(n) {
			got, err := e.Execute(q)
			if err != nil {
				t.Fatalf("%s %+v: %v", label, q, err)
			}
			if want := oracleExecute(t, e, q); !reflect.DeepEqual(got, want) {
				t.Errorf("%s round %d %+v: differs from the oracle", label, round, q)
			}
		}
		for _, approx := range []bool{false, true} {
			s := NewSession(e, 5, approx)
			for fi, focus := range focusSets {
				s.Focus = focus
				for _, k := range []int{0, 1, 5, n} {
					got, err := s.RecommendationsK(k)
					if err != nil {
						t.Fatal(err)
					}
					if want := oracleRecommendations(t, s, k); !reflect.DeepEqual(got, want) {
						t.Errorf("%s round %d approx=%v focus set %d k=%d: carousels differ from the oracle", label, round, approx, fi, k)
					}
					for _, f := range focus {
						got, err := e.Neighborhood(f, nil, k, approx)
						if err != nil {
							t.Fatal(err)
						}
						if want := oracleNeighborhood(t, e, f, nil, k, approx); !reflect.DeepEqual(got, want) {
							t.Errorf("%s round %d approx=%v focus %s k=%d: neighborhood differs from the oracle", label, round, approx, f.Key(), k)
						}
					}
				}
			}
			for _, class := range []string{"linear", "skew", "catassoc"} {
				ov, err := e.Overview(class, "", approx)
				if err != nil {
					t.Fatal(err)
				}
				oracleOverview(t, fmt.Sprintf("%s round %d overview %s approx=%v", label, round, class, approx), e, ov, approx)
			}
		}
	}
}

// TestViewEquivalence is the contract test of the class view: reading
// a kept ranking must be invisible in results. Every surface is
// compared deeply against the brute-force oracle on a fresh engine,
// after each of two ingests, and after reads that raced an ingest (run
// with -race).
func TestViewEquivalence(t *testing.T) {
	f := testFrame(500, 21)
	p := sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 21, K: 128, Spearman: true})
	e, err := NewEngine(f, core.NewRegistry(), p)
	if err != nil {
		t.Fatal(err)
	}
	e.SetWorkers(2)
	checkAgainstOracle(t, "fresh", e)
	for b := 0; b < 2; b++ {
		if _, err := e.Ingest(context.Background(), ingestRows(30, b*30), nil); err != nil {
			t.Fatal(err)
		}
		checkAgainstOracle(t, fmt.Sprintf("after ingest %d", b+1), e)
	}

	focus := oracleExecute(t, e, Query{Classes: []string{"linear"}, K: 1})[0].Insights[0]
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for b := 2; b < 5; b++ {
			if _, err := e.Ingest(context.Background(), ingestRows(20, b*30), nil); err != nil {
				t.Errorf("ingest batch %d: %v", b, err)
			}
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s := NewSession(e, 5, g%2 == 0)
			s.FocusOn(focus)
			for j := 0; j < 4; j++ {
				_, err1 := s.RecommendationsK(5)
				_, err2 := e.Neighborhood(focus, nil, 10, g%2 == 0)
				_, err3 := e.Overview("linear", "", g%2 == 0)
				_, err4 := e.Execute(Query{K: 3, MinScore: 0.1})
				if err := errors.Join(err1, err2, err3, err4); err != nil {
					t.Errorf("read racing an ingest: %v", err)
				}
			}
		}(g)
	}
	wg.Wait()
	checkAgainstOracle(t, "after racing ingests", e)
}

// viewCount is the number of views the live generation holds.
func viewCount(e *Engine) int {
	g := e.gen.Load()
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.views)
}

// TestViewDiesWithGeneration: every new generation starts without the
// views of the one before, and a request that loaded a generation
// before it was replaced neither reads the live generation's views nor
// publishes into them.
func TestViewDiesWithGeneration(t *testing.T) {
	f := testFrame(300, 22)
	p := sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 22, K: 64})
	e, err := NewEngine(f, core.NewRegistry(), p)
	if err != nil {
		t.Fatal(err)
	}
	warm := func() {
		t.Helper()
		if _, err := e.Execute(Query{}); err != nil {
			t.Fatal(err)
		}
		if n := viewCount(e); n != len(e.registry.Classes()) {
			t.Fatalf("a whole-class query left %d views, want one per class (%d)", n, len(e.registry.Classes()))
		}
	}
	for _, bump := range []struct {
		name string
		do   func()
	}{
		{"Ingest", func() {
			if _, err := e.Ingest(context.Background(), ingestRows(10, 0), nil); err != nil {
				t.Fatal(err)
			}
		}},
		{"RestoreSnapshot", func() {
			if err := e.RestoreSnapshot(e.Frame(), nil); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		warm()
		bump.do()
		if n := viewCount(e); n != 0 {
			t.Errorf("%s left %d views behind", bump.name, n)
		}
	}

	lin, _ := e.registry.Lookup("linear")
	stale := e.gen.Load()
	if err := e.RestoreSnapshot(e.Frame(), nil); err != nil {
		t.Fatal(err)
	}
	before := e.CacheStats()
	v, err := e.viewOf(context.Background(), nil, stale, lin, "pearson", false, true)
	if err != nil || v == nil {
		t.Fatalf("stale build: view %v, err %v", v, err)
	}
	if n := viewCount(e); n != 0 {
		t.Errorf("a retired generation's pass published %d views into the live one", n)
	}
	if after := e.CacheStats(); after.Entries != before.Entries || after.Generation != before.Generation {
		t.Errorf("a retired generation's pass touched the live memo: %+v, was %+v", after, before)
	}
	live, err := e.viewOf(context.Background(), nil, e.gen.Load(), lin, "pearson", false, true)
	if err != nil || viewCount(e) != 1 {
		t.Fatalf("live build: err %v, %d views", err, viewCount(e))
	}
	if got, _ := e.viewOf(context.Background(), nil, stale, lin, "pearson", false, false); got != v || got == live {
		t.Error("a retired generation read the live generation's view instead of its own")
	}
	if !insightsEqual(v.ranked, live.ranked) {
		t.Error("the stale and the live build rank the same data differently")
	}
}

// A first request cancelled mid-scoring leaves no half-built view; the
// retry completes it from the memoized scores.
func TestViewCancelledBuildLeavesNothing(t *testing.T) {
	gc := &gateClass{gate: make(chan struct{}), blockAttr: "b"}
	e := gatedEngine(t, gc)
	nCands := len(gc.Candidates(e.Frame()))

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := e.ExecuteContext(ctx, Query{})
		done <- err
	}()
	waitFor(t, "the first request to reach the gated Score", func() bool { return gc.calls.Load() >= 2 })
	cancel()
	close(gc.gate)
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("first request err = %v, want context.Canceled", err)
	}
	if n := viewCount(e); n != 0 {
		t.Fatalf("a cancelled build left %d views", n)
	}
	if st := e.CacheStats(); st.Entries == 0 || st.Entries >= nCands {
		t.Fatalf("cancelled request memoized %d of %d scores, want some but not all", st.Entries, nCands)
	}
	res, err := e.Execute(Query{})
	if err != nil || len(res) != 1 || len(res[0].Insights) != nCands {
		t.Fatalf("retry: %+v, err %v", res, err)
	}
	if n := viewCount(e); n != 1 {
		t.Errorf("the retry left %d views, want 1", n)
	}
	if n := gc.calls.Load(); n != int64(nCands) {
		t.Errorf("Score ran %d times over both requests, want once per candidate (%d)", n, nCands)
	}
}

// Two first requests arriving together score each candidate once
// between them and agree on one view.
func TestViewConcurrentFirstRequests(t *testing.T) {
	reg := core.NewEmptyRegistry()
	cc := &countingClass{delay: time.Millisecond}
	if err := reg.Register(cc); err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(testFrame(100, 23), reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	const clients = 4
	var wg sync.WaitGroup
	res := make([][]Result, clients)
	for i := range res {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			if res[i], err = e.Execute(Query{}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	want := int64(len(cc.Candidates(e.Frame())))
	if got := cc.calls.Load(); got != want {
		t.Errorf("Score ran %d times for %d candidates", got, want)
	}
	if n := viewCount(e); n != 1 {
		t.Errorf("%d views published, want 1", n)
	}
	for i := 1; i < clients; i++ {
		if !reflect.DeepEqual(res[i], res[0]) {
			t.Errorf("client %d's reply differs from client 0's", i)
		}
	}
}

// TestViewKeepsCounters replays a fixed request sequence and checks
// the memo counters and the per-class telemetry against what one
// lookup per candidate per request gives — the accounting every
// request had before views, which a view-served class must keep.
func TestViewKeepsCounters(t *testing.T) {
	f := testFrame(300, 24)
	p := sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 24, K: 64})
	e, err := NewEngine(f, core.NewRegistry(), p)
	if err != nil {
		t.Fatal(err)
	}
	telem := telemetry.New(telemetry.Config{})
	e.SetInsightTelemetry(telem)

	// Per class: candidates, those with a defined score, and the same
	// two among the candidates holding "a".
	cands, scored := map[string]int{}, map[string]int{}
	withA, scoredWithA := map[string]int{}, map[string]int{}
	total, fixedTotal := 0, 0
	for _, c := range e.registry.Classes() {
		all := c.Candidates(f)
		cands[c.Name()] = len(all)
		total += len(all)
		for _, attrs := range all {
			if slices.Contains(attrs, "a") {
				withA[c.Name()]++
				fixedTotal++
			}
		}
	}
	for _, r := range oracleExecute(t, e, Query{}) {
		scored[r.Class] = len(r.Insights)
	}
	for _, r := range oracleExecute(t, e, Query{Fixed: []string{"a"}}) {
		scoredWithA[r.Class] = len(r.Insights)
	}
	strong := len(oracleExecute(t, e, Query{Classes: []string{"linear"}, MinScore: 0.5})[0].Insights)

	s := NewSession(e, 5, false)
	lin := oracleExecute(t, e, Query{Classes: []string{"linear"}, K: 1})[0].Insights[0]
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	_, err = s.RecommendationsK(5) // cold: one miss per candidate
	must(err)
	if st := e.CacheStats(); st.Misses != uint64(total) || st.Hits != 0 || st.Entries != total {
		t.Fatalf("cold carousel: %+v, want %d misses", st, total)
	}
	_, err = s.RecommendationsK(5) // warm: one hit per candidate
	must(err)
	s.FocusOn(lin)
	_, err = s.RecommendationsK(5)
	must(err)
	_, err = e.Neighborhood(lin, nil, 10, false)
	must(err)
	_, err = e.Overview("linear", "", false)
	must(err)
	_, err = e.Execute(Query{K: 3})
	must(err)
	_, err = e.Execute(Query{Classes: []string{"linear"}, MinScore: 0.5})
	must(err)
	_, err = e.Execute(Query{Fixed: []string{"a"}, K: 2})
	must(err)
	wantHits := uint64(4*total + 2*cands["linear"] + fixedTotal)
	if st := e.CacheStats(); st.Hits != wantHits || st.Misses != uint64(total) || st.Entries != total {
		t.Errorf("after the sequence: %+v, want %d hits, %d misses and entries", st, wantHits, total)
	}

	snap := telem.Snapshot(e.CacheStats().Generation, 3)
	for _, c := range snap.Classes {
		n, def := cands[c.Class], scored[c.Class]
		// Three carousels and a neighborhood emit the whole class, the
		// top-3 query min(3, def), the fixed query two of what holds a.
		wantQueries, wantCands := uint64(6), uint64(5*n+withA[c.Class])
		wantEmitted := uint64(4*def + min(3, def) + min(2, scoredWithA[c.Class]))
		wantFiltered := uint64(5*(n-def) + withA[c.Class] - scoredWithA[c.Class])
		if c.Class == "linear" {
			wantQueries, wantCands = 8, wantCands+uint64(2*n)
			wantEmitted += uint64(def + strong)
			wantFiltered += uint64(n - def + n - strong)
		}
		if c.Queries != wantQueries || c.Candidates != wantCands || c.Pruned != 0 ||
			c.Emitted != wantEmitted || c.Filtered != wantFiltered {
			t.Errorf("%s telemetry: queries %d candidates %d pruned %d filtered %d emitted %d, want %d %d 0 %d %d",
				c.Class, c.Queries, c.Candidates, c.Pruned, c.Filtered, c.Emitted,
				wantQueries, wantCands, wantFiltered, wantEmitted)
		}
	}
	if len(snap.Classes) != len(cands) {
		t.Errorf("telemetry covers %d classes, want %d", len(snap.Classes), len(cands))
	}
}

// What Execute, the session and the neighborhood return is the
// caller's: scribbling over it does not reach the kept ranking.
func TestViewRepliesAreCopies(t *testing.T) {
	e := newTestEngine(t, 300, 25)
	s := NewSession(e, 5, false)
	scribble := func(ins []core.Insight) {
		for i := range ins {
			ins[i] = core.Insight{Class: "scribbled", Score: math.Inf(1)}
		}
	}
	for round := 0; round < 2; round++ {
		res, err := e.Execute(Query{})
		if err != nil {
			t.Fatal(err)
		}
		if want := oracleExecute(t, e, Query{}); !reflect.DeepEqual(res, want) {
			t.Fatalf("round %d: Execute differs from the oracle", round)
		}
		focus := res[0].Insights[0]
		car, err := s.RecommendationsK(0)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracleRecommendations(t, s, 0); !reflect.DeepEqual(car, want) {
			t.Fatalf("round %d: carousels differ from the oracle", round)
		}
		nbrs, err := e.Neighborhood(focus, nil, 0, false)
		if err != nil {
			t.Fatal(err)
		}
		if want := oracleNeighborhood(t, e, focus, nil, 0, false); !reflect.DeepEqual(nbrs, want) {
			t.Fatalf("round %d: neighborhood differs from the oracle", round)
		}
		for _, r := range res {
			scribble(r.Insights)
		}
		for _, r := range car {
			scribble(r.Insights)
		}
		scribble(nbrs)
	}
}

// TestJaccardMatchesSetBody checks the scan against the set-based body
// it replaced, on every tuple of up to three names drawn with
// repetition — duplicates and empty tuples included.
func TestJaccardMatchesSetBody(t *testing.T) {
	old := func(a, b []string) float64 {
		if len(a) == 0 && len(b) == 0 {
			return 1
		}
		set := map[string]bool{}
		for _, s := range a {
			set[s] = true
		}
		inter := 0
		union := len(set)
		for _, s := range b {
			if set[s] {
				inter++
			} else {
				union++
			}
		}
		if union == 0 {
			return 0
		}
		return float64(inter) / float64(union)
	}
	names := []string{"x", "y", "z", ""}
	var tuples [][]string
	var grow func(prefix []string)
	grow = func(prefix []string) {
		tuples = append(tuples, append([]string(nil), prefix...))
		if len(prefix) == 3 {
			return
		}
		for _, n := range names {
			grow(append(prefix, n))
		}
	}
	grow(nil)
	for _, a := range tuples {
		for _, b := range tuples {
			if got, want := jaccard(a, b), old(a, b); got != want {
				t.Fatalf("jaccard(%q, %q) = %v, want %v", a, b, got, want)
			}
		}
	}
}

// warmAllocs builds an engine over cols numeric columns, warms its
// views, and returns the allocations of one warm call of each
// whole-class read.
func warmAllocs(t *testing.T, cols int) (allocs map[string]float64, candidates int) {
	t.Helper()
	f := datagen.Scalable(datagen.ScalableConfig{Rows: 200, NumericCols: cols, Seed: 26})
	reg := core.NewEmptyRegistry()
	for _, c := range core.BuiltinClasses() {
		if c.Name() == "linear" || c.Name() == "skew" {
			if err := reg.Register(c); err != nil {
				t.Fatal(err)
			}
		}
	}
	e, err := NewEngine(f, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	plain, focused := NewSession(e, 5, false), NewSession(e, 5, false)
	res, err := e.Execute(Query{})
	if err != nil {
		t.Fatal(err)
	}
	focus := res[0].Insights[len(res[0].Insights)/2]
	focused.FocusOn(focus)
	run := func(fn func() error) float64 {
		return testing.AllocsPerRun(10, func() {
			if err := fn(); err != nil {
				t.Fatal(err)
			}
		})
	}
	allocs = map[string]float64{
		"carousel":         run(func() error { _, err := plain.RecommendationsK(5); return err }),
		"focused carousel": run(func() error { _, err := focused.RecommendationsK(5); return err }),
		"neighborhood":     run(func() error { _, err := e.Neighborhood(focus, nil, 10, false); return err }),
		"overview":         run(func() error { _, err := e.Overview("linear", "", false); return err }),
		"overview JSON": run(func() error {
			_, _, err := e.OverviewJSON(context.Background(), "linear", "", false)
			return err
		}),
	}
	return allocs, len(res[0].Insights) + len(res[1].Insights)
}

// TestWarmReadAllocationCeiling: a warm whole-class read allocates for
// its reply, not for its class — sixteen times the candidates, the
// same number of allocations.
func TestWarmReadAllocationCeiling(t *testing.T) {
	small, nSmall := warmAllocs(t, 16)
	large, nLarge := warmAllocs(t, 64)
	if nLarge < 10*nSmall {
		t.Fatalf("%d vs %d candidates: the wide engine should have over ten times as many", nLarge, nSmall)
	}
	for op, a := range large {
		t.Logf("%s: %v allocations at %d candidates, %v at %d", op, small[op], nSmall, a, nLarge)
		if a > small[op]+2 {
			t.Errorf("%s: %v allocations at %d candidates, %v at %d: grows with the class", op, small[op], nSmall, a, nLarge)
		}
	}
}
