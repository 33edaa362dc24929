package query

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"foresight/internal/core"
	"foresight/internal/frame"
	"foresight/internal/sketch"
)

// insightEqual compares every field bit-for-bit, treating NaN == NaN
// (reflect.DeepEqual would report NaN cells as unequal).
func insightEqual(a, b core.Insight) bool {
	if a.Key() != b.Key() || a.Approx != b.Approx || a.Vis != b.Vis {
		return false
	}
	if !floatEq(a.Score, b.Score) || !floatEq(a.Raw, b.Raw) {
		return false
	}
	if len(a.Details) != len(b.Details) {
		return false
	}
	for k, v := range a.Details {
		w, ok := b.Details[k]
		if !ok || !floatEq(v, w) {
			return false
		}
	}
	return true
}

func floatEq(a, b float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return math.IsNaN(a) && math.IsNaN(b)
	}
	return a == b
}

func resultsEqual(t *testing.T, label string, a, b []Result) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: result count %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if a[i].Class != b[i].Class || a[i].Metric != b[i].Metric {
			t.Fatalf("%s: header %v vs %v", label, a[i], b[i])
		}
		if len(a[i].Insights) != len(b[i].Insights) {
			t.Fatalf("%s: %s has %d vs %d insights", label, a[i].Class,
				len(a[i].Insights), len(b[i].Insights))
		}
		for j := range a[i].Insights {
			if !insightEqual(a[i].Insights[j], b[i].Insights[j]) {
				t.Errorf("%s: %s[%d]: %+v vs %+v", label, a[i].Class, j,
					a[i].Insights[j], b[i].Insights[j])
			}
		}
	}
}

func overviewEqual(t *testing.T, label string, a, b *Overview) {
	t.Helper()
	if a.Class != b.Class || a.Metric != b.Metric || a.Symmetric != b.Symmetric {
		t.Fatalf("%s: headers differ: %v/%v/%v vs %v/%v/%v", label,
			a.Class, a.Metric, a.Symmetric, b.Class, b.Metric, b.Symmetric)
	}
	if len(a.Values) != len(b.Values) {
		t.Fatalf("%s: %d vs %d rows", label, len(a.Values), len(b.Values))
	}
	for i := range a.Values {
		for j := range a.Values[i] {
			if !floatEq(a.Values[i][j], b.Values[i][j]) {
				t.Errorf("%s: Values[%d][%d] = %v vs %v", label, i, j,
					a.Values[i][j], b.Values[i][j])
			}
		}
	}
	if !slices.Equal(a.RowAttrs, b.RowAttrs) || !slices.Equal(a.ColAttrs, b.ColAttrs) {
		t.Errorf("%s: axes differ: %v × %v vs %v × %v", label, a.RowAttrs, a.ColAttrs, b.RowAttrs, b.ColAttrs)
	}
}

// TestCacheEquivalence asserts that results served from the memo are
// bit-identical to scoring from scratch, across every query surface,
// both backends, and repeated (memo-serving) evaluation.
func TestCacheEquivalence(t *testing.T) {
	f := testFrame(1500, 31)
	p := sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 7, K: 128, Spearman: true})
	e, err := NewEngine(f, core.NewRegistry(), p)
	if err != nil {
		t.Fatal(err)
	}
	queries := []Query{
		{K: 5},
		{K: 5, Approx: true},
		{Classes: []string{"linear"}, Metric: "r2", K: 3},
		{Classes: []string{"linear"}, MinScore: 0.2, MaxScore: 0.9},
		{Fixed: []string{"a"}, K: 4},
		{Semantic: frame.SemanticCurrency, K: 4},
	}
	for round := 0; round < 2; round++ { // round 2 serves purely from the memo
		for qi, q := range queries {
			got, err := e.ExecuteContext(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if want := oracleExecute(t, e, q); !reflect.DeepEqual(got, want) {
				t.Errorf("round %d query %d: engine differs from the oracle:\n got: %+v\nwant: %+v", round, qi, got, want)
			}
		}
		for _, class := range []string{"linear", "skew"} {
			ov, err := e.OverviewContext(context.Background(), class, "", false)
			if err != nil {
				t.Fatal(err)
			}
			oracleOverview(t, fmt.Sprintf("round %d overview %s", round, class), e, ov, false)
		}
	}
	// Neighborhood rides on Execute; check it end to end too.
	top, err := e.ExecuteContext(context.Background(), Query{Classes: []string{"linear"}, K: 1})
	if err != nil || len(top) == 0 {
		t.Fatalf("no focus: %v", err)
	}
	focus := top[0].Insights[0]
	got, err := e.NeighborhoodContext(context.Background(), focus, nil, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	if want := oracleNeighborhood(t, e, focus, nil, 7, false); !reflect.DeepEqual(got, want) {
		t.Errorf("neighborhood differs from the oracle:\n got: %+v\nwant: %+v", got, want)
	}
	if st := e.CacheStats(); st.Hits == 0 || st.Entries == 0 {
		t.Errorf("engine never hit its memo: %+v", st)
	}
}

// TestStaleGenerationBypassesMemo pins the generation contract of the
// scoring pass: a pass over a generation that is no longer live reads
// and fills that generation's memo only — the live generation's entries
// stay as they were — and still scores correctly.
func TestStaleGenerationBypassesMemo(t *testing.T) {
	e := newTestEngine(t, 400, 36)
	c, _ := e.registry.Lookup("linear")
	stale := e.gen.Load()
	col := stale.column(c, "pearson", false)
	cands := col.t.tuples
	// Warm the old generation, then move past it.
	if _, _, err := e.scorePass(context.Background(), stale, col, col.t.all, 0, 0, math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	if err := e.RestoreSnapshot(e.Frame(), nil); err != nil {
		t.Fatal(err)
	}
	live := e.gen.Load().column(c, "pearson", false)
	if _, _, err := e.scorePass(context.Background(), e.gen.Load(), live, live.t.all[:1], 0, 0, math.Inf(1)); err != nil {
		t.Fatal(err)
	}
	before := e.CacheStats()
	if before.Entries != 1 {
		t.Fatalf("live generation should hold one entry: %+v", before)
	}
	for _, k := range []int{0, 2} { // unbounded and top-k passes alike
		hits := e.CacheStats().Hits
		got, _, err := e.scorePass(context.Background(), stale, col, col.t.all, k, 0, math.Inf(1))
		if err != nil {
			t.Fatal(err)
		}
		after := e.CacheStats()
		if after.Entries != before.Entries || after.Generation != before.Generation {
			t.Errorf("k=%d: a retired generation's pass touched the live memo: %+v, was %+v", k, after, before)
		}
		if n := after.Hits - hits; n != uint64(len(cands)) {
			t.Errorf("k=%d: the retired generation's memo answered %d of %d candidates", k, n, len(cands))
		}
		for i, attrs := range cands {
			if want, _ := c.Score(e.Frame(), attrs, "pearson"); !insightEqual(got[i], want) {
				t.Errorf("k=%d: slot %d = %+v, want %+v", k, i, got[i], want)
			}
		}
	}
}

// TestCacheStatsAndInvalidation checks the memo fills, serves hits,
// and empties with a generation bump on a restore, with a new profile
// or the same data.
func TestCacheStatsAndInvalidation(t *testing.T) {
	f := testFrame(800, 32)
	e, err := NewEngine(f, core.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.CarouselsContext(context.Background(), 5, false); err != nil {
		t.Fatal(err)
	}
	st1 := e.CacheStats()
	if st1.Misses == 0 || st1.Entries == 0 || st1.Hits != 0 {
		t.Fatalf("first pass stats: %+v", st1)
	}
	if _, err := e.CarouselsContext(context.Background(), 5, false); err != nil {
		t.Fatal(err)
	}
	st2 := e.CacheStats()
	if st2.Hits != st1.Misses {
		t.Errorf("second pass should hit every slot: %+v after %+v", st2, st1)
	}
	if st2.Misses != st1.Misses || st2.Entries != st1.Entries {
		t.Errorf("second pass should add nothing: %+v after %+v", st2, st1)
	}

	p := sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 3, K: 64})
	if err := e.RestoreSnapshot(f, p); err != nil {
		t.Fatal(err)
	}
	st3 := e.CacheStats()
	if st3.Generation != st2.Generation+1 || st3.Entries != 0 {
		t.Errorf("a restore with a new profile should bump generation and drop entries: %+v", st3)
	}
	if _, err := e.CarouselsContext(context.Background(), 5, false); err != nil {
		t.Fatal(err)
	}
	if st := e.CacheStats(); st.Misses <= st3.Misses {
		t.Errorf("post-invalidation queries should rescore: %+v", st)
	}
	if err := e.RestoreSnapshot(e.Frame(), nil); err != nil {
		t.Fatal(err)
	}
	if st := e.CacheStats(); st.Entries != 0 || st.Generation != st3.Generation+1 {
		t.Errorf("a restore of the same data: %+v", st)
	}
}

// countingClass counts Score invocations, with an optional delay to
// widen concurrency windows.
type countingClass struct {
	calls atomic.Int64
	delay time.Duration
}

func (c *countingClass) Name() string        { return "counting" }
func (c *countingClass) Description() string { return "test class counting Score calls" }
func (c *countingClass) Arity() int          { return 1 }
func (c *countingClass) Metrics() []string   { return []string{"len"} }
func (c *countingClass) VisKind() core.VisKind {
	return core.VisBar
}
func (c *countingClass) Candidates(f *frame.Frame) [][]string {
	var out [][]string
	for _, nc := range f.NumericColumns() {
		out = append(out, []string{nc.Name()})
	}
	return out
}
func (c *countingClass) Score(f *frame.Frame, attrs []string, metric string) (core.Insight, error) {
	c.calls.Add(1)
	if c.delay > 0 {
		time.Sleep(c.delay)
	}
	return core.Insight{
		Class: "counting", Metric: "len", Attrs: attrs,
		Score: float64(len(attrs[0])), Raw: float64(len(attrs[0])), Vis: core.VisBar,
	}, nil
}
func (c *countingClass) ScoreApprox(p *sketch.DatasetProfile, attrs []string, metric string) (core.Insight, error) {
	return c.Score(nil, attrs, metric)
}

// TestCacheSingleflight hammers one engine with identical concurrent
// queries and asserts each candidate was scored exactly once: the
// memo plus the in-flight map collapse the thundering herd.
func TestCacheSingleflight(t *testing.T) {
	f := testFrame(200, 33)
	reg := core.NewEmptyRegistry()
	cc := &countingClass{delay: 2 * time.Millisecond}
	if err := reg.Register(cc); err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(f, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	const clients = 16
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := e.ExecuteContext(context.Background(), Query{K: 3}); err != nil {
				errs <- err
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	want := int64(len(cc.Candidates(f)))
	if got := cc.calls.Load(); got != want {
		t.Errorf("Score called %d times for %d candidates; singleflight failed", got, want)
	}
	st := e.CacheStats()
	if st.Entries != int(want) {
		t.Errorf("entries = %d, want %d", st.Entries, want)
	}
}

// TestConcurrentEngineQueries runs every read surface from many
// goroutines against one engine (meant for -race) and checks each
// response equals the single-threaded golden answer.
func TestConcurrentEngineQueries(t *testing.T) {
	f := testFrame(1200, 34)
	p := sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 11, K: 64, Spearman: true})
	e, err := NewEngine(f, core.NewRegistry(), p)
	if err != nil {
		t.Fatal(err)
	}
	e.SetWorkers(4)

	goldenExec, err := e.ExecuteContext(context.Background(), Query{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	goldenApprox, err := e.ExecuteContext(context.Background(), Query{K: 5, Approx: true})
	if err != nil {
		t.Fatal(err)
	}
	goldenOv, err := e.OverviewContext(context.Background(), "linear", "", false)
	if err != nil {
		t.Fatal(err)
	}
	focus := goldenExec[0].Insights[0]
	goldenNbrs, err := e.NeighborhoodContext(context.Background(), focus, nil, 5, false)
	if err != nil {
		t.Fatal(err)
	}

	const clients = 8
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				switch (i + round) % 4 {
				case 0:
					res, err := e.ExecuteContext(context.Background(), Query{K: 5})
					if err != nil {
						t.Error(err)
						return
					}
					resultsEqual(t, "concurrent exec", goldenExec, res)
				case 1:
					res, err := e.ExecuteContext(context.Background(), Query{K: 5, Approx: true})
					if err != nil {
						t.Error(err)
						return
					}
					resultsEqual(t, "concurrent approx", goldenApprox, res)
				case 2:
					ov, err := e.OverviewContext(context.Background(), "linear", "", false)
					if err != nil {
						t.Error(err)
						return
					}
					overviewEqual(t, "concurrent overview", goldenOv, ov)
				case 3:
					nbrs, err := e.NeighborhoodContext(context.Background(), focus, nil, 5, false)
					if err != nil {
						t.Error(err)
						return
					}
					if len(nbrs) != len(goldenNbrs) {
						t.Errorf("neighbors %d vs %d", len(nbrs), len(goldenNbrs))
						return
					}
					for j := range nbrs {
						if !insightEqual(nbrs[j], goldenNbrs[j]) {
							t.Errorf("neighbor %d differs", j)
						}
					}
				}
			}
		}(i)
	}
	wg.Wait()
}

// TestConcurrentInvalidation interleaves RestoreSnapshot with a read
// load: no race, and queries issued after the last swap see fresh
// results.
func TestConcurrentInvalidation(t *testing.T) {
	f := testFrame(600, 35)
	pa := sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 1, K: 64})
	pb := sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 2, K: 64})
	e, err := NewEngine(f, core.NewRegistry(), pa)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			p := pa
			if i%2 == 0 {
				p = pb
			}
			if err := e.RestoreSnapshot(f, p); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 5; round++ {
				if _, err := e.ExecuteContext(context.Background(), Query{K: 3, Approx: true}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	time.Sleep(10 * time.Millisecond)
	close(stop)
	wg.Wait()

	if err := e.RestoreSnapshot(f, pa); err != nil {
		t.Fatal(err)
	}
	golden, err := e.ExecuteContext(context.Background(), Query{K: 3, Approx: true})
	if err != nil {
		t.Fatal(err)
	}
	again, err := e.ExecuteContext(context.Background(), Query{K: 3, Approx: true})
	if err != nil {
		t.Fatal(err)
	}
	resultsEqual(t, "post-swap", golden, again)
}

// TestScoreThroughMemo: Engine.Score answers a tuple a pass scored from
// its slot, bit for bit what the class scores; scores a tuple outside
// the class's table (a reversed pair) directly on every call, touching
// no counter and no slot; and hands back the class's own error for a
// tuple or metric the class cannot score, memoizing nothing.
func TestScoreThroughMemo(t *testing.T) {
	f := testFrame(600, 5)
	e, err := NewEngine(f, core.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	linear, _ := e.Registry().Lookup("linear")
	top, err := e.ExecuteContext(context.Background(), Query{Classes: []string{"linear"}, K: 1})
	if err != nil || len(top) == 0 || len(top[0].Insights) == 0 {
		t.Fatalf("no top insight: %v", err)
	}
	in := top[0].Insights[0]
	want, err := linear.Score(f, in.Attrs, "")
	if err != nil {
		t.Fatal(err)
	}
	before := e.CacheStats()
	for _, metric := range []string{"", in.Metric} {
		got, err := e.Score(linear, in.Attrs, metric)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("metric %q: Score = %+v, %v; the class scores %+v", metric, got, err, want)
		}
	}
	if st := e.CacheStats(); st.Hits != before.Hits+2 || st.Misses != before.Misses {
		t.Errorf("a tuple the pass scored: hits %d → %d, misses %d → %d", before.Hits, st.Hits, before.Misses, st.Misses)
	}
	// A warm hit is one lookup in the table's key index: only the key
	// allocates.
	if n := testing.AllocsPerRun(100, func() { e.Score(linear, in.Attrs, "") }); n > 1 {
		t.Errorf("a warm hit allocates %v times, want at most 1", n)
	}

	reversed := []string{in.Attrs[1], in.Attrs[0]}
	first, err := e.Score(linear, reversed, "")
	if err != nil {
		t.Fatal(err)
	}
	before = e.CacheStats()
	again, err := e.Score(linear, reversed, "")
	if err != nil || !reflect.DeepEqual(first, again) {
		t.Fatalf("second call = %+v, %v; first %+v", again, err, first)
	}
	if st := e.CacheStats(); st != before {
		t.Errorf("a tuple outside the table has no slot: %+v → %+v", before, st)
	}

	before = e.CacheStats()
	for _, c := range []struct {
		attrs  []string
		metric string
	}{{[]string{"a", "nope"}, ""}, {in.Attrs, "bogus"}} {
		_, want := linear.Score(f, c.attrs, c.metric)
		if _, err := e.Score(linear, c.attrs, c.metric); err == nil || want == nil || err.Error() != want.Error() {
			t.Errorf("%v %q: error %v, the class's %v", c.attrs, c.metric, err, want)
		}
	}
	if st := e.CacheStats(); st.Entries != before.Entries {
		t.Errorf("failed scores memoized: entries %d → %d", before.Entries, st.Entries)
	}
}

// TestScoreCommaNames: attribute names may hold commas, so two tuples of
// a table can share a key. Engine.Score finds each one's own slot.
func TestScoreCommaNames(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	var cols []frame.Column
	for _, name := range []string{"x", "y,z", "x,y", "z"} {
		v := make([]float64, 200)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		cols = append(cols, frame.NewNumericColumn(name, v))
	}
	f := frame.MustNew("commas", cols...)
	e, err := NewEngine(f, core.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	linear, _ := e.Registry().Lookup("linear")
	if _, err := e.ExecuteContext(context.Background(), Query{Classes: []string{"linear"}}); err != nil {
		t.Fatal(err)
	}
	before := e.CacheStats()
	for _, attrs := range [][]string{{"x", "y,z"}, {"x,y", "z"}} {
		want, err := linear.Score(f, attrs, "")
		if err != nil {
			t.Fatal(err)
		}
		if got, err := e.Score(linear, attrs, ""); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%q: Score = %+v, %v; the class scores %+v", attrs, got, err, want)
		}
	}
	if st := e.CacheStats(); st.Hits != before.Hits+2 || st.Misses != before.Misses {
		t.Errorf("two tuples the pass scored: hits %d → %d, misses %d → %d", before.Hits, st.Hits, before.Misses, st.Misses)
	}
}

// TestScoreJoinsInflightPass: Engine.Score on a tuple whose slot a pass
// holds in flight waits for that pass and returns its insight — one
// wait, and one score of each candidate in total. A tuple outside the
// class's table has no slot: a reversed pair scores directly, bit for
// bit the same on every call, and adds no entry.
func TestScoreJoinsInflightPass(t *testing.T) {
	gc := &gateClass{gate: make(chan struct{}), blockAttr: "a"}
	e := gatedEngine(t, gc)
	n := int64(len(gc.Candidates(e.Frame())))
	pass := make(chan []Result, 1)
	go func() {
		res, err := e.ExecuteContext(context.Background(), Query{})
		if err != nil {
			t.Error(err)
		}
		pass <- res
	}()
	waitFor(t, "the pass to reach the gated Score", func() bool { return gc.calls.Load() >= 1 })
	before := e.CacheStats()
	type reply struct {
		in  core.Insight
		err error
	}
	scored := make(chan reply, 1)
	go func() {
		in, err := e.Score(gc, []string{"a"}, "")
		scored <- reply{in, err}
	}()
	waitFor(t, "Score to wait on the pass or score the tuple itself", func() bool {
		return e.CacheStats().Waits > before.Waits || gc.calls.Load() > 1
	})
	close(gc.gate)
	res := <-pass
	got := <-scored
	if got.err != nil {
		t.Fatal(got.err)
	}
	var want core.Insight
	for _, in := range res[0].Insights {
		if in.Attrs[0] == "a" {
			want = in
		}
	}
	if !reflect.DeepEqual(got.in, want) {
		t.Errorf("Score = %+v, the pass scored %+v", got.in, want)
	}
	if w := e.CacheStats().Waits - before.Waits; w != 1 {
		t.Errorf("Score waited on %d slots, want 1", w)
	}
	if c := gc.calls.Load(); c != n {
		t.Errorf("%d scores of %d candidates: Score scored its tuple again", c, n)
	}

	f := testFrame(300, 6)
	le, err := NewEngine(f, core.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	linear, _ := le.Registry().Lookup("linear")
	if _, err := le.ExecuteContext(context.Background(), Query{Classes: []string{"linear"}}); err != nil {
		t.Fatal(err)
	}
	reversed := []string{"b", "a"}
	wantRev, err := linear.Score(f, reversed, "")
	if err != nil {
		t.Fatal(err)
	}
	stats := le.CacheStats()
	for call := 0; call < 2; call++ {
		got, err := le.Score(linear, reversed, "")
		if err != nil || !reflect.DeepEqual(got, wantRev) {
			t.Errorf("call %d: Score(%v) = %+v, %v; the class scores %+v", call, reversed, got, err, wantRev)
		}
	}
	if st := le.CacheStats(); st != stats {
		t.Errorf("a reversed pair touched the memo: %+v → %+v", stats, st)
	}
}
