package query

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync/atomic"
	"testing"

	"foresight/internal/core"
	"foresight/internal/datagen"
	"foresight/internal/frame"
	"foresight/internal/sketch"
)

// sameInsightBits reports whether two insights agree on key, score, raw
// value and every detail, bit for bit.
func sameInsightBits(a, b core.Insight) bool {
	bits := math.Float64bits
	if a.Key() != b.Key() || bits(a.Score) != bits(b.Score) || bits(a.Raw) != bits(b.Raw) || len(a.Details) != len(b.Details) {
		return false
	}
	for k, v := range a.Details {
		if w, ok := b.Details[k]; !ok || bits(v) != bits(w) {
			return false
		}
	}
	return true
}

// linkedFrame is rows of the linkedRows stream: explore_exact's shape
// at a test's size, 1 % of its numeric cells missing.
func linkedFrame(t *testing.T, rows, numeric int, seed int64) *frame.Frame {
	t.Helper()
	g := &linkedRows{rng: rand.New(rand.NewSource(seed)), numeric: numeric}
	var csv strings.Builder
	csv.WriteString(strings.Join(g.names(), ",") + "\n")
	for _, rec := range g.rows(rows) {
		csv.WriteString(strings.Join(rec, ",") + "\n")
	}
	f, err := frame.ReadCSV(strings.NewReader(csv.String()), "linked", nil)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestRunScoringMatchesPerCandidate holds the pool's runs to scoring a
// candidate at a time: on the demo datasets and an explore_exact-shaped
// frame, at workers 1, 2 and 4, every linear and dependence insight a
// whole-class pass, a top-k pass or a fix= pass returns is bit for bit
// what the class's Score gives for its tuple.
func TestRunScoringMatchesPerCandidate(t *testing.T) {
	frames := []*frame.Frame{datagen.OECD(0, 42), datagen.Parkinson(0, 42), datagen.IMDB(0, 42), linkedFrame(t, 600, 12, 7)}
	reg := core.NewRegistry()
	for _, f := range frames {
		p := sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 42})
		fixed := f.NumericColumns()[len(f.NumericColumns())/2].Name()
		for _, workers := range []int{1, 2, 4} {
			e, err := NewEngine(f, reg, p)
			if err != nil {
				t.Fatal(err)
			}
			e.SetWorkers(workers)
			for _, q := range []Query{
				{Classes: []string{"linear", "dependence"}},
				{Classes: []string{"linear", "dependence"}, K: 5},
				{Classes: []string{"linear", "dependence"}, Fixed: []string{fixed}},
				{Classes: []string{"linear"}, Metric: "r2"},
			} {
				res, err := e.ExecuteContext(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				scored := 0
				for _, r := range res {
					c, _ := reg.Lookup(r.Class)
					for _, in := range r.Insights {
						want, err := c.Score(f, in.Attrs, r.Metric)
						if err != nil || !sameInsightBits(in, want) {
							t.Fatalf("%s workers=%d %+v: pass gave %+v, Score %+v (%v)", f.Name(), workers, q, in, want, err)
						}
						scored++
					}
				}
				if scored == 0 {
					t.Fatalf("%s workers=%d %+v: nothing scored", f.Name(), workers, q)
				}
				if err := e.RestoreSnapshot(f, p); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
}

// failingRun is the linear class with one partner, bad, it cannot
// score: its Score errors on pairs holding bad, and its ScoreRun fails
// any run that holds one.
type failingRun struct {
	core.Class
	bad  string
	runs atomic.Int64
}

func (c *failingRun) Score(f *frame.Frame, attrs []string, metric string) (core.Insight, error) {
	if attrs[1] == c.bad {
		return core.Insight{}, errors.New("cannot score " + c.bad)
	}
	return c.Class.Score(f, attrs, metric)
}

func (c *failingRun) ScoreRun(f *frame.Frame, run [][]string, metric string, out []core.Insight) error {
	c.runs.Add(1)
	for _, attrs := range run {
		if attrs[1] == c.bad {
			return errors.New("cannot score " + c.bad)
		}
	}
	return c.Class.(core.RunScorer).ScoreRun(f, run, metric, out)
}

// TestFailingRunSkipsLikeScore: a run that fails as a whole is scored a
// candidate at a time, so the pass skips exactly the slots Score fails.
func TestFailingRunSkipsLikeScore(t *testing.T) {
	f := testFrame(300, 5)
	for _, workers := range []int{1, 2, 4} {
		fc := &failingRun{Class: core.NewLinearClass(), bad: "c"}
		reg := core.NewEmptyRegistry()
		if err := reg.Register(fc); err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(f, reg, nil)
		if err != nil {
			t.Fatal(err)
		}
		e.SetWorkers(workers)
		ov, err := e.OverviewContext(context.Background(), "linear", "", false)
		if err != nil {
			t.Fatal(err)
		}
		if fc.runs.Load() == 0 {
			t.Fatalf("workers=%d: the pass formed no run", workers)
		}
		var want []core.Insight
		for _, attrs := range fc.Candidates(f) {
			if in, err := fc.Score(f, attrs, ""); err == nil {
				want = append(want, in)
			}
		}
		if len(want) == len(fc.Candidates(f)) {
			t.Fatalf("workers=%d: all %d candidates score alone", workers, len(want))
		}
		checkOverviewCells(t, fmt.Sprintf("workers=%d", workers), ov, want)
	}
}

// panicRun scores like linear, but its first ScoreRun signals entered,
// blocks on gate, then panics; later runs score normally.
type panicRun struct {
	core.Class
	gate     chan struct{}
	entered  chan struct{}
	panicked atomic.Bool
}

func (c *panicRun) ScoreRun(f *frame.Frame, run [][]string, metric string, out []core.Insight) error {
	if !c.panicked.Swap(true) {
		close(c.entered)
		<-c.gate
		panic(fmt.Sprintf("run scorer exploded on %v", run))
	}
	return c.Class.(core.RunScorer).ScoreRun(f, run, metric, out)
}

// testRunScorerPanic is TestScorerPanicIsolation's run case: a run
// scorer's panic abandons its unit's slots, wakes the request waiting on
// them — which scores them itself — and reaches the caller; the
// in-flight gauge counts the unit's candidates while it runs, and
// drains.
func testRunScorerPanic(t *testing.T) {
	pc := &panicRun{Class: core.NewLinearClass(), gate: make(chan struct{}), entered: make(chan struct{})}
	reg := core.NewEmptyRegistry()
	if err := reg.Register(pc); err != nil {
		t.Fatal(err)
	}
	f := testFrame(100, 7)
	e, err := NewEngine(f, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	owner := make(chan any, 1)
	go func() {
		defer func() { owner <- recover() }()
		_, _ = e.ExecuteContext(context.Background(), Query{})
	}()
	<-pc.entered
	if n := e.ScoringInflight(); n != core.RunWidth {
		t.Errorf("in flight during a run of %d: %d, want the run's candidates", core.RunWidth, n)
	}
	waiter := make(chan []Result, 1)
	go func() {
		res, err := e.ExecuteContext(context.Background(), Query{})
		if err != nil {
			t.Error(err)
		}
		waiter <- res
	}()
	n := len(pc.Candidates(f))
	waitFor(t, "the waiter to join the in-flight slots", func() bool { return e.CacheStats().Waits >= uint64(n) })
	close(pc.gate)
	if r := <-owner; r == nil || !strings.Contains(fmt.Sprint(r), "run scorer exploded") {
		t.Fatalf("owner recovered %v, want the run scorer's panic", r)
	}
	if res := <-waiter; len(res) != 1 || len(res[0].Insights) != n {
		t.Fatalf("waiter got %v, want all %d candidates", res, n)
	}
	waitFor(t, "worker pool to drain", func() bool { return e.ScoringInflight() == 0 })
}
