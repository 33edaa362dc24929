package query

import (
	"context"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"foresight/internal/core"
	"foresight/internal/datagen"
	"foresight/internal/frame"
	"foresight/internal/obs/telemetry"
	"foresight/internal/sketch"
)

// The scans the view's attribute index replaced, kept as the oracle of
// TestIndexReadersMatchScans: the focused carousel and the neighborhood
// offered every insight of every class read whole; the fixed-attribute
// query ran the per-candidate pass (the oracle gets it by adding a keep
// constraint that admits every tuple, which the index path leaves
// alone).

// scanNeighborhood is NeighborhoodContext offering every insight of a
// class read whole.
func scanNeighborhood(ctx context.Context, e *Engine, focus core.Insight, classes []string, k int, approx bool) ([]core.Insight, error) {
	start := time.Now()
	rq, err := e.begin(ctx, Query{Classes: classes, Approx: approx})
	if err != nil {
		return nil, err
	}
	top := newTopRanked(k, nearer)
	focusKey := focus.Key()
	offer := func(ins []core.Insight, keys []string) {
		for i := range ins {
			var key string
			if keys != nil {
				key = keys[i]
			} else {
				key = ins[i].Key()
			}
			if key != focusKey {
				top.Offer(ranked{&ins[i], Similarity(focus, ins[i]), key})
			}
		}
	}
	var walk []int
	for i, c := range rq.classes {
		own := c.Name() == focus.Class && rq.metrics[i] == focus.Metric
		if !own && prunes(c, rq.g, k, 0) && rq.g.view(viewKey{c.Name(), rq.metrics[i], approx}) == nil {
			walk = append(walk, i)
			continue
		}
		r, st, err := e.scoreClass(ctx, rq.tr, rq.g, c, Query{Approx: approx}, rq.metrics[i], rq.maxScore, rq.telem != nil)
		if err != nil {
			return nil, err
		}
		rq.note(st)
		offer(r.ins, r.view.keys[r.from:r.from+len(r.ins)])
	}
	for _, i := range walk {
		c := rq.classes[i]
		var levels []float64
		for _, attrs := range c.Candidates(rq.g.frame) {
			if l := jaccard(focus.Attrs, attrs); !slices.Contains(levels, l) {
				levels = append(levels, l)
			}
		}
		slices.Sort(levels)
		st := telemetry.ClassSample{Class: c.Name(), Margin: math.NaN()}
		for l := len(levels) - 1; l >= 0; l-- {
			if kth, ok := top.Kth(); ok && kth.score > levels[l] {
				break
			}
			at := levels[l]
			q := Query{Approx: approx, K: k, keep: func(attrs []string) bool { return jaccard(focus.Attrs, attrs) == at }}
			r, part, err := e.scoreClass(ctx, rq.tr, rq.g, c, q, rq.metrics[i], rq.maxScore, rq.telem != nil)
			if err != nil {
				return nil, err
			}
			offer(r.ins, nil)
			st.Candidates, st.Pruned, st.Filtered = st.Candidates+part.Candidates, st.Pruned+part.Pruned, st.Filtered+part.Filtered
			st.Emitted, st.Scores, st.Attrs = st.Emitted+part.Emitted, append(st.Scores, part.Scores...), append(st.Attrs, part.Attrs...)
		}
		rq.note(st)
	}
	rq.record("neighborhood", start)
	return insightsOf(top), nil
}

// scanRecommendations is RecommendationsKContext blending every insight
// of every class.
func scanRecommendations(ctx context.Context, s *Session, k int) ([]Result, error) {
	q := Query{Approx: s.Approx}
	if len(s.Focus) == 0 {
		q.top = k
	}
	rs, err := s.engine.executeOp(ctx, q, "carousels")
	if err != nil {
		return nil, err
	}
	blend := s.Blend
	if blend <= 0 || blend > 1 {
		blend = 0.5
	}
	out := make([]Result, 0, len(rs))
	for _, r := range rs {
		maxScore := r.ins[0].Score
		var carousel []core.Insight
		if len(s.Focus) > 0 && maxScore > 0 {
			top := newTopRanked(k, func(a, b ranked) bool {
				if a.score != b.score {
					return a.score > b.score
				}
				return a.key < b.key
			})
			for i := range r.ins {
				in := &r.ins[i]
				top.Offer(ranked{in, (in.Score / maxScore) * (blend + (1-blend)*s.relevance(in.Attrs)), r.view.keys[r.from+i]})
			}
			carousel = insightsOf(top)
		} else {
			n := len(r.ins)
			if k > 0 && k < n {
				n = k
			}
			carousel = slices.Clone(r.ins[:n])
		}
		out = append(out, Result{Class: r.class, Metric: r.metric, Insights: carousel})
	}
	return out, nil
}

// indexCase is one engine the equivalence test drives.
type indexCase struct {
	name   string
	f      *frame.Frame
	approx bool
}

func indexCases() []indexCase {
	var out []indexCase
	for _, f := range []*frame.Frame{datagen.OECD(0, 42), datagen.Parkinson(200, 42), datagen.IMDB(300, 42), cycledFrame()} {
		for _, approx := range []bool{false, true} {
			out = append(out, indexCase{fmt.Sprintf("%s/approx=%v", f.Name(), approx), f, approx})
		}
	}
	return out
}

// cycledFrame has a low-cardinality categorical whose levels cycle row
// by row, so they segment nothing: every segmentation score ties at 0.
// Its constant column leaves the scores of its tuples undefined.
func cycledFrame() *frame.Frame {
	base := datagen.Scalable(datagen.ScalableConfig{Rows: 300, NumericCols: 8, Seed: 5})
	cols := make([]frame.Column, 0, base.Cols()+1)
	for c := 0; c < base.Cols(); c++ {
		cols = append(cols, base.Column(c))
	}
	labels := make([]string, base.Rows())
	for i := range labels {
		labels[i] = fmt.Sprintf("level%d", i%4)
	}
	flat := make([]float64, base.Rows())
	return frame.MustNew("cycled", append(cols, frame.NewNumericColumn("flat", flat), frame.NewCategoricalColumn("lowcard", labels))...)
}

// headRows is f's first n rows as an ingest batch.
func headRows(f *frame.Frame, n int) frame.RowBatch {
	batch := frame.RowBatch{Records: make([][]string, n)}
	for r := range batch.Records {
		rec := make([]string, f.Cols())
		for c := range rec {
			rec[c] = f.Column(c).StringAt(r)
		}
		batch.Records[r] = rec
	}
	return batch
}

// snapshotString renders a telemetry snapshot without its wall times.
func snapshotString(t *telemetry.Insights, gen uint64) string {
	snap := t.Snapshot(gen, 20)
	for i := range snap.RecentQueries {
		snap.RecentQueries[i].DurationMS = 0
	}
	return fmt.Sprintf("%+v", snap)
}

// repliesEqual compares two replies bit for bit.
func repliesEqual(a, b []Result) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Class != b[i].Class || a[i].Metric != b[i].Metric || !insightsEqual(a[i].Insights, b[i].Insights) {
			return false
		}
	}
	return true
}

// TestIndexReadersMatchScans is the equivalence test of the views'
// attribute index: the focused carousel, the neighborhood and the
// fixed-attribute query answer exactly what the scans they replaced
// answer — insights, telemetry samples and memo counters bit for bit —
// on the demo datasets and a frame whose segmentation scores all tie
// at 0, exact and approximate, before and after an ingest, for 1-3
// focused insights (pairs, unary and triple tuples, and one held by no
// view) and k of 0, 1, 5 and 10.
func TestIndexReadersMatchScans(t *testing.T) {
	ctx := context.Background()
	for _, tc := range indexCases() {
		t.Run(tc.name, func(t *testing.T) {
			p := sketch.BuildProfile(tc.f, sketch.ProfileConfig{Seed: 42, Spearman: true})
			e, err := NewEngine(tc.f, core.NewRegistry(), p)
			if err != nil {
				t.Fatal(err)
			}
			small := telemetry.Config{ScoreK: 16, TopItems: 4}
			prodTelem, scanTelem := telemetry.New(small), telemetry.New(small)
			// same runs prod once to warm the engine, then prod and scan
			// from that state, each into its own telemetry store, and
			// compares the replies and the memo counters each moved.
			var recording bool
			same := func(label string, prod, scan func() (any, error), equal func(a, b any) bool) {
				t.Helper()
				e.SetInsightTelemetry(nil)
				if _, err := prod(); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if recording {
					e.SetInsightTelemetry(prodTelem)
				}
				s0 := e.CacheStats()
				got, err := prod()
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				s1 := e.CacheStats()
				if recording {
					e.SetInsightTelemetry(scanTelem)
				}
				want, err := scan()
				if err != nil {
					t.Fatalf("%s: scan: %v", label, err)
				}
				s2 := e.CacheStats()
				e.SetInsightTelemetry(nil)
				if !equal(got, want) {
					t.Fatalf("%s: reply differs from the scan:\n got %v\nwant %v", label, got, want)
				}
				if d1, d2 := [3]uint64{s1.Hits - s0.Hits, s1.Misses - s0.Misses, s1.Waits - s0.Waits}, [3]uint64{s2.Hits - s1.Hits, s2.Misses - s1.Misses, s2.Waits - s1.Waits}; d1 != d2 || s1.Entries != s2.Entries {
					t.Fatalf("%s: hits, misses, waits %v against the scan's %v", label, d1, d2)
				}
			}
			// Folding the stores is slow, so they are compared once a
			// phase.
			sameTelemetry := func(label string) {
				t.Helper()
				gen := e.CacheStats().Generation
				if g, w := snapshotString(prodTelem, gen), snapshotString(scanTelem, gen); g != w {
					t.Fatalf("%s: telemetry differs from the scan's:\n got %s\nwant %s", label, g, w)
				}
			}
			sameInsights := func(a, b any) bool { return insightsEqual(a.([]core.Insight), b.([]core.Insight)) }
			sameResults := func(a, b any) bool { return repliesEqual(a.([]Result), b.([]Result)) }

			for round := 0; round < 2; round++ {
				if round == 1 {
					if _, err := e.Ingest(ctx, headRows(tc.f, 10), nil); err != nil {
						t.Fatal(err)
					}
				}
				foci := indexFoci(t, e, tc.approx)
				// First with only the views the unfocused carousels leave
				// (exact: of the classes they cannot prune), which k ≤ 0 or
				// a focused carousel would complete; then with every class's
				// view, which a focused carousel builds.
				for _, focused := range []bool{false, true} {
					ks := []int{1, 5, 10}
					if focused {
						s := NewSession(e, 5, tc.approx)
						s.FocusOn(foci[0])
						if _, err := s.RecommendationsKContext(ctx, 5); err != nil {
							t.Fatal(err)
						}
						ks = append(ks, 0)
					}
					for _, k := range ks {
						// A class read whole samples its view whatever k is, so
						// the stores record one k: a cut one.
						recording = k == 5
						for _, focus := range foci {
							label := fmt.Sprintf("round %d neighborhood of %s k=%d", round, focus.Key(), k)
							same(label,
								func() (any, error) { return e.NeighborhoodContext(ctx, focus, nil, k, tc.approx) },
								func() (any, error) { return scanNeighborhood(ctx, e, focus, nil, k, tc.approx) },
								sameInsights)
						}
						if focused {
							for _, set := range [][]core.Insight{foci[:1], foci[1:3], {foci[0], foci[1], foci[len(foci)-2]}} {
								s := NewSession(e, 5, tc.approx)
								s.Focus = set
								label := fmt.Sprintf("round %d carousels focused on %d k=%d", round, len(set), k)
								same(label,
									func() (any, error) { return s.RecommendationsKContext(ctx, k) },
									func() (any, error) { return scanRecommendations(ctx, s, k) },
									sameResults)
							}
						}
						pair := foci[0].Attrs
						queries := []Query{
							{Fixed: pair[:1], K: k},
							{Fixed: pair, K: k},
							{Fixed: pair[:1], K: k, MinScore: 0.2, MaxScore: 0.8},
							{Fixed: []string{pair[0], pair[0]}, K: k, MinScore: 0.1},
						}
						if attr := undefinedAttr(e); attr != "" {
							queries = append(queries, Query{Fixed: []string{attr}, K: k})
						}
						for _, q := range queries {
							q.Approx = tc.approx
							same(fmt.Sprintf("round %d query %+v", round, q),
								func() (any, error) { return e.ExecuteContext(ctx, q) },
								func() (any, error) {
									q := q
									q.keep = func([]string) bool { return true }
									return e.ExecuteContext(ctx, q)
								},
								sameResults)
							checkFixedSamples(t, e, q)
						}
					}
					sameTelemetry(fmt.Sprintf("round %d focused=%v", round, focused))
				}
			}
		})
	}
}

// indexFoci picks the foci of the equivalence test from e's unfocused
// carousels, which leave views only of the classes they cannot prune:
// a pair from the middle of linear's, a unary tuple, a triple when the
// frame has any, and a linear tuple of a column the frame
// lacks, which no view holds — once under linear's default metric, and
// once under another, so that no class is the focus's own and every
// neighbor shares nothing with it.
func indexFoci(t *testing.T, e *Engine, approx bool) []core.Insight {
	t.Helper()
	res, err := NewSession(e, 5, approx).RecommendationsKContext(context.Background(), 5)
	if err != nil {
		t.Fatal(err)
	}
	var foci []core.Insight
	for _, want := range []string{"linear", "skew", "segmentation"} {
		for _, r := range res {
			if r.Class == want {
				foci = append(foci, r.Insights[len(r.Insights)/2])
			}
		}
	}
	if len(foci) == 0 || len(foci[0].Attrs) != 2 {
		t.Fatalf("no linear focus among %d classes", len(res))
	}
	absent := foci[0]
	absent.Attrs = []string{"no such column"}
	foreign := absent
	foreign.Metric = "r2"
	return append(foci, absent, foreign)
}

// undefinedAttr returns an attribute of a tuple whose score one of e's
// views leaves undefined, or "".
func undefinedAttr(e *Engine) string {
	g := e.gen.Load()
	g.mu.Lock()
	defer g.mu.Unlock()
	best := ""
	for _, v := range g.views {
		for _, attrs := range v.undefined {
			if best == "" || attrs[0] < best {
				best = attrs[0]
			}
		}
	}
	return best
}

// checkFixedSamples compares, class by class, the ranking and the
// telemetry sample the index gives a fixed-attribute query with those
// of the per-candidate pass.
func checkFixedSamples(t *testing.T, e *Engine, q Query) {
	t.Helper()
	ctx := context.Background()
	rq, err := e.begin(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	scan := q
	scan.keep = func([]string) bool { return true }
	for i, c := range rq.classes {
		got, gotSt, err := e.scoreClass(ctx, nil, rq.g, c, q, rq.metrics[i], rq.maxScore, true)
		if err != nil {
			t.Fatal(err)
		}
		want, wantSt, err := e.scoreClass(ctx, nil, rq.g, c, scan, rq.metrics[i], rq.maxScore, true)
		if err != nil {
			t.Fatal(err)
		}
		if !insightsEqual(got.ins, want.ins) {
			t.Fatalf("%s %+v: ranking differs from the pass's", c.Name(), q)
		}
		if g, w := fmt.Sprintf("%+v", gotSt), fmt.Sprintf("%+v", wantSt); g != w {
			t.Fatalf("%s %+v: sample differs from the pass's:\n got %s\nwant %s", c.Name(), q, g, w)
		}
	}
}

// TestClassNamedTwiceAnsweredOnce: a query, a carousel and a
// neighborhood naming a class twice answer it once.
func TestClassNamedTwiceAnsweredOnce(t *testing.T) {
	e, err := NewEngine(datagen.OECD(0, 42), core.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	res, err := e.ExecuteContext(ctx, Query{Classes: []string{"linear", "skew", "linear"}, K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2 || res[0].Class != "linear" || res[1].Class != "skew" {
		t.Errorf("linear,skew,linear answered %d results", len(res))
	}
	focus := res[0].Insights[0]
	nbrs, err := e.NeighborhoodContext(ctx, focus, []string{"monotonic", "monotonic"}, 4, false)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, in := range nbrs {
		if seen[in.Key()] {
			t.Errorf("neighbor %s answered twice", in.Key())
		}
		seen[in.Key()] = true
	}
	if len(nbrs) != 4 {
		t.Errorf("%d neighbors, want 4", len(nbrs))
	}
}

// TestUnknownFixedAttributeRejected: a fixed attribute that names no
// column is an error naming it; a column no candidate holds is an empty
// answer.
func TestUnknownFixedAttributeRejected(t *testing.T) {
	f := testFrame(100, 4)
	e, err := NewEngine(f, core.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, fixed := range [][]string{{"zzz"}, {"", ""}, {"a", "zzz"}} {
		_, err := e.ExecuteContext(ctx, Query{Fixed: fixed})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", fixed[len(fixed)-1])) {
			t.Errorf("fixed %q: err %v, want one naming %q", fixed, err, fixed[len(fixed)-1])
		}
	}
	// zipfc is categorical; linear pairs numeric columns only.
	res, err := e.ExecuteContext(ctx, Query{Classes: []string{"linear"}, Fixed: []string{"zipfc"}})
	if err != nil || len(res) != 0 {
		t.Errorf("a column no linear pair holds: %d results, err %v", len(res), err)
	}
}

// handView ranks ins into a view of one class, as newClassView does,
// and returns the whole of it as a ranking.
func handView(ins ...core.Insight) ranking {
	v := &classView{candidates: len(ins), ranked: ins}
	for _, in := range ins {
		v.keys = append(v.keys, in.Key())
	}
	sort.Sort(byRank{v})
	return ranking{class: ins[0].Class, metric: ins[0].Metric, ins: v.ranked, view: v}
}

// TestOutwardWalkPastRounding: on the focus's own class, a tuple
// farther from the focus's score can compute one ulp more similar than
// a nearer one. When the kth neighbor ties the farther tuple's
// similarity, the nearer one falls strictly below it, and the walk must
// still reach the farther one, which wins the tie on strength.
func TestOutwardWalkPastRounding(t *testing.T) {
	focus := core.Insight{Class: "x", Metric: "m", Attrs: []string{"f", "g"}, Score: 0.15184340208190175}
	near := core.Insight{Class: "x", Metric: "m", Attrs: []string{"p", "q"}, Score: 0.41918921936329623}
	far := core.Insight{Class: "x", Metric: "m", Attrs: []string{"r", "s"}, Score: 0.4191892193632963}
	sNear, sFar := Similarity(focus, near), Similarity(focus, far)
	if !(far.Score > near.Score && sFar > sNear) {
		t.Fatalf("no rounding bump: similarity %v at %v, %v at %v", sNear, near.Score, sFar, far.Score)
	}
	top := newTopRanked(1, nearer)
	top.Offer(ranked{&core.Insight{Class: "y"}, sFar, "y"})
	offerNear(top, focus, handView(near, far), true, 1)
	if got := insightsOf(top); len(got) != 1 || got[0].Key() != far.Key() {
		t.Errorf("nearest %v, want %s", got, far.Key())
	}
}

// TestBlendTiesKeepGoing: two strengths one ulp apart can blend to the
// same value. The weaker then wins on key, so the carousel must offer
// it although it comes after the kth insight of relevance 0.
func TestBlendTiesKeepGoing(t *testing.T) {
	const blend = 0.3
	hi, lo := 0.9, math.Nextafter(0.9, 0)
	for hi*blend != lo*blend {
		hi, lo = lo, math.Nextafter(lo, 0)
	}
	head := core.Insight{Class: "x", Metric: "m", Attrs: []string{"c"}, Score: 1}
	strong := core.Insight{Class: "x", Metric: "m", Attrs: []string{"b"}, Score: hi}
	weak := core.Insight{Class: "x", Metric: "m", Attrs: []string{"a"}, Score: lo}
	s := &Session{Focus: []core.Insight{{Attrs: []string{"f"}}}, Blend: blend}
	got := s.blendFocused(handView(head, strong, weak), 2, blend, []string{"f"})
	if len(got) != 2 || got[0].Key() != head.Key() || got[1].Key() != weak.Key() {
		t.Errorf("carousel %v, want %s then %s", got, head.Key(), weak.Key())
	}
}

// TestReadersStayInRange: the focused carousel and the neighborhood
// read only the part of a view their ranking covers — not the insights
// a negative score keeps out of a whole-class read — even when those
// hold a focus attribute.
func TestReadersStayInRange(t *testing.T) {
	r := handView(
		core.Insight{Class: "x", Metric: "m", Attrs: []string{"f", "a"}, Score: 0.9},
		core.Insight{Class: "x", Metric: "m", Attrs: []string{"b"}, Score: 0.5},
		core.Insight{Class: "x", Metric: "m", Attrs: []string{"f", "c"}, Score: -0.2},
	)
	r.ins = r.ins[:2]
	focus := core.Insight{Class: "x", Metric: "m", Attrs: []string{"f"}, Score: 0.4}
	s := &Session{Focus: []core.Insight{focus}, Blend: 0.5}
	for _, own := range []bool{false, true} {
		top := newTopRanked(0, nearer)
		offerNear(top, focus, r, own, 0)
		if got := insightsOf(top); len(got) != 2 {
			t.Errorf("own=%v: %d neighbors, want the 2 the ranking covers", own, len(got))
		}
	}
	if got := s.blendFocused(r, 0, 0.5, focus.Attrs); len(got) != 2 {
		t.Errorf("carousel of %d, want the 2 the ranking covers", len(got))
	}
}

// TestIndexConcurrentFirstReads: the first reads of fresh views, from
// several goroutines at once, build each attribute index once and
// answer as the scans do (run with -race).
func TestIndexConcurrentFirstReads(t *testing.T) {
	ctx := context.Background()
	f := testFrame(300, 5)
	// Two engines with every class's view: one answers by the scans, the
	// other concurrently by the index.
	warm := func() (*Engine, []Result) {
		e, err := NewEngine(f, core.NewRegistry(), nil)
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.ExecuteContext(ctx, Query{})
		if err != nil {
			t.Fatal(err)
		}
		return e, res
	}
	scanned, res := warm()
	indexed, _ := warm()
	focus := res[0].Insights[1]
	reads := []func(e *Engine, scan bool) (any, error){
		func(e *Engine, scan bool) (any, error) {
			q := Query{Fixed: focus.Attrs[:1], K: 3}
			if scan {
				q.keep = func([]string) bool { return true }
			}
			return e.ExecuteContext(ctx, q)
		},
		func(e *Engine, scan bool) (any, error) {
			s := NewSession(e, 5, false)
			s.FocusOn(focus)
			if scan {
				return scanRecommendations(ctx, s, 5)
			}
			return s.RecommendationsKContext(ctx, 5)
		},
		func(e *Engine, scan bool) (any, error) {
			if scan {
				return scanNeighborhood(ctx, e, focus, nil, 10, false)
			}
			return e.NeighborhoodContext(ctx, focus, nil, 10, false)
		},
	}
	want := make([]any, len(reads))
	for j, read := range reads {
		var err error
		if want[j], err = read(scanned, true); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for c := 0; c < 2*len(reads); c++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			got, err := reads[j](indexed, false)
			if err != nil {
				t.Error(err)
				return
			}
			if fmt.Sprint(got) != fmt.Sprint(want[j]) {
				t.Errorf("read %d: %v, want %v", j, got, want[j])
			}
		}(c % len(reads))
	}
	wg.Wait()
}
