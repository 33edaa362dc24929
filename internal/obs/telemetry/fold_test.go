package telemetry

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"foresight/internal/stats"
)

// TestWeightedFoldMatchesRequestMultiset records kept samples (a class
// view's whole ranking, folded once per drain with its request count as
// a weight) beside plain ones from several goroutines while another
// snapshots, and holds the final snapshot to the exact multiset of
// every score and attribute the requests emitted, each as often as it
// was recorded: counters exact, every reported quantile within
// score_rank_error of its rank, every hot column and tuple bracketed
// (count − err ≤ true ≤ count), and a class whose trackers never evict
// reporting every item with its exact count. Run it under -race.
func TestWeightedFoldMatchesRequestMultiset(t *testing.T) {
	ins := New()
	rng := rand.New(rand.NewSource(9))
	emission := func(class string, n, cols int) ClassSample {
		s := ClassSample{Class: class, Candidates: n + 3, Filtered: 3, Emitted: n, Margin: 0.01}
		for i := 0; i < n; i++ {
			a, b := rng.Intn(cols), rng.Intn(cols)
			for b == a {
				b = rng.Intn(cols)
			}
			s.Scores = append(s.Scores, rng.Float64()*rng.Float64())
			s.Attrs = append(s.Attrs, []string{fmt.Sprintf("c%02d", min(a, b)), fmt.Sprintf("c%02d", max(a, b))})
		}
		return s
	}
	// Two classes: "wide" has a kept view of 3000 pairs over 40 columns
	// and plain top-5 samples beside it, so its trackers evict; "narrow"
	// spans 4 columns (6 pairs), so none of its trackers ever evicts.
	samples := []ClassSample{
		Keep(emission("wide", 3000, 40)),
		emission("wide", 5, 40),
		emission("wide", 5, 40),
		Keep(emission("narrow", 12, 4)),
		emission("narrow", 3, 4),
	}
	samples[0].Margin = math.NaN() // a view's whole ranking truncates nothing

	const writers, records = 4, 150
	counts := make([]atomic.Uint64, len(samples))
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < records; i++ {
				// One request reads one or two classes.
				pick := []int{r.Intn(len(samples))}
				if r.Intn(2) == 0 {
					pick = append(pick, r.Intn(len(samples)))
				}
				q := QuerySample{Op: "carousels", Generation: 1}
				for _, p := range pick {
					q.Classes = append(q.Classes, samples[p])
					counts[p].Add(1)
				}
				ins.Record(q)
			}
		}(int64(w))
	}
	stop := make(chan struct{})
	snapped := make(chan struct{})
	go func() {
		defer close(snapped)
		for {
			select {
			case <-stop:
				return
			default:
				_ = ins.Snapshot(1, topItems)
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-snapped
	snap := ins.Snapshot(1, topItems)

	type truth struct {
		queries, cands, filtered, emitted uint64
		scores                            []float64
		cols, tuples                      map[string]uint64
	}
	want := map[string]*truth{}
	for i, s := range samples {
		w := counts[i].Load()
		tr := want[s.Class]
		if tr == nil {
			tr = &truth{cols: map[string]uint64{}, tuples: map[string]uint64{}}
			want[s.Class] = tr
		}
		tr.queries += w
		tr.cands += w * uint64(s.Candidates)
		tr.filtered += w * uint64(s.Filtered)
		tr.emitted += w * uint64(s.Emitted)
		for j := uint64(0); j < w; j++ {
			tr.scores = append(tr.scores, s.Scores...)
		}
		for _, attrs := range s.Attrs {
			for _, a := range attrs {
				tr.cols[a] += w
			}
			tr.tuples[attrs[0]+","+attrs[1]] += w
		}
	}
	if len(snap.Classes) != len(want) {
		t.Fatalf("snapshot has %d classes, want %d", len(snap.Classes), len(want))
	}
	eps := snap.ScoreRankError
	for _, cs := range snap.Classes {
		tr := want[cs.Class]
		if cs.Queries != tr.queries || cs.Candidates != tr.cands || cs.Filtered != tr.filtered || cs.Emitted != tr.emitted {
			t.Errorf("%s counters: %+v, want queries %d candidates %d filtered %d emitted %d",
				cs.Class, cs, tr.queries, tr.cands, tr.filtered, tr.emitted)
		}
		if cs.ScoreCount != uint64(len(tr.scores)) {
			t.Errorf("%s: %d scores sketched, %d emitted", cs.Class, cs.ScoreCount, len(tr.scores))
		}
		sort.Float64s(tr.scores)
		for key, q := range map[string]float64{"p50": 0.5, "p90": 0.9, "p99": 0.99} {
			lo := stats.QuantileSorted(tr.scores, max(0, q-eps))
			hi := stats.QuantileSorted(tr.scores, min(1, q+eps))
			if got := cs.Quantiles[key]; got < lo || got > hi {
				t.Errorf("%s %s = %v outside the exact rank band [%v, %v] (ε=%v)", cs.Class, key, got, lo, hi, eps)
			}
		}
		exact := cs.Class == "narrow"
		for _, hot := range []struct {
			what  string
			items []HotItem
			truth map[string]uint64
		}{{"column", cs.HotColumns, tr.cols}, {"tuple", cs.HotTuples, tr.tuples}} {
			for _, h := range hot.items {
				if n := hot.truth[h.Item]; n > h.Count || n < h.Count-h.Err {
					t.Errorf("%s %s %s: true count %d outside [%d, %d]", cs.Class, hot.what, h.Item, n, h.Count-h.Err, h.Count)
				}
				if exact && (h.Err != 0 || h.Count != hot.truth[h.Item]) {
					t.Errorf("%s %s %s: count %d err %d, want exactly %d", cs.Class, hot.what, h.Item, h.Count, h.Err, hot.truth[h.Item])
				}
			}
			if exact && len(hot.items) != len(hot.truth) {
				t.Errorf("%s: %d hot %ss reported, %d emitted", cs.Class, len(hot.items), hot.what, len(hot.truth))
			}
		}
	}
}

// TestKeptSampleFoldsOncePerDrain: however many requests emit a kept
// sample between two snapshots, its sketches fold in one weighted
// merge, so a class whose trackers never evict reports exact counts.
func TestKeptSampleFoldsOncePerDrain(t *testing.T) {
	s := Keep(ClassSample{Class: "linear", Scores: []float64{0.1, 0.5, 0.9}, Attrs: [][]string{{"a", "b"}, {"a", "c"}, {"b", "c"}},
		Candidates: 3, Emitted: 3, Margin: math.NaN()})
	ins := New()
	for i := 0; i < 37; i++ {
		ins.Record(QuerySample{Op: "overview", Generation: 1, Classes: []ClassSample{s}})
	}
	cs := ins.Snapshot(1, 5).Classes[0]
	if cs.Queries != 37 || cs.ScoreCount != 3*37 || cs.Emitted != 3*37 {
		t.Fatalf("after 37 records: %+v", cs)
	}
	for _, h := range append(cs.HotColumns, cs.HotTuples...) {
		want := uint64(37)
		if !strings.Contains(h.Item, ",") {
			want = 2 * 37
		}
		if h.Count != want || h.Err != 0 {
			t.Errorf("%s: count %d err %d, want %d exactly", h.Item, h.Count, h.Err, want)
		}
	}
}
