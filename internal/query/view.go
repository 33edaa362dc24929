package query

import (
	"math"
	"slices"
	"sort"
	"sync"

	"foresight/internal/core"
)

// This file implements the class view: the ranking of one whole class,
// kept for the rest of its generation. The memo (cache.go) makes a
// repeated request cheap per candidate; at "attributes in the
// hundreds" a class has tens of thousands of candidates, and every
// carousel, neighborhood and overview still re-keyed, re-copied and
// re-sorted all of them. A view is that work done once. scoreClass
// (query.go) alone builds and reads views: the first whole-class pass
// of a generation that prunes nothing, at any K, publishes the view
// from the slots it scored, and every later whole-class read of the
// generation is a slice of it. The reads that want only the tuples
// holding given attributes — a fix= query, a focused carousel, a
// neighborhood — find them through the view's attribute index
// (holding), built by the first of them.
//
// A view lives in its generation beside the memo, under the same mutex,
// and is dropped with it, so it needs no size knob and no eviction:
// there are at most classes × metrics × 2 of them, each as large as its
// class. A pass cancelled mid-scoring publishes nothing, and leaves only
// the memoized scores its retry starts from.

// viewKey names a view: a class under a resolved metric on the exact
// or the approximate backend.
type viewKey struct {
	class  string
	metric string
	approx bool
}

// classView is one fully scored class. Everything in it is immutable
// once published and shared by every reader of the generation.
type classView struct {
	// candidates is the number of candidate tuples the class has.
	candidates int
	// ranked holds every candidate with a defined (non-NaN) score in
	// core.SortInsights order; keys[i] is ranked[i].Key().
	ranked []core.Insight
	keys   []string
	// undefined holds the candidate tuples ranked leaves out, those
	// whose score is undefined or whose scoring failed: a fixed-attribute
	// read still counts them.
	undefined [][]string
	// postings maps each attribute to the ascending positions in ranked
	// of the insights that hold it, built on first use (holding).
	index    sync.Once
	postings map[string][]int32
	// overview is the class's global view; nil for arity 3. Its JSON
	// encoding is produced on first use.
	overview *Overview
	encode   sync.Once
	body     []byte
	bodyErr  error
}

// byRank sorts a view's insights and keys together by descending
// score, ties by ascending key — core.SortInsights order.
type byRank struct{ v *classView }

func (s byRank) Len() int { return len(s.v.ranked) }
func (s byRank) Less(i, j int) bool {
	if a, b := s.v.ranked[i].Score, s.v.ranked[j].Score; a != b {
		return a > b
	}
	return s.v.keys[i] < s.v.keys[j]
}
func (s byRank) Swap(i, j int) {
	s.v.ranked[i], s.v.ranked[j] = s.v.ranked[j], s.v.ranked[i]
	s.v.keys[i], s.v.keys[j] = s.v.keys[j], s.v.keys[i]
}

// newClassView ranks the slots scorePass returned for every candidate
// of c (no pruning, so a slot is skipped only if its scoring errored).
func newClassView(c core.Class, metric string, cands [][]string, scored []core.Insight) *classView {
	defined := 0
	for i := range scored {
		if !math.IsNaN(scored[i].Score) {
			defined++
		}
	}
	v := &classView{candidates: len(cands)}
	if defined > 0 {
		v.ranked = make([]core.Insight, 0, defined)
		v.keys = make([]string, 0, defined)
	}
	for i, in := range scored {
		if math.IsNaN(in.Score) {
			v.undefined = append(v.undefined, cands[i])
			continue
		}
		v.ranked = append(v.ranked, in)
		v.keys = append(v.keys, in.Key())
	}
	sort.Sort(byRank{v})
	if c.Arity() <= 2 {
		v.overview = assembleOverview(c, metric, cands, scored)
	}
	return v
}

// scoreRange returns the bounds of the insights whose score lies in
// [minScore, maxScore]: ranked is ordered by descending score, so a
// strength filter keeps one contiguous run of it.
func (v *classView) scoreRange(minScore, maxScore float64) (lo, hi int) {
	lo = sort.Search(len(v.ranked), func(i int) bool { return !(v.ranked[i].Score > maxScore) })
	hi = lo + sort.Search(len(v.ranked)-lo, func(i int) bool { return v.ranked[lo+i].Score < minScore })
	return lo, hi
}

// holding returns the ascending positions in ranked of the insights
// that hold attr. The first call indexes the whole view; a view that
// is never asked by attribute never builds the index.
func (v *classView) holding(attr string) []int32 {
	v.index.Do(func() {
		v.postings = make(map[string][]int32)
		for i := range v.ranked {
			attrs := v.ranked[i].Attrs
			for j, a := range attrs {
				if !slices.Contains(attrs[:j], a) {
					v.postings[a] = append(v.postings[a], int32(i))
				}
			}
		}
	})
	return v.postings[attr]
}

// holdingAny returns the ascending positions in [lo, hi) of the
// insights that hold at least one of attrs: those whose attribute
// Jaccard overlap with a tuple of attrs is above 0.
func (v *classView) holdingAny(attrs []string, lo, hi int) []int32 {
	var out []int32
	for _, a := range attrs {
		l := v.holding(a)
		from, _ := slices.BinarySearch(l, int32(lo))
		to, _ := slices.BinarySearch(l, int32(hi))
		out = append(out, l[from:to]...)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// holds reports whether the ascending positions near include p.
func holds(near []int32, p int) bool {
	_, ok := slices.BinarySearch(near, int32(p))
	return ok
}

// overviewJSON returns what json.Encoder writes for v.overview,
// encoded once per view.
func (v *classView) overviewJSON() ([]byte, error) {
	v.encode.Do(func() {
		v.body, v.bodyErr = v.overview.MarshalJSON()
		v.body = append(v.body, '\n')
	})
	return v.body, v.bodyErr
}

// view returns the view g holds for k, or nil.
func (g *generation) view(k viewKey) *classView {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.views[k]
}

// publishView keeps v as g's view for k and returns the view to use: v
// itself, or the one a concurrent request published first.
func (g *generation) publishView(k viewKey, v *classView) *classView {
	g.mu.Lock()
	defer g.mu.Unlock()
	if first, ok := g.views[k]; ok {
		return first
	}
	g.views[k] = v
	return v
}
