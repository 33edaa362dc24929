package query

import (
	"cmp"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"

	"foresight/internal/core"
)

// This file implements the class view: the ranking of one whole class,
// kept for the rest of its generation. At "attributes in the hundreds"
// a class has tens of thousands of candidates, and every carousel,
// neighborhood and overview would copy and re-sort all their slots. A
// view is that work done once, and scoreClass (query.go) alone builds
// and reads views: the first whole-class pass of a generation that
// prunes nothing, at any K, publishes one, and every later whole-class
// read of the generation is a slice of it. The reads that want only the
// tuples holding given attributes map the table's postings through the
// view's ranks. A view dies with its generation, so it needs no knob
// and no eviction; a cancelled pass publishes none.

// viewKey names a view, or a column: a class under a resolved metric
// on the exact or the approximate backend.
type viewKey struct {
	class  string
	metric string
	approx bool
}

// classView is one fully scored class: a permutation of its table's
// positions with their insights. Everything in it is immutable once
// published and shared by every reader of the generation.
type classView struct {
	t *table
	// ranked holds every candidate with a defined (non-NaN) score in
	// core.SortInsights order; order[i] is ranked[i]'s position in t,
	// and rank[p] the index in ranked of position p, -1 when its score
	// is undefined or its scoring failed.
	ranked []core.Insight
	order  []int32
	rank   []int32
	// overview is the class's global view; nil for arity 3. Its JSON
	// encoding is produced on first use.
	overview *Overview
	encode   sync.Once
	body     []byte
	bodyErr  error
}

// newClassView ranks the slots scorePass returned for every position of
// t (no pruning, so a slot is skipped only if its scoring errored).
// Within one class and metric, Key() order is the order of t's keys.
func newClassView(t *table, scored []core.Insight) *classView {
	v := &classView{t: t, order: make([]int32, 0, len(scored)), rank: make([]int32, len(scored))}
	for p := range scored {
		v.rank[p] = -1
		if !math.IsNaN(scored[p].Score) {
			v.order = append(v.order, int32(p))
		}
	}
	slices.SortFunc(v.order, func(a, b int32) int {
		if x, y := scored[a].Score, scored[b].Score; x != y {
			return cmp.Compare(y, x)
		}
		return strings.Compare(t.keys[a], t.keys[b])
	})
	v.ranked = make([]core.Insight, len(v.order))
	for i, p := range v.order {
		v.ranked[i], v.rank[p] = scored[p], int32(i)
	}
	return v
}

// key returns the table key of ranked[i].
func (v *classView) key(i int) string { return v.t.keys[v.order[i]] }

// scoreRange returns the bounds of the insights whose score lies in
// [minScore, maxScore]: ranked is ordered by descending score, so a
// strength filter keeps one contiguous run of it.
func (v *classView) scoreRange(minScore, maxScore float64) (lo, hi int) {
	lo = sort.Search(len(v.ranked), func(i int) bool { return !(v.ranked[i].Score > maxScore) })
	hi = lo + sort.Search(len(v.ranked)-lo, func(i int) bool { return v.ranked[lo+i].Score < minScore })
	return lo, hi
}

// eachHolding calls fn, once each, with the index in ranked[lo:hi] of
// every insight that holds one of attrs: those whose attribute Jaccard
// overlap with a tuple of attrs is above 0.
func (v *classView) eachHolding(attrs []string, lo, hi int, fn func(i int)) {
	for j, a := range attrs {
		for _, p := range v.t.postings[a] {
			if i := int(v.rank[p]); i >= lo && i < hi && !holdsAny(v.t.tuples[p], attrs[:j]) {
				fn(i)
			}
		}
	}
}

// holdsAny reports whether attrs holds one of these.
func holdsAny(attrs, these []string) bool {
	return slices.ContainsFunc(attrs, func(a string) bool { return slices.Contains(these, a) })
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
