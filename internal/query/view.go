package query

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"sort"
	"sync"

	"foresight/internal/core"
	"foresight/internal/obs"
	"foresight/internal/obs/telemetry"
)

// This file implements the class view: the ranking of one whole class,
// kept for the rest of its generation. The memo (cache.go) makes a
// repeated request cheap per candidate; at "attributes in the
// hundreds" a class has tens of thousands of candidates, and every
// carousel, neighborhood and overview still re-keyed, re-copied and
// re-sorted all of them. A view is that work done once: it is built by
// the first request that needs the whole class, from the slots the
// ordinary scoring pass returns, and every later whole-class read of
// the generation is a slice of it.
//
// A view lives in scoreCache under the memo's mutex and generation
// stamp and dies in the same invalidate(), so it needs no size knob
// and no eviction: there are at most classes × metrics × 2 of them,
// each as large as its class. A request whose snapshot is no longer
// live neither reads nor publishes one, exactly like the memo.

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
	// sample is the telemetry of emitting the whole ranking.
	sample telemetry.ClassSample
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
		// Otherwise nil, which an overview encodes as null.
		v.ranked = make([]core.Insight, 0, defined)
		v.keys = make([]string, 0, defined)
	}
	for _, in := range scored {
		if !math.IsNaN(in.Score) {
			v.ranked = append(v.ranked, in)
			v.keys = append(v.keys, in.Key())
		}
	}
	sort.Sort(byRank{v})
	v.sample = classSample(c.Name(), len(cands), 0, len(cands)-defined, v.ranked, math.NaN())
	if c.Arity() <= 2 {
		v.overview = assembleOverview(c, metric, cands, scored, v.ranked)
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

// overviewJSON returns what json.Encoder writes for v.overview,
// encoded once per view.
func (v *classView) overviewJSON() ([]byte, error) {
	v.encode.Do(func() {
		var buf bytes.Buffer
		v.bodyErr = json.NewEncoder(&buf).Encode(v.overview)
		v.body = buf.Bytes()
	})
	return v.body, v.bodyErr
}

// view returns the view the live generation gen holds for k, or nil.
// Serving a class from its view stands for one memo hit per candidate,
// which keeps the hit ratio meaning "scored before".
func (sc *scoreCache) view(gen uint64, k viewKey) *classView {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.gen != gen {
		return nil
	}
	v := sc.views[k]
	if v != nil {
		sc.hits += uint64(v.candidates)
	}
	return v
}

// hasView reports, without reading it, whether gen holds a view for k.
func (sc *scoreCache) hasView(gen uint64, k viewKey) bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.gen == gen && sc.views[k] != nil
}

// publishView keeps v as generation gen's view for k and returns the
// view to use: v itself, or the one a concurrent request published
// first. A generation that is no longer live keeps nothing.
func (sc *scoreCache) publishView(gen uint64, k viewKey, v *classView) *classView {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.gen != gen {
		return v
	}
	if first, ok := sc.views[k]; ok {
		return first
	}
	sc.views[k] = v
	return v
}

// viewOf returns the view of class c under the resolved metric. When
// the generation holds none and build is set, it scores every
// candidate through scorePass with nothing to prune against — so the
// memo, the singleflight map, the worker pool, cancellation and the
// stale-generation rule all apply as to any other pass — ranks the
// result and publishes it; without build it returns nil. An error
// (cancellation) leaves no view behind, only the memoized scores the
// retry starts from.
func (e *Engine) viewOf(ctx context.Context, tr *obs.Trace, snap snapshot, c core.Class, metric string, approx, build bool) (*classView, error) {
	key := viewKey{class: c.Name(), metric: metric, approx: approx}
	if v := e.cache.view(snap.gen, key); v != nil || !build {
		return v, nil
	}
	endEnum := tr.StartSpan("enumerate:" + key.class)
	cands := c.Candidates(snap.frame)
	endEnum()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	endScore := tr.StartSpan("score:" + key.class)
	scored, _, err := e.scorePass(ctx, snap, c, cands, approx, metric, 0, 0, math.Inf(1))
	endScore()
	if err != nil {
		return nil, err
	}
	defer tr.StartSpan("view:" + key.class)()
	return e.cache.publishView(snap.gen, key, newClassView(c, metric, cands, scored)), nil
}
