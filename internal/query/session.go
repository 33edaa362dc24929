package query

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"foresight/internal/core"
	"foresight/internal/obs"
)

// Similarity returns a [0,1] similarity between two insights,
// implementing §2.1: "Two insights can be considered similar if their
// metric scores are similar or if the sets of fixed attributes are
// similar." It blends attribute-set Jaccard overlap with score
// proximity; same-class pairs get full weight on both terms,
// cross-class pairs are compared on attributes only.
func Similarity(a, b core.Insight) float64 {
	jac := jaccard(a.Attrs, b.Attrs)
	if a.Class != b.Class || a.Metric != b.Metric {
		return jac
	}
	scoreProx := 0.0
	den := math.Max(math.Abs(a.Score), math.Abs(b.Score))
	if den > 0 {
		scoreProx = 1 - math.Abs(a.Score-b.Score)/den
		if scoreProx < 0 {
			scoreProx = 0
		}
	} else if a.Score == b.Score {
		scoreProx = 1
	}
	return 0.5*jac + 0.5*scoreProx
}

// jaccard is |a ∩ b| / |a ∪ b| over attribute tuples (1 for two empty
// ones). Tuples hold at most three attributes, so membership is a
// scan, not a set.
func jaccard(a, b []string) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1
	}
	union := 0
	for i, s := range a {
		if !slices.Contains(a[:i], s) {
			union++
		}
	}
	inter := 0
	for _, s := range b {
		if slices.Contains(a, s) {
			inter++
		} else {
			union++
		}
	}
	return float64(inter) / float64(union)
}

// NeighborhoodContext returns the k insights most similar to focus
// across the given classes (empty = all), excluding focus itself. This
// is the second-level exploration of §2: "look at nearby insights". A
// trace on ctx records the classes' spans plus a similarity-ranking
// span.
//
// Across classes similarity is attribute Jaccard alone. So a class read
// whole — one with a view, the focus's own (class, metric), or any when
// k ≤ 0 (no cut) — is read from its view (offerNear); the rest are
// walked by Jaccard level, highest first, one top-k pass a level, until
// the kth neighbor is more similar than the next level. The telemetry
// records, per class, the neighbors it returns and the counts of the
// passes that produced them.
func (e *Engine) NeighborhoodContext(ctx context.Context, focus core.Insight, classes []string, k int, approx bool) ([]core.Insight, error) {
	defer e.observeOp("neighborhood", time.Now())
	rq, err := e.begin(ctx, Query{Classes: classes, Approx: approx})
	if err != nil {
		return nil, err
	}
	top := newTopRanked(k, nearer)
	counts := make([]passCounts, len(rq.classes))
	var walk []int
	for i, c := range rq.classes {
		if err := ctx.Err(); err != nil {
			return nil, e.noteCancel(err)
		}
		own := c.Name() == focus.Class && rq.metrics[i] == focus.Metric
		if !own && k > 0 && rq.g.view(viewKey{c.Name(), rq.metrics[i], approx}) == nil {
			walk = append(walk, i)
			continue
		}
		r, err := e.scoreClass(ctx, rq.tr, rq.g, c, Query{Approx: approx}, rq.metrics[i], rq.maxScore)
		if err != nil {
			return nil, e.noteCancel(err)
		}
		counts[i] = r.counts
		offerNear(top, focus, r, own, k)
	}

	// A level's candidates tie on similarity, so the class's top k of a
	// level is all of it that can place. The counts sum the passes. The
	// focus is not in a walked class: it is not the focus's own.
	for _, i := range walk {
		c := rq.classes[i]
		t := rq.g.column(c, rq.metrics[i], approx).t
		var levels []float64
		for _, attrs := range t.tuples {
			if l := jaccard(focus.Attrs, attrs); !slices.Contains(levels, l) {
				levels = append(levels, l)
			}
		}
		slices.Sort(levels)
		for l := len(levels) - 1; l >= 0; l-- {
			if kth, ok := top.Kth(); ok && kth.score > levels[l] {
				break
			}
			at := levels[l]
			q := Query{Approx: approx, K: k, keep: func(attrs []string) bool { return jaccard(focus.Attrs, attrs) == at }}
			r, err := e.scoreClass(ctx, rq.tr, rq.g, c, q, rq.metrics[i], rq.maxScore)
			if err != nil {
				return nil, e.noteCancel(err)
			}
			for j := range r.ins {
				top.Offer(ranked{&r.ins[j], Similarity(focus, r.ins[j])})
			}
			counts[i].candidates += r.counts.candidates
			counts[i].pruned += r.counts.pruned
			counts[i].filtered += r.counts.filtered
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, e.noteCancel(err)
	}
	defer obs.StartSpan(ctx, "similarity")()
	out := insightsOf(top)
	rq.noteNeighbors(counts, out)
	rq.record("neighborhood")
	return out, nil
}

// noteNeighbors notes, class by class, the neighbors in out that the
// class gave and the counts of its passes; similarity ranks no class by
// strength, so there is no margin.
func (rq *request) noteNeighbors(counts []passCounts, out []core.Insight) {
	if rq.telem == nil {
		return
	}
	for i, c := range rq.classes {
		var mine []core.Insight
		for _, in := range out {
			if in.Class == c.Name() {
				mine = append(mine, in)
			}
		}
		rq.note(c.Name(), counts[i], mine, math.NaN())
	}
}

// nearer is the neighborhood's order: similarity desc, then strength
// desc, then Key().
func nearer(a, b ranked) bool {
	if a.score != b.score {
		return a.score > b.score
	}
	if a.in.Score != b.in.Score {
		return a.in.Score > b.in.Score
	}
	return core.KeyLess(a.in, b.in)
}

// simSlack bounds how far rounding can lift Similarity above its exact
// value on a tuple that shares no attribute with the focus (DESIGN
// §7.6): 0.5·(1 − |a−b|/den) rounds three times, to within 2u of its
// exact value, u = 2⁻⁵³. A tuple farther from the focus's score is
// exactly no more similar, so it computes at most 4u above a nearer
// one; 8u leaves room for the rounding of the sum itself.
const simSlack = 0x1p-50

// offerNear offers top the insights of r — a class read whole from its
// view — that can still rank among the k nearest to focus; with k ≤ 0,
// all of them. Those sharing an attribute with the focus come from the
// table's postings. The rest have Jaccard 0. In another class
// their similarity is 0, so they rank in view order and only the first
// k can place. In the focus's own (class, metric) it is 0.5·proximity,
// which falls with the distance from the focus's score on either side
// of it: each side is walked outward until the next similarity, lifted
// by simSlack, is strictly below the kth.
func offerNear(top *core.KBest[ranked], focus core.Insight, r ranking, own bool, k int) {
	v, lo, hi := r.view, r.from, r.from+len(r.ins)
	focusKey := strings.Join(focus.Attrs, ",")
	offer := func(p int) bool {
		if own && v.key(p) == focusKey {
			return false
		}
		top.Offer(ranked{&v.ranked[p], Similarity(focus, v.ranked[p])})
		return true
	}
	v.eachHolding(focus.Attrs, lo, hi, func(p int) { offer(p) })
	if !own {
		for p, n := lo, 0; p < hi && (k <= 0 || n < k); p++ {
			if !holdsAny(v.ranked[p].Attrs, focus.Attrs) && offer(p) {
				n++
			}
		}
		return
	}
	outward := func(p, end, step int) {
		for ; p != end; p += step {
			if holdsAny(v.ranked[p].Attrs, focus.Attrs) {
				continue
			}
			if kth, ok := top.Kth(); ok && Similarity(focus, v.ranked[p])+simSlack < kth.score {
				return
			}
			offer(p)
		}
	}
	// Above mid the scores exceed the focus's, from mid on they do not.
	mid := lo + sort.Search(hi-lo, func(i int) bool { return !(v.ranked[lo+i].Score > focus.Score) })
	outward(mid-1, lo-1, -1)
	outward(mid, hi, 1)
}

// ranked is an insight with what a rank stage orders it by first — a
// score (similarity to the focus, or blended strength) — computed once
// per insight rather than per comparison; ties break by Key().
type ranked struct {
	in    *core.Insight
	score float64
}

// newTopRanked selects the k first insights offered under before (all
// of them, sorted, when k ≤ 0). before must be a total order — keys are
// unique, so ending on the key makes it one — which is what makes the
// O(n log k) selection equal to sorting and truncating.
func newTopRanked(k int, before func(a, b ranked) bool) *core.KBest[ranked] {
	if k <= 0 {
		k = math.MaxInt
	}
	return core.NewKBest(k, before)
}

// insightsOf copies the selected insights out in rank order.
func insightsOf(top *core.KBest[ranked]) []core.Insight {
	sorted := top.Sorted()
	out := make([]core.Insight, len(sorted))
	for i, r := range sorted {
		out[i] = *r.in
	}
	return out
}

// Session is one analyst's exploration state (§4.1): the set of
// focused insights, plus the parameters of the current view. As
// insights are focused, RecommendationsKContext re-ranks every
// carousel to prefer the neighborhood of the focus set. Sessions
// serialize to JSON so they can be saved, revisited, and shared.
type Session struct {
	engine *Engine
	// Focus is the ordered list of focused insights.
	Focus []core.Insight `json:"focus"`
	// K is the carousel length (default 5).
	K int `json:"k"`
	// Approx selects sketch-based recommendations.
	Approx bool `json:"approx"`
	// Blend is the weight of raw strength vs focus relevance in
	// re-ranking (0..1; default 0.5). 1 = strength only.
	Blend float64 `json:"blend"`
}

// NewSession returns a session over the engine with carousel length k
// (5 when k ≤ 0).
func NewSession(e *Engine, k int, approx bool) *Session {
	if k <= 0 {
		k = 5
	}
	return &Session{engine: e, K: k, Approx: approx, Blend: 0.5}
}

// FocusOn adds an insight to the focus set (deduplicated by key).
func (s *Session) FocusOn(in core.Insight) {
	for _, f := range s.Focus {
		if f.Key() == in.Key() {
			return
		}
	}
	s.Focus = append(s.Focus, in)
}

// Unfocus removes an insight from the focus set by key; it reports
// whether anything was removed.
func (s *Session) Unfocus(key string) bool {
	for i, f := range s.Focus {
		if f.Key() == key {
			s.Focus = append(s.Focus[:i], s.Focus[i+1:]...)
			return true
		}
	}
	return false
}

// relevance is the maximum attribute overlap between attrs and any
// focused insight (0 when nothing is focused).
func (s *Session) relevance(attrs []string) float64 {
	best := 0.0
	for _, f := range s.Focus {
		if j := jaccard(f.Attrs, attrs); j > best {
			best = j
		}
	}
	return best
}

// RecommendationsKContext returns the current carousels, k insights
// long (the session's own length is s.K): per class, the top k
// insights ranked by blended score strength·(Blend + (1−Blend)·
// relevance-to-focus). With an empty focus set this is exactly the
// Figure-1 ranking. Normalization is per class: strengths are divided
// by the class maximum so the blend is scale-free.
//
// A Session is not itself synchronized, but this method only reads
// session state, so callers that serialize mutations (FocusOn,
// Unfocus, field writes) behind a write lock may run any number of
// calls under read locks concurrently — the engine underneath is fully
// concurrent. A trace on ctx records the engine's spans plus the blend
// re-ranking span. The underlying scoring pass is labeled "carousels"
// in the engine metrics and telemetry — this is the carousel view's
// serving path.
func (s *Session) RecommendationsKContext(ctx context.Context, k int) ([]Result, error) {
	// The query constrains nothing. Without a focus to re-rank by, a
	// carousel is each class's top k, which a class that can prune ranks
	// without scoring it whole. A focused one reads each class whole, in
	// place from its view, with only the carousels copied out.
	q := Query{Approx: s.Approx}
	if len(s.Focus) == 0 {
		q.K = k
	}
	rq, rs, err := s.engine.executeOp(ctx, q, "carousels")
	if err != nil {
		return nil, err
	}
	defer obs.StartSpan(ctx, "blend")()
	blend := s.Blend
	if blend <= 0 || blend > 1 {
		blend = 0.5
	}
	var focusAttrs []string
	for _, f := range s.Focus {
		focusAttrs = append(focusAttrs, f.Attrs...)
	}
	out := make([]Result, 0, len(rs))
	for _, r := range rs {
		var carousel []core.Insight
		margin := math.NaN()
		if len(s.Focus) > 0 && len(r.ins) > 0 && r.ins[0].Score > 0 {
			carousel = s.blendFocused(r, k, blend, focusAttrs)
		} else {
			// Already ranked by strength: the carousel is its head.
			carousel, margin = r.head(k)
			carousel = slices.Clone(carousel)
		}
		rq.note(r.class, r.counts, carousel, margin)
		if len(carousel) > 0 {
			out = append(out, Result{Class: r.class, Metric: r.metric, Insights: carousel})
		}
	}
	rq.record("carousels")
	return out, nil
}

// blendFocused returns the carousel of r, a class read whole from its
// view, k long: its insights ranked by blended score desc, then key.
// Those holding one of focusAttrs come from the table's postings.
// The rest have relevance 0, so they blend to strength·blend, which
// does not rise in view order: past the kth of them, the first that
// blends strictly lower ends the class. Ties go on, because they break
// by key.
func (s *Session) blendFocused(r ranking, k int, blend float64, focusAttrs []string) []core.Insight {
	top := newTopRanked(k, func(a, b ranked) bool {
		if a.score != b.score {
			return a.score > b.score
		}
		return core.KeyLess(a.in, b.in)
	})
	v, lo, hi := r.view, r.from, r.from+len(r.ins)
	maxScore := r.ins[0].Score
	blended := func(p int) ranked {
		in := &v.ranked[p]
		return ranked{in, (in.Score / maxScore) * (blend + (1-blend)*s.relevance(in.Attrs))}
	}
	v.eachHolding(focusAttrs, lo, hi, func(p int) { top.Offer(blended(p)) })
	var last float64
	for p, n := lo, 0; p < hi; p++ {
		if holdsAny(v.ranked[p].Attrs, focusAttrs) {
			continue
		}
		x := blended(p)
		if k > 0 && n >= k && x.score < last {
			break
		}
		top.Offer(x)
		n, last = n+1, x.score
	}
	return insightsOf(top)
}

// sessionState is the serialized form of a Session.
type sessionState struct {
	Dataset string         `json:"dataset"`
	Focus   []core.Insight `json:"focus"`
	K       int            `json:"k"`
	Approx  bool           `json:"approx"`
	Blend   float64        `json:"blend"`
}

// Save serializes the session state ("our analyst saves the current
// Foresight state to revisit later and to share with her colleagues",
// §4.1).
func (s *Session) Save(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(sessionState{
		Dataset: s.engine.Frame().Name(),
		Focus:   s.Focus,
		K:       s.K,
		Approx:  s.Approx,
		Blend:   s.Blend,
	})
}

// LoadSession restores a session saved with Save onto an engine. The
// engine's dataset name must match the saved state.
func LoadSession(r io.Reader, e *Engine) (*Session, error) {
	var st sessionState
	if err := json.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("query: decoding session: %w", err)
	}
	if name := e.Frame().Name(); st.Dataset != name {
		return nil, fmt.Errorf("query: session is for dataset %q, engine has %q", st.Dataset, name)
	}
	s := NewSession(e, st.K, st.Approx)
	s.Focus = st.Focus
	if st.Blend > 0 && st.Blend <= 1 {
		s.Blend = st.Blend
	}
	return s, nil
}
