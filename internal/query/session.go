package query

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"foresight/internal/core"
	"foresight/internal/obs"
	"foresight/internal/obs/telemetry"
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

// Neighborhood returns the k insights most similar to focus across
// the given classes (empty = all), excluding focus itself. This is
// the second-level exploration of §2: "look at nearby insights".
func (e *Engine) Neighborhood(focus core.Insight, classes []string, k int, approx bool) ([]core.Insight, error) {
	return e.NeighborhoodContext(context.Background(), focus, classes, k, approx)
}

// NeighborhoodContext is Neighborhood with a context; a trace on ctx
// records the classes' spans plus a similarity-ranking span.
//
// Across classes similarity is attribute Jaccard alone. So a class read
// whole — one with a view, the focus's own (class, metric), or one
// whose pass could prune nothing (k ≤ 0 means no cut) — is one way;
// the rest are walked by Jaccard level, highest first, one top-k pass a
// level, until the kth neighbor is more similar than the next level.
func (e *Engine) NeighborhoodContext(ctx context.Context, focus core.Insight, classes []string, k int, approx bool) ([]core.Insight, error) {
	start := time.Now()
	defer e.observeOp("neighborhood", start)
	rq, err := e.begin(ctx, Query{Classes: classes, Approx: approx})
	if err != nil {
		return nil, err
	}
	// Similarity desc, then strength desc, then key.
	top := newTopRanked(k, func(a, b ranked) bool {
		if a.score != b.score {
			return a.score > b.score
		}
		if a.in.Score != b.in.Score {
			return a.in.Score > b.in.Score
		}
		return a.key < b.key
	})
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
		if err := ctx.Err(); err != nil {
			return nil, e.noteCancel(err)
		}
		own := c.Name() == focus.Class && rq.metrics[i] == focus.Metric
		if !own && prunes(c, rq.g, k, 0) && rq.g.view(viewKey{c.Name(), rq.metrics[i], approx}) == nil {
			walk = append(walk, i)
			continue
		}
		r, st, err := e.scoreClass(ctx, rq.tr, rq.g, c, Query{Approx: approx}, rq.metrics[i], rq.maxScore, rq.telem != nil)
		if err != nil {
			return nil, e.noteCancel(err)
		}
		rq.note(st)
		offer(r.ins, r.keys)
	}

	// A level's candidates tie on similarity, so the class's top k of a
	// level is all of it that can place. The sample sums the passes.
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
				return nil, e.noteCancel(err)
			}
			offer(r.ins, nil)
			st.Candidates, st.Pruned, st.Filtered = st.Candidates+part.Candidates, st.Pruned+part.Pruned, st.Filtered+part.Filtered
			st.Emitted, st.Scores, st.Attrs = st.Emitted+part.Emitted, append(st.Scores, part.Scores...), append(st.Attrs, part.Attrs...)
		}
		rq.note(st)
	}
	if err := ctx.Err(); err != nil {
		return nil, e.noteCancel(err)
	}
	rq.record("neighborhood", start)
	defer obs.StartSpan(ctx, "similarity")()
	return insightsOf(top), nil
}

// ranked is an insight with what a rank stage orders it by — a score
// (similarity to the focus, or blended strength) and, for ties, its
// key — each computed once per insight rather than per comparison.
type ranked struct {
	in    *core.Insight
	score float64
	key   string
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
// insights are focused, Recommendations re-ranks every carousel to
// prefer the neighborhood of the focus set. Sessions serialize to
// JSON so they can be saved, revisited, and shared.
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

// Engine returns the underlying engine.
func (s *Session) Engine() *Engine { return s.engine }

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

// Recommendations returns the current carousels: per class, the top-K
// insights ranked by blended score strength·(Blend + (1−Blend)·
// relevance-to-focus). With an empty focus set this is exactly the
// Figure-1 ranking. Normalization is per class: strengths are divided
// by the class maximum so the blend is scale-free.
func (s *Session) Recommendations() ([]Result, error) {
	return s.RecommendationsK(s.K)
}

// RecommendationsK is Recommendations with an explicit carousel
// length, leaving the session's K untouched. A Session is not itself
// synchronized, but this method only reads session state, so callers
// that serialize mutations (FocusOn, Unfocus, field writes) behind a
// write lock may run any number of RecommendationsK calls under read
// locks concurrently — the engine underneath is fully concurrent.
func (s *Session) RecommendationsK(k int) ([]Result, error) {
	return s.RecommendationsKContext(context.Background(), k)
}

// RecommendationsKContext is RecommendationsK with a context; a trace
// on ctx records the engine's spans plus the blend re-ranking span.
// The underlying scoring pass is labeled "carousels" in the engine
// metrics and telemetry — this is the carousel view's serving path.
func (s *Session) RecommendationsKContext(ctx context.Context, k int) ([]Result, error) {
	// The query constrains nothing, so a ranking is a class view, read
	// in place with only the carousels copied out — or, without a focus
	// to re-rank by, just the top k of a class that can prune.
	q := Query{Approx: s.Approx}
	if len(s.Focus) == 0 {
		q.top = k
	}
	rs, err := s.engine.executeOp(ctx, q, "carousels")
	if err != nil {
		return nil, err
	}
	defer obs.StartSpan(ctx, "blend")()
	blend := s.Blend
	if blend <= 0 || blend > 1 {
		blend = 0.5
	}
	out := make([]Result, 0, len(rs))
	for _, r := range rs {
		maxScore := r.ins[0].Score
		var carousel []core.Insight
		if len(s.Focus) > 0 && maxScore > 0 {
			// Blended score desc, then key.
			top := newTopRanked(k, func(a, b ranked) bool {
				if a.score != b.score {
					return a.score > b.score
				}
				return a.key < b.key
			})
			for i := range r.ins {
				in := &r.ins[i]
				top.Offer(ranked{in, (in.Score / maxScore) * (blend + (1-blend)*s.relevance(in.Attrs)), r.keys[i]})
			}
			carousel = insightsOf(top)
		} else {
			// Already ranked by strength: the carousel is its head.
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
