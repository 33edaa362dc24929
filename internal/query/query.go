// Package query implements Foresight's exploration engine (paper §2.1
// and contribution iii): insight queries with top-k ranking, fixed
// attributes and strength-range filters; class overviews (the paper's
// "global views of insight space", Figure 2); insight similarity and
// neighborhoods; and exploration sessions with focus insights whose
// recommendations update as the analyst drills in (§4.1), including
// save/restore of exploration state.
package query

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"foresight/internal/core"
	"foresight/internal/frame"
	"foresight/internal/obs"
	"foresight/internal/obs/telemetry"
	"foresight/internal/sketch"
)

// Query is one insight query: "return the visualizations for the
// highest-ranked feature tuples according to the insight metric
// selected", optionally constrained.
type Query struct {
	// Classes restricts the query to these insight classes; empty
	// means every registered class.
	Classes []string `json:"classes,omitempty"`
	// Metric selects a ranking metric; "" uses each class's default.
	// Classes that do not support the metric are skipped when several
	// classes are queried, and rejected when exactly one is.
	Metric string `json:"metric,omitempty"`
	// Fixed lists attributes that must appear in each returned tuple
	// (the paper's x = x̄ constraint generalized to any subset).
	Fixed []string `json:"fixed,omitempty"`
	// MinScore/MaxScore filter on the strength metric, e.g. the
	// paper's ρ ∈ [0.5, 0.8] filter. MaxScore = 0 means +∞ (the
	// zero value is "no upper bound", so a plain Query{} is
	// unbounded); a negative MaxScore or a NaN bound is rejected with
	// an error.
	MinScore float64 `json:"min_score,omitempty"`
	MaxScore float64 `json:"max_score,omitempty"`
	// K bounds the number of returned insights per class (0 = all).
	K int `json:"k,omitempty"`
	// Approx answers from the preprocessed sketch store instead of
	// raw data.
	Approx bool `json:"approx,omitempty"`
	// Semantic restricts candidate tuples to attributes carrying this
	// metadata semantic type (paper future work: "attributes that
	// represent currency or dates"). Applies to any position in the
	// tuple: at least one attribute must match.
	Semantic frame.SemanticType `json:"semantic,omitempty"`
	// keep, when set, is one more structural constraint on a tuple.
	keep func(attrs []string) bool
}

// Result groups the insights returned for one class. The Insights
// slice is the caller's own; the Attrs and Details inside each insight
// are shared with the engine's memo and read-only.
type Result struct {
	Class    string         `json:"class"`
	Metric   string         `json:"metric"`
	Insights []core.Insight `json:"insights"`
}

// ranking is one class's share of an engine operation, before it is
// handed to a caller.
type ranking struct {
	class  string
	metric string
	// ins is ranked by strength; it is empty when nothing survived.
	ins []core.Insight
	// view is set exactly when ins is view.ranked[from:from+len(ins)],
	// a slice of the class's view (view.go), shared and read-only.
	// Otherwise ins is a fresh slice.
	view *classView
	from int
	// counts is what the pass behind ins counted, and next the score of
	// the strongest insight its top-k cut left out (NaN when it cut
	// nothing).
	counts passCounts
	next   float64
}

// passCounts is what one class's pass counted: its candidates, those
// it pruned unscored, and those it scored and then dropped by NaN or
// the strength filter.
type passCounts struct{ candidates, pruned, filtered int }

// head returns r's first k insights (all of them when k ≤ 0 or k ≥
// len(r.ins)) and the top-k margin of that cut: to the next insight of
// r, or, past its last, to the one r's own cut left out.
func (r ranking) head(k int) ([]core.Insight, float64) {
	if k <= 0 || k >= len(r.ins) {
		return r.ins, topKMargin(r.ins, r.next)
	}
	return r.ins[:k], topKMargin(r.ins[:k], r.ins[k].Score)
}

// Engine executes insight queries against one dataset. The profile is
// optional; queries with Approx set fail without it.
//
// An Engine is safe for concurrent use: any number of goroutines may
// call ExecuteContext, CarouselsContext, OverviewContext and
// NeighborhoodContext in parallel, and Ingest, RestoreSnapshot and
// SetWorkers may run beside them. The dataset and everything computed
// from it is one generation (cache.go) behind an atomic pointer: every
// query loads it once and computes entirely against it, so a query
// that overlaps an ingest observes either the old dataset or the new
// one — never a mix.
type Engine struct {
	registry *core.Registry
	// gen is the live generation. Only Ingest and RestoreSnapshot
	// replace it, holding ingestSlot.
	gen atomic.Pointer[generation]
	// ingestSlot is the ingest lock, a one-slot channel so that Ingest
	// can give up waiting for it when its context ends. It serializes
	// Ingest and RestoreSnapshot, so concurrent appends cannot both
	// extend the same base frame and lose rows.
	ingestSlot chan struct{}
	// durableSink, when set, logs every batch before Ingest publishes
	// it (recover.go). Guarded by ingestSlot.
	durableSink DurableSink
	// workers is the candidate-scoring parallelism (see SetWorkers);
	// values < 2 mean sequential.
	workers atomic.Int32
	// metrics holds the registered collectors after Instrument
	// (metrics.go); nil means uninstrumented.
	metrics atomic.Pointer[engineMetrics]
	// telem is the optional insight-telemetry store (obs/telemetry):
	// when set, every query records per-class score/candidate/margin
	// samples after scoring completes, outside every lock. Nil costs one
	// atomic load per operation.
	telem atomic.Pointer[telemetry.Insights]
	// inflightScores counts candidate-scoring tasks currently running,
	// exported as the worker-pool saturation gauge.
	inflightScores atomic.Int64
	// cancellations counts engine operations that returned early
	// because their context was cancelled or its deadline expired.
	cancellations atomic.Uint64
	// Memo counters (CacheStats), which survive generations.
	hits, misses, waits atomic.Uint64
	// Pruning-efficacy counters (score.go): candidates of bound-ordered
	// passes, those skipped unscored, memoized scores that seeded the
	// threshold, and misses a handed-down certificate bounded.
	pruneConsidered atomic.Uint64
	prunedTotal     atomic.Uint64
	pruneSeeded     atomic.Uint64
	carriedBounds   atomic.Uint64
}

// NewEngine returns an engine over f using the registry's insight
// classes. profile may be nil: exact queries only. Score bounds do not
// come from the profile but from the certificates an ingest hands down,
// so a top-k query prunes with or without one.
func NewEngine(f *frame.Frame, reg *core.Registry, profile *sketch.DatasetProfile) (*Engine, error) {
	if f == nil {
		return nil, fmt.Errorf("query: nil frame")
	}
	if reg == nil {
		reg = core.NewRegistry()
	}
	e := &Engine{registry: reg, ingestSlot: make(chan struct{}, 1)}
	e.gen.Store(newGeneration(0, f, profile))
	return e, nil
}

// Frame returns the engine's dataset (the current one — Ingest swaps
// it; frames themselves are immutable).
func (e *Engine) Frame() *frame.Frame { return e.gen.Load().frame }

// ScoringInflight reports the number of candidate-scoring tasks
// currently running in the worker pool: /metrics exports it as
// foresight_scoring_inflight, and TestAbandonedRequestsDrainWorkers
// watches it drain to zero after requests are abandoned.
func (e *Engine) ScoringInflight() int64 { return e.inflightScores.Load() }

// Cancellations reports how many engine operations returned early on
// a cancelled or expired context.
func (e *Engine) Cancellations() uint64 { return e.cancellations.Load() }

// noteCancel counts err against the cancellation counter when it is a
// context error, and returns it unchanged; every top-level engine
// operation funnels its early exits through here exactly once.
func (e *Engine) noteCancel(err error) error {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		e.cancellations.Add(1)
	}
	return err
}

// SetInsightTelemetry attaches (or, with nil, detaches) an insight-
// telemetry store. Recording happens strictly after scoring, outside
// the engine's locks, so telemetry never extends a query's critical
// sections.
func (e *Engine) SetInsightTelemetry(t *telemetry.Insights) { e.telem.Store(t) }

// Registry returns the engine's insight-class registry.
func (e *Engine) Registry() *core.Registry { return e.registry }

// Profile returns the preprocessed sketch store (nil if absent).
func (e *Engine) Profile() *sketch.DatasetProfile { return e.gen.Load().profile }

// ExecuteContext runs the query and returns one Result per class, in
// registry order, omitting classes with no surviving insights. A trace
// attached to ctx (obs.WithTrace) records named spans for each phase —
// parse, then per class candidate enumeration, scoring, view building
// (when the request builds the class view) and ranking — so slow
// queries show where their time went; without a trace the spans cost
// one nil check each.
//
// Cancellation is honored between phases and inside scoring: once ctx
// is done the engine stops enumerating and dispatching candidates and
// returns ctx.Err() promptly (no partial Result is returned — scores
// completed before the cutoff stay in the memo, so a retry resumes
// warm). Early exits increment the engine's cancellation counter.
func (e *Engine) ExecuteContext(ctx context.Context, q Query) ([]Result, error) {
	return e.results(ctx, q, "execute")
}

// results runs q under op, records what it returns and hands it out:
// every class with surviving insights, copied where they alias a view.
func (e *Engine) results(ctx context.Context, q Query, op string) ([]Result, error) {
	rq, rs, err := e.executeOp(ctx, q, op)
	if err != nil {
		return nil, err
	}
	var out []Result
	for _, r := range rs {
		ins, margin := r.head(0)
		rq.note(r.class, r.counts, ins, margin)
		if len(ins) == 0 {
			continue
		}
		if r.view != nil {
			ins = slices.Clone(ins)
		}
		out = append(out, Result{Class: r.class, Metric: r.metric, Insights: ins})
	}
	rq.record(op)
	return out, nil
}

// executeOp ranks every class q resolves to, under an operation label —
// carousels funnel through the same scoring path but report their own
// op in the engine metrics — and returns the request and the rankings,
// empty ones included, for its caller to cut, record and copy out.
func (e *Engine) executeOp(ctx context.Context, q Query, op string) (request, []ranking, error) {
	defer e.observeOp(op, time.Now())
	rq, err := e.begin(ctx, q)
	if err != nil {
		return rq, nil, err
	}
	out := make([]ranking, 0, len(rq.classes))
	for i, c := range rq.classes {
		if err := ctx.Err(); err != nil {
			return rq, nil, e.noteCancel(err)
		}
		r, err := e.scoreClass(ctx, rq.tr, rq.g, c, q, rq.metrics[i], rq.maxScore)
		if err != nil {
			return rq, nil, e.noteCancel(err)
		}
		out = append(out, r)
	}
	return rq, out, nil
}

// request is an engine read past its parse phase (begin).
type request struct {
	start    time.Time
	tr       *obs.Trace
	g        *generation
	classes  []core.Class
	metrics  []string
	maxScore float64
	telem    *telemetry.Insights
	samples  []telemetry.ClassSample
}

// begin is the parse phase of an engine read: q's classes, each under
// its resolved metric (one lacking q.Metric is skipped, or refused when
// named alone), and one generation for the whole request — every class
// scores against the same frame and profile.
func (e *Engine) begin(ctx context.Context, q Query) (request, error) {
	if err := ctx.Err(); err != nil {
		return request{}, e.noteCancel(err)
	}
	tr := obs.TraceFrom(ctx)
	defer tr.StartSpan("parse")()
	classes, explicit, err := e.resolveClasses(q.Classes)
	if err != nil {
		return request{}, err
	}
	rq := request{start: time.Now(), tr: tr, g: e.gen.Load(), maxScore: q.MaxScore, telem: e.telem.Load()}
	if q.Approx && rq.g.profile == nil {
		return request{}, fmt.Errorf("query: approximate query requires a preprocessed profile")
	}
	if q.MaxScore < 0 {
		return request{}, fmt.Errorf("query: negative MaxScore %v (use 0 for unbounded)", q.MaxScore)
	}
	// A NaN bound compares false against every score: the
	// per-candidate pass would keep nothing and a view's score range
	// everything.
	if math.IsNaN(q.MinScore) {
		return request{}, fmt.Errorf("query: MinScore is NaN")
	}
	if math.IsNaN(q.MaxScore) {
		return request{}, fmt.Errorf("query: MaxScore is NaN")
	}
	if rq.maxScore == 0 {
		rq.maxScore = math.Inf(1)
	}
	for _, a := range q.Fixed {
		if _, ok := rq.g.frame.Lookup(a); !ok {
			return request{}, fmt.Errorf("query: fixed attribute %q names no column of %q", a, rq.g.frame.Name())
		}
	}
	rq.classes, rq.metrics = classes[:0], make([]string, 0, len(classes))
	for _, c := range classes {
		metric := q.Metric
		if metric != "" && !supportsMetric(c, metric) {
			if explicit && len(classes) == 1 {
				return request{}, fmt.Errorf("query: class %q does not support metric %q", c.Name(), metric)
			}
			continue
		}
		if metric == "" {
			metric = c.Metrics()[0]
		}
		rq.classes, rq.metrics = append(rq.classes, c), append(rq.metrics, metric)
	}
	if rq.telem != nil {
		rq.samples = make([]telemetry.ClassSample, 0, len(rq.classes))
	}
	return rq, nil
}

// note keeps, when a store is attached, the telemetry of one class:
// the insights the request returns for it, cut with the given top-k
// margin, and the counts of the pass that produced them.
func (rq *request) note(class string, c passCounts, ins []core.Insight, margin float64) {
	if rq.telem != nil {
		rq.samples = append(rq.samples, telemetry.ClassSample{
			Class:      class,
			Insights:   ins,
			Candidates: c.candidates,
			Pruned:     c.pruned,
			Filtered:   c.filtered,
			Margin:     margin,
		})
	}
}

// record files the request's samples under op.
func (rq *request) record(op string) {
	if rq.telem != nil {
		rq.telem.Record(telemetry.QuerySample{
			Op:         op,
			Generation: rq.g.n,
			DurationMS: time.Since(rq.start).Seconds() * 1e3,
			Classes:    rq.samples,
		})
	}
}

// scoreClass is the one place a class is read, scored, published and
// ranked: it ranks class c against generation g under the resolved
// metric, with the counts of the pass behind the ranking and the score
// its top-k cut left out first, from which the caller records what it
// returns.
//
// A read with no semantic or keep constraint is answered from the
// generation's view of the class when there is one: a whole-class read
// is a slice of it (sliceView), a fixed-attribute read a walk of the
// table's postings (fixedFromView). Otherwise the positions of the
// class's table that the read admits go through the bound-ordered pass
// under the read's own K and MinScore. A whole-class pass that pruned
// nothing has scored every candidate, so it publishes the class's view,
// whatever K was, and answers from it. A pass that pruned or saw only
// part of the class ranks what it scored; its next score, hence its
// margin telemetry, is conservative (the strongest excluded candidate
// may be unscored), its insights exact (score.go).
func (e *Engine) scoreClass(ctx context.Context, tr *obs.Trace, g *generation, c core.Class, q Query, metric string, maxScore float64) (ranking, error) {
	r := ranking{class: c.Name(), metric: metric, next: math.NaN()}
	key := viewKey{class: r.class, metric: metric, approx: q.Approx}
	free := q.Semantic == frame.SemanticNone && q.keep == nil
	whole := free && len(q.Fixed) == 0
	if free {
		if v := g.view(key); v != nil {
			defer tr.StartSpan("rank:" + r.class)()
			if !whole {
				return e.fixedFromView(r, v, q, maxScore), nil
			}
			// A view read stands for one memo hit per candidate, which
			// keeps the hit ratio meaning "scored before".
			e.hits.Add(uint64(len(v.rank)))
			return sliceView(r, v, q, maxScore), nil
		}
	}
	// Filter the class's table by the structural constraints first,
	// then score (scorePass), then filter by strength and rank.
	endEnum := tr.StartSpan("enumerate:" + r.class)
	col := g.column(c, metric, q.Approx)
	pos := col.t.all
	if !whole {
		pos = col.t.filter(g.frame, q)
	}
	endEnum()
	if err := ctx.Err(); err != nil {
		return r, err
	}
	endScore := tr.StartSpan("score:" + r.class)
	scored, pruned, err := e.scorePass(ctx, g, col, pos, q.K, q.MinScore, maxScore)
	endScore()
	if err != nil {
		return r, err
	}
	if whole && pruned == 0 {
		endView := tr.StartSpan("view:" + r.class)
		v := newClassView(col.t, scored)
		if c.Arity() <= 2 {
			v.overview = assembleOverview(c, metric, col.t.tuples, scored)
		}
		v = g.publishView(key, v)
		endView()
		defer tr.StartSpan("rank:" + r.class)()
		return sliceView(r, v, q, maxScore), nil
	}
	defer tr.StartSpan("rank:" + r.class)()
	ins := make([]core.Insight, 0, len(scored)-pruned)
	for _, in := range scored {
		// Skipped slots and undefined metrics are NaN.
		if math.IsNaN(in.Score) || in.Score < q.MinScore || in.Score > maxScore {
			continue
		}
		ins = append(ins, in)
	}
	r.ins, r.next = core.TopKExcluded(ins, q.K)
	r.counts = passCounts{candidates: len(pos), pruned: pruned, filtered: len(pos) - pruned - len(ins)}
	return r, nil
}

// sliceView ranks the whole class from its view v: SortInsights is a
// total order, so the insights within [MinScore, maxScore] are one
// contiguous run of the view, their top K is the head of that run, and
// the strongest excluded insight is the one right after it — filter →
// top-k over the scored candidates gives exactly this slice.
func sliceView(r ranking, v *classView, q Query, maxScore float64) ranking {
	lo, hi := v.scoreRange(q.MinScore, maxScore)
	end := hi
	if q.K > 0 && lo+q.K < hi {
		end, r.next = lo+q.K, v.ranked[lo+q.K].Score
	}
	r.ins, r.view, r.from = v.ranked[lo:end], v, lo
	r.counts = passCounts{candidates: len(v.rank), filtered: len(v.rank) - (hi - lo)}
	return r
}

// fixedFromView ranks the insights of view v that hold every attribute
// q fixes — what the per-candidate pass would return, since the view
// holds every candidate's slot: it visits the table's shortest posting
// list among the fixed attributes, keeps the tuples that hold them all,
// and of those the ones within [MinScore, maxScore], which in view
// order are ranked, so their top K is their head. Each matching
// candidate, defined or not, counts one memo hit, as the pass's peek
// would; the filtered count is the matches outside the strength range,
// not those the top-K cut drops.
func (e *Engine) fixedFromView(r ranking, v *classView, q Query, maxScore float64) ranking {
	lo, hi := v.scoreRange(q.MinScore, maxScore)
	list := v.t.shortest(q.Fixed)
	kept := make([]int32, 0, len(list))
	matched := 0
	for _, p := range list {
		if !containsAll(v.t.tuples[p], q.Fixed) {
			continue
		}
		matched++
		if i := v.rank[p]; i >= int32(lo) && i < int32(hi) {
			kept = append(kept, i)
		}
	}
	r.counts = passCounts{candidates: matched, filtered: matched - len(kept)}
	slices.Sort(kept)
	if q.K > 0 && q.K < len(kept) {
		kept, r.next = kept[:q.K], v.ranked[kept[q.K]].Score
	}
	for _, i := range kept {
		r.ins = append(r.ins, v.ranked[i])
	}
	e.hits.Add(uint64(matched))
	return r
}

// topKMargin returns the top-k score margin: the score of the weakest
// retained insight minus the strongest excluded one, with the latter
// already tracked by core.TopKExcluded during selection. NaN when
// nothing was excluded (no truncation happened); 0 when ties straddle
// the cut, since the ranking there is not stable — the margin
// telemetry's "about to churn" signal.
func topKMargin(top []core.Insight, bestExcluded float64) float64 {
	if len(top) == 0 || math.IsNaN(bestExcluded) {
		return math.NaN()
	}
	// top is sorted by descending score, so the weakest retained score
	// is the last. Every excluded insight scores at most that; equality
	// means a tie straddles the cut.
	minRetained := top[len(top)-1].Score
	if bestExcluded >= minRetained {
		return 0
	}
	return minRetained - bestExcluded
}

// resolveClasses maps names to classes; empty names = all registered.
// A class named twice is answered once, where it is first named. The
// second return reports whether the caller named classes explicitly.
func (e *Engine) resolveClasses(names []string) ([]core.Class, bool, error) {
	if len(names) == 0 {
		return e.registry.Classes(), false, nil
	}
	out := make([]core.Class, 0, len(names))
	for i, name := range names {
		if slices.Contains(names[:i], name) {
			continue
		}
		c, ok := e.registry.Lookup(name)
		if !ok {
			return nil, true, fmt.Errorf("query: unknown insight class %q (have %v)", name, e.registry.Names())
		}
		out = append(out, c)
	}
	return out, true, nil
}

func supportsMetric(c core.Class, metric string) bool {
	for _, m := range c.Metrics() {
		if m == metric {
			return true
		}
	}
	return false
}

func containsAll(attrs, fixed []string) bool {
	for _, f := range fixed {
		if !slices.Contains(attrs, f) {
			return false
		}
	}
	return true
}

// shortest returns t's shortest posting list among attrs (all of t
// when there are none): a superset of the positions holding them all.
func (t *table) shortest(attrs []string) []int32 {
	list := t.all
	for _, a := range attrs {
		if l := t.postings[a]; len(l) < len(list) {
			list = l
		}
	}
	return list
}

// filter returns the ascending positions of t whose tuples hold every
// attribute q fixes, one of q's semantic type if it names one, and
// pass q's keep constraint if it has one.
func (t *table) filter(f *frame.Frame, q Query) []int32 {
	var pos []int32
	for _, p := range t.shortest(q.Fixed) {
		if attrs := t.tuples[p]; containsAll(attrs, q.Fixed) &&
			(q.Semantic == frame.SemanticNone || anySemantic(f, attrs, q.Semantic)) &&
			(q.keep == nil || q.keep(attrs)) {
			pos = append(pos, p)
		}
	}
	return pos
}

func anySemantic(f *frame.Frame, attrs []string, want frame.SemanticType) bool {
	for _, a := range attrs {
		if f.Meta(a).Semantic == want {
			return true
		}
	}
	return false
}

// CarouselsContext returns the Figure-1 view: the top-k insights of
// every registered class, keyed by class name in registry order. It
// runs the same scoring path as ExecuteContext, with its tracing and
// cancellation, but reports op "carousels" in the engine metrics and
// telemetry.
func (e *Engine) CarouselsContext(ctx context.Context, k int, approx bool) ([]Result, error) {
	return e.results(ctx, Query{K: k, Approx: approx}, "carousels")
}
