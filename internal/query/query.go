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
	"sync"
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
	// top is the carousel length of a session without a focus.
	top int
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
	// ins is ranked by strength and never empty.
	ins []core.Insight
	// view is set exactly when ins is view.ranked[from:from+len(ins)],
	// a slice of the class's view (view.go), shared and read-only.
	// Otherwise ins is a fresh slice.
	view *classView
	from int
}

// results hands rankings to a caller: what aliases a class view is
// copied on the way out.
func results(rs []ranking) []Result {
	var out []Result
	for _, r := range rs {
		ins := r.ins
		if r.view != nil {
			ins = slices.Clone(ins)
		}
		out = append(out, Result{Class: r.class, Metric: r.metric, Insights: ins})
	}
	return out
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
	// replace it, under ingestMu.
	gen atomic.Pointer[generation]
	// ingestMu serializes Ingest and RestoreSnapshot, so concurrent
	// appends cannot both extend the same base frame and lose rows.
	ingestMu sync.Mutex
	// durableSink, when set, logs every applied batch before Ingest
	// reports success (recover.go). Guarded by ingestMu.
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
// classes. profile may be nil: exact queries only, and no score
// bounds, so every candidate of a top-k query is scored.
func NewEngine(f *frame.Frame, reg *core.Registry, profile *sketch.DatasetProfile) (*Engine, error) {
	if f == nil {
		return nil, fmt.Errorf("query: nil frame")
	}
	if reg == nil {
		reg = core.NewRegistry()
	}
	e := &Engine{registry: reg}
	e.gen.Store(newGeneration(0, f, profile, nil))
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

// InsightTelemetry returns the attached telemetry store (nil if none).
func (e *Engine) InsightTelemetry() *telemetry.Insights { return e.telem.Load() }

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
	rs, err := e.executeOp(ctx, q, "execute")
	return results(rs), err
}

// executeOp is ExecuteContext with an operation label — carousels and
// neighborhoods funnel through the same scoring path but report their
// own op in the engine metrics and the insight-telemetry samples — and
// without the copy out of the class views, which the session and the
// neighborhood read in place.
func (e *Engine) executeOp(ctx context.Context, q Query, op string) ([]ranking, error) {
	start := time.Now()
	defer e.observeOp(op, start)
	rq, err := e.begin(ctx, q)
	if err != nil {
		return nil, err
	}
	var out []ranking
	for i, c := range rq.classes {
		if err := ctx.Err(); err != nil {
			return nil, e.noteCancel(err)
		}
		r, st, err := e.scoreClass(ctx, rq.tr, rq.g, c, q, rq.metrics[i], rq.maxScore, rq.telem != nil)
		if err != nil {
			return nil, e.noteCancel(err)
		}
		rq.note(st)
		if len(r.ins) > 0 {
			out = append(out, r)
		}
	}
	rq.record(op, start)
	return out, nil
}

// request is an engine read past its parse phase (begin).
type request struct {
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
	rq := request{tr: tr, g: e.gen.Load(), maxScore: q.MaxScore, telem: e.telem.Load()}
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
	return rq, nil
}

// note keeps one class's telemetry sample when a store is attached.
func (rq *request) note(st telemetry.ClassSample) {
	if rq.telem != nil {
		rq.samples = append(rq.samples, st)
	}
}

// record files the request's samples under op.
func (rq *request) record(op string, start time.Time) {
	if rq.telem != nil {
		rq.telem.Record(telemetry.QuerySample{
			Op:         op,
			Generation: rq.g.n,
			DurationMS: time.Since(start).Seconds() * 1e3,
			Classes:    rq.samples,
		})
	}
}

// scoreClass ranks one class against generation g under the resolved
// metric. When wantStats is set (a telemetry store is attached) it
// also fills a ClassSample with candidate/pruned/filtered/emitted
// counts, the emitted scores and attribute tuples, and the top-k
// margin; otherwise the sample is zero and no extra work happens on
// the hot path.
//
// A query that constrains no attribute ranks the whole class, and the
// class view is that ranking: SortInsights is a total order, so the
// insights within [MinScore, MaxScore] are one contiguous run of the
// view, their top k is the head of that run, and the strongest
// excluded insight is the one right after it — filter → top-k over
// the scored candidates gives exactly this slice. Such a query reads
// the generation's view when there is one and builds it when its own
// pass would score every candidate anyway. A query that fixes
// attributes and nothing else reads the view's attribute index when
// there is a view (fixedFromView). Otherwise — a semantic or keep
// constraint, or a query arriving before any view — the candidates go
// through the bound-ordered per-candidate pass. So
// does an exact session carousel without a focus (q.top) of a class
// without a view, whatever the class: bounds that discriminate (profile
// moments, a carried certificate) leave most candidates unscored, and a
// class they cut nothing from — a constant bound is one run of equal
// bounds, one chunk — is scored whole, and the pass leaves its view.
//
// The Margin telemetry of that pass is conservative: the strongest
// excluded candidate may have been pruned rather than scored, so the
// reported margin can exceed the true one. The returned insights are
// unaffected (see the equivalence argument in score.go).
func (e *Engine) scoreClass(ctx context.Context, tr *obs.Trace, g *generation, c core.Class, q Query, metric string, maxScore float64, wantStats bool) (ranking, telemetry.ClassSample, error) {
	r := ranking{class: c.Name(), metric: metric}
	var st telemetry.ClassSample
	whole := len(q.Fixed) == 0 && q.Semantic == frame.SemanticNone && q.keep == nil
	k := q.K
	if whole && k <= 0 && !q.Approx {
		k = q.top
	}
	if whole {
		v, err := e.viewOf(ctx, tr, g, c, metric, q.Approx, !prunes(c, g, k, q.MinScore))
		if err != nil {
			return r, st, err
		}
		if v != nil {
			defer tr.StartSpan("rank:" + r.class)()
			lo, hi := v.scoreRange(q.MinScore, maxScore)
			end, bestExcluded := hi, math.NaN()
			if q.K > 0 && lo+q.K < hi {
				end, bestExcluded = lo+q.K, v.ranked[lo+q.K].Score
			}
			r.ins, r.view, r.from = v.ranked[lo:end], v, lo
			if wantStats {
				st = v.sample
				if end-lo < len(v.ranked) {
					st = classSample(r.class, v.candidates, 0, v.candidates-(hi-lo), r.ins, topKMargin(r.ins, bestExcluded))
				}
			}
			return r, st, nil
		}
	}
	if len(q.Fixed) > 0 && q.Semantic == frame.SemanticNone && q.keep == nil {
		if v := g.view(viewKey{class: r.class, metric: metric, approx: q.Approx}); v != nil {
			defer tr.StartSpan("rank:" + r.class)()
			r, st = e.fixedFromView(r, v, q, maxScore, wantStats)
			return r, st, nil
		}
	}
	// Filter candidates by the structural constraints first, then
	// score (scorePass), then filter by strength and rank.
	endEnum := tr.StartSpan("enumerate:" + r.class)
	var cands [][]string
	for _, attrs := range c.Candidates(g.frame) {
		if !containsAll(attrs, q.Fixed) {
			continue
		}
		if q.Semantic != frame.SemanticNone && !anySemantic(g.frame, attrs, q.Semantic) || q.keep != nil && !q.keep(attrs) {
			continue
		}
		cands = append(cands, attrs)
	}
	endEnum()
	if err := ctx.Err(); err != nil {
		return r, st, err
	}
	endScore := tr.StartSpan("score:" + r.class)
	scored, pruned, err := e.scorePass(ctx, g, c, cands, q.Approx, metric, k, q.MinScore, maxScore)
	endScore()
	if err != nil {
		return r, st, err
	}
	if whole && k != q.K && pruned == 0 {
		endView := tr.StartSpan("view:" + r.class)
		g.publishView(viewKey{class: r.class, metric: metric, approx: q.Approx}, newClassView(c, metric, cands, scored))
		endView()
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
	var bestExcluded float64
	r.ins, bestExcluded = core.TopKExcluded(ins, k)
	if wantStats {
		st = classSample(r.class, len(cands), pruned, len(cands)-pruned-len(ins), r.ins, topKMargin(r.ins, bestExcluded))
	}
	return r, st, nil
}

// fixedFromView ranks the insights of view v that hold every attribute
// q fixes — what the per-candidate pass would return, since the view
// holds every candidate's memoized slot: it visits the shortest posting
// list of the fixed attributes, keeps the tuples that hold them all,
// and of those the ones within [MinScore, maxScore], which in view
// order are already ranked, so their top K is their head. Each matching
// candidate, defined or not, counts one memo hit, as the pass's peek
// would; the sample's Filtered counts the matches outside the strength
// range, not those the top-K cut drops.
func (e *Engine) fixedFromView(r ranking, v *classView, q Query, maxScore float64, wantStats bool) (ranking, telemetry.ClassSample) {
	var list []int32
	for i, a := range q.Fixed {
		if l := v.holding(a); i == 0 || len(l) < len(list) {
			list = l
		}
	}
	lo, hi := v.scoreRange(q.MinScore, maxScore)
	matched, kept, bestExcluded := 0, 0, math.NaN()
	for _, p := range list {
		in := &v.ranked[p]
		if !containsAll(in.Attrs, q.Fixed) {
			continue
		}
		matched++
		if int(p) < lo || int(p) >= hi {
			continue
		}
		if kept++; q.K <= 0 || kept <= q.K {
			r.ins = append(r.ins, *in)
		} else if kept == q.K+1 {
			bestExcluded = in.Score
		}
	}
	for _, attrs := range v.undefined {
		if containsAll(attrs, q.Fixed) {
			matched++
		}
	}
	e.hits.Add(uint64(matched))
	var st telemetry.ClassSample
	if wantStats {
		st = classSample(r.class, matched, 0, matched-kept, r.ins, topKMargin(r.ins, bestExcluded))
	}
	return r, st
}

// classSample is the telemetry record of one class's scoring pass:
// how many candidates it had, how many were pruned unscored, how many
// were scored and then dropped, and the insights it emitted.
func classSample(class string, candidates, pruned, filtered int, emitted []core.Insight, margin float64) telemetry.ClassSample {
	st := telemetry.ClassSample{
		Class:      class,
		Candidates: candidates,
		Pruned:     pruned,
		Filtered:   filtered,
		Emitted:    len(emitted),
		Margin:     margin,
		Scores:     make([]float64, len(emitted)),
		Attrs:      make([][]string, len(emitted)),
	}
	for i, in := range emitted {
		st.Scores[i] = in.Score
		st.Attrs[i] = in.Attrs
	}
	return st
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
	rs, err := e.executeOp(ctx, Query{K: k, Approx: approx}, "carousels")
	return results(rs), err
}
