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
	// unbounded); a negative MaxScore is rejected with an error.
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
	// keys is non-nil exactly when ins is a slice of the class's view
	// (view.go): ins is then shared and read-only, and keys[i] is
	// ins[i].Key(). Otherwise ins is a fresh slice.
	keys []string
}

// results hands rankings to a caller: what aliases a class view is
// copied on the way out.
func results(rs []ranking) []Result {
	var out []Result
	for _, r := range rs {
		ins := r.ins
		if r.keys != nil {
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
// call Execute, Carousels, Overview, and Neighborhood in parallel.
// The mutators (Ingest, SetProfile, SetWorkers, InvalidateCache) may
// also run concurrently; every query snapshots the (frame, profile,
// cache generation) triple once and computes entirely against it, so
// a query that overlaps an ingest observes either the old dataset or
// the new one — never a mix.
type Engine struct {
	registry *core.Registry
	// mu guards the mutable state below so concurrent readers never
	// observe a torn update; the score memo in cache.go carries its
	// own finer-grained lock (ordering: mu before cache.mu).
	mu      sync.RWMutex
	frame   *frame.Frame
	profile *sketch.DatasetProfile
	// ingestMu serializes Ingest calls so concurrent appends cannot
	// both extend the same base frame and lose rows (queries are not
	// blocked: they read under mu only).
	ingestMu sync.Mutex
	// durableSink, when set, logs every applied batch before Ingest
	// reports success (recover.go). Guarded by ingestMu.
	durableSink DurableSink
	// workers is the candidate-scoring parallelism (see SetWorkers);
	// values < 2 mean sequential.
	workers int
	// cache memoizes per-candidate scores across queries (cache.go).
	cache *scoreCache
	// metrics holds the registered collectors after Instrument
	// (metrics.go); nil means uninstrumented.
	metrics atomic.Pointer[engineMetrics]
	// telem is the optional insight-telemetry store (obs/telemetry):
	// when set, every query records per-class score/candidate/margin
	// samples after scoring completes, outside the engine lock. Nil
	// costs one atomic load per operation.
	telem atomic.Pointer[telemetry.Insights]
	// inflightScores counts candidate-scoring tasks currently running,
	// exported as the worker-pool saturation gauge.
	inflightScores atomic.Int64
	// cancellations counts engine operations that returned early
	// because their context was cancelled or its deadline expired.
	cancellations atomic.Uint64
	// Pruning-efficacy counters (score.go): candidates of passes that
	// took the bound-ordered branch, candidates skipped without being
	// scored, and memoized scores that seeded the threshold.
	pruneConsidered atomic.Uint64
	prunedTotal     atomic.Uint64
	pruneSeeded     atomic.Uint64
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
	return &Engine{frame: f, registry: reg, profile: profile, cache: newScoreCache()}, nil
}

// Frame returns the engine's dataset (the current one — Ingest swaps
// it; frames themselves are immutable).
func (e *Engine) Frame() *frame.Frame {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.frame
}

// snapshot is one consistent view of the engine's data: the frame and
// profile as of score-cache generation gen. Every query takes exactly
// one snapshot and computes against it, so a response never mixes rows
// from different ingest generations, and memoized scores are only
// published or consumed when the snapshot's generation is still live.
type snapshot struct {
	frame   *frame.Frame
	profile *sketch.DatasetProfile
	gen     uint64
}

func (e *Engine) snapshot() snapshot {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return snapshot{frame: e.frame, profile: e.profile, gen: e.cache.generation()}
}

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
func (e *Engine) Profile() *sketch.DatasetProfile {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.profile
}

// SetProfile attaches (or replaces) the preprocessed store and
// invalidates every memoized approximate score (the exact scores are
// dropped too: one generation stamp covers the whole memo). The
// invalidation happens inside the engine lock so no snapshot can pair
// the new profile with the old generation's memo entries.
func (e *Engine) SetProfile(p *sketch.DatasetProfile) {
	e.mu.Lock()
	e.profile = p
	e.cache.invalidate()
	e.mu.Unlock()
}

// Execute runs the query and returns one Result per class, in
// registry order, omitting classes with no surviving insights.
func (e *Engine) Execute(q Query) ([]Result, error) {
	return e.ExecuteContext(context.Background(), q)
}

// ExecuteContext is Execute with a context. A trace attached to ctx
// (obs.WithTrace) records named spans for each phase — parse, then
// per class candidate enumeration, scoring, view building (when the
// request builds the class view) and ranking — so slow queries show
// where their time went; without a trace the spans cost one nil check
// each.
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
	if err := ctx.Err(); err != nil {
		return nil, e.noteCancel(err)
	}
	tr := obs.TraceFrom(ctx)
	endParse := tr.StartSpan("parse")
	classes, explicit, err := e.resolveClasses(q.Classes)
	if err != nil {
		endParse()
		return nil, err
	}
	// One snapshot for the whole request: every class scores against
	// the same (frame, profile, generation), even if an ingest lands
	// mid-query.
	snap := e.snapshot()
	if q.Approx && snap.profile == nil {
		endParse()
		return nil, fmt.Errorf("query: approximate query requires a preprocessed profile")
	}
	if q.MaxScore < 0 {
		endParse()
		return nil, fmt.Errorf("query: negative MaxScore %v (use 0 for unbounded)", q.MaxScore)
	}
	maxScore := q.MaxScore
	if maxScore == 0 {
		maxScore = math.Inf(1)
	}
	endParse()
	telem := e.telem.Load()
	var samples []telemetry.ClassSample
	var out []ranking
	for _, c := range classes {
		if err := ctx.Err(); err != nil {
			return nil, e.noteCancel(err)
		}
		metric := q.Metric
		if metric != "" && !supportsMetric(c, metric) {
			if explicit && len(classes) == 1 {
				return nil, fmt.Errorf("query: class %q does not support metric %q", c.Name(), metric)
			}
			continue
		}
		if metric == "" {
			metric = c.Metrics()[0]
		}
		r, st, err := e.scoreClass(ctx, tr, snap, c, q, metric, maxScore, telem != nil)
		if err != nil {
			return nil, e.noteCancel(err)
		}
		if telem != nil {
			samples = append(samples, st)
		}
		if len(r.ins) > 0 {
			out = append(out, r)
		}
	}
	if telem != nil {
		telem.Record(telemetry.QuerySample{
			Op:         op,
			Generation: snap.gen,
			DurationMS: time.Since(start).Seconds() * 1e3,
			Classes:    samples,
		})
	}
	return out, nil
}

// scoreClass ranks one class against the snapshot under the resolved
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
// pass would score every candidate anyway. Otherwise — Fixed or
// Semantic set, or a top-k/MinScore query arriving before any view —
// the candidates go through the bound-ordered per-candidate pass.
//
// The Margin telemetry of that pass is conservative: the strongest
// excluded candidate may have been pruned rather than scored, so the
// reported margin can exceed the true one. The returned insights are
// unaffected (see the equivalence argument in score.go).
func (e *Engine) scoreClass(ctx context.Context, tr *obs.Trace, snap snapshot, c core.Class, q Query, metric string, maxScore float64, wantStats bool) (ranking, telemetry.ClassSample, error) {
	r := ranking{class: c.Name(), metric: metric}
	var st telemetry.ClassSample
	if len(q.Fixed) == 0 && q.Semantic == frame.SemanticNone {
		v, err := e.viewOf(ctx, tr, snap, c, metric, q.Approx, !prunes(c, snap, q.K, q.MinScore))
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
			r.ins, r.keys = v.ranked[lo:end], v.keys[lo:end]
			if wantStats {
				st = v.sample
				if end-lo < len(v.ranked) {
					st = classSample(r.class, v.candidates, 0, v.candidates-(hi-lo), r.ins, topKMargin(r.ins, bestExcluded))
				}
			}
			return r, st, nil
		}
	}
	// Filter candidates by the structural constraints first, then
	// score (scorePass), then filter by strength and rank.
	endEnum := tr.StartSpan("enumerate:" + r.class)
	var cands [][]string
	for _, attrs := range c.Candidates(snap.frame) {
		if !containsAll(attrs, q.Fixed) {
			continue
		}
		if q.Semantic != frame.SemanticNone && !anySemantic(snap.frame, attrs, q.Semantic) {
			continue
		}
		cands = append(cands, attrs)
	}
	endEnum()
	if err := ctx.Err(); err != nil {
		return r, st, err
	}
	endScore := tr.StartSpan("score:" + r.class)
	scored, pruned, err := e.scorePass(ctx, snap, c, cands, q.Approx, metric, q.K, q.MinScore, maxScore)
	endScore()
	if err != nil {
		return r, st, err
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
	r.ins, bestExcluded = core.TopKExcluded(ins, q.K)
	if wantStats {
		st = classSample(r.class, len(cands), pruned, len(cands)-pruned-len(ins), r.ins, topKMargin(r.ins, bestExcluded))
	}
	return r, st, nil
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
// The second return reports whether the caller named classes
// explicitly.
func (e *Engine) resolveClasses(names []string) ([]core.Class, bool, error) {
	if len(names) == 0 {
		return e.registry.Classes(), false, nil
	}
	out := make([]core.Class, 0, len(names))
	for _, name := range names {
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

// Carousels returns the Figure-1 view: the top-k insights of every
// registered class, keyed by class name in registry order.
func (e *Engine) Carousels(k int, approx bool) ([]Result, error) {
	return e.CarouselsContext(context.Background(), k, approx)
}

// CarouselsContext is Carousels with a context for tracing. It runs
// the same scoring path as ExecuteContext but reports op "carousels"
// in the engine metrics and telemetry.
func (e *Engine) CarouselsContext(ctx context.Context, k int, approx bool) ([]Result, error) {
	rs, err := e.executeOp(ctx, Query{K: k, Approx: approx}, "carousels")
	return results(rs), err
}
