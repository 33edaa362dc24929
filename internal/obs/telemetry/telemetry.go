// Package telemetry observes Foresight with Foresight's own sketches:
// the same mergeable summaries the engine serves to analysts (paper §3
// — KLL quantile sketches, SpaceSaving heavy hitters) double as the
// telemetry backend for the engine itself. Per insight class it keeps
//
//   - a KLL sketch of every emitted insight score, so operators read
//     p50/p90/p99 of what each carousel actually recommends,
//   - SpaceSaving trackers of the hottest columns and column tuples,
//     answering "which attributes dominate the recommendations",
//   - counters (queries, candidates enumerated, candidates pruned,
//     insights emitted) and a bounded window of recent top-k score
//     margins, the gap between the weakest retained insight and the
//     strongest excluded one — a shrinking margin means rankings are
//     about to churn.
//
// The store is one set of per-class aggregates under one mutex. Record
// folds each sample into them inline, under that mutex: a sample holds
// the insights the request returned (a carousel's k a class, an
// overview none), so a fold is a few sketch updates, and nothing is
// queued between a request and a scrape.
//
// The store follows the engine's cache generation: samples carry the
// generation they were computed against, and a sample from a newer
// generation resets the store (the data changed; old score
// distributions no longer describe it). The reset counts in resets
// whenever the old generation recorded anything; a straggler sample
// from a generation older than the store's counts in stale_samples.
// Lifetime counters and the per-query ring survive. Snapshot reports
// how stale the telemetry is relative to the engine's current
// generation.
package telemetry

import (
	"hash/fnv"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"foresight/internal/core"
	"foresight/internal/obs"
	"foresight/internal/sketch"
)

// The store's sizes. Every structure is bounded, so the store's
// footprint is O(classes · (scoreK + topItems + marginWindow) +
// queryLog) regardless of traffic.
const (
	// scoreK is the KLL accuracy parameter of the per-class score
	// sketches: ~3% rank error, a few KB per class.
	scoreK = 128
	// topItems caps the SpaceSaving trackers of hot columns and tuples.
	topItems = 32
	// queryLog bounds the ring of recent per-query records.
	queryLog = 256
	// marginWindow bounds the per-class top-k margin trend.
	marginWindow = 32
	// seed makes the sketch coin flips deterministic; the per-class
	// seed also folds in the class name.
	seed = 1
)

// ClassSample is the telemetry one engine operation emits for one
// insight class.
type ClassSample struct {
	// Class is the insight class name.
	Class string
	// Insights are the insights the operation returned for the class,
	// read only while Record folds them.
	Insights []core.Insight
	// Candidates is the number of candidate tuples enumerated.
	Candidates int
	// Pruned is the number of candidates skipped outright — never
	// scored — by the engine's bound-based top-k pruning.
	Pruned int
	// Filtered is the number of scored candidates dropped by NaN or
	// strength-range filters before ranking. (Before pruning existed
	// this count was misreported as Pruned.)
	Filtered int
	// Margin is the top-k score margin: the score of the weakest
	// retained insight minus the strongest excluded one. NaN when the
	// query did not truncate (k ≤ 0 or fewer survivors than k).
	Margin float64
}

// QuerySample is the telemetry for one engine operation (one execute,
// overview, or neighborhood call).
type QuerySample struct {
	// Op labels the operation: execute, carousels, overview, neighborhood.
	Op string
	// Generation is the engine cache generation the operation's
	// snapshot was computed against.
	Generation uint64
	// DurationMS is the operation's wall time.
	DurationMS float64
	// Classes carries the per-class samples.
	Classes []ClassSample
}

// classAgg is the per-class aggregate: sketches plus counters.
type classAgg struct {
	scores   *sketch.KLL
	cols     *sketch.SpaceSaving
	tuples   *sketch.SpaceSaving
	margins  []MarginPoint // bounded window, oldest first
	keyBuf   []byte        // scratch for tuple keys; reused across folds
	queries  uint64
	cands    uint64
	pruned   uint64
	filtered uint64
	emitted  uint64
}

// MarginPoint is one observed top-k margin, tagged with the generation
// it was computed against so trends survive ingest churn legibly.
type MarginPoint struct {
	Generation uint64  `json:"generation"`
	Margin     float64 `json:"margin"`
}

func newClassAgg(class string) *classAgg {
	h := fnv.New64a()
	_, _ = h.Write([]byte(class))
	return &classAgg{
		scores: sketch.NewKLL(scoreK, seed+int64(h.Sum64()&0x7fffffff)),
		cols:   sketch.NewSpaceSaving(topItems),
		tuples: sketch.NewSpaceSaving(topItems),
	}
}

// reset empties the aggregate for a new generation, keeping its
// sketches' arrays and maps and its margin window's array.
func (a *classAgg) reset() {
	a.scores.Reset()
	a.cols.Reset()
	a.tuples.Reset()
	*a = classAgg{scores: a.scores, cols: a.cols, tuples: a.tuples, margins: a.margins[:0], keyBuf: a.keyBuf}
}

// fold absorbs one sample into the aggregate: its counters, its margin
// (tagged with gen), and the scores and attribute tuples of its
// insights.
func (a *classAgg) fold(s ClassSample, gen uint64) {
	a.queries++
	a.cands += uint64(s.Candidates)
	a.pruned += uint64(s.Pruned)
	a.filtered += uint64(s.Filtered)
	a.emitted += uint64(len(s.Insights))
	if !math.IsNaN(s.Margin) {
		// A full window slides down in place, so it stops allocating.
		if len(a.margins) == marginWindow {
			a.margins = a.margins[:copy(a.margins, a.margins[1:])]
		}
		a.margins = append(a.margins, MarginPoint{Generation: gen, Margin: s.Margin})
	}
	for _, in := range s.Insights {
		a.scores.Update(in.Score)
		for _, col := range in.Attrs {
			a.cols.Update(col)
		}
		if len(in.Attrs) >= 2 {
			// Build the composite key in the reusable scratch buffer so
			// the steady state (tuple already tracked) allocates nothing.
			a.keyBuf = appendTupleKey(a.keyBuf[:0], in.Attrs)
			a.tuples.UpdateBytes(a.keyBuf)
		}
	}
}

// appendTupleKey renders an attribute tuple as one SpaceSaving item
// into buf (comma-separated, attrs arrive sorted from the engine).
func appendTupleKey(buf []byte, attrs []string) []byte {
	buf = append(buf, attrs[0]...)
	for _, a := range attrs[1:] {
		buf = append(buf, ',')
		buf = append(buf, a...)
	}
	return buf
}

// QueryRecord is one entry of the bounded per-query ring.
type QueryRecord struct {
	Op         string  `json:"op"`
	Generation uint64  `json:"generation"`
	DurationMS float64 `json:"duration_ms"`
	Classes    int     `json:"classes"`
	Candidates int     `json:"candidates"`
	Pruned     int     `json:"pruned"`
	Filtered   int     `json:"filtered"`
	Emitted    int     `json:"emitted"`
	// MinMargin is the tightest top-k margin across the query's
	// classes, or -1 when no class truncated.
	MinMargin float64 `json:"min_margin"`
}

// metricsSet bundles the registered Prometheus collectors (nil when
// uninstrumented).
type metricsSet struct {
	queries  *obs.CounterVec
	cands    *obs.CounterVec
	pruned   *obs.CounterVec
	filtered *obs.CounterVec
	emitted  *obs.CounterVec
	scores   *obs.HistogramVec
	margins  *obs.HistogramVec
	// byClass caches the resolved per-class children so the Record hot
	// path pays one lock-free lookup per class instead of six labeled
	// vec resolutions. The class set is small and stable.
	byClass sync.Map // class → *classMetrics
}

// classMetrics holds one class's resolved metric children.
type classMetrics struct {
	queries, cands, pruned, filtered, emitted *obs.Counter
	scores, margins                           *obs.Histogram
}

// forClass returns the cached children for class, resolving them once.
func (m *metricsSet) forClass(class string) *classMetrics {
	if c, ok := m.byClass.Load(class); ok {
		return c.(*classMetrics)
	}
	c, _ := m.byClass.LoadOrStore(class, &classMetrics{
		queries:  m.queries.With(class),
		cands:    m.cands.With(class),
		pruned:   m.pruned.With(class),
		filtered: m.filtered.With(class),
		emitted:  m.emitted.With(class),
		scores:   m.scores.With(class),
		margins:  m.margins.With(class),
	})
	return c.(*classMetrics)
}

// scoreBuckets cover normalized strengths (most metrics live in [0,1])
// with headroom for unbounded raw-style scores.
var scoreBuckets = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1, 1.5, 2, 5, 10}

// marginBuckets resolve small ranking gaps, where churn risk lives.
var marginBuckets = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1}

// Insights is the bounded, concurrency-safe insight-telemetry store.
// Record and Snapshot may be called from any number of goroutines. The
// zero value is not usable; call New. A nil *Insights is safe to record
// into (no-op), so callers never guard.
type Insights struct {
	// mu guards the store: the generation its aggregates describe, the
	// aggregates and the ring.
	mu       sync.Mutex
	gen      uint64
	classes  map[string]*classAgg
	resets   uint64
	ring     []QueryRecord
	ringNext int

	totalQueries atomic.Uint64
	dropped      atomic.Uint64 // samples older than the store's generation

	// Sampled query log: every sampleEvery-th Record emits one
	// structured line through logger. Set once via SetQueryLog before
	// serving; not synchronized against concurrent mutation.
	logger      *obs.Logger
	sampleEvery uint64
	sampleCtr   atomic.Uint64

	m atomic.Pointer[metricsSet]
}

// New returns an empty telemetry store.
func New() *Insights {
	return &Insights{classes: make(map[string]*classAgg)}
}

// SetQueryLog routes a sampled structured query log through logger:
// sample is the fraction of queries to log (0 disables, 1 logs every
// query; 0.01 logs every 100th). Sampling is deterministic (every Nth
// record), so tests and rate math are exact. Call before serving.
func (t *Insights) SetQueryLog(logger *obs.Logger, sample float64) {
	if t == nil {
		return
	}
	t.logger = logger
	switch {
	case sample <= 0 || logger == nil:
		t.sampleEvery = 0
	case sample >= 1:
		t.sampleEvery = 1
	default:
		t.sampleEvery = uint64(math.Round(1 / sample))
	}
}

// Instrument registers the telemetry metric families in reg. The
// labeled counters and histograms are fed inline by Record; the
// scalar families are callback views over the store's own counters.
func (t *Insights) Instrument(reg *obs.Registry) {
	if t == nil || reg == nil {
		return
	}
	m := &metricsSet{
		queries: reg.CounterVec("foresight_insight_class_queries_total",
			"Engine operations that scored this insight class.", "class"),
		cands: reg.CounterVec("foresight_insight_candidates_total",
			"Candidate tuples enumerated, by insight class.", "class"),
		pruned: reg.CounterVec("foresight_insight_pruned_total",
			"Candidates skipped (never scored) by bound-based top-k pruning, by insight class.", "class"),
		filtered: reg.CounterVec("foresight_insight_filtered_total",
			"Scored candidates dropped by NaN/strength filters, by insight class.", "class"),
		emitted: reg.CounterVec("foresight_insight_emitted_total",
			"Insights returned to clients, by insight class.", "class"),
		scores: reg.HistogramVec("foresight_insight_score",
			"Scores of emitted insights, by insight class.", scoreBuckets, "class"),
		margins: reg.HistogramVec("foresight_insight_topk_margin",
			"Top-k score margin (weakest retained minus strongest excluded), by insight class.",
			marginBuckets, "class"),
	}
	reg.CounterFunc("foresight_insight_queries_total",
		"Engine operations recorded by the insight-telemetry store.",
		t.totalQueries.Load)
	reg.CounterFunc("foresight_insight_stale_samples_total",
		"Telemetry samples dropped because they described an older generation.",
		t.dropped.Load)
	reg.CounterFunc("foresight_insight_resets_total",
		"Telemetry sketch resets triggered by generation bumps.",
		func() uint64 { t.mu.Lock(); defer t.mu.Unlock(); return t.resets })
	reg.GaugeFunc("foresight_insight_generation",
		"Engine cache generation the telemetry sketches describe.",
		func() float64 { t.mu.Lock(); defer t.mu.Unlock(); return float64(t.gen) })
	t.m.Store(m)
}

// Record folds one operation's telemetry into the store, inline under
// the store's lock, and writes its ring entry. Safe on a nil receiver.
// Nothing here touches the engine's locks, so callers invoke it
// strictly after scoring, outside the hot path's critical sections,
// and the store keeps nothing of s once Record returns.
func (t *Insights) Record(s QuerySample) {
	if t == nil {
		return
	}
	n := t.totalQueries.Add(1)
	rec := queryRecordFor(s)
	t.mu.Lock()
	if s.Generation > t.gen {
		// The data moved under us: the store describes a dataset that
		// no longer exists. Start fresh, in the aggregates' own arrays
		// and maps.
		live := false
		for _, a := range t.classes {
			live = live || a.queries > 0
			a.reset()
		}
		if live {
			t.resets++
		}
		t.gen = s.Generation
	}
	if s.Generation == t.gen {
		for _, cs := range s.Classes {
			a := t.classes[cs.Class]
			if a == nil {
				a = newClassAgg(cs.Class)
				t.classes[cs.Class] = a
			}
			a.fold(cs, s.Generation)
		}
	} else {
		t.dropped.Add(1)
	}
	if len(t.ring) < queryLog {
		t.ring = append(t.ring, rec)
	} else {
		t.ring[t.ringNext] = rec
	}
	t.ringNext = (t.ringNext + 1) % queryLog
	t.mu.Unlock()

	if m := t.m.Load(); m != nil {
		for _, cs := range s.Classes {
			cm := m.forClass(cs.Class)
			cm.queries.Inc()
			cm.cands.Add(uint64(cs.Candidates))
			cm.pruned.Add(uint64(cs.Pruned))
			cm.filtered.Add(uint64(cs.Filtered))
			cm.emitted.Add(uint64(len(cs.Insights)))
			for _, in := range cs.Insights {
				cm.scores.Observe(in.Score)
			}
			if !math.IsNaN(cs.Margin) {
				cm.margins.Observe(cs.Margin)
			}
		}
	}

	if t.sampleEvery > 0 && t.sampleCtr.Add(1)%t.sampleEvery == 1%t.sampleEvery {
		t.logger.Log("query", map[string]interface{}{
			"op":           rec.Op,
			"generation":   rec.Generation,
			"duration_ms":  rec.DurationMS,
			"classes":      rec.Classes,
			"candidates":   rec.Candidates,
			"pruned":       rec.Pruned,
			"filtered":     rec.Filtered,
			"emitted":      rec.Emitted,
			"min_margin":   rec.MinMargin,
			"sampled_1_in": t.sampleEvery,
			"seq":          n,
		})
	}
}

// queryRecordFor summarizes one sample as a ring entry.
func queryRecordFor(s QuerySample) QueryRecord {
	rec := QueryRecord{
		Op:         s.Op,
		Generation: s.Generation,
		DurationMS: s.DurationMS,
		Classes:    len(s.Classes),
		MinMargin:  -1,
	}
	for _, cs := range s.Classes {
		rec.Candidates += cs.Candidates
		rec.Pruned += cs.Pruned
		rec.Filtered += cs.Filtered
		rec.Emitted += len(cs.Insights)
		if !math.IsNaN(cs.Margin) && (rec.MinMargin < 0 || cs.Margin < rec.MinMargin) {
			rec.MinMargin = cs.Margin
		}
	}
	return rec
}

// HotItem is one heavy hitter with its SpaceSaving count bounds.
type HotItem struct {
	Item  string `json:"item"`
	Count uint64 `json:"count"`
	Err   uint64 `json:"err,omitempty"`
}

// ClassSnapshot is the per-class view served by /api/debug/insights.
type ClassSnapshot struct {
	Class      string `json:"class"`
	Queries    uint64 `json:"queries"`
	Candidates uint64 `json:"candidates"`
	// Pruned counts candidates skipped (never scored) by bound-based
	// top-k pruning; Filtered counts scored candidates dropped by
	// NaN/strength filters. Before pruning existed, the "pruned" JSON
	// field carried what "filtered" now reports — both fields are
	// served so dashboards keep working with corrected semantics.
	Pruned   uint64 `json:"pruned"`
	Filtered uint64 `json:"filtered"`
	Emitted  uint64 `json:"emitted"`
	// ScoreCount is the number of scores folded into the quantile
	// sketch; Quantiles is empty when it is zero.
	ScoreCount uint64             `json:"score_count"`
	Quantiles  map[string]float64 `json:"score_quantiles,omitempty"`
	HotColumns []HotItem          `json:"hot_columns,omitempty"`
	HotTuples  []HotItem          `json:"hot_tuples,omitempty"`
	// Margins is the recent top-k margin trend, oldest first.
	Margins []MarginPoint `json:"margins,omitempty"`
}

// Snapshot is the full store view, JSON-ready.
type Snapshot struct {
	// Generation is the cache generation the sketches describe;
	// CurrentGeneration is the engine's live generation. Stale is true
	// when they differ (telemetry has not yet observed post-ingest
	// traffic).
	Generation        uint64 `json:"generation"`
	CurrentGeneration uint64 `json:"current_generation"`
	Stale             bool   `json:"stale"`
	// Resets counts sketch resets caused by generation bumps.
	Resets uint64 `json:"resets"`
	// TotalQueries is the lifetime operation count (survives resets);
	// StaleSamples counts samples dropped for describing an older
	// generation.
	TotalQueries uint64 `json:"total_queries"`
	StaleSamples uint64 `json:"stale_samples"`
	// ScoreRankError is the KLL additive rank-error bound ε for the
	// quantiles below: a reported q-quantile is exact for some rank in
	// [q−ε, q+ε].
	ScoreRankError float64         `json:"score_rank_error"`
	Classes        []ClassSnapshot `json:"classes"`
	// RecentQueries is the bounded per-query ring, most recent first.
	RecentQueries []QueryRecord `json:"recent_queries,omitempty"`
}

// Snapshot returns the store's JSON-ready view. currentGen is the
// engine's live cache generation, used to report staleness. topN caps
// the hot-column/tuple lists (≤0 → 10). Safe on a nil receiver
// (returns the zero Snapshot).
func (t *Insights) Snapshot(currentGen uint64, topN int) Snapshot {
	if t == nil {
		return Snapshot{CurrentGeneration: currentGen}
	}
	if topN <= 0 {
		topN = 10
	}
	topN = min(topN, topItems)

	t.mu.Lock()
	defer t.mu.Unlock()
	snap := Snapshot{
		Generation:        t.gen,
		CurrentGeneration: currentGen,
		Stale:             t.gen != currentGen,
		Resets:            t.resets,
		TotalQueries:      t.totalQueries.Load(),
		StaleSamples:      t.dropped.Load(),
		ScoreRankError:    4.0 / scoreK,
	}
	names := make([]string, 0, len(t.classes))
	for class := range t.classes {
		names = append(names, class)
	}
	sort.Strings(names)
	for _, class := range names {
		a := t.classes[class]
		if a.queries == 0 {
			continue // recorded in an earlier generation only
		}
		cs := ClassSnapshot{
			Class:      class,
			Queries:    a.queries,
			Candidates: a.cands,
			Pruned:     a.pruned,
			Filtered:   a.filtered,
			Emitted:    a.emitted,
			ScoreCount: a.scores.Count(),
			Margins:    append([]MarginPoint(nil), a.margins...),
		}
		if cs.ScoreCount > 0 {
			qs := a.scores.Quantiles([]float64{0.5, 0.9, 0.99})
			cs.Quantiles = map[string]float64{"p50": qs[0], "p90": qs[1], "p99": qs[2]}
			snap.ScoreRankError = a.scores.RankErrorBound()
		}
		for _, h := range a.cols.Top(topN) {
			cs.HotColumns = append(cs.HotColumns, HotItem{Item: h.Item, Count: h.Count, Err: h.Err})
		}
		for _, h := range a.tuples.Top(topN) {
			cs.HotTuples = append(cs.HotTuples, HotItem{Item: h.Item, Count: h.Count, Err: h.Err})
		}
		snap.Classes = append(snap.Classes, cs)
	}
	for i := range t.ring {
		snap.RecentQueries = append(snap.RecentQueries, t.ring[(t.ringNext-1-i+queryLog)%queryLog])
	}
	return snap
}
