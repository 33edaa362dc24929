package query

import (
	"time"

	"foresight/internal/obs"
)

// Engine observability: Instrument registers the engine's metric
// families in an obs.Registry and turns on per-operation timing. The
// scoring-cache counters are exported as callback-valued metrics
// reading the cache's own counters — the registry is a *view* over
// CacheStats, never a second set of books. Everything here is
// optional: an uninstrumented engine pays one atomic nil-check per
// operation.

// engineMetrics bundles the engine's registered collectors.
type engineMetrics struct {
	// ops counts engine operations by kind (execute, overview,
	// neighborhood); opSeconds is the matching latency histogram.
	ops       *obs.CounterVec
	opSeconds *obs.HistogramVec
}

// Instrument registers the engine's metrics in reg and enables
// operation timing. Safe to call more than once (later registries
// win); nil reg disables instrumentation.
func (e *Engine) Instrument(reg *obs.Registry) {
	if reg == nil {
		e.metrics.Store(nil)
		return
	}
	m := &engineMetrics{
		ops: reg.CounterVec("foresight_engine_ops_total",
			"Engine operations by kind.", "op"),
		opSeconds: reg.HistogramVec("foresight_engine_op_seconds",
			"Engine operation latency by kind.", obs.DefBuckets, "op"),
	}
	// Cache counters: views over the memo's own counters (cache.go),
	// so /metrics and Engine.CacheStats can never disagree.
	reg.CounterFunc("foresight_cache_hits_total",
		"Candidate scores served from the memo.",
		func() uint64 { return e.CacheStats().Hits })
	reg.CounterFunc("foresight_cache_misses_total",
		"Candidate scores that required computation.",
		func() uint64 { return e.CacheStats().Misses })
	reg.CounterFunc("foresight_cache_waits_total",
		"Candidate lookups that waited on another goroutine's in-flight scoring (singleflight collapses).",
		func() uint64 { return e.CacheStats().Waits })
	reg.GaugeFunc("foresight_cache_entries",
		"Memoized scores in the live cache generation.",
		func() float64 { return float64(e.CacheStats().Entries) })
	reg.GaugeFunc("foresight_cache_generation",
		"Cache generation (increments on every invalidation).",
		func() float64 { return float64(e.CacheStats().Generation) })
	reg.GaugeFunc("foresight_engine_workers",
		"Configured candidate-scoring parallelism.",
		func() float64 { return float64(e.Workers()) })
	reg.GaugeFunc("foresight_scoring_inflight",
		"Candidate-scoring tasks currently running in the worker pool.",
		func() float64 { return float64(e.ScoringInflight()) })
	reg.CounterFunc("foresight_engine_cancellations_total",
		"Engine operations that returned early on a cancelled or expired context.",
		func() uint64 { return e.Cancellations() })
	// Pruning counters: views over the engine's own counters
	// (score.go). Pruned counts genuinely never-scored candidates —
	// post-scoring strength filtering is reported separately by the
	// insight telemetry's filtered counters.
	reg.CounterFunc("foresight_engine_pruned_total",
		"Candidates skipped (never scored) by bound-based top-k pruning.",
		func() uint64 { return e.PruneStats().Pruned })
	reg.CounterFunc("foresight_engine_prune_considered_total",
		"Candidates of scoring passes that took the bound-ordered branch.",
		func() uint64 { return e.PruneStats().Considered })
	reg.CounterFunc("foresight_engine_prune_seeded_total",
		"Memoized scores that pre-seeded a pruning threshold.",
		func() uint64 { return e.PruneStats().Seeded })
	reg.CounterFunc("foresight_engine_carried_bounds_total",
		"Candidates of bound-ordered passes bounded by a certificate an ingest handed down.",
		func() uint64 { return e.PruneStats().Carried })
	e.metrics.Store(m)
}

// observeOp records one timed engine operation; no-op when the engine
// is not instrumented.
func (e *Engine) observeOp(op string, start time.Time) {
	m := e.metrics.Load()
	if m == nil {
		return
	}
	m.ops.With(op).Inc()
	m.opSeconds.With(op).Observe(time.Since(start).Seconds())
}
