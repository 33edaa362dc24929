package sketch

import (
	"sync/atomic"
	"time"
)

// Sketch-layer observability. The profile builders and the merge path
// report their timings through a process-wide observer callback
// instead of taking a registry parameter: ProfileConfig is serialized
// (persist.go) and compared across partitions (merge.go), so it must
// stay a plain value type. The callback keeps this package free of
// any dependency while letting the serving layer aggregate build and
// merge timings into its metrics registry.
//
// Reported operations:
//
//	build              one full BuildProfile pass
//	build.numeric      the per-column numeric sketch pass
//	build.project      the shared-direction projection pass
//	build.spearman     the rank projections (when enabled)
//	build.categorical  the categorical sketch pass
//	build.partitioned  one full BuildProfilePartitioned pass
//	build.sharded      one full BuildProfileSharded pass
//	build.shard        the concurrent per-shard sketch phase
//	build.merge        the shard partials' tree reduction
//	extend             one DatasetProfile.Extend call
//	extend.sharded     one DatasetProfile.ExtendSharded call
//	extend.copy        copying what the merge will write (mergeTarget)
//	extend.delta       the partial profile over the appended rows
//	extend.merge       folding the partial in (also reported as merge)
//	extend.rowsample   offering the rows to the row sample, regathering
//	merge              one DatasetProfile.Merge call
//
// (build.project and build.spearman are reported by the sharded
// builder too, timing its pipelined projection phases.)

// TimingFunc receives one timed sketch operation.
type TimingFunc func(op string, d time.Duration)

var timingObserver atomic.Value // TimingFunc

// SetTimingObserver installs fn as the process-wide sketch timing
// observer (nil uninstalls). fn may be called concurrently and must
// be cheap: it runs inline on the build path.
func SetTimingObserver(fn TimingFunc) {
	// atomic.Value cannot store nil; store a typed no-op instead.
	if fn == nil {
		fn = func(string, time.Duration) {}
	}
	timingObserver.Store(fn)
}

// observeSince reports op's duration to the observer, if any.
func observeSince(op string, start time.Time) {
	if fn, ok := timingObserver.Load().(TimingFunc); ok {
		fn(op, time.Since(start))
	}
}
