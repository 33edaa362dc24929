package sketch

import (
	"sync/atomic"
	"time"
)

// Sketch-layer observability. The profile builders and the merge path
// report their timings through a process-wide observer callback
// instead of taking a registry parameter: ProfileConfig is serialized
// (persist.go) and compared across partials (merge.go), so it must
// stay a plain value type. The callback keeps this package free of
// any dependency while letting the serving layer aggregate build and
// merge timings into its metrics registry.
//
// Reported operations — one table, named after what runs, not after
// the entry point that asked for it:
//
//	build              one BuildProfile call
//	build.sketch       the row-local sketch pass over a range
//	build.project      the shared-direction projection pass
//	build.spearman     the ranks and their projections (when enabled)
//	build.rowsample    the row sample and its gathers
//	extend             one Extend call
//	extend.copy        copying what the merge will write (mergeTarget)
//	extend.delta       the partial profile over the appended rows
//	extend.merge       folding the partial in (also reported as merge)
//	extend.rowsample   offering the rows to the row sample, recording
//	                   the slots they take in it and in each gather
//	merge              one DatasetProfile.Merge call
//	sample.build       the first read of a sample array an Extend left
//	                   as slot writes (row sample, gather)
//
// build and extend are each reported once per call at any worker count.
// A sub-phase is reported by whoever runs it: an extension's delta is a
// buildRange, so build.sketch and build.project are reported inside
// extend.delta too — side by side, so overlapping, on two or more
// workers.

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
