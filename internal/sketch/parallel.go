package sketch

import (
	"context"
	"runtime"

	"foresight/internal/par"
)

// resolveParallel applies the convention below to a worker count:
// negative means GOMAXPROCS.
func resolveParallel(n int) int {
	if n < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// eachColumn runs fn(i) for i in [0, n) on the shared worker pool
// (par.Each). Worker-count semantics are uniform across the sketch
// layer (ProfileConfig.Workers, ProjectConfig.Workers and every
// internal parallel loop):
//
//	workers == 0 or 1   sequential (the library's default, and how the
//	                    paper's own measurements ran; foresightd builds
//	                    with its -workers, i.e. GOMAXPROCS)
//	workers < 0         GOMAXPROCS
//	workers > 1         the caller plus workers−1 goroutines
//
// fn must only touch state owned by index i, which makes results
// identical at any worker count; a panic in fn reaches the caller.
// Despite the name, any independent index space may fan out through
// here — projectRange uses it for column chunks.
func eachColumn(n, workers int, fn func(i int)) {
	par.Each(context.Background(), resolveParallel(workers), n, fn)
}
