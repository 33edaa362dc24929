package sketch

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// resolveParallel applies the convention below to a worker or shard
// count: negative means GOMAXPROCS.
func resolveParallel(n int) int {
	if n < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// eachColumn runs fn(i) for i in [0, n), fanning out over a worker
// pool. Worker-count semantics are uniform across the sketch layer
// (ProfileConfig.Workers, ProjectConfig.Workers and every internal
// parallel loop):
//
//	workers == 0 or 1   sequential (the library's default, and how the
//	                    paper's own measurements ran; foresightd builds
//	                    with its -workers, i.e. GOMAXPROCS)
//	workers < 0         GOMAXPROCS
//	workers > 1         that many goroutines
//
// Each worker — the caller is one of them — takes its next index from
// a shared atomic counter until the indexes run out, so uneven items
// balance and nothing is handed from one goroutine to another. fn must
// only touch state owned by index i, which makes results identical at
// any worker count. Despite the name, any independent index space may
// fan out through here — the sharded builder uses it for row shards
// and merge pairs, projectRange for column chunks.
func eachColumn(n, workers int, fn func(i int)) {
	workers = min(resolveParallel(workers), n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	work := func() {
		for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
			fn(i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}
