package sketch

import (
	"runtime"
	"sync"
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
//	workers == 0 or 1   sequential (the paper's own measurements are
//	                    single-threaded, so sequential is the default)
//	workers < 0         GOMAXPROCS
//	workers > 1         that many goroutines
//
// fn must only touch state owned by index i, which makes results
// identical at any worker count. Despite the name, any independent
// index space may fan out through here — the sharded builder uses it
// for row shards and merge pairs too.
func eachColumn(n, workers int, fn func(i int)) {
	workers = resolveParallel(workers)
	if workers <= 1 || n < 2 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	if workers > n {
		workers = n
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
