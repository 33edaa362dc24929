package query

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// The paper's stated future work is to "improve the scalability with
// respect to columns by incorporating parallel search methods that
// speed up insight queries". This file implements that extension: the
// engine can fan candidate scoring out over a worker pool. Results
// are bit-identical to sequential execution (workers write to
// per-candidate slots; filtering and ranking happen after the
// barrier), so parallelism is purely a throughput knob. The scoring
// pass (score.go) runs every miss through this pool, so SetWorkers
// applies to carousels, ad-hoc queries, and heat maps alike.
//
// The pool is also where cancellation and panic isolation live:
// runParallel stops dispatching work the moment its context is done
// (an abandoned request releases its workers instead of completing
// dead work), and a panicking scorer is caught in the worker, the
// pool drained, and the panic re-raised on the calling goroutine so
// one request's crash never takes down unrelated goroutines or the
// process (the HTTP layer converts it to a 500).

// SetWorkers sets the engine's scoring parallelism: 1 (default)
// scores sequentially, 0 selects GOMAXPROCS, n > 1 uses n goroutines.
func (e *Engine) SetWorkers(n int) {
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	if n < 1 {
		n = 1
	}
	e.mu.Lock()
	e.workers = n
	e.mu.Unlock()
}

// Workers reports the current scoring parallelism.
func (e *Engine) Workers() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.workers < 1 {
		return 1
	}
	return e.workers
}

// SetBuildShards sets the profile-build parallelism used by large
// batch ingests (and advertised to callers constructing profiles for
// this engine). The value follows the sketch layer's shard
// convention, not SetWorkers': 0 (default) and 1 build sequentially —
// bit-identical to the pre-sharding path — and n < 0 selects
// GOMAXPROCS.
func (e *Engine) SetBuildShards(n int) {
	e.mu.Lock()
	e.buildShards = n
	e.mu.Unlock()
}

// BuildShards reports the configured profile-build parallelism.
func (e *Engine) BuildShards() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.buildShards
}

// poolPanic carries a recovered worker panic (plus the worker's stack)
// across the pool barrier so it can be re-raised on the caller.
type poolPanic struct {
	val   interface{}
	stack []byte
}

// String renders the original panic value with the worker stack, so a
// recovered pool panic still points at the scorer that crashed.
func (p *poolPanic) String() string {
	return fmt.Sprintf("%v\nworker stack:\n%s", p.val, p.stack)
}

// runParallel applies fn to every index in [0, n) using up to the
// given number of worker goroutines. Small batches run sequentially:
// below two indices per worker the pool costs more than it saves.
//
// Dispatch is context-aware: once ctx is done no further index is
// started (indices already running finish — cancellation granularity
// is one candidate), and the context error is returned so callers can
// mark the batch partial. A panic in fn is recovered in the worker,
// dispatch stops, remaining workers drain, and the panic is re-raised
// on the calling goroutine once the pool has quiesced; the other
// workers' completed slots stay valid.
func runParallel(ctx context.Context, workers, n int, fn func(int)) error {
	if workers <= 1 || n < 2*workers {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		return ctx.Err()
	}
	var (
		wg       sync.WaitGroup
		panicked atomic.Pointer[poolPanic]
		stop     = make(chan struct{}) // closed on first worker panic
		stopOnce sync.Once
		next     = make(chan int)
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				func(i int) {
					defer func() {
						if r := recover(); r != nil {
							panicked.CompareAndSwap(nil, &poolPanic{val: r, stack: debug.Stack()})
							stopOnce.Do(func() { close(stop) })
						}
					}()
					fn(i)
				}(i)
			}
		}()
	}
	done := ctx.Done()
feed:
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-done:
			break feed
		case <-stop:
			break feed
		}
	}
	close(next)
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(p)
	}
	return ctx.Err()
}
