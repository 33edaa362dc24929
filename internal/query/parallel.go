package query

import "runtime"

// The scoring pass (score.go) runs every miss on the worker pool,
// par.Each, so SetWorkers applies to carousels, ad-hoc queries, and
// heat maps alike. Results are bit-identical at any worker count:
// workers write to per-candidate slots, and filtering and ranking
// happen after the barrier. The pool also stops a cancelled request
// and re-raises a scorer's panic on the request's goroutine (the HTTP
// layer converts it to a 500).

// SetWorkers sets the engine's scoring parallelism: 1 (default)
// scores sequentially, 0 selects GOMAXPROCS, n > 1 scores on the
// caller plus n−1 goroutines.
func (e *Engine) SetWorkers(n int) {
	if n == 0 {
		n = runtime.GOMAXPROCS(0)
	}
	e.workers.Store(int32(max(n, 1)))
}

// Workers reports the current scoring parallelism.
func (e *Engine) Workers() int {
	return max(int(e.workers.Load()), 1)
}
