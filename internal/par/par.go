// Package par is the one worker pool in the tree: the scoring pass
// (query.scoreMisses) and every parallel loop of the sketch layer fan
// their indexes out through Each, on foresightd's -workers.
//
// The paper's stated future work is to "improve the scalability with
// respect to columns by incorporating parallel search methods that
// speed up insight queries". Each is that extension. Its callers write
// only state owned by the index they were handed, so their results are
// the same at any worker count and parallelism is purely a throughput
// knob.
package par

import (
	"context"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// sharePanic carries a recovered panic, with the stack of the goroutine
// that panicked, across the pool's barrier so it can be re-raised on
// the caller.
type sharePanic struct {
	val   any
	stack []byte
}

// String renders the original panic value with the panicking stack, so
// a re-raised panic still points at the code that crashed.
func (p *sharePanic) String() string {
	return fmt.Sprintf("%v\nworker stack:\n%s", p.val, p.stack)
}

// Each runs fn(i) for every i in [0, n) on the caller plus workers−1
// goroutines. Each of them claims its next index from one shared atomic
// counter until the indexes run out, so uneven items balance and no
// index is handed from one goroutine to another. workers ≤ 1 or n ≤ 1
// runs inline.
//
// ctx is checked before every claim: once it is done no further index
// is started — indexes already running finish, so cancellation stops
// after at most one index per goroutine — and Each returns ctx.Err().
//
// A panic in fn on any share, the caller's included, is recovered and
// stops further claims. Once every share has returned, it is re-raised
// on the caller with the panicking goroutine's stack; the indexes that
// completed keep their results. Inline, a panic simply propagates.
func Each(ctx context.Context, workers, n int, fn func(i int)) error {
	workers = min(workers, n)
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		return ctx.Err()
	}
	var (
		next     atomic.Int64
		panicked atomic.Pointer[sharePanic]
		wg       sync.WaitGroup
	)
	work := func() {
		defer func() {
			if r := recover(); r != nil {
				panicked.CompareAndSwap(nil, &sharePanic{val: r, stack: debug.Stack()})
			}
		}()
		for panicked.Load() == nil && ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	for w := 1; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(p)
	}
	return ctx.Err()
}
