package sketch

import (
	"math"
	"sync"
	"sync/atomic"
)

// Scratch. An ingest acknowledgement allocates the store it publishes
// and nothing else: the batch's delta, the quantile merge's working
// levels and the projection's direction blocks are built in arrays kept
// from the acknowledgements before (deltaScratch, KLL.merged,
// eachBlock), and nothing published points into them.

// freeList keeps up to max scratch objects for reuse. Unlike a
// sync.Pool, the next taker gets the last one returned on whatever
// processor it runs, and a collection does not empty it, so a stream of
// extensions reuses the same few; it never holds more than max. Each
// object is held by one taker at a time.
type freeList[T any] struct {
	mu    sync.Mutex
	max   int
	items []*T
}

// get returns a kept object, or a new one.
func (l *freeList[T]) get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.items)
	if n == 0 {
		return new(T)
	}
	x := l.items[n-1]
	l.items[n-1] = nil
	l.items = l.items[:n-1]
	return x
}

// put keeps x for the next get, unless max are kept already.
func (l *freeList[T]) put(x *T) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.items) < l.max {
		l.items = append(l.items, x)
	}
}

// poisonScratch makes every scratch array — a delta's, the KLL merge's
// working levels, a direction block — be overwritten with garbage as it
// is given back, so that a profile still reading one reads wrong. Tests
// set it.
var poisonScratch atomic.Bool

// poisonFloats overwrites xs with NaN.
func poisonFloats[T float32 | float64](xs []T) {
	for i := range xs {
		xs[i] = T(math.NaN())
	}
}
