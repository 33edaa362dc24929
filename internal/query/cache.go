package query

import (
	"strings"
	"sync"

	"foresight/internal/core"
)

// This file implements the engine's score memo. Foresight's
// interactivity rests on answering insight queries in near-real-time
// (paper §3), and the dominant workload is repeated queries over the
// same dataset: every carousel refresh, overview, neighborhood and
// focus update re-ranks the same candidate tuples. Scores depend only
// on (class, metric, tuple, approx) for a fixed frame/profile, so they
// are perfectly cacheable. The memo holds each scored slot, stamps
// entries with a generation that SetProfile/Ingest/InvalidateCache
// bump, and carries the singleflight map through which the scoring
// pass (score.go) collapses duplicate concurrent scoring of the same
// key, so a thundering herd of identical requests computes each score
// exactly once. Filters (MinScore/MaxScore, Fixed, Semantic) and
// ranking always apply after the memo lookup, so a memoized score and
// a fresh one give bit-identical results.
//
// Cancellation threads through the singleflight protocol: a waiter
// blocks on the owner's done channel AND its own ctx, so an expired
// deadline or a disconnected client returns promptly even while the
// owner is still scoring. Scores completed before a cancellation are
// published to the memo as usual, so an abandoned request's partial
// work still warms the memo for the retry.

// CacheStats is a point-in-time snapshot of the engine's scoring
// cache, exposed via Engine.CacheStats and the server's /api/stats.
type CacheStats struct {
	// Hits counts candidate lookups answered from the memo.
	Hits uint64 `json:"hits"`
	// Misses counts candidate lookups that needed scoring (including
	// lookups that waited on another goroutine's in-flight scoring).
	Misses uint64 `json:"misses"`
	// Waits counts the subset of misses that blocked on another
	// goroutine's in-flight computation instead of scoring themselves
	// (the singleflight collapse of a thundering herd).
	Waits uint64 `json:"waits"`
	// Entries is the number of memoized scores in the live generation.
	Entries int `json:"entries"`
	// Generation increments on every invalidation (SetProfile or
	// InvalidateCache); entries from older generations are gone.
	Generation uint64 `json:"generation"`
}

// cacheKey identifies one scored slot: the candidate tuple of a class
// under a resolved metric, on the exact or the approximate backend.
type cacheKey struct {
	class  string
	metric string
	attrs  string // tuple joined with \x1f (never appears in names)
	approx bool
}

func keyFor(class, metric string, approx bool, attrs []string) cacheKey {
	return cacheKey{class: class, metric: metric, attrs: strings.Join(attrs, "\x1f"), approx: approx}
}

// inflightSlot is one in-flight scoring computation. The owner stores
// the result and closes done; waiters block on done (or their own
// ctx) and read in. abandoned is set (before close) when the owner
// gave up without scoring — waiters then score the candidate
// themselves. Both fields are published by the channel close, so
// waiters read them without a lock.
type inflightSlot struct {
	done      chan struct{}
	in        core.Insight
	abandoned bool
}

// scoreCache is the concurrent, generation-stamped memo plus the
// singleflight map and the class views (view.go). All fields are
// guarded by mu; scoring itself runs outside the lock.
type scoreCache struct {
	mu       sync.Mutex
	gen      uint64
	entries  map[cacheKey]core.Insight
	inflight map[cacheKey]*inflightSlot
	views    map[viewKey]*classView
	// certs holds the certificates of this generation's scores, carried
	// those handed down by ingests since the last invalidation; carried
	// is replaced, never written, so snapshots read it without the lock.
	certs, carried map[cacheKey]core.Certificate
	hits           uint64
	misses         uint64
	waits          uint64
}

func newScoreCache() *scoreCache {
	sc := &scoreCache{}
	sc.reset()
	return sc
}

// reset empties the generation's state; the caller holds mu (or is
// the constructor).
func (sc *scoreCache) reset() {
	sc.entries = make(map[cacheKey]core.Insight)
	sc.inflight = make(map[cacheKey]*inflightSlot)
	sc.views = make(map[viewKey]*classView)
	sc.certs = make(map[cacheKey]core.Certificate)
}

// invalidate starts a new generation: memoized entries, class views and
// certificates are dropped and in-flight computations from the old
// generation publish nowhere. Counters survive so hit ratios remain
// observable across frames.
func (sc *scoreCache) invalidate() {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	sc.advance(nil)
}

// appended is invalidate for a frame that extends the live one by
// appended rows: a certificate records the rows it was made on, so all
// of them carry over, the retiring generation's over older ones.
func (sc *scoreCache) appended() {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	carried := sc.certs // the retiring generation's: nobody else holds them
	for k, cert := range sc.carried {
		if _, ok := carried[k]; !ok {
			carried[k] = cert
		}
	}
	sc.advance(carried)
}

// advance starts the next generation; the caller holds mu.
func (sc *scoreCache) advance(carried map[cacheKey]core.Certificate) {
	sc.gen++
	sc.carried = carried
	sc.reset()
}

// generation returns the live generation and the certificates carried
// into it; the engine reads them under its own lock to stamp snapshots.
func (sc *scoreCache) generation() (uint64, map[cacheKey]core.Certificate) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.gen, sc.carried
}

// InvalidateCache drops every memoized score and bumps the cache
// generation. SetProfile calls this automatically; call it directly
// after mutating frame-derived state the engine cannot observe.
func (e *Engine) InvalidateCache() { e.cache.invalidate() }

// CacheStats returns a snapshot of the scoring-cache counters.
func (e *Engine) CacheStats() CacheStats {
	sc := e.cache
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return CacheStats{
		Hits:       sc.hits,
		Misses:     sc.misses,
		Waits:      sc.waits,
		Entries:    len(sc.entries),
		Generation: sc.gen,
	}
}

// peek answers keys from the memo without scoring, waiting or
// claiming: a memoized score of the live generation gen lands in out
// at its key's index and counts as a hit; the indices of the rest come
// back in ascending order, uncounted — a missing candidate counts as a
// miss only once the pass claims it, and never if it is pruned. A
// generation that is no longer live misses everything.
func (sc *scoreCache) peek(gen uint64, keys []cacheKey, out []core.Insight) (misses []int) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for i, k := range keys {
		if sc.gen == gen {
			if in, ok := sc.entries[k]; ok {
				out[i] = in
				sc.hits++
				continue
			}
		}
		if misses == nil {
			misses = make([]int, 0, len(keys)-i)
		}
		misses = append(misses, i)
	}
	return misses
}
