package query

import (
	"maps"
	"strings"
	"sync"

	"foresight/internal/core"
	"foresight/internal/frame"
	"foresight/internal/sketch"
)

// This file implements the engine's generations and their score memo.
// Foresight's interactivity rests on answering insight queries in
// near-real-time (paper §3), and the dominant workload is repeated
// queries over the same dataset: every carousel refresh, overview,
// neighborhood and focus update re-ranks the same candidate tuples.
// Scores depend only on (class, metric, tuple, approx) for a fixed
// frame/profile, so they are perfectly cacheable. A generation is one
// (frame, profile) pair together with everything computed from it: the
// memo holding each scored slot, the singleflight map through which the
// scoring pass (score.go) collapses duplicate concurrent scoring of the
// same key — so a thundering herd of identical requests computes each
// score exactly once — the class views, and the certificates exact
// scores leave. The engine holds the live generation behind one atomic
// pointer; a request loads it once and works on what it loaded, so a
// pass that outlives its generation reads and fills maps no new reader
// sees. Filters (MinScore/MaxScore, Fixed, Semantic) and ranking always
// apply after the memo lookup, so a memoized score and a fresh one give
// bit-identical results.
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
	// Generation numbers the live generation: 0 for the engine's first,
	// one more for each Ingest that appends rows and each RestoreSnapshot
	// (or InvalidateCache). Entries of older generations are gone.
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

// generation is the engine's dataset and what has been computed from
// it. n, frame, profile and carried never change; the maps below mu are
// guarded by it, and scoring itself runs outside the lock.
type generation struct {
	n       uint64
	frame   *frame.Frame
	profile *sketch.DatasetProfile
	// carried holds the certificates handed down to this generation by
	// the ingests since the last restore, each a bound on its tuple's
	// exact score on frame.
	carried map[cacheKey]core.Certificate

	mu       sync.Mutex
	entries  map[cacheKey]core.Insight
	inflight map[cacheKey]*inflightSlot
	views    map[viewKey]*classView
	// certs holds the certificates this generation's exact scores left.
	certs map[cacheKey]core.Certificate
}

func newGeneration(n uint64, f *frame.Frame, p *sketch.DatasetProfile, carried map[cacheKey]core.Certificate) *generation {
	return &generation{
		n: n, frame: f, profile: p, carried: carried,
		entries:  make(map[cacheKey]core.Insight),
		inflight: make(map[cacheKey]*inflightSlot),
		views:    make(map[viewKey]*classView),
		certs:    make(map[cacheKey]core.Certificate),
	}
}

// successor is the generation of f, which extends g's frame by appended
// rows, and its profile p. A certificate records the rows it was made
// on, so all of g's carry over, its own over those handed down to it.
// The map is a fresh one: g's passes may still be publishing into
// g.certs while the successor's read its carried set.
func (g *generation) successor(f *frame.Frame, p *sketch.DatasetProfile) *generation {
	g.mu.Lock()
	carried := make(map[cacheKey]core.Certificate, len(g.carried)+len(g.certs))
	maps.Copy(carried, g.carried)
	maps.Copy(carried, g.certs)
	g.mu.Unlock()
	return newGeneration(g.n+1, f, p, carried)
}

// CacheStats returns a snapshot of the scoring-cache counters.
func (e *Engine) CacheStats() CacheStats {
	g := e.gen.Load()
	g.mu.Lock()
	entries := len(g.entries)
	g.mu.Unlock()
	return CacheStats{
		Hits:       e.hits.Load(),
		Misses:     e.misses.Load(),
		Waits:      e.waits.Load(),
		Entries:    entries,
		Generation: g.n,
	}
}

// peek answers keys from g's memo without scoring, waiting or claiming:
// a memoized score lands in out at its key's index; the indices of the
// rest come back in ascending order. The caller counts the answered
// ones as hits — a missing candidate counts as a miss only once the
// pass claims it, and never if it is pruned.
func (g *generation) peek(keys []cacheKey, out []core.Insight) (misses []int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for i, k := range keys {
		if in, ok := g.entries[k]; ok {
			out[i] = in
			continue
		}
		if misses == nil {
			misses = make([]int, 0, len(keys)-i)
		}
		misses = append(misses, i)
	}
	return misses
}
