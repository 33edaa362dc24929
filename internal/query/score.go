package query

import (
	"context"
	"math"
	"sort"

	"foresight/internal/core"
	"foresight/internal/par"
)

// This file is the engine's one scoring pass. Every insight query and
// every overview scores a class's candidates through scorePass, in
// this order:
//
//	key   one memo key per candidate
//	peek  one locked look at the memo; hits are answered by value
//	bound only when the query has something to prune against (K or
//	      MinScore), the class is a core.Bounder and the generation has
//	      a profile: bound the misses (by a handed-down certificate where
//	      that is lower), order them by descending bound
//	score claim → score → publish the misses through the singleflight
//	      map and the worker pool (scoreMisses), in 2×workers chunks
//	      when bounded, raising the kth-best threshold between chunks
//	      and stopping at the first bound strictly below it; a run of
//	      equal bounds is never split
//
// and the caller filters and ranks what comes back. Nothing selects
// between scorers: "nothing to prune against", "no profile" and one
// worker are conditions the pass reads from its inputs.
//
// Equivalence argument (skipping candidates never changes a result): a
// candidate is skipped only when bound < t for the threshold t at that
// moment, and bounds are sound (score ≤ bound, enforced by the
// selfcheck gate and TestPruningOnDemoDatasets). If t came from
// MinScore, the score would have been dropped by the strength filter;
// if t is the kth-best filtered score seen so far, at least k
// candidates outscore it strictly, so it cannot enter the top k
// (core.TopKExcluded breaks ties by score first — a strictly smaller
// score never displaces a larger one, whatever the key order). The
// comparison is strict: a candidate whose bound equals the threshold
// is still scored, because an exact tie is resolved by insight key and
// could go either way. Both filters and the top-k selection are
// order-independent (the selection is a total order on (score desc,
// key asc)), so removing candidates that cannot survive them leaves
// the returned insights — scores, attrs, ordering — unchanged. Only
// the Margin/bestExcluded telemetry can differ (the best excluded
// candidate may now be unscored), which is documented as conservative.
// Skipped candidates are never scored, claimed or memoized.

// PruneStats is a point-in-time snapshot of the engine's pruning
// counters, exposed via /api/stats and the Prometheus views.
type PruneStats struct {
	// Considered counts the candidates of passes that took the
	// bound-ordered branch.
	Considered uint64 `json:"considered"`
	// Pruned counts candidates skipped outright — never scored —
	// because their bound fell below the top-k/MinScore threshold.
	Pruned uint64 `json:"pruned"`
	// Seeded counts memoized scores that pre-seeded the top-k
	// threshold before any scoring ran (higher = earlier cutoffs).
	Seeded uint64 `json:"seeded"`
	// Carried counts the misses of those passes whose bound came from a
	// certificate an ingest handed down: it was below the class's own.
	Carried uint64 `json:"carried"`
}

// PruneStats returns a snapshot of the pruning counters.
func (e *Engine) PruneStats() PruneStats {
	return PruneStats{
		Considered: e.pruneConsidered.Load(),
		Pruned:     e.prunedTotal.Load(),
		Seeded:     e.pruneSeeded.Load(),
		Carried:    e.carriedBounds.Load(),
	}
}

// skipped marks a slot that holds no insight: the candidate's scoring
// errored or the pass proved it outside the result without scoring
// it. The empty Class tells it from a scored slot and the NaN score
// keeps it out of every ranking.
var skipped = core.Insight{Score: math.NaN()}

// prunes reports whether a pass over c's candidates takes the
// bound-ordered branch: the class has bounds, generation g has the
// profile they are computed from, and the query has a top-k cut or a
// strength floor for them to fall below.
func prunes(c core.Class, g *generation, k int, minScore float64) bool {
	_, bounded := c.(core.Bounder)
	return bounded && g.profile != nil && (k > 0 || minScore > 0)
}

// scoreOne scores a single candidate tuple, folding scoring errors
// into a skipped slot, and returns the certificate an exact score left
// (nil when none). This is the unit of work both the worker pool and
// the memo operate on.
func scoreOne(c core.Class, g *generation, attrs []string, approx bool, metric string) (core.Insight, core.Certificate) {
	var in core.Insight
	var cert core.Certificate
	var err error
	switch s, ok := c.(core.Successor); {
	case approx:
		in, err = c.ScoreApprox(g.profile, attrs, metric)
	case ok:
		in, cert, err = s.ScoreCertified(g.frame, attrs, metric)
	default:
		in, err = c.Score(g.frame, attrs, metric)
	}
	if err != nil {
		return skipped, nil
	}
	return in, cert
}

// scorePass returns one slot per candidate tuple, in candidate order,
// plus the number of candidates it pruned: proved outside the top k
// scores within [minScore, maxScore] without scoring them (k ≤ 0 means
// no top-k cut). Pruned and errored candidates come back as skipped
// slots. Scoring runs entirely against generation g and reads and
// fills only g's memo, whether or not g is still the live one.
//
// The context bounds the whole pass: scoring stops dispatching and
// singleflight waits unblock as soon as ctx is done, returning
// ctx.Err(). Whatever was scored before the cutoff is already in the
// memo.
func (e *Engine) scorePass(ctx context.Context, g *generation, c core.Class, cands [][]string, approx bool, metric string, k int, minScore, maxScore float64) ([]core.Insight, int, error) {
	out := make([]core.Insight, len(cands))
	keys := make([]cacheKey, len(cands))
	class := c.Name()
	for i, attrs := range cands {
		keys[i] = keyFor(class, metric, approx, attrs)
	}
	misses := g.peek(keys, out)
	e.hits.Add(uint64(len(keys) - len(misses)))

	if !prunes(c, g, k, minScore) {
		// No bounds, or nothing to prune against: score every miss.
		if len(misses) > 0 {
			if err := e.scoreMisses(ctx, g, c, cands, keys, misses, out, approx, metric); err != nil {
				return nil, 0, err
			}
		}
		return out, 0, nil
	}
	e.pruneConsidered.Add(uint64(len(cands)))

	// The threshold is the kth-best score seen so far that survives the
	// caller's strength filter (NaN never does), floored by minScore.
	// Memoized scores are free, so they seed it and let the cutoff fire
	// before any scoring happens on a warm engine.
	kth := core.NewKBest(k, func(a, b float64) bool { return a > b })
	offer := func(s float64) bool {
		if s >= minScore && s <= maxScore {
			kth.Offer(s)
			return true
		}
		return false
	}
	var seeded uint64
	for i, m := 0, 0; i < len(out); i++ {
		if m < len(misses) && misses[m] == i {
			m++
		} else if offer(out[i].Score) {
			seeded++
		}
	}
	e.pruneSeeded.Add(seeded)

	// Misses in descending bound order, index-ascending on ties, so the
	// pass is deterministic. Bounds are never NaN (ScoreBoundFor, and a
	// NaN certificate bound is never below it).
	bounds := make([]float64, len(cands))
	succ, _ := c.(core.Successor)
	var carried uint64
	for _, i := range misses {
		bounds[i] = core.ScoreBoundFor(c, g.profile, cands[i], metric)
		if cert, ok := g.carried[keys[i]]; ok {
			if b := succ.SuccessorBound(cert, g.frame, cands[i], metric); b < bounds[i] {
				bounds[i] = b
				carried++
			}
		}
	}
	e.carriedBounds.Add(carried)
	sort.Slice(misses, func(x, y int) bool {
		a, b := misses[x], misses[y]
		if bounds[a] != bounds[b] {
			return bounds[a] > bounds[b]
		}
		return a < b
	})

	// Score them in chunks sized for the worker pool, re-reading the
	// threshold between chunks. It only rises and bounds only fall, so
	// the first bound strictly below it ends the whole pass. A run of
	// equal bounds B is one chunk: its scores cannot lift the threshold
	// above B, so all of it is scored either way, in one hand-off.
	chunk := 2 * e.Workers()
	pos := 0
	for pos < len(misses) {
		t := minScore
		if s, ok := kth.Kth(); ok && s > t {
			t = s
		}
		end := pos
		for end < len(misses) && bounds[misses[end]] >= t &&
			(end-pos < chunk || bounds[misses[end]] == bounds[misses[end-1]]) {
			end++
		}
		if end == pos {
			break
		}
		if err := e.scoreMisses(ctx, g, c, cands, keys, misses[pos:end], out, approx, metric); err != nil {
			return nil, 0, err
		}
		for _, i := range misses[pos:end] {
			offer(out[i].Score)
		}
		pos = end
	}
	pruned := misses[pos:]
	for _, i := range pruned {
		out[i] = skipped
	}
	e.prunedTotal.Add(uint64(len(pruned)))
	return out, len(pruned), nil
}

// scoreMisses fills out[i] for every candidate index i in idx: from
// the memo when another request published the score since the peek,
// by waiting on another request's in-flight scoring of the same key,
// or by claiming the key, scoring it on the worker pool and publishing
// it — so concurrent duplicate scoring collapses to one computation.
//
// An owner that bails out (its ctx fired, or its scorer panicked)
// marks its unfinished slots abandoned and wakes every waiter; waiters
// claim abandoned candidates afresh instead of inheriting work nobody
// finished. A panicking scorer propagates to the caller after that.
func (e *Engine) scoreMisses(ctx context.Context, g *generation, c core.Class, cands [][]string, keys []cacheKey, idx []int, out []core.Insight, approx bool, metric string) error {
	// slots[j] is the in-flight slot of idx[j], owned or waited on.
	slots := make([]*inflightSlot, len(idx))
	owned := make([]int, 0, len(idx))
	var waiting []int
	var hits uint64
	g.mu.Lock()
	for j, i := range idx {
		if in, ok := g.entries[keys[i]]; ok {
			out[i] = in
			hits++
			continue
		}
		if sl, ok := g.inflight[keys[i]]; ok {
			slots[j] = sl
			waiting = append(waiting, j)
			continue
		}
		slots[j] = &inflightSlot{done: make(chan struct{})}
		g.inflight[keys[i]] = slots[j]
		owned = append(owned, j)
	}
	g.mu.Unlock()
	e.hits.Add(hits)
	e.misses.Add(uint64(len(owned) + len(waiting)))
	e.waits.Add(uint64(len(waiting)))

	// Abandon any owned slot that never completed, whatever the exit
	// path (ctx error, waiter-loop bailout, scorer panic): waiters are
	// woken with abandoned set so the work is retried by whoever still
	// wants it, never inherited as a hang. Runs after the pool has
	// quiesced, so no owner can race the close.
	defer func() {
		for _, j := range owned {
			sl := slots[j]
			select {
			case <-sl.done:
			default:
				g.mu.Lock()
				if g.inflight[keys[idx[j]]] == sl {
					delete(g.inflight, keys[idx[j]])
				}
				g.mu.Unlock()
				sl.abandoned = true
				close(sl.done)
			}
		}
	}()

	err := par.Each(ctx, e.Workers(), len(owned), func(o int) {
		e.inflightScores.Add(1)
		defer e.inflightScores.Add(-1)
		sl, i := slots[owned[o]], idx[owned[o]]
		var cert core.Certificate
		out[i], cert = scoreOne(c, g, cands[i], approx, metric)
		sl.in = out[i]
		close(sl.done)
		g.mu.Lock()
		g.entries[keys[i]] = out[i]
		delete(g.inflight, keys[i])
		if cert != nil {
			g.certs[keys[i]] = cert
		}
		g.mu.Unlock()
	})
	if err != nil {
		return err
	}
	var retry []int
	for _, j := range waiting {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-slots[j].done:
		}
		if slots[j].abandoned {
			retry = append(retry, idx[j])
		} else {
			out[idx[j]] = slots[j].in
		}
	}
	if len(retry) == 0 {
		return nil
	}
	// Their owner gave up before scoring these keys (cancelled or
	// panicked): claim them like any other miss.
	return e.scoreMisses(ctx, g, c, cands, keys, retry, out, approx, metric)
}
