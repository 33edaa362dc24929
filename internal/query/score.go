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
//	      equal bounds is never split. The pool's unit is a run: up to
//	      core.RunWidth claimed consecutive candidates sharing their
//	      first attribute, which a core.RunScorer scores from one scan
//	      of that column (runsOf); claiming, publishing and abandoning
//	      stay per candidate
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

// runsOf partitions the owned misses of a pass (idx[owned[o]] indexes
// cands) into the worker pool's units: a unit is up to core.RunWidth
// consecutive owned misses that are consecutive candidates and share
// their first attribute, for an exact pass of a core.RunScorer that is
// not a core.Successor, and otherwise one miss. Unit u is
// owned[starts[u]:starts[u+1]]; starts is nil when every unit is one
// miss. No unit is wider than ⌈len(owned)/workers⌉, so runs never leave
// a worker idle.
func runsOf(c core.Class, approx bool, cands [][]string, idx, owned []int, workers int) (core.RunScorer, []int) {
	rs, ok := c.(core.RunScorer)
	_, succ := c.(core.Successor)
	width := min(core.RunWidth, (len(owned)+workers-1)/workers)
	if !ok || succ || approx || width < 2 {
		return nil, nil
	}
	first := func(o int) string {
		if attrs := cands[idx[owned[o]]]; len(attrs) > 0 {
			return attrs[0]
		}
		return ""
	}
	starts := make([]int, 0, len(owned)+1)
	for o := 0; o < len(owned); {
		starts = append(starts, o)
		end := o + 1
		for end < len(owned) && end-o < width && idx[owned[end]] == idx[owned[end-1]]+1 && first(end) == first(o) {
			end++
		}
		o = end
	}
	return rs, append(starts, len(owned))
}

// scoreOne scores a single candidate tuple, folding scoring errors
// into a skipped slot, and returns the certificate an exact score left
// (nil when none). This is the unit of work the memo operates on, and
// the worker pool's whenever runsOf forms no run.
func scoreOne(c core.Class, g *generation, attrs []string, approx bool, metric string) (core.Insight, core.Certificate) {
	in, cert, err := scoreTuple(c, g, attrs, approx, metric)
	if err != nil {
		return skipped, nil
	}
	return in, cert
}

// scoreTuple is scoreOne with the class's error.
func scoreTuple(c core.Class, g *generation, attrs []string, approx bool, metric string) (in core.Insight, cert core.Certificate, err error) {
	switch s, ok := c.(core.Successor); {
	case approx:
		in, err = c.ScoreApprox(g.profile, attrs, metric)
	case ok:
		in, cert, err = s.ScoreCertified(g.frame, attrs, metric)
	default:
		in, err = c.Score(g.frame, attrs, metric)
	}
	return in, cert, err
}

// Score returns class c's exact insight on attrs under metric ("" for
// the class's first) on the live generation, through its memo: a tuple
// a pass or an earlier call scored there is not scored again, and one
// scored here is memoized, with its certificate, for the passes and
// calls after. An error is the class's own — an unknown column, a
// tuple the class cannot score, a metric it lacks — and leaves nothing
// in the memo. The focus, neighborhood and exact render requests score
// their one insight here.
func (e *Engine) Score(c core.Class, attrs []string, metric string) (core.Insight, error) {
	g := e.gen.Load()
	if metric == "" {
		metric = c.Metrics()[0]
	}
	if !supportsMetric(c, metric) {
		return c.Score(g.frame, attrs, metric)
	}
	key := keyFor(c.Name(), metric, false, attrs)
	g.mu.Lock()
	in, ok := g.entries[key]
	g.mu.Unlock()
	if ok && in.Class != "" {
		e.hits.Add(1)
		return in, nil
	}
	e.misses.Add(1)
	in, cert, err := scoreTuple(c, g, attrs, false, metric)
	if err != nil {
		return in, err
	}
	g.mu.Lock()
	g.entries[key] = in
	if cert != nil {
		g.certs[key] = cert
	}
	g.mu.Unlock()
	return in, nil
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

	// publish completes owned slot j with its score.
	publish := func(j int, in core.Insight, cert core.Certificate) {
		sl, i := slots[j], idx[j]
		out[i], sl.in = in, in
		close(sl.done)
		g.mu.Lock()
		g.entries[keys[i]] = in
		delete(g.inflight, keys[i])
		if cert != nil {
			g.certs[keys[i]] = cert
		}
		g.mu.Unlock()
	}
	// The pool's unit is a run of owned misses (runsOf), scored straight
	// into its slots of out; a run that fails as a whole is scored a
	// candidate at a time.
	rs, starts := runsOf(c, approx, cands, idx, owned, e.Workers())
	units := len(owned)
	if starts != nil {
		units = len(starts) - 1
	}
	err := par.Each(ctx, e.Workers(), units, func(u int) {
		lo, hi := u, u+1
		if starts != nil {
			lo, hi = starts[u], starts[u+1]
		}
		e.inflightScores.Add(int64(hi - lo))
		defer e.inflightScores.Add(int64(lo - hi))
		if i, w := idx[owned[lo]], hi-lo; w > 1 && rs.ScoreRun(g.frame, cands[i:i+w], metric, out[i:i+w]) == nil {
			for _, j := range owned[lo:hi] {
				publish(j, out[idx[j]], nil)
			}
			return
		}
		for _, j := range owned[lo:hi] {
			in, cert := scoreOne(c, g, cands[idx[j]], approx, metric)
			publish(j, in, cert)
		}
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
