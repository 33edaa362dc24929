package query

import (
	"context"
	"math"
	"sort"

	"foresight/internal/core"
	"foresight/internal/par"
)

// This file is the engine's one scoring pass. Every insight query and
// every overview scores a list of positions of a class's candidate
// table (cache.go) through scorePass, into the slots of one column, in
// this order:
//
//	peek  one locked look at the column; done slots are answered by
//	      value
//	bound only when the query has something to prune against (K or
//	      MinScore) and there are bounds (prunes): bound the misses by
//	      the certificates an ingest handed down (+Inf for a miss
//	      without one), and order them by descending bound
//	score claim → score → publish the misses' slots through the worker
//	      pool (scoreMisses), in 2×workers chunks
//	      when bounded, raising the kth-best threshold between chunks
//	      and stopping at the first bound strictly below it; a run of
//	      equal bounds is never split. The pool's unit is a run: up to
//	      core.RunWidth claimed consecutive candidates sharing their
//	      first attribute, which a core.RunScorer scores from one scan
//	      of that column (runsOf); claiming, publishing and abandoning
//	      stay per candidate
//
// and the caller filters and ranks what comes back. Nothing selects
// between scorers: "nothing to prune against", "no certificates" and
// one worker are conditions the pass reads from its inputs.
//
// Equivalence argument (skipping candidates never changes a result): a
// candidate is skipped only when bound < t for the threshold t at that
// moment, and bounds are sound (score ≤ bound, enforced by the
// selfcheck successor gate and TestPruningOnDemoDatasets). If t came from
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
	// Carried counts the misses of those passes bounded by a
	// certificate an ingest handed down.
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

// prunes reports whether a pass over col takes the bound-ordered
// branch: the query has a top-k cut or a strength floor for bounds to
// fall below, and an ingest handed certificates down to col.
func prunes(col *column, k int, minScore float64) bool {
	return (k > 0 || minScore > 0) && col.carried != nil
}

// runsOf partitions the owned misses of a pass (pos[owned[o]] is a
// position of t) into the worker pool's units: a unit is up to
// core.RunWidth consecutive owned misses at consecutive positions that
// share their first attribute, for an exact pass of a core.RunScorer
// that is not a core.Successor, and otherwise one miss. Unit u is
// owned[starts[u]:starts[u+1]]; starts is nil when every unit is one
// miss. No unit is wider than ⌈len(owned)/workers⌉, so runs never leave
// a worker idle.
func runsOf(col *column, pos []int32, owned []int, workers int) (core.RunScorer, []int) {
	rs, ok := col.c.(core.RunScorer)
	_, succ := col.c.(core.Successor)
	width := min(core.RunWidth, (len(owned)+workers-1)/workers)
	if !ok || succ || col.approx || width < 2 {
		return nil, nil
	}
	starts := make([]int, 0, len(owned)+1)
	for o := 0; o < len(owned); {
		starts = append(starts, o)
		end, first := o+1, col.t.tuples[pos[owned[o]]][0]
		for end < len(owned) && end-o < width && owned[end] == owned[end-1]+1 &&
			pos[owned[end]] == pos[owned[end-1]]+1 && col.t.tuples[pos[owned[end]]][0] == first {
			end++
		}
		o = end
	}
	return rs, append(starts, len(owned))
}

// scoreTuple scores one candidate tuple of c on generation g and
// returns the certificate an exact score left (nil when none).
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
// the class's first) on the live generation, through its slot: a tuple
// scored there is not scored again, one in flight is waited for, and
// one scored here stays, with its certificate. A tuple outside the
// class's table (a reversed pair, a column the class does not take) has
// no slot and is scored directly, as is a metric the class lacks. An
// error is the class's own. The focus, neighborhood and exact render
// requests score their one insight here.
func (e *Engine) Score(c core.Class, attrs []string, metric string) (core.Insight, error) {
	g := e.gen.Load()
	if metric == "" {
		metric = c.Metrics()[0]
	}
	if !supportsMetric(c, metric) {
		return c.Score(g.frame, attrs, metric)
	}
	col := g.column(c, metric, false)
	if p, ok := col.t.position(attrs); ok {
		g.mu.Lock()
		s := col.slots[p].done
		g.mu.Unlock()
		in := skipped
		if s != nil {
			e.hits.Add(1)
			in = s.in
		} else if out := make([]core.Insight, 1); e.scoreMisses(context.Background(), g, col, []int32{p}, []int{0}, out) == nil {
			in = out[0]
		}
		// A failed score's slot is skipped: the direct score gives the error.
		if in.Class != "" {
			return in, nil
		}
	}
	in, _, err := scoreTuple(c, g, attrs, false, metric)
	return in, err
}

// scorePass returns the slot of each position of pos, in order, plus
// the number of candidates it pruned: proved outside the top k scores
// within [minScore, maxScore] without scoring them (k ≤ 0 means no
// top-k cut). Pruned and errored candidates come back as skipped slots.
// Scoring runs entirely against generation g and reads and fills only
// col, one of g's columns, whether or not g is still the live one.
//
// The context bounds the whole pass: scoring stops dispatching and
// singleflight waits unblock as soon as ctx is done, returning
// ctx.Err(). Whatever was scored before the cutoff stays in col.
func (e *Engine) scorePass(ctx context.Context, g *generation, col *column, pos []int32, k int, minScore, maxScore float64) ([]core.Insight, int, error) {
	// One locked look answers the done slots; the rest are the misses.
	out := make([]core.Insight, len(pos))
	var misses []int
	g.mu.Lock()
	for j, p := range pos {
		if s := col.slots[p].done; s != nil {
			out[j] = s.in
			continue
		}
		if misses == nil {
			misses = make([]int, 0, len(pos)-j)
		}
		misses = append(misses, j)
	}
	g.mu.Unlock()
	e.hits.Add(uint64(len(pos) - len(misses)))

	if !prunes(col, k, minScore) {
		// No bounds, or nothing to prune against: score every miss.
		if len(misses) > 0 {
			if err := e.scoreMisses(ctx, g, col, pos, misses, out); err != nil {
				return nil, 0, err
			}
		}
		return out, 0, nil
	}
	e.pruneConsidered.Add(uint64(len(pos)))

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
	for j, m := 0, 0; j < len(out); j++ {
		if m < len(misses) && misses[m] == j {
			m++
		} else if offer(out[j].Score) {
			seeded++
		}
	}
	e.pruneSeeded.Add(seeded)

	// Misses in descending bound order, position-ascending on ties, so
	// the pass is deterministic. A bound is never NaN: a NaN certificate
	// bound is never below +Inf.
	bounds := make([]float64, len(pos))
	succ := col.c.(core.Successor)
	var carried uint64
	for _, j := range misses {
		p := pos[j]
		bounds[j] = math.Inf(1)
		if col.carried[p] != nil {
			if b := succ.SuccessorBound(col.carried[p], g.frame, col.t.tuples[p], col.metric); b < bounds[j] {
				bounds[j] = b
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
	next := 0
	for next < len(misses) {
		t := minScore
		if s, ok := kth.Kth(); ok && s > t {
			t = s
		}
		end := next
		for end < len(misses) && bounds[misses[end]] >= t &&
			(end-next < chunk || bounds[misses[end]] == bounds[misses[end-1]]) {
			end++
		}
		if end == next {
			break
		}
		if err := e.scoreMisses(ctx, g, col, pos, misses[next:end], out); err != nil {
			return nil, 0, err
		}
		for _, j := range misses[next:end] {
			offer(out[j].Score)
		}
		next = end
	}
	pruned := misses[next:]
	for _, j := range pruned {
		out[j] = skipped
	}
	e.prunedTotal.Add(uint64(len(pruned)))
	return out, len(pruned), nil
}

// scoreMisses fills out[j] for every index j in idx with the slot of
// position pos[j]: done since the peek, in flight in another request
// and waited for, or claimed, scored on the worker pool and published.
// Its own slots are settled (scoreOwned) before it waits on anyone
// else's, and a slot its owner gave up on is claimed afresh.
func (e *Engine) scoreMisses(ctx context.Context, g *generation, col *column, pos []int32, idx []int, out []core.Insight) error {
	var mine chan struct{}
	var owned, waiting []int
	var waitOn []chan struct{}
	var hits uint64
	g.mu.Lock()
	for _, j := range idx {
		switch s := &col.slots[pos[j]]; {
		case s.done != nil:
			out[j] = s.done.in
			hits++
		case s.wait != nil:
			waiting, waitOn = append(waiting, j), append(waitOn, s.wait)
		default:
			if mine == nil {
				mine = make(chan struct{})
			}
			s.wait = mine
			owned = append(owned, j)
		}
	}
	g.mu.Unlock()
	e.hits.Add(hits)
	e.misses.Add(uint64(len(owned) + len(waiting)))
	e.waits.Add(uint64(len(waiting)))

	if len(owned) > 0 {
		if err := e.scoreOwned(ctx, g, col, pos, owned, out, mine); err != nil {
			return err
		}
	}
	if len(waiting) == 0 {
		return nil
	}
	for _, ch := range waitOn {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-ch:
		}
	}
	var retry []int
	g.mu.Lock()
	for _, j := range waiting {
		if s := col.slots[pos[j]].done; s != nil {
			out[j] = s.in
		} else {
			retry = append(retry, j)
		}
	}
	g.mu.Unlock()
	if len(retry) == 0 {
		return nil
	}
	// Their owner gave up before scoring these (cancelled or panicked):
	// claim them like any other miss.
	return e.scoreMisses(ctx, g, col, pos, retry, out)
}

// scoreOwned scores the slots scoreMisses claimed with mine on the
// worker pool, publishing each as it finishes. Once the pool has
// stopped, however it stopped (done, ctx fired, a scorer panicked, which
// then propagates), the unfinished ones go back to empty and mine
// closes.
func (e *Engine) scoreOwned(ctx context.Context, g *generation, col *column, pos []int32, owned []int, out []core.Insight, mine chan struct{}) error {
	defer func() {
		g.mu.Lock()
		for _, j := range owned {
			if s := &col.slots[pos[j]]; s.done == nil {
				s.wait = nil
			}
		}
		g.mu.Unlock()
		close(mine)
	}()
	publish := func(j int, sc *scored) {
		out[j] = sc.in
		g.mu.Lock()
		col.slots[pos[j]] = slot{done: sc}
		g.done++
		g.mu.Unlock()
	}
	// The pool's unit is a run of owned misses (runsOf), scored straight
	// into its slots of out; a run that fails as a whole is scored a
	// candidate at a time.
	rs, starts := runsOf(col, pos, owned, e.Workers())
	units := len(owned)
	if starts != nil {
		units = len(starts) - 1
	}
	return par.Each(ctx, e.Workers(), units, func(u int) {
		lo, hi := u, u+1
		if starts != nil {
			lo, hi = starts[u], starts[u+1]
		}
		e.inflightScores.Add(int64(hi - lo))
		defer e.inflightScores.Add(int64(lo - hi))
		if j, w := owned[lo], hi-lo; w > 1 {
			p := pos[j]
			if rs.ScoreRun(g.frame, col.t.tuples[p:p+int32(w)], col.metric, out[j:j+w]) == nil {
				for _, j := range owned[lo:hi] {
					publish(j, &scored{in: out[j]})
				}
				return
			}
		}
		for _, j := range owned[lo:hi] {
			in, cert, err := scoreTuple(col.c, g, col.t.tuples[pos[j]], col.approx, col.metric)
			if err != nil {
				in, cert = skipped, nil
			}
			publish(j, &scored{in, cert})
		}
	})
}
