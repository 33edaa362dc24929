package sketch

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// §3's sketches are all mergeable, so the preprocessing pass can run
// over disjoint row ranges (the rows at build time, each batch of an
// extension) and combine the partial sketches. This file is the
// combining half: the profile merge and the reservoir merge under it.
// build.go is the half that builds the partials.

// Merge folds another profile built over a *disjoint row partition of
// the same dataset with the same configuration* into p. Sketches
// merge pairwise; the shared row sample and per-column row-sample
// gathers are NOT merged (they index global rows) and must be rebuilt
// by the caller — finish and extend do so. The numeric columns merge
// on p.Config.Workers, each by the same operations in the same order
// at any count. A failed merge may leave p partly merged.
func (p *DatasetProfile) Merge(other *DatasetProfile) error {
	if other == nil {
		return nil
	}
	defer observeSince("merge", time.Now())
	if p.Config.K != other.Config.K || p.Config.Seed != other.Config.Seed {
		return ErrShapeMismatch
	}
	type pair struct{ dst, src *NumericProfile }
	pairs := make([]pair, 0, len(other.Numeric))
	for name, onp := range other.Numeric {
		np, ok := p.Numeric[name]
		if !ok {
			return fmt.Errorf("sketch: merge: numeric column %q missing", name)
		}
		// Projections only merge when both sides centered the column by
		// the same mean; partials built from drifting means would sum
		// incompatible dot vectors silently.
		if np.ProjCenter != onp.ProjCenter &&
			!(math.IsNaN(np.ProjCenter) && math.IsNaN(onp.ProjCenter)) {
			return fmt.Errorf("sketch: merge: column %q centered at %v vs %v: %w",
				name, np.ProjCenter, onp.ProjCenter, ErrShapeMismatch)
		}
		pairs = append(pairs, pair{np, onp})
	}
	errs := make([]error, len(pairs))
	eachColumn(len(pairs), p.Config.Workers, func(i int) {
		errs[i] = pairs[i].dst.merge(pairs[i].src)
	})
	if err := errors.Join(errs...); err != nil {
		return err
	}
	for name, ocp := range other.Categorical {
		cp, ok := p.Categorical[name]
		if !ok {
			return fmt.Errorf("sketch: merge: categorical column %q missing", name)
		}
		if err := cp.Heavy.Merge(ocp.Heavy); err != nil {
			return err
		}
		if err := cp.Distinct.Merge(ocp.Distinct); err != nil {
			return err
		}
		cp.Rows += ocp.Rows
		if ocp.Cardinality > cp.Cardinality {
			cp.Cardinality = ocp.Cardinality
		}
	}
	p.Rows += other.Rows
	return nil
}

// merge folds one numeric column's sketches over a disjoint row
// partition into np; Merge has checked that both sides share a centre.
// np's quantile sketch is only read: the merged one replaces it
// (KLL.merged). Nothing of o is kept.
func (np *NumericProfile) merge(o *NumericProfile) error {
	np.Moments.Merge(o.Moments)
	np.Quantiles = np.Quantiles.merged(o.Quantiles)
	if err := np.Proj.Merge(o.Proj); err != nil {
		return err
	}
	if np.RankProj != nil && o.RankProj != nil {
		if err := np.RankProj.Merge(o.RankProj); err != nil {
			return err
		}
	}
	np.Sample = mergeReservoirs(np.Sample, o.Sample)
	// Derived bit vectors are rebuilt from the merged dots.
	np.Planes = HyperplaneFromProjection(np.Proj)
	if np.RankProj != nil {
		np.RankPlanes = HyperplaneFromProjection(np.RankProj)
	}
	return nil
}

// mergeReservoirs combines two uniform samples over disjoint streams
// into one uniform sample of the union; neither argument is modified,
// and the result continues a's coin stream (a's seed, the union's
// count). A side that still holds its whole stream — every ingest batch
// under the reservoir's capacity does — is replayed value by value
// through algorithm R into the other side, which is exact and costs
// O(that side). Into a full a, the replay records the slots it writes
// (slotted) rather than copying a's sample to write them. Two
// subsampled sides (a batch larger than the reservoir, folded into a
// store that is already subsampled) are combined by a weighted draw
// that is only approximately uniform: each draw picks a side with
// probability proportional to that side's *remaining* stream mass (so
// the side split tracks the hypergeometric allocation), then takes a
// uniform not-yet-taken item of that side's sample. The item is
// drawn, not read off a prefix: a reservoir's item array is not in
// random order (algorithm R overwrites in place), so consuming
// prefixes would over-represent early-stream items.
func mergeReservoirs(a, b *Reservoir) *Reservoir {
	if b.n == 0 {
		return a
	}
	if b.whole() && a.items.len() == a.capacity {
		return a.replayed(b.Sample())
	}
	if b.whole() || a.whole() {
		into, replay := a, b
		if !b.whole() {
			into, replay = b, a
		}
		intoItems, replayItems := into.Sample(), replay.Sample()
		out := &Reservoir{
			capacity: a.capacity,
			items:    builtSlots(append(make([]float64, 0, min(len(intoItems)+len(replayItems), a.capacity)), intoItems...)),
			n:        into.n,
			seed:     a.seed,
		}
		for _, x := range replayItems {
			out.Update(x)
		}
		return out
	}
	total := a.n + b.n
	// The draws of this merge are their own streams, keyed by where in
	// a's stream the merge happens.
	seed := int64(coin(a.seed, 1, total))
	items := make([]float64, 0, a.capacity)
	as := append([]float64(nil), a.Sample()...)
	bs := append([]float64(nil), b.Sample()...)
	// Each sample item stands in for count/len(sample) stream items;
	// decrement the side's remaining mass by that step per draw.
	wa, wb := float64(a.n), float64(b.n)
	stepA, stepB := wa/float64(len(as)), wb/float64(len(bs))
	ai, bi := 0, 0 // items before these are taken
	for len(items) < a.capacity && (ai < len(as) || bi < len(bs)) {
		i := uint64(len(items))
		pickA := bi >= len(bs) ||
			(ai < len(as) && unit(coin(seed, 0, i))*(wa+wb) < wa)
		if pickA {
			items = append(items, takeRemaining(as, ai, coin(seed, 1, i)))
			ai++
			wa = max(wa-stepA, 0)
		} else {
			items = append(items, takeRemaining(bs, bi, coin(seed, 1, i)))
			bi++
			wb = max(wb-stepB, 0)
		}
	}
	return &Reservoir{capacity: a.capacity, items: builtSlots(items), n: total, seed: a.seed}
}

// replayed returns the full reservoir s after xs are offered to it, as
// Update would offer them to a copy: the slots algorithm R picks are
// recorded, not written.
func (s *Reservoir) replayed(xs []float64) *Reservoir {
	var buf [64]slotWrite[float64]
	ws, n := buf[:0], s.n
	for _, x := range xs {
		n++
		if j := below(coin(s.seed, 0, n), n); j < uint64(s.capacity) {
			ws = append(ws, slotWrite[float64]{int(j), x})
		}
	}
	return &Reservoir{capacity: s.capacity, items: s.items.extended(s.capacity, ws), n: n, seed: s.seed}
}

// takeRemaining swaps a uniform item of xs[from:], chosen by coin c,
// into xs[from] and returns it.
func takeRemaining(xs []float64, from int, c uint64) float64 {
	j := from + int(below(c, uint64(len(xs)-from)))
	xs[from], xs[j] = xs[j], xs[from]
	return xs[from]
}
