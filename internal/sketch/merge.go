package sketch

import (
	"fmt"
	"math"
	"time"
)

// §3's sketches are all mergeable, so the preprocessing pass can run
// over disjoint row ranges (shards of a build, the batch of an
// extension) and combine the partial sketches. This file is the
// combining half: the profile merge and the reservoir merge under it.
// build.go is the half that builds the partials.

// Merge folds another profile built over a *disjoint row partition of
// the same dataset with the same configuration* into p. Sketches
// merge pairwise; the shared row sample and per-column row-sample
// gathers are NOT merged (they index global rows) and must be rebuilt
// by the caller — finish and extend do so.
func (p *DatasetProfile) Merge(other *DatasetProfile) error {
	if other == nil {
		return nil
	}
	defer observeSince("merge", time.Now())
	if p.Config.K != other.Config.K || p.Config.Seed != other.Config.Seed {
		return ErrShapeMismatch
	}
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
		np.Moments.Merge(onp.Moments)
		if err := np.Quantiles.Merge(onp.Quantiles); err != nil {
			return err
		}
		if err := np.Proj.Merge(onp.Proj); err != nil {
			return err
		}
		if np.RankProj != nil && onp.RankProj != nil {
			if err := np.RankProj.Merge(onp.RankProj); err != nil {
				return err
			}
		}
		np.Sample = mergeReservoirs(np.Sample, onp.Sample)
		// Derived bit vectors are rebuilt from the merged dots.
		np.Planes = HyperplaneFromProjection(np.Proj)
		if np.RankProj != nil {
			np.RankPlanes = HyperplaneFromProjection(np.RankProj)
		}
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

// mergeReservoirs combines two uniform samples over disjoint streams
// into one uniform sample of the union; neither argument is modified,
// and the result continues a's coin stream (a's seed, the union's
// count). A side that still holds its whole stream — every ingest batch
// under the reservoir's capacity does — is replayed value by value
// through algorithm R into a copy of the other side, which is exact
// and costs O(that side). Two subsampled sides (shards of a sharded
// build) are combined by a weighted draw that is only approximately
// uniform: each draw picks a side with probability proportional to that
// side's *remaining* stream mass (so the side split tracks the
// hypergeometric allocation), then takes a uniform not-yet-taken item
// of that side's sample. The item is drawn, not read off a prefix: a
// reservoir's item array is not in random order (algorithm R overwrites
// in place), so consuming prefixes would over-represent early-stream
// items.
func mergeReservoirs(a, b *Reservoir) *Reservoir {
	if b.n == 0 {
		return a
	}
	if b.whole() || a.whole() {
		into, replay := a, b
		if !b.whole() {
			into, replay = b, a
		}
		out := &Reservoir{
			capacity: a.capacity,
			items:    append(make([]float64, 0, min(len(into.items)+len(replay.items), a.capacity)), into.items...),
			n:        into.n,
			seed:     a.seed,
		}
		for _, x := range replay.items {
			out.Update(x)
		}
		return out
	}
	total := a.n + b.n
	// The draws of this merge are their own streams, keyed by where in
	// a's stream the merge happens.
	seed := int64(coin(a.seed, 1, total))
	out := &Reservoir{capacity: a.capacity, items: make([]float64, 0, a.capacity), n: total, seed: a.seed}
	as := append([]float64(nil), a.items...)
	bs := append([]float64(nil), b.items...)
	// Each sample item stands in for count/len(sample) stream items;
	// decrement the side's remaining mass by that step per draw.
	wa, wb := float64(a.n), float64(b.n)
	stepA, stepB := wa/float64(len(as)), wb/float64(len(bs))
	ai, bi := 0, 0 // items before these are taken
	for len(out.items) < out.capacity && (ai < len(as) || bi < len(bs)) {
		i := uint64(len(out.items))
		pickA := bi >= len(bs) ||
			(ai < len(as) && unit(coin(seed, 0, i))*(wa+wb) < wa)
		if pickA {
			out.items = append(out.items, takeRemaining(as, ai, coin(seed, 1, i)))
			ai++
			wa = max(wa-stepA, 0)
		} else {
			out.items = append(out.items, takeRemaining(bs, bi, coin(seed, 1, i)))
			bi++
			wb = max(wb-stepB, 0)
		}
	}
	return out
}

// takeRemaining swaps a uniform item of xs[from:], chosen by coin c,
// into xs[from] and returns it.
func takeRemaining(xs []float64, from int, c uint64) float64 {
	j := from + int(below(c, uint64(len(xs)-from)))
	xs[from], xs[j] = xs[j], xs[from]
	return xs[from]
}
