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
// combining half. build.go is the half that builds the partials.

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
	// Derived bit vectors are rebuilt from the merged dots.
	np.Planes = HyperplaneFromProjection(np.Proj)
	if np.RankProj != nil {
		np.RankPlanes = HyperplaneFromProjection(np.RankProj)
	}
	return nil
}
