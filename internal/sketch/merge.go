package sketch

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"foresight/internal/frame"
	"foresight/internal/stats"
)

// Partitioned preprocessing: §3's sketches are all mergeable, so the
// preprocessing pass can run over disjoint row partitions (chunks of
// a file, shards of a table) and combine the partial sketches. This
// file implements the per-partition build and the profile merge, and
// is exercised against the single-pass builder in tests.

// Merge folds another profile built over a *disjoint row partition of
// the same dataset with the same configuration* into p. Sketches
// merge pairwise; the shared row sample and per-column row-sample
// gathers are NOT merged (they index global rows) and must be rebuilt
// by the caller — BuildProfilePartitioned does so.
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
		// Reservoirs of disjoint partitions merge by weighted
		// subsampling: keep each side's items with probability
		// proportional to its stream share.
		np.Sample = mergeReservoirs(np.Sample, onp.Sample, p.Config.Seed)
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
// into one approximately uniform sample of the union. Each draw picks
// a side with probability proportional to that side's *remaining*
// stream mass (so the side split tracks the hypergeometric
// allocation), then takes a uniform not-yet-taken item from that
// side's sample. The side samples are shuffled first: a reservoir's
// item array is not in random order (an underfilled reservoir is in
// stream order, and algorithm R overwrites in place), so consuming
// prefixes would over-represent early-stream items.
func mergeReservoirs(a, b *Reservoir, seed int64) *Reservoir {
	if b == nil || b.Count() == 0 {
		return a
	}
	if a == nil || a.Count() == 0 {
		return b
	}
	total := a.Count() + b.Count()
	out := NewReservoir(a.capacity, seed+int64(total))
	rng := rand.New(rand.NewSource(seed + int64(total) + 1))
	as := append([]float64(nil), a.Sample()...)
	bs := append([]float64(nil), b.Sample()...)
	rng.Shuffle(len(as), func(i, j int) { as[i], as[j] = as[j], as[i] })
	rng.Shuffle(len(bs), func(i, j int) { bs[i], bs[j] = bs[j], bs[i] })
	// Each sample item stands in for count/len(sample) stream items;
	// decrement the side's remaining mass by that step per draw.
	wa, wb := float64(a.Count()), float64(b.Count())
	stepA, stepB := wa/float64(len(as)), wb/float64(len(bs))
	ai, bi := 0, 0
	for len(out.items) < out.capacity && (ai < len(as) || bi < len(bs)) {
		pickA := bi >= len(bs) ||
			(ai < len(as) && rng.Float64()*(wa+wb) < wa)
		if pickA {
			out.items = append(out.items, as[ai])
			ai++
			wa -= stepA
		} else {
			out.items = append(out.items, bs[bi])
			bi++
			wb -= stepB
		}
		if wa < 0 {
			wa = 0
		}
		if wb < 0 {
			wb = 0
		}
	}
	out.n = total
	return out
}

// buildRangeSketches builds the row-local partial sketches of rows
// [start, end) of f: moments, quantiles, value samples, heavy hitters
// and distinct counts — everything in a partial profile except the
// shared-direction projections, which need global centering and are
// filled in by the caller. Zero-copy row views feed the update loops,
// so a shard touches only its own window of each column. Per-column
// sketch seeds are salted with the range start, so a given
// (cfg, partitioning) is deterministic while distinct ranges draw
// independent compaction/sampling coins.
func buildRangeSketches(f *frame.Frame, cfg ProfileConfig, start, end int) *DatasetProfile {
	p := &DatasetProfile{
		Rows:        end - start,
		Numeric:     make(map[string]*NumericProfile),
		Categorical: make(map[string]*CategoricalProfile),
		RowSample:   &RowSample{},
		Config:      cfg,
	}
	for i, nc := range f.NumericColumns() {
		np := &NumericProfile{
			Name:      nc.Name(),
			Quantiles: NewKLL(cfg.KLLSize, cfg.Seed+int64(i)*7+2+int64(start)),
			Sample:    NewReservoir(cfg.SampleSize, cfg.Seed+int64(i)*7+3+int64(start)),
		}
		for _, v := range nc.ValuesRange(start, end) {
			if math.IsNaN(v) {
				continue
			}
			np.Moments.Add(v)
			np.Quantiles.Update(v)
			np.Sample.Update(v)
		}
		p.Numeric[nc.Name()] = np
	}
	for _, cc := range f.CategoricalColumns() {
		cp := &CategoricalProfile{
			Name:        cc.Name(),
			Heavy:       NewSpaceSaving(cfg.HeavyCapacity),
			Distinct:    NewKMV(cfg.KMVSize),
			Cardinality: cc.Cardinality(),
			Dict:        cc.Dict(),
		}
		dict := cc.Dict()
		for _, code := range cc.CodesRange(start, end) {
			if code < 0 {
				continue
			}
			item := dict[code]
			cp.Heavy.Update(item)
			cp.Distinct.Update(item)
			cp.Rows++
		}
		p.Categorical[cc.Name()] = cp
	}
	return p
}

// buildPartitionProfile builds the partial profile of rows
// [start, end) of f, centering projections by the provided global
// means so partials are merge-compatible.
func buildPartitionProfile(f *frame.Frame, cfg ProfileConfig, start, end int, means map[string]float64) *DatasetProfile {
	p := buildRangeSketches(f, cfg, start, end)
	numeric := f.NumericColumns()
	cols := make([][]float64, len(numeric))
	colMeans := make([]float64, len(numeric))
	for i, nc := range numeric {
		cols[i] = nc.Values()
		colMeans[i] = means[nc.Name()]
	}
	projections := projectRange(cols, colMeans, start, end,
		ProjectConfig{K: cfg.K, Seed: cfg.Seed + 101, Workers: cfg.Workers})
	for i, nc := range numeric {
		np := p.Numeric[nc.Name()]
		np.Proj = projections[i]
		np.ProjCenter = colMeans[i]
		np.Planes = HyperplaneFromProjection(projections[i])
	}
	return p
}

// BuildProfilePartitioned preprocesses f in `parts` row partitions
// and merges the partial profiles — functionally equivalent to
// BuildProfile (hyperplane estimates match exactly up to
// floating-point associativity) while demonstrating §3's mergeable-
// sketch pipeline. The global per-column means needed for centered
// projections come from a cheap first moments pass. Rank (Spearman)
// projections are not built in partitioned mode — ranks are a global
// transform.
func BuildProfilePartitioned(f *frame.Frame, cfg ProfileConfig, parts int) *DatasetProfile {
	defer observeSince("build.partitioned", time.Now())
	cfg.fill(f.Rows())
	cfg.Spearman = false
	if f.Rows() == 0 {
		// No rows means no partitions: the per-partition loop below
		// would divide by zero and leave merged nil. The one-pass
		// builder handles the empty frame (found by
		// FuzzProfileRoundTrip).
		return BuildProfile(f, cfg)
	}
	if parts < 1 {
		parts = 1
	}
	if parts > f.Rows() {
		parts = f.Rows()
	}
	// Pass 1: global means.
	means := make(map[string]float64, len(f.NumericColumns()))
	for _, nc := range f.NumericColumns() {
		means[nc.Name()] = stats.Mean(nc.Values())
	}
	// Pass 2: per-partition partials, merged left to right.
	var merged *DatasetProfile
	per := (f.Rows() + parts - 1) / parts
	for start := 0; start < f.Rows(); start += per {
		end := start + per
		if end > f.Rows() {
			end = f.Rows()
		}
		part := buildPartitionProfile(f, cfg, start, end, means)
		if merged == nil {
			merged = part
			continue
		}
		if err := merged.Merge(part); err != nil {
			// Partitions are constructed compatible by this function;
			// a mismatch is a programming error.
			panic(err)
		}
	}
	// Rebuild the global row sample and per-column gathers.
	merged.RowSample = NewRowSample(f.Rows(), cfg.RowSampleSize, cfg.Seed+1)
	for _, nc := range f.NumericColumns() {
		merged.Numeric[nc.Name()].RowSampleValues = merged.RowSample.GatherFloats(nc.Values())
	}
	for _, cc := range f.CategoricalColumns() {
		merged.Categorical[cc.Name()].RowSampleCodes = merged.RowSample.GatherCodes(cc.Codes())
	}
	merged.Rows = f.Rows()
	return merged
}
