package sketch

import (
	"fmt"
	"math"
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

// buildRangeSketches builds the row-local partial sketches of rows
// [start, end) of f: moments, quantiles, value samples, heavy hitters
// and distinct counts — everything in a partial profile except the
// shared-direction projections, which need global centering and are
// filled in by the caller. Zero-copy row views feed the update loops,
// so a shard touches only its own window of each column. Per-column
// sketch seeds are salted with the range start, so a given
// (cfg, partitioning) is deterministic while distinct ranges flip
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
			Sample:    NewReservoir(cfg.SampleSize, reservoirSeed(cfg.Seed, nc.Name())+int64(start)),
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
