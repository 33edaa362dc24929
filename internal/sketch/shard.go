package sketch

import (
	"math"
	"runtime"
	"time"

	"foresight/internal/frame"
	"foresight/internal/stats"
)

// Sharded data-parallel preprocessing: BuildProfilePartitioned proves
// the §3 merge operators are correct, but it builds partitions one
// after another. This file makes the same decomposition fast — the
// frame's row range is split into contiguous shards, partial profiles
// build concurrently over zero-copy row views, and the partials
// reduce through the merge operators in a fixed binary-tree order, so
// the result is reproducible given (frame, cfg, shards).
//
// The projection pass needs no coordination: the direction of a
// global row is a function of (seed, row) (see fillDirections), so
// each shard runs the projection kernel over its own rows and the
// shard Projections sum to the sequential result up to floating-point
// association. Shard interiors are aligned to direction blocks so no
// block is drawn twice.

// resolveShards applies the sketch layer's uniform parallelism
// convention to a shard count: 0 and 1 mean sequential, negative
// means GOMAXPROCS.
func resolveShards(shards int) int {
	if shards < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return shards
}

// shardBounds splits rows [lo, hi) into at most `shards` contiguous
// ranges. Interior boundaries align to the direction stream's blocks —
// multiples of directionGranule counted from global row 0 — so each
// block is drawn by exactly one shard. Empty ranges are dropped; fewer
// than `shards` ranges come back when the span covers fewer blocks
// than shards.
func shardBounds(lo, hi, shards int) [][2]int {
	if hi <= lo {
		return nil
	}
	if shards < 1 {
		shards = 1
	}
	firstBlock := lo / directionGranule
	lastBlock := (hi + directionGranule - 1) / directionGranule
	nBlocks := lastBlock - firstBlock
	if shards > nBlocks {
		shards = nBlocks
	}
	bounds := make([][2]int, 0, shards)
	for p := 0; p < shards; p++ {
		start := max(lo, (firstBlock+p*nBlocks/shards)*directionGranule)
		end := min(hi, (firstBlock+(p+1)*nBlocks/shards)*directionGranule)
		if end > start {
			bounds = append(bounds, [2]int{start, end})
		}
	}
	return bounds
}

// shardedProjections computes, for every shard range in bounds, the
// per-column Projections of that shard's rows: one projectRange per
// shard, the shards concurrent. Returned as out[shard][column].
func shardedProjections(cols [][]float64, means []float64, bounds [][2]int, cfg ProjectConfig) [][]*Projection {
	out := make([][]*Projection, len(bounds))
	eachColumn(len(bounds), len(bounds), func(p int) {
		out[p] = projectRange(cols, means, bounds[p][0], bounds[p][1], cfg)
	})
	return out
}

// mergeProfileTree reduces shard partials with the §3 merge operators
// in a fixed binary-tree order: in each round, the partial at index i
// absorbs the partial `stride` to its right, and the stride doubles.
// The reduction order depends only on len(parts), so the result is
// reproducible; pairs within a round are independent and merge
// concurrently. parts is consumed.
func mergeProfileTree(parts []*DatasetProfile, workers int) *DatasetProfile {
	if len(parts) == 0 {
		return nil
	}
	for stride := 1; stride < len(parts); stride *= 2 {
		var pairs [][2]int
		for i := 0; i+stride < len(parts); i += 2 * stride {
			pairs = append(pairs, [2]int{i, i + stride})
		}
		eachColumn(len(pairs), workers, func(j int) {
			dst, src := pairs[j][0], pairs[j][1]
			if err := parts[dst].Merge(parts[src]); err != nil {
				// Shard partials are constructed compatible by this file;
				// a mismatch is a programming error.
				panic(err)
			}
		})
	}
	return parts[0]
}

// shardedPartial builds the partial profile of rows [lo, hi) using
// `shards` concurrent shard builders and a tree reduction —
// semantically the same partial buildPartitionProfile produces for
// the range, which it falls back to when the range spans at most one
// direction block. Projections are centered by the provided global
// means. The caller rebuilds row samples; Spearman rank projections
// (a global transform) are the caller's concern too.
func shardedPartial(f *frame.Frame, cfg ProfileConfig, lo, hi int, means map[string]float64, shards int) *DatasetProfile {
	bounds := shardBounds(lo, hi, shards)
	if len(bounds) <= 1 {
		return buildPartitionProfile(f, cfg, lo, hi, means)
	}

	// Phase 1 — row-local sketches, one goroutine per shard.
	shardStart := time.Now()
	parts := make([]*DatasetProfile, len(bounds))
	eachColumn(len(bounds), shards, func(p int) {
		parts[p] = buildRangeSketches(f, cfg, bounds[p][0], bounds[p][1])
	})
	observeSince("build.shard", shardStart)

	// Phase 2 — shared-direction projections, one kernel call per shard.
	projStart := time.Now()
	numeric := f.NumericColumns()
	cols := make([][]float64, len(numeric))
	colMeans := make([]float64, len(numeric))
	for i, nc := range numeric {
		cols[i] = nc.Values()
		colMeans[i] = means[nc.Name()]
	}
	shardProj := shardedProjections(cols, colMeans, bounds,
		ProjectConfig{K: cfg.K, Seed: cfg.Seed + 101, Workers: cfg.Workers})
	for p := range parts {
		for i, nc := range numeric {
			np := parts[p].Numeric[nc.Name()]
			np.Proj = shardProj[p][i]
			np.ProjCenter = colMeans[i]
			np.Planes = HyperplaneFromProjection(np.Proj)
		}
	}
	observeSince("build.project", projStart)

	// Phase 3 — deterministic tree reduction.
	mergeStart := time.Now()
	merged := mergeProfileTree(parts, shards)
	observeSince("build.merge", mergeStart)
	return merged
}

// BuildProfileSharded is BuildProfile with the row range split into
// `shards` contiguous shards built concurrently and reduced with the
// §3 merge operators (see the file comment). The result is
// reproducible given (frame, cfg, shards) — reduction order is a
// fixed tree — and agrees with BuildProfile on every exact statistic
// (moments, row counts, cardinalities) while sketch-derived scores
// drift only within sketch error (benchmarked in E13). Shard counts
// follow the uniform convention: 0 or 1 delegates to BuildProfile —
// the bit-identical sequential path — and negative means GOMAXPROCS
// (reproducible per machine).
func BuildProfileSharded(f *frame.Frame, cfg ProfileConfig, shards int) *DatasetProfile {
	shards = resolveShards(shards)
	if shards <= 1 || f.Rows() == 0 {
		return BuildProfile(f, cfg)
	}
	defer observeSince("build.sharded", time.Now())
	cfg.fill(f.Rows())

	// Global means (cheap first pass, parallel across columns): every
	// shard centers projections by the same value so partials stay
	// merge-compatible (DatasetProfile.Merge enforces this).
	numeric := f.NumericColumns()
	meanByCol := make([]float64, len(numeric))
	eachColumn(len(numeric), shards, func(i int) {
		meanByCol[i] = stats.Mean(numeric[i].Values())
	})
	means := make(map[string]float64, len(numeric))
	for i, nc := range numeric {
		means[nc.Name()] = meanByCol[i]
	}

	merged := shardedPartial(f, cfg, 0, f.Rows(), means, shards)

	// Spearman rank projections: ranking is a global transform, so the
	// rank columns are computed once and projected sharded; the shard
	// Projections fold left-to-right (deterministic) into the merged
	// profile directly.
	if cfg.Spearman && len(numeric) > 0 {
		spearmanStart := time.Now()
		rankCols := make([][]float64, len(numeric))
		rankMeans := make([]float64, len(numeric))
		eachColumn(len(numeric), shards, func(i int) {
			rankCols[i] = stats.Ranks(numeric[i].Values())
			rankMeans[i] = stats.Mean(rankCols[i])
		})
		rankShard := shardedProjections(rankCols, rankMeans, shardBounds(0, f.Rows(), shards),
			ProjectConfig{K: cfg.K, Seed: cfg.Seed + 211, Workers: cfg.Workers})
		for i, nc := range numeric {
			np := merged.Numeric[nc.Name()]
			total := rankShard[0][i]
			for p := 1; p < len(rankShard); p++ {
				if err := total.Merge(rankShard[p][i]); err != nil {
					panic(err)
				}
			}
			np.RankProj = total
			np.RankPlanes = HyperplaneFromProjection(total)
		}
		observeSince("build.spearman", spearmanStart)
	}

	// Rebuild the global row sample and per-column gathers (they index
	// global rows, so shard-local versions are not mergeable), and the
	// per-column value reservoirs: merging shard reservoirs yields a
	// valid uniform sample but a *different* one than the sequential
	// pass, and sample-driven scores (outlier mean distance, dip) are
	// noisy enough that the resample shows up as score drift. The whole
	// column is in memory, so an O(n) replay with the sequential
	// builder's seed reproduces its reservoir bit for bit instead.
	merged.RowSample = NewRowSample(f.Rows(), cfg.RowSampleSize, cfg.Seed+1)
	eachColumn(len(numeric), shards, func(i int) {
		np := merged.Numeric[numeric[i].Name()]
		np.RowSampleValues = merged.RowSample.GatherFloats(numeric[i].Values())
		sample := NewReservoir(cfg.SampleSize, reservoirSeed(cfg.Seed, numeric[i].Name()))
		for _, v := range numeric[i].Values() {
			if !math.IsNaN(v) {
				sample.Update(v)
			}
		}
		np.Sample = sample
	})
	categorical := f.CategoricalColumns()
	eachColumn(len(categorical), shards, func(i int) {
		merged.Categorical[categorical[i].Name()].RowSampleCodes =
			merged.RowSample.GatherCodes(categorical[i].Codes())
	})
	merged.Rows = f.Rows()
	return merged
}
