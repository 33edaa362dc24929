package sketch

import (
	"math"
	"time"

	"foresight/internal/frame"
	"foresight/internal/stats"
)

// Building a profile. Every sketch in the store merges (§3), so a
// build, a build in shards and an extension by a batch are one
// operation over different row ranges, and one function — buildRange —
// is the only code that turns rows into sketches:
//
//	range → sketches → centre → project → tree-merge → finish
//
// The range is split into contiguous shards (shardBounds). Each shard
// builds its row-local sketches over zero-copy row views
// (buildRangeSketches). Every shard centres its projections by the same
// value — the caller's, or the mean of the shards' merged moments — and
// runs the projection kernel over its own rows; that needs no
// coordination, because the direction of a global row is a function of
// (seed, row) (see fillDirections), and shard interiors are aligned to
// direction blocks so no block is drawn twice. The partials reduce
// through the merge operators in a fixed binary-tree order, so the
// result is reproducible given (frame, cfg, shards). A build then
// finishes with the state that indexes the whole frame (finish); an
// extension folds the range's partial into its copy of the store.
//
// At one shard nothing is concurrent and nothing is merged: that is
// BuildProfile.

// shardBounds splits rows [lo, hi) into at most `shards` contiguous
// ranges. Interior boundaries align to the direction stream's blocks —
// multiples of directionGranule counted from global row 0 — so each
// block is drawn by exactly one shard. Empty ranges are dropped; fewer
// than `shards` ranges come back when the span covers fewer blocks
// than shards. An empty span is one empty range: a build over no rows
// runs the same code and yields every column's empty sketches.
func shardBounds(lo, hi, shards int) [][2]int {
	if hi <= lo {
		return [][2]int{{lo, lo}}
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

// buildRangeSketches builds the row-local partial sketches of rows
// [start, end) of f: moments, quantiles, value samples, heavy hitters
// and distinct counts — everything in a partial profile except the
// shared-direction projections, which need a common centre and are
// filled in by buildRange. Zero-copy row views feed the update loops,
// so a shard touches only its own window of each column. Per-column
// sketch seeds are salted with the range start, so a given
// (cfg, bounds) is deterministic while distinct ranges flip independent
// compaction/sampling coins.
func buildRangeSketches(f *frame.Frame, cfg ProfileConfig, start, end int) *DatasetProfile {
	numeric, categorical := f.NumericColumns(), f.CategoricalColumns()
	nps := make([]*NumericProfile, len(numeric))
	eachColumn(len(numeric), cfg.Workers, func(i int) {
		nc := numeric[i]
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
		nps[i] = np
	})
	cps := make([]*CategoricalProfile, len(categorical))
	eachColumn(len(categorical), cfg.Workers, func(i int) {
		cc := categorical[i]
		cp := &CategoricalProfile{
			Name:        cc.Name(),
			Heavy:       NewSpaceSaving(cfg.HeavyCapacity),
			Distinct:    NewKMV(cfg.KMVSize),
			Cardinality: cc.Cardinality(),
			Dict:        cc.Dict(),
		}
		for _, code := range cc.CodesRange(start, end) {
			if code < 0 {
				continue
			}
			item := cp.Dict[code]
			cp.Heavy.Update(item)
			cp.Distinct.Update(item)
			cp.Rows++
		}
		cps[i] = cp
	})
	p := &DatasetProfile{
		Rows:        end - start,
		Numeric:     make(map[string]*NumericProfile, len(nps)),
		Categorical: make(map[string]*CategoricalProfile, len(cps)),
		RowSample:   &RowSample{},
		Config:      cfg,
	}
	for _, np := range nps {
		p.Numeric[np.Name] = np
	}
	for _, cp := range cps {
		p.Categorical[cp.Name] = cp
	}
	return p
}

// shardedProjections computes, for every shard range in bounds, the
// per-column Projections of that shard's rows: one projectRange per
// shard, the shards concurrent. Returned as out[shard][column].
func shardedProjections(cols [][]float64, centers []float64, bounds [][2]int, cfg ProjectConfig) [][]*Projection {
	out := make([][]*Projection, len(bounds))
	eachColumn(len(bounds), len(bounds), func(p int) {
		out[p] = projectRange(cols, centers, bounds[p][0], bounds[p][1], cfg)
	})
	return out
}

// mergeProfileTree reduces shard partials into parts[0] with the §3
// merge operators in a fixed binary-tree order: in each round, the
// partial at index i absorbs the partial `stride` to its right, and the
// stride doubles. The reduction order depends only on len(parts), so
// the result is reproducible; pairs within a round are independent and
// merge concurrently. parts is consumed.
func mergeProfileTree(parts []*DatasetProfile, workers int) {
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
}

// buildRange builds the partial profile of rows [lo, hi) of f in up to
// `shards` concurrent shards (see the file comment). centers holds one
// projection centre per numeric column, in f.NumericColumns() order —
// an extension passes the stored build-time centres, so its partial
// stays merge-compatible with the store; nil centres each column on the
// mean of its moments over the range, merged across shards in shard
// order. cfg must be filled. The partial carries no row sample and no
// rank projections: both are functions of the whole frame, not of a
// range (finish).
func buildRange(f *frame.Frame, cfg ProfileConfig, lo, hi int, centers []float64, shards int) *DatasetProfile {
	bounds := shardBounds(lo, hi, shards)

	sketchStart := time.Now()
	parts := make([]*DatasetProfile, len(bounds))
	eachColumn(len(bounds), shards, func(p int) {
		parts[p] = buildRangeSketches(f, cfg, bounds[p][0], bounds[p][1])
	})
	observeSince("build.sketch", sketchStart)

	projStart := time.Now()
	numeric := f.NumericColumns()
	cols := make([][]float64, len(numeric))
	for i, nc := range numeric {
		cols[i] = nc.Values()
	}
	if centers == nil {
		centers = make([]float64, len(numeric))
		for i, nc := range numeric {
			m := parts[0].Numeric[nc.Name()].Moments
			for _, part := range parts[1:] {
				m.Merge(part.Numeric[nc.Name()].Moments)
			}
			centers[i] = m.Mean
		}
	}
	shardProj := shardedProjections(cols, centers, bounds,
		ProjectConfig{K: cfg.K, Seed: cfg.Seed + 101, Workers: cfg.Workers})
	for p, part := range parts {
		for i, nc := range numeric {
			np := part.Numeric[nc.Name()]
			np.Proj = shardProj[p][i]
			np.ProjCenter = centers[i]
			np.Planes = HyperplaneFromProjection(np.Proj)
		}
	}
	observeSince("build.project", projStart)

	if len(parts) > 1 {
		mergeStart := time.Now()
		mergeProfileTree(parts, shards)
		observeSince("build.merge", mergeStart)
	}
	return parts[0]
}

// finish completes a partial over all of f's rows into a profile: the
// state that indexes or transforms the whole frame rather than a range
// of it. The shared row sample and every column's gather at it; the
// rank (Spearman) projections — ranking is a global transform, so the
// rank columns are computed once, projected over the same shard bounds,
// and the shard Projections fold in shard order; and, when more than
// one shard ran, the value reservoirs. Merging shard reservoirs yields
// a valid uniform sample but a *different* one than a one-shard pass,
// and sample-driven scores (outlier mean distance, dip) are noisy
// enough that the resample shows up as score drift; the whole column is
// in memory, so an O(n) replay under the one-shard seed reproduces that
// reservoir bit for bit instead.
func finish(f *frame.Frame, p *DatasetProfile, shards int) {
	cfg := p.Config
	numeric, categorical := f.NumericColumns(), f.CategoricalColumns()
	bounds := shardBounds(0, f.Rows(), shards)
	fan := max(shards, resolveParallel(cfg.Workers))

	if cfg.Spearman && len(numeric) > 0 {
		spearmanStart := time.Now()
		rankCols := make([][]float64, len(numeric))
		rankMeans := make([]float64, len(numeric))
		eachColumn(len(numeric), fan, func(i int) {
			rankCols[i] = stats.Ranks(numeric[i].Values())
			rankMeans[i] = stats.Mean(rankCols[i])
		})
		rankShard := shardedProjections(rankCols, rankMeans, bounds,
			ProjectConfig{K: cfg.K, Seed: cfg.Seed + 211, Workers: cfg.Workers})
		for i, nc := range numeric {
			np := p.Numeric[nc.Name()]
			np.RankProj = rankShard[0][i]
			for _, shard := range rankShard[1:] {
				if err := np.RankProj.Merge(shard[i]); err != nil {
					panic(err)
				}
			}
			np.RankPlanes = HyperplaneFromProjection(np.RankProj)
		}
		observeSince("build.spearman", spearmanStart)
	}

	sampleStart := time.Now()
	p.RowSample = NewRowSample(f.Rows(), cfg.RowSampleSize, cfg.Seed+1)
	eachColumn(len(numeric), fan, func(i int) {
		nc := numeric[i]
		np := p.Numeric[nc.Name()]
		np.RowSampleValues = p.RowSample.GatherFloats(nc.Values())
		if len(bounds) > 1 {
			np.Sample = NewReservoir(cfg.SampleSize, reservoirSeed(cfg.Seed, nc.Name()))
			for _, v := range nc.Values() {
				if !math.IsNaN(v) {
					np.Sample.Update(v)
				}
			}
		}
	})
	eachColumn(len(categorical), fan, func(i int) {
		cc := categorical[i]
		p.Categorical[cc.Name()].RowSampleCodes = p.RowSample.GatherCodes(cc.Codes())
	})
	observeSince("build.rowsample", sampleStart)
}

// BuildProfileSharded preprocesses f with the row range split into
// `shards` contiguous shards built concurrently and reduced with the
// §3 merge operators (see the file comment). The result is
// deterministic given (f, cfg, shards) — reduction order is a fixed
// tree — and every shard count agrees on the exact statistics (moments
// up to floating-point association, row counts, cardinalities), the row
// sample and the value reservoirs, while sketch-derived scores drift
// only within sketch error (TestShardCountsAgree, selfcheck's sharded
// tier). Shard counts follow the uniform convention: 0 or 1 is one
// shard — no goroutine, no merge — and negative means GOMAXPROCS
// (reproducible per machine).
func BuildProfileSharded(f *frame.Frame, cfg ProfileConfig, shards int) *DatasetProfile {
	defer observeSince("build", time.Now())
	shards = resolveParallel(shards)
	cfg.fill(f.Rows())
	p := buildRange(f, cfg, 0, f.Rows(), nil, shards)
	finish(f, p, shards)
	return p
}

// BuildProfile preprocesses f in one shard: one pass per column for
// moments, quantile, heavy-hitter, distinct and reservoir sketches,
// then one blocked pass for the shared-direction projections.
// Deterministic given (f, cfg).
func BuildProfile(f *frame.Frame, cfg ProfileConfig) *DatasetProfile {
	return BuildProfileSharded(f, cfg, 1)
}
