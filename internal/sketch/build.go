package sketch

import (
	"math"
	"sync"
	"time"

	"foresight/internal/frame"
	"foresight/internal/stats"
)

// Building a profile. Every sketch in the store merges (§3), so a
// build and an extension by a batch are one operation over different
// row ranges, and one function — buildRange — is the only code that
// turns rows into sketches:
//
//	range → sketches → centre → project → finish
//
// buildRange builds the range's row-local sketches over zero-copy row
// views (buildRangeSketches), centres the projections — on the
// caller's centres, or on the range's means — and runs the projection
// kernel over the range. Parallelism is one knob, cfg.Workers: the
// sketch passes fan out over columns and the projection over column
// chunks, each column built by the same operations in the same order
// at any count, so the bytes do not depend on it. A build then
// finishes with the state that indexes the whole frame (finish); an
// extension folds the range's partial into its copy of the store
// through the merge operators.

// buildRangeSketches builds the row-local partial sketches of rows
// [start, end) of f: moments, quantiles, value samples, heavy hitters
// and distinct counts — everything in a partial profile except the
// shared-direction projections, which need a common centre and are
// filled in by buildRange. Zero-copy row views feed the update loops,
// so a range touches only its own window of each column. Per-column
// sketch seeds are salted with the range start, so a given (cfg,
// range) is deterministic while distinct ranges — a build and each
// extension's batch — flip independent compaction/sampling coins.
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

// buildRange builds the partial profile of rows [lo, hi) of f (see the
// file comment). centers holds one projection centre per numeric
// column, in f.NumericColumns() order — an extension passes the stored
// build-time centres, so its partial stays merge-compatible with the
// store; nil centres each column on the mean of its moments over the
// range. With given centres and cfg.Workers > 1, the row-local sketches
// and the projections run concurrently, each on the workers. cfg must
// be filled. The partial carries no row sample and no rank projections:
// both are functions of the whole frame, not of a range (finish).
func buildRange(f *frame.Frame, cfg ProfileConfig, lo, hi int, centers []float64) *DatasetProfile {
	numeric := f.NumericColumns()
	cols := make([][]float64, len(numeric))
	for i, nc := range numeric {
		cols[i] = nc.Values()
	}

	var p *DatasetProfile
	sketches := func() {
		defer observeSince("build.sketch", time.Now())
		p = buildRangeSketches(f, cfg, lo, hi)
	}
	var proj []*Projection
	project := func() {
		defer observeSince("build.project", time.Now())
		proj = projectRange(cols, centers, lo, hi,
			ProjectConfig{K: cfg.K, Seed: cfg.Seed + 101, Workers: cfg.Workers})
	}
	switch {
	case centers == nil:
		// The projections centre on the range's means, which the sketches
		// compute.
		sketches()
		centers = make([]float64, len(numeric))
		for i, nc := range numeric {
			centers[i] = p.Numeric[nc.Name()].Moments.Mean
		}
		project()
	case resolveParallel(cfg.Workers) > 1:
		// Given centres, the two halves read the frame and write nothing
		// in common, so they run side by side.
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			project()
		}()
		sketches()
		wg.Wait()
	default:
		sketches()
		project()
	}
	for i, nc := range numeric {
		np := p.Numeric[nc.Name()]
		np.Proj = proj[i]
		np.ProjCenter = centers[i]
		np.Planes = HyperplaneFromProjection(np.Proj)
	}
	return p
}

// finish completes a partial over all of f's rows into a profile: the
// state that indexes or transforms the whole frame rather than a range
// of it. The rank (Spearman) projections — ranking is a global
// transform, so the rank columns are computed once here and projected
// over every row — and the shared row sample and every column's gather
// at it.
func finish(f *frame.Frame, p *DatasetProfile) {
	cfg := p.Config
	numeric, categorical := f.NumericColumns(), f.CategoricalColumns()

	if cfg.Spearman && len(numeric) > 0 {
		spearmanStart := time.Now()
		rankCols := make([][]float64, len(numeric))
		rankMeans := make([]float64, len(numeric))
		eachColumn(len(numeric), cfg.Workers, func(i int) {
			rankCols[i] = stats.Ranks(numeric[i].Values())
			rankMeans[i] = stats.Mean(rankCols[i])
		})
		rankProj := projectRange(rankCols, rankMeans, 0, f.Rows(),
			ProjectConfig{K: cfg.K, Seed: cfg.Seed + 211, Workers: cfg.Workers})
		for i, nc := range numeric {
			np := p.Numeric[nc.Name()]
			np.RankProj = rankProj[i]
			np.RankPlanes = HyperplaneFromProjection(np.RankProj)
		}
		observeSince("build.spearman", spearmanStart)
	}

	sampleStart := time.Now()
	p.RowSample = NewRowSample(f.Rows(), cfg.RowSampleSize, cfg.Seed+1)
	eachColumn(len(numeric), cfg.Workers, func(i int) {
		nc := numeric[i]
		p.Numeric[nc.Name()].RowSampleValues = p.RowSample.GatherFloats(nc.Values())
	})
	eachColumn(len(categorical), cfg.Workers, func(i int) {
		cc := categorical[i]
		p.Categorical[cc.Name()].RowSampleCodes = p.RowSample.GatherCodes(cc.Codes())
	})
	observeSince("build.rowsample", sampleStart)
}

// BuildProfile preprocesses f: one pass per column for moments,
// quantile, heavy-hitter, distinct and reservoir sketches, then one
// blocked pass for the shared-direction projections, on cfg.Workers.
// Deterministic given (f, cfg), and the same bytes at any worker count.
func BuildProfile(f *frame.Frame, cfg ProfileConfig) *DatasetProfile {
	defer observeSince("build", time.Now())
	cfg.fill(f.Rows())
	p := buildRange(f, cfg, 0, f.Rows(), nil)
	finish(f, p)
	return p
}

// BuildProfileSharded is BuildProfile; shards is ignored.
//
// Deprecated: the build has one parallelism knob, ProfileConfig.Workers.
func BuildProfileSharded(f *frame.Frame, cfg ProfileConfig, shards int) *DatasetProfile {
	return BuildProfile(f, cfg)
}
