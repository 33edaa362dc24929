package sketch

import (
	"math"
	"slices"
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
// buildRange builds the range's row-local sketches over zero-copy
// windows of the range's rows (buildRangeSketches) — a build's are the
// loaded columns, an extension's batch lies in the one tail chunk or
// spare capacity the append wrote it to, so neither folds a column —
// centres the projections — on the caller's centres, or on the range's
// means — and runs the projection kernel over the same windows. Parallelism is one knob, cfg.Workers: the
// sketch passes fan out over columns and the projection over column
// chunks, each column built by the same operations in the same order
// at any count, so the bytes do not depend on it. A build then
// finishes with the state that indexes the whole frame (finish); an
// extension folds the range's partial into its copy of the store
// through the merge operators.

// numericPartial is one numeric column's partial sketches in one
// allocation; a delta's are its scratch's, reset for each batch.
type numericPartial struct {
	np   NumericProfile
	kll  KLL
	proj Projection
}

// reset makes c the empty partial of the i-th numeric column, name,
// over rows [start, end): its sketches seeded as the range's, its k
// projection dots zero. It keeps the arrays an earlier batch grew, and
// sizes the first KLL level for the range, so a batch's delta does not
// grow by doublings.
func (c *numericPartial) reset(i int, name string, cfg ProfileConfig, start, end int) {
	c.kll.reuse(cfg.KLLSize, cfg.Seed+int64(i)*7+2+int64(start))
	if n := min(c.kll.capacity(0), end-start); cap(c.kll.compactors[0]) < n {
		c.kll.compactors[0] = make([]float64, 0, n)
	}
	dots := c.proj.Dots
	if cap(dots) < cfg.K {
		dots = make([]float64, cfg.K)
	}
	dots = dots[:cfg.K]
	clear(dots)
	c.proj = Projection{Dots: dots, Rows: end - start, Seed: cfg.Seed + 101}
	c.np = NumericProfile{Name: name, Quantiles: &c.kll, Proj: &c.proj}
}

// categoricalPartial is one categorical column's partial sketches in
// one allocation; a delta's are its scratch's, reset for each batch.
type categoricalPartial struct {
	cp       CategoricalProfile
	heavy    SpaceSaving
	distinct KMV
}

// reset makes c the empty partial of column cc, keeping the maps and
// arrays an earlier batch grew.
func (c *categoricalPartial) reset(cc *frame.CategoricalColumn, cfg ProfileConfig) {
	c.heavy.reuse(cfg.HeavyCapacity)
	c.distinct.reuse(cfg.KMVSize)
	c.cp = CategoricalProfile{
		Name:        cc.Name(),
		Heavy:       &c.heavy,
		Distinct:    &c.distinct,
		Cardinality: cc.Cardinality(),
		Dict:        cc.Dict(),
	}
}

// buildRangeSketches fills the row-local partial sketches of a row
// range, whose numeric columns' rows are cols and categorical columns'
// codes are codes: moments, quantiles, heavy hitters and distinct
// counts — everything in a partial except the shared-direction
// projections, which need a common centre and are filled in by
// buildRange. Per-column sketch seeds are salted with the
// range start (numericPartial.reset), so a given (cfg, range) is
// deterministic while distinct ranges — a build and each extension's
// batch — flip independent compaction coins.
func buildRangeSketches(cols [][]float64, codes [][]int32, nums []*numericPartial, cats []*categoricalPartial, workers int) {
	eachColumn(len(cols), workers, func(i int) {
		np := &nums[i].np
		for _, v := range cols[i] {
			if math.IsNaN(v) {
				continue
			}
			np.Moments.Add(v)
			np.Quantiles.Update(v)
		}
	})
	eachColumn(len(codes), workers, func(i int) {
		cp := &cats[i].cp
		for _, code := range codes[i] {
			if code < 0 {
				continue
			}
			item := cp.Dict[code]
			cp.Heavy.Update(item)
			cp.Distinct.Update(item)
			cp.Rows++
		}
	})
}

// buildRange builds the partial profile of rows [lo, hi) of f (see the
// file comment). centers holds one projection centre per numeric
// column, in f.NumericColumns() order — an extension passes the stored
// build-time centres, so its partial stays merge-compatible with the
// store; nil centres each column on the mean of its moments over the
// range. With given centres and cfg.Workers > 1, the row-local sketches
// and the projections run concurrently, each on the workers. cfg must
// be filled. The partial carries no row sample, no rank projections
// and no sign bits: the first two are functions of the whole frame, not
// of a range, and the bits of the merged dots, not of the partial's
// (finish, Merge). The partial and everything in it is built in ds:
// an extension's scratch, valid until it is given back, or, when ds is
// nil, a new one the partial keeps.
func buildRange(f *frame.Frame, cfg ProfileConfig, lo, hi int, centers []float64, ds *deltaScratch) *DatasetProfile {
	if ds == nil {
		ds = new(deltaScratch)
	}
	numeric, categorical := f.NumericColumns(), f.CategoricalColumns()
	p, nums, cats := ds.partial(cfg, hi-lo, len(numeric), len(categorical))
	ds.cols = slices.Grow(ds.cols[:0], len(numeric))[:len(numeric)]
	ds.codes = slices.Grow(ds.codes[:0], len(categorical))[:len(categorical)]
	ds.projs = slices.Grow(ds.projs[:0], len(numeric))[:len(numeric)]
	cols, codes, projs := ds.cols, ds.codes, ds.projs
	for i, nc := range numeric {
		nums[i].reset(i, nc.Name(), cfg, lo, hi)
		cols[i], projs[i] = nc.ValuesRange(lo, hi), &nums[i].proj
		p.Numeric[nc.Name()] = &nums[i].np
	}
	for i, cc := range categorical {
		cats[i].reset(cc, cfg)
		codes[i] = cc.CodesRange(lo, hi)
		p.Categorical[cc.Name()] = &cats[i].cp
	}

	sketches := func() {
		defer observeSince("build.sketch", time.Now())
		buildRangeSketches(cols, codes, nums, cats, cfg.Workers)
	}
	project := func() {
		defer observeSince("build.project", time.Now())
		projectInto(projs, cols, centers, lo, hi,
			ProjectConfig{K: cfg.K, Seed: cfg.Seed + 101, Workers: cfg.Workers})
	}
	switch {
	case centers == nil:
		// The projections centre on the range's means, which the sketches
		// compute.
		sketches()
		centers = make([]float64, len(numeric))
		for i := range nums {
			centers[i] = nums[i].np.Moments.Mean
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
	for i := range nums {
		nums[i].np.ProjCenter = centers[i]
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
	for _, np := range p.Numeric {
		np.Planes = HyperplaneFromProjection(np.Proj)
	}

	sampleStart := time.Now()
	p.RowSample = NewRowSample(f.Rows(), cfg.RowSampleSize, cfg.Seed+1)
	eachColumn(len(numeric), cfg.Workers, func(i int) {
		nc := numeric[i]
		p.Numeric[nc.Name()].gather = builtGather(p.RowSample.GatherFloats(nc.Values()))
	})
	eachColumn(len(categorical), cfg.Workers, func(i int) {
		cc := categorical[i]
		p.Categorical[cc.Name()].codes = builtGather(p.RowSample.GatherCodes(cc.Codes()))
	})
	observeSince("build.rowsample", sampleStart)
}

// BuildProfile preprocesses f: one pass per column for moments,
// quantile, heavy-hitter and distinct sketches, then one blocked pass
// for the shared-direction projections, then the row sample and every
// column's gather at it, on cfg.Workers.
// Deterministic given (f, cfg), and the same bytes at any worker count.
func BuildProfile(f *frame.Frame, cfg ProfileConfig) *DatasetProfile {
	defer observeSince("build", time.Now())
	cfg.fill(f.Rows())
	p := buildRange(f, cfg, 0, f.Rows(), nil, nil)
	finish(f, p)
	return p
}

// BuildProfileSharded is BuildProfile; shards is ignored.
//
// Deprecated: the build has one parallelism knob, ProfileConfig.Workers.
func BuildProfileSharded(f *frame.Frame, cfg ProfileConfig, shards int) *DatasetProfile {
	return BuildProfile(f, cfg)
}
