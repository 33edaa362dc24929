package sketch

import (
	"fmt"
	"math"
	"sync"

	"foresight/internal/frame"
)

// ProfileConfig sizes the per-column sketches built during
// preprocessing (paper §3: "the dataset is preprocessed to compute
// sketches, samples, and indexes that will support fast approximate
// insight querying").
type ProfileConfig struct {
	// K is the number of random hyperplane/projection directions;
	// 0 selects the paper's k = O(log²n) via KForRows.
	K int
	// KLLSize is the quantile-sketch compactor size (0 → 200).
	KLLSize int
	// HeavyCapacity is the SpaceSaving counter budget (0 → 64).
	HeavyCapacity int
	// KMVSize is the distinct-count sketch size (0 → 1024).
	KMVSize int
	// RowSampleSize is the shared row-index sample size (0 → 2048).
	RowSampleSize int
	// Seed drives every random choice; profiles are deterministic
	// given (data, config).
	Seed int64
	// Spearman additionally projects rank-transformed numeric columns
	// so monotonic (Spearman) correlations can be estimated from
	// sketches too. Costs one extra O(n log n) rank pass per column
	// and doubles the projection work.
	Spearman bool
	// Workers parallelizes the build and every Extend of its result: the
	// per-column sketch passes, the rank transform, the projection
	// passes' column chunks and Merge's numeric columns (the paper's
	// future-work "parallel search" extension applied to preprocessing
	// and ingest). The convention is uniform across the sketch layer: 0
	// or 1 runs sequentially (the library's default — the paper's own
	// measurement is single-threaded; foresightd passes its -workers),
	// negative selects GOMAXPROCS, and n > 1 uses n goroutines. Results
	// are identical at any worker count, and the count is not part of a
	// saved profile: LoadProfile returns 0, and whoever installs a loaded
	// profile sets the count it should extend on. It is the build's one
	// parallelism knob: the rows are one range, split over columns.
	Workers int
}

func (c *ProfileConfig) fill(rows int) {
	if c.K <= 0 {
		c.K = KForRows(rows)
	}
	if c.KLLSize <= 0 {
		c.KLLSize = 200
	}
	if c.HeavyCapacity <= 0 {
		c.HeavyCapacity = 64
	}
	if c.KMVSize <= 0 {
		c.KMVSize = 1024
	}
	if c.RowSampleSize <= 0 {
		c.RowSampleSize = 2048
	}
}

// NumericProfile bundles the per-column sketches of one numeric
// attribute.
type NumericProfile struct {
	Name string
	// Moments holds exact mean/σ²/γ₁/kurtosis (running sums).
	Moments Moments
	// Quantiles approximates the distribution's order statistics.
	Quantiles *KLL
	// Proj is the shared-direction Gaussian projection of the centered
	// column.
	Proj *Projection
	// ProjCenter is the mean Proj was centered by at build time.
	// Partial profiles are merge-compatible only when centered by the
	// same value, so incremental extensions (Extend) must center new
	// rows by this stored mean, not by the drifted post-merge
	// Moments.Mean.
	ProjCenter float64
	// Planes is the SimHash bit vector derived from Proj.
	Planes *Hyperplane
	// RankProj/RankPlanes are the projections of the rank-transformed
	// column (present only when ProfileConfig.Spearman is set).
	RankProj   *Projection
	RankPlanes *Hyperplane
	// gather is the column's values at the row sample (Sample's column).
	gather *gathered[float64]
}

// CategoricalProfile bundles the per-column sketches of one
// categorical attribute.
type CategoricalProfile struct {
	Name string
	// Heavy tracks the most frequent values.
	Heavy *SpaceSaving
	// Distinct estimates the number of distinct values.
	Distinct *KMV
	// Rows is the number of non-missing cells observed.
	Rows uint64
	// codes is the column's codes at the row sample (Sample's column).
	codes *gathered[int32]
	// Cardinality is the exact number of distinct values (known for
	// free from the dictionary encoding).
	Cardinality int
	// Dict maps dictionary codes to value labels (carried from the
	// frame so sketch-only rendering can label categories).
	Dict []string
}

// DatasetProfile is the preprocessed store for one Frame: every
// per-column sketch plus one shared row sample that preserves joint
// distributions for bivariate estimates.
type DatasetProfile struct {
	Rows        int
	Numeric     map[string]*NumericProfile
	Categorical map[string]*CategoricalProfile
	// RowSample holds shared sampled row indexes (slot order).
	RowSample *RowSample
	Config    ProfileConfig

	sampleOnce sync.Once
	sample     *frame.Frame
}

// Sample returns the row sample as a frame, one column per profiled
// column in name order: a numeric one wraps its gather, a categorical
// one is the gathered codes over Dict. The statistics with no sketch are
// their class's exact score on it, or, for the dip and the outliers past
// the KLL fences, read from its columns (internal/core). Its first caller
// builds it, once per profile, so an Extend chain nobody reads gathers
// nothing. Nil for a profile of no columns. Read-only.
func (p *DatasetProfile) Sample() *frame.Frame {
	p.sampleOnce.Do(func() {
		var err error
		if p.sample, err = p.sampleFrame(); err != nil {
			// A build and an Extend gather every column at the one row
			// sample, and LoadProfile refuses a store that does not.
			panic(fmt.Sprintf("sketch: the row sample is not a frame: %v", err))
		}
	})
	return p.sample
}

// sampleFrame builds Sample's frame, or says why the gathers make none.
func (p *DatasetProfile) sampleFrame() (*frame.Frame, error) {
	names := sortedProfileNames(p)
	if len(names) == 0 {
		return nil, nil
	}
	cols := make([]frame.Column, len(names))
	for i, name := range names {
		if np, ok := p.Numeric[name]; ok {
			cols[i] = frame.NewNumericColumn(name, np.gather.get())
			continue
		}
		cp := p.Categorical[name]
		cc, err := frame.NewCategoricalFromCodes(name, cp.codes.get(), cp.Dict)
		if err != nil {
			return nil, err
		}
		cols[i] = cc
	}
	f, err := frame.New("sample", cols...)
	if err == nil && f.Rows() != p.RowSample.Len() {
		err = fmt.Errorf("sketch: %d cells a column for %d sampled rows", f.Rows(), p.RowSample.Len())
	}
	return f, err
}

// NumericProfileOf returns the profile for a numeric attribute, or an
// error naming the attribute.
func (p *DatasetProfile) NumericProfileOf(name string) (*NumericProfile, error) {
	np, ok := p.Numeric[name]
	if !ok {
		return nil, fmt.Errorf("sketch: no numeric profile for %q", name)
	}
	return np, nil
}

// CategoricalProfileOf returns the profile for a categorical
// attribute, or an error naming the attribute.
func (p *DatasetProfile) CategoricalProfileOf(name string) (*CategoricalProfile, error) {
	cp, ok := p.Categorical[name]
	if !ok {
		return nil, fmt.Errorf("sketch: no categorical profile for %q", name)
	}
	return cp, nil
}

// EstimatePearson returns the hyperplane-sketch estimate of ρ(x,y)
// (paper §3 worked example).
func (p *DatasetProfile) EstimatePearson(x, y string) (float64, error) {
	px, err := p.NumericProfileOf(x)
	if err != nil {
		return math.NaN(), err
	}
	py, err := p.NumericProfileOf(y)
	if err != nil {
		return math.NaN(), err
	}
	return px.Planes.EstimateCorrelation(py.Planes), nil
}

// EstimatePearsonJL returns the projection (JL) estimate of ρ(x,y),
// composing projection covariance with exact moment σ's.
func (p *DatasetProfile) EstimatePearsonJL(x, y string) (float64, error) {
	px, err := p.NumericProfileOf(x)
	if err != nil {
		return math.NaN(), err
	}
	py, err := p.NumericProfileOf(y)
	if err != nil {
		return math.NaN(), err
	}
	return px.Proj.EstimateCorrelation(py.Proj, px.Moments.StdDev(), py.Moments.StdDev()), nil
}

// EstimateSpearman returns the hyperplane estimate over
// rank-transformed columns; requires ProfileConfig.Spearman.
func (p *DatasetProfile) EstimateSpearman(x, y string) (float64, error) {
	px, err := p.NumericProfileOf(x)
	if err != nil {
		return math.NaN(), err
	}
	py, err := p.NumericProfileOf(y)
	if err != nil {
		return math.NaN(), err
	}
	if px.RankPlanes == nil || py.RankPlanes == nil {
		return math.NaN(), fmt.Errorf("sketch: Spearman projections not built (set ProfileConfig.Spearman)")
	}
	return px.RankPlanes.EstimateCorrelation(py.RankPlanes), nil
}

// OutlierScoreAt composes the quartiles q1 and q3, read from the KLL
// quantile sketch (Tukey fences), with sample, the column's values at
// the row sample (a column of DatasetProfile.Sample): the mean
// standardized distance, under the column's exact moments, of the
// sampled values outside the fences. A missing cell (NaN) is outside
// neither. k is the fence multiplier (1.5 when zero).
func (np *NumericProfile) OutlierScoreAt(sample []float64, q1, q3, k float64) float64 {
	if k == 0 {
		k = 1.5
	}
	iqr := q3 - q1
	if math.IsNaN(iqr) || iqr == 0 {
		return 0
	}
	lo, hi := q1-k*iqr, q3+k*iqr
	sd := np.Moments.StdDev()
	if sd == 0 || math.IsNaN(sd) {
		return 0
	}
	sum, count := 0.0, 0
	for _, v := range sample {
		if v < lo || v > hi {
			sum += math.Abs(v-np.Moments.Mean) / sd
			count++
		}
	}
	if count == 0 {
		return 0
	}
	return sum / float64(count)
}

// EntropyEstimate returns the composed entropy estimate of the
// column (see EntropyEstimate).
func (cp *CategoricalProfile) EntropyEstimate() float64 {
	return EntropyEstimate(cp.Heavy, cp.Distinct)
}

// UniformityEstimate returns the normalized entropy estimate.
func (cp *CategoricalProfile) UniformityEstimate() float64 {
	return NormalizedEntropyEstimate(cp.Heavy, cp.Distinct)
}
