package sketch

import (
	"fmt"
	"math"
	"sync/atomic"

	"foresight/internal/stats"
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
	// SampleSize is the per-column reservoir size (0 → 1024).
	SampleSize int
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
	if c.SampleSize <= 0 {
		c.SampleSize = 1024
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
	// Sample is a uniform value sample for metrics with no closed-form
	// sketch (dip statistic, outlier mean distance).
	Sample *Reservoir
	// gather holds RowSampleValues.
	gather *slotted[float64]
	// rowSampleView caches RowSampleOrdered.
	rowSampleView atomic.Pointer[stats.Ordered]
}

// RowSampleValues returns this column's values at the dataset's shared
// sampled row indexes; aligned across columns, so bivariate statistics
// computed from them preserve joint structure. Built on first use
// after an Extend; read-only.
func (np *NumericProfile) RowSampleValues() []float64 { return np.gather.get() }

// RowSampleOrdered returns the ordered view (row order, sorted values,
// mean, σ) of RowSampleValues, built on first use and retained: the
// sample-based fallbacks of the approximate path rank each column's
// sample once rather than once per partner. The cache is keyed on the
// slice it was built from, so replacing the gather (the builders do,
// before a profile is shared) simply rebuilds it; concurrent first
// calls may each build one, and either is correct.
func (np *NumericProfile) RowSampleOrdered() *stats.Ordered {
	vals := np.RowSampleValues()
	if v := np.rowSampleView.Load(); v != nil && len(v.Values) == len(vals) &&
		(len(vals) == 0 || &v.Values[0] == &vals[0]) {
		return v
	}
	v := stats.NewOrdered(vals)
	np.rowSampleView.Store(v)
	return v
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
	// codes holds RowSampleCodes.
	codes *slotted[int32]
	// Cardinality is the exact number of distinct values (known for
	// free from the dictionary encoding).
	Cardinality int
	// Dict maps dictionary codes to value labels (carried from the
	// frame so sketch-only rendering can label categories).
	Dict []string
}

// RowSampleCodes returns this column's dictionary codes at the shared
// sampled row indexes (aligned with NumericProfile.RowSampleValues).
// Built on first use after an Extend; read-only.
func (cp *CategoricalProfile) RowSampleCodes() []int32 { return cp.codes.get() }

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

// OutlierScoreEstimate composes the KLL quantile sketch (Tukey
// fences) with the reservoir sample (mean standardized distance of
// sampled values outside the fences). k is the fence multiplier
// (1.5 when zero).
func (np *NumericProfile) OutlierScoreEstimate(k float64) float64 {
	if k == 0 {
		k = 1.5
	}
	qs := np.Quantiles.Quantiles([]float64{0.25, 0.75})
	q1, q3 := qs[0], qs[1]
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
	for _, v := range np.Sample.Sample() {
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

// DipEstimate returns the dip statistic of the reservoir sample.
func (np *NumericProfile) DipEstimate() float64 {
	return stats.Dip(np.Sample.Sample())
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
