package core

import (
	"fmt"
	"math"

	"foresight/internal/frame"
	"foresight/internal/sketch"
	"foresight/internal/stats"
)

// numericCandidates returns one singleton tuple per numeric column.
func numericCandidates(f *frame.Frame) [][]string {
	var out [][]string
	for _, c := range f.NumericColumns() {
		out = append(out, []string{c.Name()})
	}
	return out
}

// categoricalCandidates returns one singleton tuple per categorical
// column with cardinality in [minCard, maxCard] (maxCard ≤ 0 = no
// cap). Identifier-like columns are excluded everywhere.
func categoricalCandidates(f *frame.Frame, minCard, maxCard int) [][]string {
	var out [][]string
	for _, c := range f.CategoricalColumns() {
		card := c.Cardinality()
		if card < minCard {
			continue
		}
		if maxCard > 0 && card > maxCard {
			continue
		}
		if identifierLike(c) {
			continue
		}
		out = append(out, []string{c.Name()})
	}
	return out
}

// identifierLike reports that a categorical column is mostly unique
// values (an ID, name, or key): more than half of its non-missing
// cells are distinct. Distributional insights over identifiers are
// vacuous (η² = 1, uniformity = 1), so every class skips them.
func identifierLike(c *frame.CategoricalColumn) bool {
	present := c.Len() - c.Missing()
	return present > 0 && c.Cardinality()*2 > present
}

func checkArity(class string, attrs []string, want int) error {
	if len(attrs) != want {
		return fmt.Errorf("core: class %q wants %d attributes, got %v", class, want, attrs)
	}
	return nil
}

// momentInsight builds an insight from a Moments accumulator for the
// three moment-based classes.
func momentInsight(c Class, attr, metric string, m *sketch.Moments, approx bool) Insight {
	in := Insight{
		Class:  c.Name(),
		Metric: metric,
		Attrs:  []string{attr},
		Approx: approx,
		Vis:    c.VisKind(),
		Details: map[string]float64{
			"mean": m.Mean,
			"sd":   m.StdDev(),
			"min":  m.Min(),
			"max":  m.Max(),
			"n":    float64(m.Count()),
		},
	}
	switch metric {
	case "variance":
		in.Raw = m.Variance()
		in.Score = in.Raw
	case "stddev":
		in.Raw = m.StdDev()
		in.Score = in.Raw
	case "cv":
		in.Raw = m.CoefficientOfVariation()
		in.Score = in.Raw
	case "skewness":
		in.Raw = m.Skewness()
		in.Score = math.Abs(in.Raw)
	case "kurtosis":
		in.Raw = m.Kurtosis()
		in.Score = in.Raw
	case "excess":
		in.Raw = m.ExcessKurtosis()
		in.Score = math.Max(in.Raw, 0)
	}
	return in
}

// momentsClass factors the shared shape of dispersion/skew/heavy-tails.
type momentsClass struct {
	name, desc string
	metrics    []string
}

func (c *momentsClass) Name() string        { return c.name }
func (c *momentsClass) Description() string { return c.desc }
func (c *momentsClass) Arity() int          { return 1 }
func (c *momentsClass) Metrics() []string   { return c.metrics }
func (c *momentsClass) VisKind() VisKind    { return VisHistogram }

func (c *momentsClass) Candidates(f *frame.Frame) [][]string {
	return numericCandidates(f)
}

func (c *momentsClass) Score(f *frame.Frame, attrs []string, metric string) (Insight, error) {
	if err := checkArity(c.name, attrs, 1); err != nil {
		return Insight{}, err
	}
	metric, err := validateMetric(c, metric)
	if err != nil {
		return Insight{}, err
	}
	col, err := f.Numeric(attrs[0])
	if err != nil {
		return Insight{}, err
	}
	view := col.Ordered()
	in := momentInsight(c, attrs[0], metric, &view.Moments, false)
	if metric == "iqr" {
		// Robust dispersion needs order statistics, not moments.
		in.Raw = stats.IQRSorted(view.Sorted)
		in.Score = in.Raw
	}
	return in, nil
}

func (c *momentsClass) ScoreApprox(p *sketch.DatasetProfile, attrs []string, metric string) (Insight, error) {
	if err := checkArity(c.name, attrs, 1); err != nil {
		return Insight{}, err
	}
	metric, err := validateMetric(c, metric)
	if err != nil {
		return Insight{}, err
	}
	np, err := p.NumericProfileOf(attrs[0])
	if err != nil {
		return Insight{}, err
	}
	// The moments sketch is exact (running sums), so the "approximate"
	// path gives the same numbers; it is still marked Approx because it
	// came from the preprocessed store.
	in := momentInsight(c, attrs[0], metric, &np.Moments, true)
	if metric == "iqr" {
		in.Raw = np.Quantiles.IQR()
		in.Score = in.Raw
	}
	return in, nil
}

// NewDispersionClass returns insight class #1: very high dispersion of
// values around the mean, ranked by variance σ² (alternatives: stddev,
// coefficient of variation), visualized as a histogram.
func NewDispersionClass() Class {
	return &momentsClass{
		name:    "dispersion",
		desc:    "High dispersion of values around the mean",
		metrics: []string{"variance", "stddev", "cv", "iqr"},
	}
}

// NewSkewClass returns insight class #2: asymmetry of a univariate
// distribution, ranked by |γ₁| (standardized skewness coefficient),
// visualized as a histogram.
func NewSkewClass() Class {
	return &momentsClass{
		name:    "skew",
		desc:    "Strong asymmetry (skewness) of a distribution",
		metrics: []string{"skewness"},
	}
}

// NewHeavyTailsClass returns insight class #3: propensity toward
// extreme values, ranked by kurtosis (alternative: excess kurtosis),
// visualized as a histogram.
func NewHeavyTailsClass() Class {
	return &momentsClass{
		name:    "heavytails",
		desc:    "Heavy-tailed distribution (extreme-value propensity)",
		metrics: []string{"kurtosis", "excess"},
	}
}

// outliersClass is insight class #4: presence and significance of
// extreme outliers, ranked by the average standardized distance of
// detected outliers from the mean; box-and-whisker visualization. The
// detector is user-configurable (paper: "a user-configurable
// outlier-detection algorithm") in two ways: a custom detector passed
// to the constructor becomes the default "meandist" metric, and the
// standard detectors are always selectable as metric variants
// ("iqr", "zscore", "mad").
type outliersClass struct {
	detector stats.OutlierDetector
}

// NewOutliersClass returns the outlier insight class with the given
// detector (nil = Tukey IQR fences, matching the box-plot display).
func NewOutliersClass(det stats.OutlierDetector) Class {
	if det == nil {
		det = stats.IQRDetector{}
	}
	return &outliersClass{detector: det}
}

func (c *outliersClass) Name() string { return "outliers" }
func (c *outliersClass) Description() string {
	return "Extreme outliers far from the mean"
}
func (c *outliersClass) Arity() int        { return 1 }
func (c *outliersClass) Metrics() []string { return []string{"meandist", "iqr", "zscore", "mad"} }
func (c *outliersClass) VisKind() VisKind  { return VisBoxPlot }

func (c *outliersClass) Candidates(f *frame.Frame) [][]string {
	return numericCandidates(f)
}

// detectorFor maps a metric variant to its detector; "meandist" uses
// the configured default.
func (c *outliersClass) detectorFor(metric string) stats.OutlierDetector {
	switch metric {
	case "iqr":
		return stats.IQRDetector{}
	case "zscore":
		return stats.ZScoreDetector{}
	case "mad":
		return stats.MADDetector{}
	default:
		return c.detector
	}
}

func (c *outliersClass) Score(f *frame.Frame, attrs []string, metric string) (Insight, error) {
	if err := checkArity("outliers", attrs, 1); err != nil {
		return Insight{}, err
	}
	metric, err := validateMetric(c, metric)
	if err != nil {
		return Insight{}, err
	}
	col, err := f.Numeric(attrs[0])
	if err != nil {
		return Insight{}, err
	}
	view := col.Ordered()
	score, outliers := stats.OutlierScoreOrdered(view, c.detectorFor(metric))
	box := stats.NewBoxStatsSorted(view.Sorted, 0)
	return Insight{
		Class:  "outliers",
		Metric: metric,
		Attrs:  attrs,
		Score:  score,
		Raw:    score,
		Vis:    VisBoxPlot,
		Details: map[string]float64{
			"count":  float64(len(outliers)),
			"q1":     box.Q1,
			"median": box.Median,
			"q3":     box.Q3,
			"min":    box.Min,
			"max":    box.Max,
		},
	}, nil
}

func (c *outliersClass) ScoreApprox(p *sketch.DatasetProfile, attrs []string, metric string) (Insight, error) {
	if err := checkArity("outliers", attrs, 1); err != nil {
		return Insight{}, err
	}
	metric, err := validateMetric(c, metric)
	if err != nil {
		return Insight{}, err
	}
	np, err := p.NumericProfileOf(attrs[0])
	if err != nil {
		return Insight{}, err
	}
	qs := np.Quantiles.Quantiles([]float64{0.25, 0.5, 0.75})
	var score float64
	switch metric {
	case "zscore", "mad":
		// No closed-form sketch: run the detector on the reservoir.
		score, _ = stats.OutlierScore(np.Sample.Sample(), c.detectorFor(metric))
	default: // meandist / iqr: KLL fences ⊕ reservoir composition
		score = np.OutlierScoreEstimate(0)
	}
	return Insight{
		Class:  "outliers",
		Metric: metric,
		Attrs:  attrs,
		Score:  score,
		Raw:    score,
		Approx: true,
		Vis:    VisBoxPlot,
		Details: map[string]float64{
			"q1":     qs[0],
			"median": qs[1],
			"q3":     qs[2],
			"min":    np.Moments.Min(),
			"max":    np.Moments.Max(),
		},
	}, nil
}

// heavyHittersClass is insight class #5: heterogeneous frequencies of
// a categorical column, ranked by RelFreq(k,c) — the total relative
// frequency of the k most frequent values; Pareto chart visualization.
type heavyHittersClass struct {
	k int
}

// NewHeavyHittersClass returns the heterogeneous-frequency class with
// configurable k (the paper's parameter; 3 when k ≤ 0).
func NewHeavyHittersClass(k int) Class {
	if k <= 0 {
		k = 3
	}
	return &heavyHittersClass{k: k}
}

func (c *heavyHittersClass) Name() string { return "heavyhitters" }
func (c *heavyHittersClass) Description() string {
	return "A few values dominate the frequency distribution"
}
func (c *heavyHittersClass) Arity() int        { return 1 }
func (c *heavyHittersClass) Metrics() []string { return []string{"relfreq"} }
func (c *heavyHittersClass) VisKind() VisKind  { return VisPareto }

func (c *heavyHittersClass) Candidates(f *frame.Frame) [][]string {
	// Requires at least k+1 distinct values, otherwise RelFreq is
	// trivially 1.
	return categoricalCandidates(f, c.k+1, 0)
}

func (c *heavyHittersClass) Score(f *frame.Frame, attrs []string, metric string) (Insight, error) {
	if err := checkArity("heavyhitters", attrs, 1); err != nil {
		return Insight{}, err
	}
	metric, err := validateMetric(c, metric)
	if err != nil {
		return Insight{}, err
	}
	col, err := f.Categorical(attrs[0])
	if err != nil {
		return Insight{}, err
	}
	counts := col.Counts()
	total := 0
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		return Insight{}, fmt.Errorf("core: column %q has no values", attrs[0])
	}
	top := topCounts(counts, c.k)
	sum := 0
	for _, n := range top {
		sum += n
	}
	rf := float64(sum) / float64(total)
	return Insight{
		Class:  "heavyhitters",
		Metric: metric,
		Attrs:  attrs,
		Score:  rf,
		Raw:    rf,
		Vis:    VisPareto,
		Details: map[string]float64{
			"k":           float64(c.k),
			"cardinality": float64(col.Cardinality()),
			"n":           float64(total),
		},
	}, nil
}

func (c *heavyHittersClass) ScoreApprox(p *sketch.DatasetProfile, attrs []string, metric string) (Insight, error) {
	if err := checkArity("heavyhitters", attrs, 1); err != nil {
		return Insight{}, err
	}
	metric, err := validateMetric(c, metric)
	if err != nil {
		return Insight{}, err
	}
	cp, err := p.CategoricalProfileOf(attrs[0])
	if err != nil {
		return Insight{}, err
	}
	rf := cp.Heavy.RelFreqTopK(c.k)
	return Insight{
		Class:  "heavyhitters",
		Metric: metric,
		Attrs:  attrs,
		Score:  rf,
		Raw:    rf,
		Approx: true,
		Vis:    VisPareto,
		Details: map[string]float64{
			"k":           float64(c.k),
			"cardinality": cp.Distinct.Distinct(),
			"n":           float64(cp.Rows),
		},
	}, nil
}

// topCounts returns the k largest counts.
func topCounts(counts []int, k int) []int {
	cp := make([]int, len(counts))
	copy(cp, counts)
	// Partial selection is unnecessary at these cardinalities.
	for i := 0; i < len(cp); i++ {
		for j := i + 1; j < len(cp); j++ {
			if cp[j] > cp[i] {
				cp[i], cp[j] = cp[j], cp[i]
			}
		}
		if i+1 >= k {
			break
		}
	}
	if k > len(cp) {
		k = len(cp)
	}
	return cp[:k]
}

// multimodalityClass is one of the paper's "additional insights": a
// distribution with several modes, ranked by Hartigan's dip statistic
// (alternative: 2-means separation), visualized as a histogram.
type multimodalityClass struct{}

// NewMultimodalityClass returns the multimodality insight class.
func NewMultimodalityClass() Class { return &multimodalityClass{} }

func (c *multimodalityClass) Name() string { return "multimodality" }
func (c *multimodalityClass) Description() string {
	return "Distribution with multiple modes"
}
func (c *multimodalityClass) Arity() int { return 1 }
func (c *multimodalityClass) Metrics() []string {
	return []string{"dip", "separation", "kdemodes"}
}
func (c *multimodalityClass) VisKind() VisKind { return VisHistogramDensity }

func (c *multimodalityClass) Candidates(f *frame.Frame) [][]string {
	return numericCandidates(f)
}

func (c *multimodalityClass) Score(f *frame.Frame, attrs []string, metric string) (Insight, error) {
	in, _, err := c.ScoreCertified(f, attrs, metric)
	return in, err
}

// ScoreCertified is the column's score, and for the dip the certificate:
// the frame's rows, the values the dip was taken over and the dip.
func (c *multimodalityClass) ScoreCertified(f *frame.Frame, attrs []string, metric string) (Insight, Certificate, error) {
	if err := checkArity("multimodality", attrs, 1); err != nil {
		return Insight{}, nil, err
	}
	metric, err := validateMetric(c, metric)
	if err != nil {
		return Insight{}, nil, err
	}
	col, err := f.Numeric(attrs[0])
	if err != nil {
		return Insight{}, nil, err
	}
	// Every metric here is a function of the sorted non-missing values
	// alone (histogram counts are integers, so binning order is moot).
	vals := col.Ordered().Sorted
	var score float64
	var cert Certificate
	details := map[string]float64{}
	switch metric {
	case "dip":
		score = stats.DipSorted(vals)
		cert = Certificate{float64(f.Rows()), float64(len(vals)), score}
		details["pvalue"] = stats.DipPValueApprox(score, len(vals))
	case "separation":
		score = stats.BimodalitySeparation(vals)
	case "kdemodes":
		score = float64(stats.NewKDE(vals, 0).ModeCount(0))
	}
	details["peaks"] = float64(stats.AutoHistogram(vals, stats.FreedmanDiaconis).PeakCount())
	return Insight{
		Class:   "multimodality",
		Metric:  metric,
		Attrs:   attrs,
		Score:   score,
		Raw:     score,
		Vis:     VisHistogramDensity,
		Details: details,
	}, cert, nil
}

func (c *multimodalityClass) ScoreApprox(p *sketch.DatasetProfile, attrs []string, metric string) (Insight, error) {
	if err := checkArity("multimodality", attrs, 1); err != nil {
		return Insight{}, err
	}
	metric, err := validateMetric(c, metric)
	if err != nil {
		return Insight{}, err
	}
	np, err := p.NumericProfileOf(attrs[0])
	if err != nil {
		return Insight{}, err
	}
	sample := np.Sample.Sample()
	var score float64
	switch metric {
	case "dip":
		score = stats.Dip(sample)
	case "separation":
		score = stats.BimodalitySeparation(sample)
	case "kdemodes":
		score = float64(stats.NewKDE(sample, 0).ModeCount(0))
	}
	return Insight{
		Class:  "multimodality",
		Metric: metric,
		Attrs:  attrs,
		Score:  score,
		Raw:    score,
		Approx: true,
		Vis:    VisHistogramDensity,
	}, nil
}

// uniformityClass ranks categorical columns by how evenly their values
// are distributed: normalized Shannon entropy (alternative: raw
// entropy). High scores mean near-uniform usage of many values; low
// scores pair with heavy hitters. Bar-chart visualization.
type uniformityClass struct{}

// NewUniformityClass returns the uniformity (entropy) insight class.
func NewUniformityClass() Class { return &uniformityClass{} }

func (c *uniformityClass) Name() string { return "uniformity" }
func (c *uniformityClass) Description() string {
	return "Values spread evenly across many categories (high entropy)"
}
func (c *uniformityClass) Arity() int        { return 1 }
func (c *uniformityClass) Metrics() []string { return []string{"normentropy", "entropy"} }
func (c *uniformityClass) VisKind() VisKind  { return VisBar }

func (c *uniformityClass) Candidates(f *frame.Frame) [][]string {
	return categoricalCandidates(f, 2, 0)
}

func (c *uniformityClass) Score(f *frame.Frame, attrs []string, metric string) (Insight, error) {
	if err := checkArity("uniformity", attrs, 1); err != nil {
		return Insight{}, err
	}
	metric, err := validateMetric(c, metric)
	if err != nil {
		return Insight{}, err
	}
	col, err := f.Categorical(attrs[0])
	if err != nil {
		return Insight{}, err
	}
	counts := col.Counts()
	var score float64
	switch metric {
	case "normentropy":
		score = stats.NormalizedEntropy(counts)
	case "entropy":
		score = stats.Entropy(counts)
	}
	return Insight{
		Class:  "uniformity",
		Metric: metric,
		Attrs:  attrs,
		Score:  score,
		Raw:    score,
		Vis:    VisBar,
		Details: map[string]float64{
			"cardinality": float64(col.Cardinality()),
		},
	}, nil
}

func (c *uniformityClass) ScoreApprox(p *sketch.DatasetProfile, attrs []string, metric string) (Insight, error) {
	if err := checkArity("uniformity", attrs, 1); err != nil {
		return Insight{}, err
	}
	metric, err := validateMetric(c, metric)
	if err != nil {
		return Insight{}, err
	}
	cp, err := p.CategoricalProfileOf(attrs[0])
	if err != nil {
		return Insight{}, err
	}
	var score float64
	switch metric {
	case "normentropy":
		score = cp.UniformityEstimate()
	case "entropy":
		score = cp.EntropyEstimate()
	}
	return Insight{
		Class:  "uniformity",
		Metric: metric,
		Attrs:  attrs,
		Score:  score,
		Raw:    score,
		Approx: true,
		Vis:    VisBar,
		Details: map[string]float64{
			"cardinality": cp.Distinct.Distinct(),
		},
	}, nil
}
