package core

import (
	"fmt"
	"math"
	"slices"

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

// momentInsight fills in the insight of the three moment-based classes
// from a Moments accumulator; robust dispersion needs order statistics,
// not moments, so the IQR comes from iqr.
func momentInsight(in Insight, m *sketch.Moments, iqr func() float64) Insight {
	in.Details = map[string]float64{
		"mean": m.Mean,
		"sd":   m.StdDev(),
		"min":  m.Min(),
		"max":  m.Max(),
		"n":    float64(m.Count()),
	}
	switch in.Metric {
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
	case "iqr":
		in.Raw = iqr()
		in.Score = in.Raw
	}
	return in
}

// momentsClass factors the shared shape of dispersion/skew/heavy-tails.
type momentsClass struct{ spec }

func (c *momentsClass) Candidates(f *frame.Frame) [][]string {
	return numericCandidates(f)
}

func (c *momentsClass) Score(f *frame.Frame, attrs []string, metric string) (Insight, error) {
	in, cols, err := c.onFrame(f, attrs, metric)
	if err != nil {
		return Insight{}, err
	}
	view := cols.num[0].Ordered()
	return momentInsight(in, &view.Moments, view.IQR), nil
}

func (c *momentsClass) ScoreApprox(p *sketch.DatasetProfile, attrs []string, metric string) (Insight, error) {
	in, ps, err := c.onProfile(p, attrs, metric)
	if err != nil {
		return Insight{}, err
	}
	// The moments sketch is exact (running sums), so the "approximate"
	// path gives the same numbers; it is still marked Approx because it
	// came from the preprocessed store.
	return momentInsight(in, &ps.num[0].Moments, ps.num[0].Quantiles.IQR), nil
}

// NewDispersionClass returns insight class #1: very high dispersion of
// values around the mean, ranked by variance σ² (alternatives: stddev,
// coefficient of variation), visualized as a histogram.
func NewDispersionClass() Class {
	return &momentsClass{spec{
		name:    "dispersion",
		desc:    "High dispersion of values around the mean",
		metrics: []string{"variance", "stddev", "cv", "iqr"},
		vis:     VisHistogram, kinds: "n",
	}}
}

// NewSkewClass returns insight class #2: asymmetry of a univariate
// distribution, ranked by |γ₁| (standardized skewness coefficient),
// visualized as a histogram.
func NewSkewClass() Class {
	return &momentsClass{spec{
		name:    "skew",
		desc:    "Strong asymmetry (skewness) of a distribution",
		metrics: []string{"skewness"},
		vis:     VisHistogram, kinds: "n",
	}}
}

// NewHeavyTailsClass returns insight class #3: propensity toward
// extreme values, ranked by kurtosis (alternative: excess kurtosis),
// visualized as a histogram.
func NewHeavyTailsClass() Class {
	return &momentsClass{spec{
		name:    "heavytails",
		desc:    "Heavy-tailed distribution (extreme-value propensity)",
		metrics: []string{"kurtosis", "excess"},
		vis:     VisHistogram, kinds: "n",
	}}
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
	spec
	detector stats.OutlierDetector
}

// NewOutliersClass returns the outlier insight class with the given
// detector (nil = Tukey IQR fences, matching the box-plot display).
func NewOutliersClass(det stats.OutlierDetector) Class {
	if det == nil {
		det = stats.IQRDetector{}
	}
	return &outliersClass{spec: spec{
		name:    "outliers",
		desc:    "Extreme outliers far from the mean",
		metrics: []string{"meandist", "iqr", "zscore", "mad"},
		vis:     VisBoxPlot, kinds: "n",
	}, detector: det}
}

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
	in, cols, err := c.onFrame(f, attrs, metric)
	if err != nil {
		return Insight{}, err
	}
	view := cols.num[0].Ordered()
	score, outliers := stats.OutlierScoreOrdered(view, c.detectorFor(in.Metric))
	box := view.BoxStats(0)
	return scored(in, score, map[string]float64{
		"count":  float64(len(outliers)),
		"q1":     box.Q1,
		"median": box.Median,
		"q3":     box.Q3,
		"min":    box.Min,
		"max":    box.Max,
	}), nil
}

func (c *outliersClass) ScoreApprox(p *sketch.DatasetProfile, attrs []string, metric string) (Insight, error) {
	in, ps, err := c.onProfile(p, attrs, metric)
	if err != nil {
		return Insight{}, err
	}
	np := ps.num[0]
	qs := np.Quantiles.Quantiles([]float64{0.25, 0.5, 0.75})
	var score float64
	switch in.Metric {
	case "zscore", "mad":
		// No closed-form sketch: run the detector on the reservoir.
		score, _ = stats.OutlierScore(np.Sample.Sample(), c.detectorFor(in.Metric))
	default: // meandist / iqr: KLL fences ⊕ reservoir composition
		score = np.OutlierScoreAt(qs[0], qs[2], 0)
	}
	return scored(in, score, map[string]float64{
		"q1":     qs[0],
		"median": qs[1],
		"q3":     qs[2],
		"min":    np.Moments.Min(),
		"max":    np.Moments.Max(),
	}), nil
}

// heavyHittersClass is insight class #5: heterogeneous frequencies of
// a categorical column, ranked by RelFreq(k,c) — the total relative
// frequency of the k most frequent values; Pareto chart visualization.
type heavyHittersClass struct {
	spec
	k int
}

// NewHeavyHittersClass returns the heterogeneous-frequency class with
// configurable k (the paper's parameter; 3 when k ≤ 0).
func NewHeavyHittersClass(k int) Class {
	if k <= 0 {
		k = 3
	}
	return &heavyHittersClass{spec: spec{
		name:    "heavyhitters",
		desc:    "A few values dominate the frequency distribution",
		metrics: []string{"relfreq"},
		vis:     VisPareto, kinds: "c",
	}, k: k}
}

func (c *heavyHittersClass) Candidates(f *frame.Frame) [][]string {
	// Requires at least k+1 distinct values, otherwise RelFreq is
	// trivially 1.
	return categoricalCandidates(f, c.k+1, 0)
}

// relFreqInsight fills in the RelFreq(k) insight of a column with the
// given cardinality and n present values; an empty column has none.
func (c *heavyHittersClass) relFreqInsight(in Insight, empty bool, rf, cardinality, n float64) (Insight, error) {
	if empty {
		return Insight{}, fmt.Errorf("core: column %q has no values", in.Attrs[0])
	}
	return scored(in, rf, map[string]float64{
		"k":           float64(c.k),
		"cardinality": cardinality,
		"n":           n,
	}), nil
}

func (c *heavyHittersClass) Score(f *frame.Frame, attrs []string, metric string) (Insight, error) {
	in, cols, err := c.onFrame(f, attrs, metric)
	if err != nil {
		return Insight{}, err
	}
	counts := cols.cat[0].Counts()
	total, sum := 0, 0
	for _, n := range counts {
		total += n
	}
	for _, n := range topCounts(counts, c.k) {
		sum += n
	}
	return c.relFreqInsight(in, total == 0, float64(sum)/float64(total), float64(cols.cat[0].Cardinality()), float64(total))
}

func (c *heavyHittersClass) ScoreApprox(p *sketch.DatasetProfile, attrs []string, metric string) (Insight, error) {
	in, ps, err := c.onProfile(p, attrs, metric)
	if err != nil {
		return Insight{}, err
	}
	cp := ps.cat[0]
	return c.relFreqInsight(in, cp.Heavy.Count() == 0, cp.Heavy.RelFreqTopK(c.k), cp.Distinct.Distinct(), float64(cp.Rows))
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
type multimodalityClass struct{ spec }

// NewMultimodalityClass returns the multimodality insight class.
func NewMultimodalityClass() Class {
	return &multimodalityClass{spec{
		name:    "multimodality",
		desc:    "Distribution with multiple modes",
		metrics: []string{"dip", "separation", "kdemodes"},
		vis:     VisHistogramDensity, kinds: "n",
	}}
}

func (c *multimodalityClass) Candidates(f *frame.Frame) [][]string {
	return numericCandidates(f)
}

// modesInsight scores sorted values, free of NaNs, under in's metric:
// every metric here is a function of the sorted values alone.
func modesInsight(in Insight, sorted []float64) Insight {
	var score float64
	switch in.Metric {
	case "dip":
		score = stats.DipSorted(sorted)
	case "separation":
		score = stats.BimodalitySeparation(sorted)
	case "kdemodes":
		score = float64(stats.NewKDE(sorted, 0).ModeCount(0))
	}
	return scored(in, score, nil)
}

func (c *multimodalityClass) Score(f *frame.Frame, attrs []string, metric string) (Insight, error) {
	in, _, err := c.ScoreCertified(f, attrs, metric)
	return in, err
}

// ScoreCertified is the column's score, and for the dip the certificate:
// the frame's rows, the values the dip was taken over and the dip.
func (c *multimodalityClass) ScoreCertified(f *frame.Frame, attrs []string, metric string) (Insight, Certificate, error) {
	in, cols, err := c.onFrame(f, attrs, metric)
	if err != nil {
		return Insight{}, nil, err
	}
	// Histogram counts are integers, so binning order is moot too. None
	// of the three keeps the sorted values, so a view with a delta run
	// merges them into scratch.
	view := cols.num[0].Ordered()
	view.WithSorted(func(vals []float64) {
		in = modesInsight(in, vals)
		in.Details = map[string]float64{"peaks": float64(stats.AutoHistogram(vals, stats.FreedmanDiaconis).PeakCount())}
	})
	var cert Certificate
	if in.Metric == "dip" {
		cert = Certificate{float64(f.Rows()), float64(view.Len()), in.Score}
		in.Details["pvalue"] = stats.DipPValueApprox(in.Score, view.Len())
	}
	return in, cert, nil
}

func (c *multimodalityClass) ScoreApprox(p *sketch.DatasetProfile, attrs []string, metric string) (Insight, error) {
	in, ps, err := c.onProfile(p, attrs, metric)
	if err != nil {
		return Insight{}, err
	}
	sample := slices.DeleteFunc(slices.Clone(ps.num[0].Sample.Sample()), math.IsNaN)
	slices.Sort(sample)
	return modesInsight(in, sample), nil
}

// uniformityClass ranks categorical columns by how evenly their values
// are distributed: normalized Shannon entropy (alternative: raw
// entropy). High scores mean near-uniform usage of many values; low
// scores pair with heavy hitters. Bar-chart visualization.
type uniformityClass struct{ spec }

// NewUniformityClass returns the uniformity (entropy) insight class.
func NewUniformityClass() Class {
	return &uniformityClass{spec{
		name:    "uniformity",
		desc:    "Values spread evenly across many categories (high entropy)",
		metrics: []string{"normentropy", "entropy"},
		vis:     VisBar, kinds: "c",
	}}
}

func (c *uniformityClass) Candidates(f *frame.Frame) [][]string {
	return categoricalCandidates(f, 2, 0)
}

func (c *uniformityClass) Score(f *frame.Frame, attrs []string, metric string) (Insight, error) {
	in, cols, err := c.onFrame(f, attrs, metric)
	if err != nil {
		return Insight{}, err
	}
	counts := cols.cat[0].Counts()
	score := stats.NormalizedEntropy
	if in.Metric == "entropy" {
		score = stats.Entropy
	}
	return scored(in, score(counts), map[string]float64{"cardinality": float64(cols.cat[0].Cardinality())}), nil
}

func (c *uniformityClass) ScoreApprox(p *sketch.DatasetProfile, attrs []string, metric string) (Insight, error) {
	in, ps, err := c.onProfile(p, attrs, metric)
	if err != nil {
		return Insight{}, err
	}
	cp := ps.cat[0]
	score := cp.UniformityEstimate
	if in.Metric == "entropy" {
		score = cp.EntropyEstimate
	}
	return scored(in, score(), map[string]float64{"cardinality": cp.Distinct.Distinct()}), nil
}
