package stats

import (
	"math"
)

// OutlierDetector flags extreme observations in a numeric sample. The
// paper makes the detector user-configurable (citing Aggarwal's
// taxonomy); Foresight ships the standard trio below and accepts any
// implementation of this interface.
type OutlierDetector interface {
	// Name identifies the detector for display and configuration.
	Name() string
	// Detect returns the indexes (into xs) of outlying observations.
	// NaN cells are never outliers.
	Detect(xs []float64) []int
}

// sortedDetector is implemented by the detectors whose fences come
// from order statistics: given the sample's sorted non-NaN values they
// skip their own copy and sort.
type sortedDetector interface {
	detectSorted(xs, sorted []float64) []int
}

// ZScoreDetector flags |x−µ|/σ > Threshold. The classical parametric
// detector; sensitive to the outliers it is hunting (masking).
type ZScoreDetector struct {
	// Threshold in standard deviations; 3 when zero.
	Threshold float64
}

// Name implements OutlierDetector.
func (d ZScoreDetector) Name() string { return "zscore" }

// Detect implements OutlierDetector.
func (d ZScoreDetector) Detect(xs []float64) []int {
	thr := d.Threshold
	if thr == 0 {
		thr = 3
	}
	m := NewMoments(xs)
	sd := m.StdDev()
	if sd == 0 || math.IsNaN(sd) {
		return nil
	}
	var out []int
	for i, x := range xs {
		if !math.IsNaN(x) && math.Abs(x-m.Mean)/sd > thr {
			out = append(out, i)
		}
	}
	return out
}

// MADDetector flags observations whose modified z-score
// 0.6745·|x−median|/MAD exceeds Threshold. Robust to masking.
type MADDetector struct {
	// Threshold on the modified z-score; 3.5 when zero (Iglewicz &
	// Hoaglin's recommendation).
	Threshold float64
}

// Name implements OutlierDetector.
func (d MADDetector) Name() string { return "mad" }

// Detect implements OutlierDetector.
func (d MADDetector) Detect(xs []float64) []int { return d.detectSorted(xs, sortedCopy(xs)) }

func (d MADDetector) detectSorted(xs, s []float64) []int {
	thr := d.Threshold
	if thr == 0 {
		thr = 3.5
	}
	med := QuantileSorted(s, 0.5)
	mad := madSorted(s)
	if mad == 0 || math.IsNaN(mad) {
		return nil
	}
	var out []int
	for i, x := range xs {
		if !math.IsNaN(x) && 0.6745*math.Abs(x-med)/mad > thr {
			out = append(out, i)
		}
	}
	return out
}

// IQRDetector flags observations outside the Tukey fences
// [Q1−k·IQR, Q3+k·IQR] — the rule that box-and-whisker plots draw,
// matching the paper's outlier visualization.
type IQRDetector struct {
	// K is the fence multiplier; 1.5 when zero.
	K float64
}

// Name implements OutlierDetector.
func (d IQRDetector) Name() string { return "iqr" }

// Detect implements OutlierDetector.
func (d IQRDetector) Detect(xs []float64) []int { return d.detectSorted(xs, sortedCopy(xs)) }

func (d IQRDetector) detectSorted(xs, s []float64) []int {
	k := d.K
	if k == 0 {
		k = 1.5
	}
	if len(s) < 4 {
		return nil
	}
	q1 := QuantileSorted(s, 0.25)
	q3 := QuantileSorted(s, 0.75)
	iqr := q3 - q1
	if iqr == 0 {
		return nil
	}
	lo, hi := q1-k*iqr, q3+k*iqr
	var out []int
	for i, x := range xs {
		if !math.IsNaN(x) && (x < lo || x > hi) {
			out = append(out, i)
		}
	}
	return out
}

// OutlierScore returns the paper's outlier-insight ranking metric: the
// average standardized distance (in standard deviations from the mean)
// of the observations the detector flags. It returns 0 when no
// outliers are detected and NaN when the scale is degenerate.
func OutlierScore(xs []float64, det OutlierDetector) (score float64, outliers []int) {
	if det == nil {
		det = IQRDetector{}
	}
	return scoreOutliers(xs, det.Detect(xs), nil)
}

// OutlierScoreOrdered is OutlierScore(o.Values, det): the built-in IQR
// and MAD detectors reuse o.Sorted, and the score reads o.Moments; any
// other detector runs as usual.
func OutlierScoreOrdered(o *Ordered, det OutlierDetector) (score float64, outliers []int) {
	if det == nil {
		det = IQRDetector{}
	}
	if sd, ok := det.(sortedDetector); ok {
		return scoreOutliers(o.Values, sd.detectSorted(o.Values, o.Sorted), &o.Moments)
	}
	return scoreOutliers(o.Values, det.Detect(o.Values), &o.Moments)
}

// scoreOutliers averages the outliers' standardized distances under m,
// the moments of xs (nil: computed here, when there are outliers).
func scoreOutliers(xs []float64, outliers []int, m *Moments) (float64, []int) {
	if len(outliers) == 0 {
		return 0, nil
	}
	if m == nil {
		m = NewMoments(xs)
	}
	sd := m.StdDev()
	if sd == 0 || math.IsNaN(sd) {
		return math.NaN(), outliers
	}
	sum := 0.0
	for _, idx := range outliers {
		sum += math.Abs(xs[idx]-m.Mean) / sd
	}
	return sum / float64(len(outliers)), outliers
}

// BoxStats holds the five-number summary plus flagged outliers, used
// by the box-and-whisker visualization.
type BoxStats struct {
	Min, Q1, Median, Q3, Max float64
	// WhiskerLow/WhiskerHigh are the most extreme values within the
	// Tukey fences.
	WhiskerLow, WhiskerHigh float64
	// Outliers are the values outside the fences.
	Outliers []float64
}

// NewBoxStats computes the box-plot summary for the non-NaN values of
// xs with fence multiplier k (1.5 when zero).
func NewBoxStats(xs []float64, k float64) *BoxStats { return NewBoxStatsSorted(sortedCopy(xs), k) }

// NewBoxStatsSorted is NewBoxStats for data already sorted ascending
// and free of NaNs.
func NewBoxStatsSorted(s []float64, k float64) *BoxStats {
	if k == 0 {
		k = 1.5
	}
	if len(s) == 0 {
		return &BoxStats{Min: math.NaN(), Q1: math.NaN(), Median: math.NaN(), Q3: math.NaN(), Max: math.NaN()}
	}
	b := &BoxStats{
		Min:    s[0],
		Q1:     QuantileSorted(s, 0.25),
		Median: QuantileSorted(s, 0.5),
		Q3:     QuantileSorted(s, 0.75),
		Max:    s[len(s)-1],
	}
	iqr := b.Q3 - b.Q1
	lo, hi := b.Q1-k*iqr, b.Q3+k*iqr
	b.WhiskerLow, b.WhiskerHigh = b.Q3, b.Q1
	first := true
	for _, v := range s {
		if v < lo || v > hi {
			b.Outliers = append(b.Outliers, v)
			continue
		}
		if first {
			b.WhiskerLow = v
			first = false
		}
		b.WhiskerHigh = v
	}
	if first { // everything was an outlier (degenerate)
		b.WhiskerLow, b.WhiskerHigh = b.Q1, b.Q3
	}
	return b
}
