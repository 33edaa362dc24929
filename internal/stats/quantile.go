package stats

import (
	"math"
	"sort"
)

// Quantile returns the q-th quantile (0 ≤ q ≤ 1) of the non-NaN values
// of xs using linear interpolation between order statistics (R type-7,
// the common default). It returns NaN for empty input or q outside
// [0,1].
func Quantile(xs []float64, q float64) float64 {
	s := sortedCopy(xs)
	return QuantileSorted(s, q)
}

// QuantileSorted is Quantile for data already sorted ascending and
// free of NaNs. It avoids the copy and sort.
func QuantileSorted(s []float64, q float64) float64 {
	if len(s) == 0 || q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN()
	}
	if len(s) == 1 {
		return s[0]
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s[lo]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// Median returns the 0.5 quantile of the non-NaN values.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// IQR returns the interquartile range Q3−Q1 of the non-NaN values.
func IQR(xs []float64) float64 { return IQRSorted(sortedCopy(xs)) }

// IQRSorted is IQR for data already sorted ascending and free of NaNs.
func IQRSorted(s []float64) float64 {
	return QuantileSorted(s, 0.75) - QuantileSorted(s, 0.25)
}

// MAD returns the median absolute deviation from the median, a robust
// scale estimate.
func MAD(xs []float64) float64 { return madSorted(sortedCopy(xs)) }

func madSorted(s []float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	med := QuantileSorted(s, 0.5)
	dev := make([]float64, len(s))
	for i, v := range s {
		dev[i] = math.Abs(v - med)
	}
	sort.Float64s(dev)
	return QuantileSorted(dev, 0.5)
}

// ECDF is an empirical cumulative distribution function over a fixed
// sample.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an ECDF over the non-NaN values of xs.
func NewECDF(xs []float64) *ECDF {
	return &ECDF{sorted: sortedCopy(xs)}
}

// Len returns the number of observations behind the ECDF.
func (e *ECDF) Len() int { return len(e.sorted) }

// At returns F(x) = P(X ≤ x), i.e. the fraction of observations ≤ x.
func (e *ECDF) At(x float64) float64 {
	if len(e.sorted) == 0 {
		return math.NaN()
	}
	// Index of the first element > x.
	idx := sort.SearchFloat64s(e.sorted, x)
	for idx < len(e.sorted) && e.sorted[idx] == x {
		idx++
	}
	return float64(idx) / float64(len(e.sorted))
}

// Values returns the sorted backing sample. Read-only.
func (e *ECDF) Values() []float64 { return e.sorted }
