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
func QuantileSorted(s []float64, q float64) float64 { return quantile(sortedRuns{a: s}, q) }

func quantile(s sortedRuns, q float64) float64 {
	n := s.len()
	if n == 0 || q < 0 || q > 1 || math.IsNaN(q) {
		return math.NaN()
	}
	if n == 1 {
		return s.at(0)
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return s.at(lo)
	}
	frac := pos - float64(lo)
	return s.at(lo)*(1-frac) + s.at(hi)*frac
}

// Median returns the 0.5 quantile of the non-NaN values.
func Median(xs []float64) float64 { return Quantile(xs, 0.5) }

// iqr returns the interquartile range Q3−Q1 of s.
func iqr(s sortedRuns) float64 { return quantile(s, 0.75) - quantile(s, 0.25) }

func madSorted(s sortedRuns) float64 {
	n := s.len()
	if n == 0 {
		return math.NaN()
	}
	med := quantile(s, 0.5)
	dev := make([]float64, 0, n)
	for _, run := range [2][]float64{s.a, s.b} {
		for _, v := range run {
			dev = append(dev, math.Abs(v-med))
		}
	}
	sort.Float64s(dev)
	return QuantileSorted(dev, 0.5)
}

// sortedRuns is a sorted sample held as two ascending runs whose merge,
// equal values a's first, is its order (an Ordered view's base and
// delta); b is empty for a sample in one array.
type sortedRuns struct{ a, b []float64 }

func (s sortedRuns) len() int { return len(s.a) + len(s.b) }

// at returns the value at position k, from 0, of the merged order. Of
// the first k merged values, i come from a: the least i at which a[i]
// does not precede b[k−i−1], a binary search.
func (s sortedRuns) at(k int) float64 {
	a, b := s.a, s.b
	if len(b) == 0 {
		return a[k]
	}
	lo, hi := max(0, k-len(b)), min(k, len(a))
	for lo < hi {
		i := int(uint(lo+hi) >> 1)
		if a[i] <= b[k-i-1] {
			lo = i + 1
		} else {
			hi = i
		}
	}
	if j := k - lo; lo < len(a) && (j == len(b) || a[lo] <= b[j]) {
		return a[lo]
	}
	return b[k-lo]
}

// each calls visit with every value in the merged order, the run it
// is in (0 for a, 1 for b) and its position there.
func (s sortedRuns) each(visit func(x float64, run, p int)) {
	i, j := 0, 0
	for i < len(s.a) || j < len(s.b) {
		if j == len(s.b) || (i < len(s.a) && s.a[i] <= s.b[j]) {
			visit(s.a[i], 0, i)
			i++
		} else {
			visit(s.b[j], 1, j)
			j++
		}
	}
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
