// Package stats implements the exact statistics substrate behind
// Foresight's insight metrics: single-pass (and mergeable) moments,
// correlation measures, quantiles, histograms, entropy and dependence
// measures, Hartigan's dip statistic, k-means segmentation, simple
// regression, and configurable outlier detection.
//
// Conventions: univariate functions skip NaN inputs (missing values);
// bivariate functions use pairwise-complete observations. Functions
// return NaN when the statistic is undefined (e.g. variance of fewer
// than two values, correlation of a constant column).
package stats

import (
	"math"
	"sort"
)

// Moments accumulates the first four central moments of a stream in a
// single pass using the numerically stable Pébay/Welford update
// formulas. The zero value is an empty accumulator. Moments from
// disjoint streams can be combined with Merge, which makes the
// accumulator usable both as an exact computation and as the
// "running sums" fast path the paper describes for skewness/kurtosis.
type Moments struct {
	N              int64
	Mean           float64
	M2, M3, M4     float64
	MinVal, MaxVal float64
}

// Add folds one observation into the accumulator. NaN values are
// ignored.
func (m *Moments) Add(x float64) {
	if math.IsNaN(x) {
		return
	}
	if m.N == 0 {
		m.MinVal, m.MaxVal = x, x
	} else {
		if x < m.MinVal {
			m.MinVal = x
		}
		if x > m.MaxVal {
			m.MaxVal = x
		}
	}
	n1 := float64(m.N)
	m.N++
	n := float64(m.N)
	delta := x - m.Mean
	deltaN := delta / n
	deltaN2 := deltaN * deltaN
	term1 := delta * deltaN * n1
	m.Mean += deltaN
	m.M4 += term1*deltaN2*(n*n-3*n+3) + 6*deltaN2*m.M2 - 4*deltaN*m.M3
	m.M3 += term1*deltaN*(n-2) - 3*deltaN*m.M2
	m.M2 += term1
}

// AddAll folds every non-NaN value of xs into the accumulator.
func (m *Moments) AddAll(xs []float64) {
	for _, x := range xs {
		m.Add(x)
	}
}

// Merge combines another accumulator into m, as if every observation
// of o had been Added to m. Merge is commutative and associative up to
// floating-point rounding.
func (m *Moments) Merge(o Moments) {
	if o.N == 0 {
		return
	}
	if m.N == 0 {
		*m = o
		return
	}
	na, nb := float64(m.N), float64(o.N)
	n := na + nb
	delta := o.Mean - m.Mean
	delta2 := delta * delta
	delta3 := delta2 * delta
	delta4 := delta2 * delta2

	mean := m.Mean + delta*nb/n
	M2 := m.M2 + o.M2 + delta2*na*nb/n
	M3 := m.M3 + o.M3 + delta3*na*nb*(na-nb)/(n*n) +
		3*delta*(na*o.M2-nb*m.M2)/n
	M4 := m.M4 + o.M4 + delta4*na*nb*(na*na-na*nb+nb*nb)/(n*n*n) +
		6*delta2*(na*na*o.M2+nb*nb*m.M2)/(n*n) +
		4*delta*(na*o.M3-nb*m.M3)/n

	m.Mean, m.M2, m.M3, m.M4 = mean, M2, M3, M4
	m.N += o.N
	if o.MinVal < m.MinVal {
		m.MinVal = o.MinVal
	}
	if o.MaxVal > m.MaxVal {
		m.MaxVal = o.MaxVal
	}
}

// Count returns the number of observations folded in.
func (m *Moments) Count() int64 { return m.N }

// Variance returns the population variance σ², the paper's dispersion
// metric, or NaN for fewer than one observation.
func (m *Moments) Variance() float64 {
	if m.N < 1 {
		return math.NaN()
	}
	return m.M2 / float64(m.N)
}

// StdDev returns the population standard deviation.
func (m *Moments) StdDev() float64 { return math.Sqrt(m.Variance()) }

// Skewness returns the standardized skewness coefficient
// γ₁ = n⁻¹Σ(xᵢ−µ)³/σ³, the paper's skew metric.
func (m *Moments) Skewness() float64 {
	if m.N < 2 || m.M2 == 0 {
		return math.NaN()
	}
	n := float64(m.N)
	return math.Sqrt(n) * m.M3 / math.Pow(m.M2, 1.5)
}

// Kurtosis returns the (non-excess) kurtosis n⁻¹Σ(xᵢ−µ)⁴/σ⁴, the
// paper's heavy-tails metric. A normal distribution scores ≈3.
func (m *Moments) Kurtosis() float64 {
	if m.N < 2 || m.M2 == 0 {
		return math.NaN()
	}
	n := float64(m.N)
	return n * m.M4 / (m.M2 * m.M2)
}

// ExcessKurtosis returns Kurtosis−3.
func (m *Moments) ExcessKurtosis() float64 { return m.Kurtosis() - 3 }

// CoefficientOfVariation returns σ/|µ|, a scale-free dispersion
// metric, or NaN when the mean is zero.
func (m *Moments) CoefficientOfVariation() float64 {
	if m.N < 2 || m.Mean == 0 {
		return math.NaN()
	}
	return m.StdDev() / math.Abs(m.Mean)
}

// Min returns the smallest observation (NaN when empty).
func (m *Moments) Min() float64 {
	if m.N == 0 {
		return math.NaN()
	}
	return m.MinVal
}

// Max returns the largest observation (NaN when empty).
func (m *Moments) Max() float64 {
	if m.N == 0 {
		return math.NaN()
	}
	return m.MaxVal
}

// NewMoments returns an accumulator pre-loaded with xs.
func NewMoments(xs []float64) *Moments {
	m := &Moments{}
	m.AddAll(xs)
	return m
}

// Mean returns the arithmetic mean of the non-NaN values of xs, or NaN
// if none exist.
func Mean(xs []float64) float64 {
	sum, n := 0.0, 0
	for _, x := range xs {
		if !math.IsNaN(x) {
			sum += x
			n++
		}
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// StdDev returns the population standard deviation of the non-NaN
// values.
func StdDev(xs []float64) float64 { return NewMoments(xs).StdDev() }

// MinMax returns the extrema of the non-NaN values, or NaNs if none
// exist.
func MinMax(xs []float64) (min, max float64) {
	m := NewMoments(xs)
	return m.Min(), m.Max()
}

// dropNaN returns xs without NaNs, copying only when needed.
func dropNaN(xs []float64) []float64 {
	clean := true
	for _, x := range xs {
		if math.IsNaN(x) {
			clean = false
			break
		}
	}
	if clean {
		return xs
	}
	out := make([]float64, 0, len(xs))
	for _, x := range xs {
		if !math.IsNaN(x) {
			out = append(out, x)
		}
	}
	return out
}

// sortedCopy returns the non-NaN values of xs in ascending order.
func sortedCopy(xs []float64) []float64 {
	clean := dropNaN(xs)
	out := make([]float64, len(clean))
	copy(out, clean)
	sort.Float64s(out)
	return out
}

// JarqueBera returns the Jarque–Bera normality statistic
// JB = n/6·(γ₁² + (κ−3)²/4): 0 for perfectly normal moments, growing
// with skewness and excess kurtosis. NaN for degenerate input.
func (m *Moments) JarqueBera() float64 {
	if m.N < 8 || m.M2 == 0 {
		return math.NaN()
	}
	skew := m.Skewness()
	excess := m.ExcessKurtosis()
	return float64(m.N) / 6 * (skew*skew + excess*excess/4)
}

// NormalityScore maps JarqueBera to (0, 1]: 1/(1 + JB/n·c). Higher is
// closer to normal; the n-normalization keeps the score scale-free in
// sample size (JB grows linearly in n for a fixed non-normal shape).
func (m *Moments) NormalityScore() float64 {
	jb := m.JarqueBera()
	if math.IsNaN(jb) {
		return math.NaN()
	}
	return 1 / (1 + 6*jb/float64(m.N))
}
