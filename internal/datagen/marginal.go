// Package datagen generates the synthetic datasets this reproduction
// substitutes for the paper's demo data (OECD well-being, PPMI
// Parkinson, IMDB movies — see DESIGN.md §2) and the scalable
// workloads behind the performance experiments.
//
// Numeric columns are drawn from factor models (FactorTable): each
// column's latent z-score is a loading-weighted sum of shared standard
// normal factors plus its own noise, so every loading pattern is a
// valid correlation structure, and the z-score is pushed through a
// monotone marginal transform (normal, lognormal, left-skew, bimodal,
// affine). Monotone transforms preserve rank structure, so planted
// Spearman correlations survive arbitrary marginals and planted
// Pearson correlations survive approximately. Categorical columns,
// outliers and missing cells are planted on top.
package datagen

import (
	"fmt"
	"math"
	"math/rand"
)

// Marginal maps a standard normal draw to a target distribution via a
// monotone transform.
type Marginal interface {
	// Transform maps z ~ N(0,1) to the marginal's scale.
	Transform(z float64) float64
}

// Normal is the N(Mu, Sd²) marginal.
type Normal struct{ Mu, Sd float64 }

// Transform implements Marginal.
func (m Normal) Transform(z float64) float64 { return m.Mu + m.Sd*z }

// LogNormal is exp(Mu + Sigma·z): right-skewed, heavy right tail.
type LogNormal struct{ Mu, Sigma float64 }

// Transform implements Marginal.
func (m LogNormal) Transform(z float64) float64 { return math.Exp(m.Mu + m.Sigma*z) }

// LeftSkew is Max − exp(Mu + Sigma·(−z)): left-skewed with a hard
// upper bound, like a "% satisfied" indicator that saturates.
type LeftSkew struct{ Max, Mu, Sigma float64 }

// Transform implements Marginal.
func (m LeftSkew) Transform(z float64) float64 { return m.Max - math.Exp(m.Mu-m.Sigma*z) }

// Bimodal is z + Sep·tanh(Sharp·z): a monotone transform with two
// modes ±≈Sep; Sharp controls the valley depth (3 when zero).
type Bimodal struct{ Sep, Sharp float64 }

// Transform implements Marginal.
func (m Bimodal) Transform(z float64) float64 {
	sharp := m.Sharp
	if sharp == 0 {
		sharp = 3
	}
	return z + m.Sep*math.Tanh(sharp*z)
}

// Scaled wraps a marginal with an affine map a + b·inner(z).
type Scaled struct {
	Inner Marginal
	A, B  float64
}

// Transform implements Marginal.
func (m Scaled) Transform(z float64) float64 { return m.A + m.B*m.Inner.Transform(z) }

// PlantOutliers replaces every stride-th value of col with extreme
// points at ±sigmas standard deviations from the mean (alternating
// sign), returning the number planted. It mutates col.
func PlantOutliers(col []float64, stride int, sigmas float64) int {
	if stride < 1 {
		stride = 97
	}
	mean, sd := meanStd(col)
	if sd == 0 {
		return 0
	}
	planted := 0
	sign := 1.0
	for i := stride - 1; i < len(col); i += stride {
		col[i] = mean + sign*sigmas*sd
		sign = -sign
		planted++
	}
	return planted
}

func meanStd(xs []float64) (float64, float64) {
	n := 0
	sum := 0.0
	for _, x := range xs {
		if !math.IsNaN(x) {
			sum += x
			n++
		}
	}
	if n == 0 {
		return math.NaN(), 0
	}
	mean := sum / float64(n)
	ss := 0.0
	for _, x := range xs {
		if !math.IsNaN(x) {
			ss += (x - mean) * (x - mean)
		}
	}
	return mean, math.Sqrt(ss / float64(n))
}

// PlantMissing replaces every stride-th value with NaN, returning the
// count planted. It mutates col.
func PlantMissing(col []float64, stride int) int {
	if stride < 1 {
		return 0
	}
	planted := 0
	for i := stride - 1; i < len(col); i += stride {
		col[i] = math.NaN()
		planted++
	}
	return planted
}

// ZipfStrings draws n strings "prefix<i>" with Zipf(s) frequencies
// over cardinality distinct values.
func ZipfStrings(n int, prefix string, cardinality int, s float64, rng *rand.Rand) []string {
	if cardinality < 1 {
		cardinality = 1
	}
	if s <= 1 {
		s = 1.5
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	z := rand.NewZipf(rng, s, 1, uint64(cardinality-1))
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d", prefix, z.Uint64())
	}
	return out
}

// UniformStrings draws n strings uniformly over cardinality values.
func UniformStrings(n int, prefix string, cardinality int, rng *rand.Rand) []string {
	if cardinality < 1 {
		cardinality = 1
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%d", prefix, rng.Intn(cardinality))
	}
	return out
}
