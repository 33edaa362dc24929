package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almost(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.IsNaN(want) {
		if !math.IsNaN(got) {
			t.Errorf("%s = %v, want NaN", name, got)
		}
		return
	}
	if math.IsNaN(got) || math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (±%v)", name, got, want, tol)
	}
}

// naiveMoments computes moments by the two-pass textbook formulas.
func naiveMoments(xs []float64) (mean, variance, skew, kurt float64) {
	n := float64(len(xs))
	for _, x := range xs {
		mean += x
	}
	mean /= n
	var m2, m3, m4 float64
	for _, x := range xs {
		d := x - mean
		m2 += d * d
		m3 += d * d * d
		m4 += d * d * d * d
	}
	m2 /= n
	m3 /= n
	m4 /= n
	variance = m2
	sd := math.Sqrt(m2)
	skew = m3 / (sd * sd * sd)
	kurt = m4 / (m2 * m2)
	return
}

func TestMomentsAgainstNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.NormFloat64()*3 + 10
	}
	m := NewMoments(xs)
	mean, variance, skew, kurt := naiveMoments(xs)
	almost(t, "Mean", m.Mean, mean, 1e-9)
	almost(t, "Variance", m.Variance(), variance, 1e-9)
	almost(t, "Skewness", m.Skewness(), skew, 1e-9)
	almost(t, "Kurtosis", m.Kurtosis(), kurt, 1e-9)
	almost(t, "ExcessKurtosis", m.ExcessKurtosis(), kurt-3, 1e-9)
}

func TestMomentsKnownValues(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	m := NewMoments(xs)
	almost(t, "Mean", m.Mean, 5, 1e-12)
	almost(t, "Variance", m.Variance(), 4, 1e-12)
	almost(t, "StdDev", m.StdDev(), 2, 1e-12)
	almost(t, "Min", m.Min(), 2, 0)
	almost(t, "Max", m.Max(), 9, 0)
	if m.Count() != 8 {
		t.Errorf("Count = %d, want 8", m.Count())
	}
	almost(t, "SampleVariance", m.SampleVariance(), 32.0/7.0, 1e-12)
}

func TestMomentsNaNAndEmpty(t *testing.T) {
	var m Moments
	almost(t, "empty Variance", m.Variance(), math.NaN(), 0)
	almost(t, "empty Min", m.Min(), math.NaN(), 0)
	m.Add(math.NaN())
	if m.Count() != 0 {
		t.Error("NaN should be ignored")
	}
	m.Add(5)
	almost(t, "single Variance", m.Variance(), 0, 0)
	almost(t, "single Skewness", m.Skewness(), math.NaN(), 0)
	almost(t, "constant CoV mean!=0", (&Moments{}).CoefficientOfVariation(), math.NaN(), 0)
}

func TestMomentsCoV(t *testing.T) {
	m := NewMoments([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	almost(t, "CoV", m.CoefficientOfVariation(), 2.0/5.0, 1e-12)
	z := NewMoments([]float64{-1, 1})
	almost(t, "CoV zero mean", z.CoefficientOfVariation(), math.NaN(), 0)
}

// Property: merging two accumulators equals accumulating the
// concatenated stream.
func TestQuickMomentsMerge(t *testing.T) {
	prop := func(a, b []float64) bool {
		clean := func(xs []float64) []float64 {
			out := xs[:0]
			for _, x := range xs {
				if !math.IsNaN(x) && !math.IsInf(x, 0) && math.Abs(x) < 1e6 {
					out = append(out, x)
				}
			}
			return out
		}
		a, b = clean(a), clean(b)
		var ma, mb, mall Moments
		ma.AddAll(a)
		mb.AddAll(b)
		mall.AddAll(a)
		mall.AddAll(b)
		ma.Merge(mb)
		if ma.N != mall.N {
			return false
		}
		if ma.N == 0 {
			return true
		}
		scale := math.Max(1, math.Abs(mall.Mean))
		if math.Abs(ma.Mean-mall.Mean) > 1e-6*scale {
			return false
		}
		v1, v2 := ma.Variance(), mall.Variance()
		return math.Abs(v1-v2) <= 1e-5*math.Max(1, v2)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestMomentsMergeEmptySides(t *testing.T) {
	var empty Moments
	full := *NewMoments([]float64{1, 2, 3})
	m := full
	m.Merge(empty)
	almost(t, "merge empty rhs", m.Mean, 2, 1e-12)
	var m2 Moments
	m2.Merge(full)
	almost(t, "merge empty lhs", m2.Mean, 2, 1e-12)
	almost(t, "merge empty lhs min", m2.Min(), 1, 0)
}

func TestSkewKurtShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	n := 20000
	normal := make([]float64, n)
	lognorm := make([]float64, n)
	for i := 0; i < n; i++ {
		z := rng.NormFloat64()
		normal[i] = z
		lognorm[i] = math.Exp(rng.NormFloat64())
	}
	if s := Skewness(normal); math.Abs(s) > 0.1 {
		t.Errorf("normal skewness = %v, want ≈0", s)
	}
	if k := Kurtosis(normal); math.Abs(k-3) > 0.3 {
		t.Errorf("normal kurtosis = %v, want ≈3", k)
	}
	if s := Skewness(lognorm); s < 2 {
		t.Errorf("lognormal skewness = %v, want strongly positive", s)
	}
	if k := Kurtosis(lognorm); k < 10 {
		t.Errorf("lognormal kurtosis = %v, want heavy-tailed (>10)", k)
	}
}

func TestMeanVarianceHelpers(t *testing.T) {
	almost(t, "Mean", Mean([]float64{1, math.NaN(), 3}), 2, 1e-12)
	almost(t, "Mean empty", Mean(nil), math.NaN(), 0)
	almost(t, "Variance", Variance([]float64{1, 3}), 1, 1e-12)
	min, max := MinMax([]float64{3, math.NaN(), -1, 7})
	almost(t, "min", min, -1, 0)
	almost(t, "max", max, 7, 0)
}

func TestFitLine(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := []float64{1, 3, 5, 7, 9} // y = 2x+1
	f := FitLine(xs, ys)
	almost(t, "Slope", f.Slope, 2, 1e-12)
	almost(t, "Intercept", f.Intercept, 1, 1e-12)
	almost(t, "R2", f.R2, 1, 1e-12)
	almost(t, "Predict", f.Predict(10), 21, 1e-12)
	if f.N != 5 {
		t.Errorf("N = %d, want 5", f.N)
	}
	bad := FitLine([]float64{1, 1, 1}, []float64{1, 2, 3})
	almost(t, "constant x slope", bad.Slope, math.NaN(), 0)
	short := FitLine([]float64{1}, []float64{2})
	almost(t, "short slope", short.Slope, math.NaN(), 0)
}

func TestFitLineNoisy(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 500
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64() * 10
		ys[i] = -1.5*xs[i] + 4 + rng.NormFloat64()*0.01
	}
	f := FitLine(xs, ys)
	almost(t, "Slope", f.Slope, -1.5, 0.01)
	almost(t, "Intercept", f.Intercept, 4, 0.05)
	if f.R2 < 0.99 {
		t.Errorf("R2 = %v, want ≈1", f.R2)
	}
}

func TestJarqueBeraAndNormality(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	n := 20000
	normal := make([]float64, n)
	logn := make([]float64, n)
	for i := range normal {
		normal[i] = rng.NormFloat64()
		logn[i] = math.Exp(rng.NormFloat64())
	}
	mn := NewMoments(normal)
	ml := NewMoments(logn)
	jbN, jbL := mn.JarqueBera(), ml.JarqueBera()
	if jbN > 10 {
		t.Errorf("normal JB = %v, want small", jbN)
	}
	if jbL < 1000 {
		t.Errorf("lognormal JB = %v, want huge", jbL)
	}
	sN, sL := mn.NormalityScore(), ml.NormalityScore()
	if sN < 0.9 || sN > 1 {
		t.Errorf("normal score = %v, want ≈1", sN)
	}
	if sL > 0.1 {
		t.Errorf("lognormal score = %v, want ≈0", sL)
	}
	var empty Moments
	almost(t, "empty JB", empty.JarqueBera(), math.NaN(), 0)
	almost(t, "empty normality", empty.NormalityScore(), math.NaN(), 0)
	constant := NewMoments([]float64{3, 3, 3, 3, 3, 3, 3, 3, 3})
	almost(t, "constant JB", constant.JarqueBera(), math.NaN(), 0)
}

// SampleVariance returns the n−1 denominated variance.
func (m *Moments) SampleVariance() float64 {
	if m.N < 2 {
		return math.NaN()
	}
	return m.M2 / float64(m.N-1)
}

// Variance returns the population variance of the non-NaN values.
func Variance(xs []float64) float64 { return NewMoments(xs).Variance() }

// Skewness returns γ₁ of the non-NaN values.
func Skewness(xs []float64) float64 { return NewMoments(xs).Skewness() }

// Kurtosis returns the kurtosis of the non-NaN values.
func Kurtosis(xs []float64) float64 { return NewMoments(xs).Kurtosis() }
