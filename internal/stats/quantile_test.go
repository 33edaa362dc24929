package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestQuantileBasics(t *testing.T) {
	xs := []float64{15, 20, 35, 40, 50}
	almost(t, "median", Quantile(xs, 0.5), 35, 1e-12)
	almost(t, "q0", Quantile(xs, 0), 15, 1e-12)
	almost(t, "q1", Quantile(xs, 1), 50, 1e-12)
	almost(t, "q.25 type7", Quantile(xs, 0.25), 20, 1e-12)
	almost(t, "q.75 type7", Quantile(xs, 0.75), 40, 1e-12)
	almost(t, "interp", Quantile([]float64{0, 10}, 0.25), 2.5, 1e-12)
	almost(t, "empty", Quantile(nil, 0.5), math.NaN(), 0)
	almost(t, "bad q", Quantile(xs, 1.5), math.NaN(), 0)
	almost(t, "NaN q", Quantile(xs, math.NaN()), math.NaN(), 0)
	almost(t, "single", Quantile([]float64{42}, 0.9), 42, 0)
}

func TestQuantileSkipsNaN(t *testing.T) {
	xs := []float64{math.NaN(), 1, 2, 3, math.NaN()}
	almost(t, "median with NaN", Median(xs), 2, 1e-12)
}

func TestIQRAndMAD(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9}
	almost(t, "IQR", IQR(xs), 4, 1e-12)
	almost(t, "MAD", MAD(xs), 2, 1e-12)
	almost(t, "MAD empty", MAD(nil), math.NaN(), 0)
	almost(t, "MAD constant", MAD([]float64{5, 5, 5}), 0, 0)
}

func TestECDF(t *testing.T) {
	e := NewECDF([]float64{1, 2, 2, 3})
	almost(t, "F(0)", e.At(0), 0, 1e-12)
	almost(t, "F(1)", e.At(1), 0.25, 1e-12)
	almost(t, "F(2)", e.At(2), 0.75, 1e-12)
	almost(t, "F(2.5)", e.At(2.5), 0.75, 1e-12)
	almost(t, "F(3)", e.At(3), 1, 1e-12)
	almost(t, "F(99)", e.At(99), 1, 1e-12)
	if e.Len() != 4 {
		t.Errorf("Len = %d, want 4", e.Len())
	}
	empty := NewECDF(nil)
	almost(t, "empty ECDF", empty.At(1), math.NaN(), 0)
}

// Property: quantile is monotone in q and bounded by extrema.
func TestQuickQuantileMonotone(t *testing.T) {
	prop := func(raw []float64, qa, qb float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		clamp := func(q float64) float64 {
			q = math.Abs(math.Mod(q, 1))
			if math.IsNaN(q) {
				return 0.5
			}
			return q
		}
		qa, qb = clamp(qa), clamp(qb)
		if qa > qb {
			qa, qb = qb, qa
		}
		va, vb := Quantile(xs, qa), Quantile(xs, qb)
		sorted := sortedCopy(xs)
		lo, hi := sorted[0], sorted[len(sorted)-1]
		return va <= vb && va >= lo && vb <= hi
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHistogramBasics(t *testing.T) {
	xs := []float64{0, 0.1, 0.2, 5, 5.1, 9.9, 10}
	h := NewHistogram(xs, 2)
	if h.N != 7 {
		t.Errorf("N = %d, want 7", h.N)
	}
	if len(h.Counts) != 2 || len(h.Edges) != 3 {
		t.Fatalf("shape: %d counts, %d edges", len(h.Counts), len(h.Edges))
	}
	if h.Counts[0] != 3 || h.Counts[1] != 4 {
		t.Errorf("Counts = %v, want [3 4]", h.Counts)
	}
	if h.Mode() != 1 {
		t.Errorf("Mode = %d, want 1", h.Mode())
	}
	d := h.Densities()
	sum := 0.0
	for i, dens := range d {
		sum += dens * (h.Edges[i+1] - h.Edges[i])
	}
	almost(t, "density integral", sum, 1, 1e-9)
}

func TestHistogramDegenerate(t *testing.T) {
	h := NewHistogram([]float64{7, 7, 7}, 10)
	if len(h.Counts) != 1 || h.Counts[0] != 3 {
		t.Errorf("constant histogram = %v", h.Counts)
	}
	empty := NewHistogram(nil, 5)
	if empty.N != 0 {
		t.Error("empty histogram should have N=0")
	}
	allNaN := NewHistogram([]float64{math.NaN()}, 3)
	if allNaN.N != 0 {
		t.Error("all-NaN histogram should have N=0")
	}
}

func TestNumBinsRules(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	for _, rule := range []BinRule{FreedmanDiaconis, Sturges, Scott} {
		b := NumBins(xs, rule)
		if b < 2 || b > 512 {
			t.Errorf("rule %d: bins = %d out of sane range", rule, b)
		}
	}
	if NumBins(nil, Sturges) != 1 {
		t.Error("empty input should give 1 bin")
	}
	if NumBins([]float64{3, 3, 3}, FreedmanDiaconis) != 1 {
		t.Error("constant input should give 1 bin")
	}
	// Degenerate IQR with spread falls back to Sturges.
	spiky := make([]float64, 100)
	spiky[0], spiky[99] = -5, 5
	if b := NumBins(spiky, FreedmanDiaconis); b < 1 {
		t.Errorf("degenerate IQR bins = %d", b)
	}
}

// Property: histogram counts sum to the number of non-NaN inputs.
func TestQuickHistogramMassConservation(t *testing.T) {
	prop := func(raw []float64, bins uint8) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsInf(v, 0) {
				xs = append(xs, v)
			}
		}
		h := NewHistogram(xs, int(bins%50)+1)
		total := 0
		for _, c := range h.Counts {
			total += c
		}
		want := 0
		for _, v := range xs {
			if !math.IsNaN(v) {
				want++
			}
		}
		return total == want && h.N == want
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestHistogramPeakCount(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	unimodal := make([]float64, 5000)
	bimodal := make([]float64, 5000)
	for i := range unimodal {
		unimodal[i] = rng.NormFloat64()
		if i%2 == 0 {
			bimodal[i] = rng.NormFloat64() - 6
		} else {
			bimodal[i] = rng.NormFloat64() + 6
		}
	}
	hu := NewHistogram(unimodal, 30)
	hb := NewHistogram(bimodal, 30)
	if pu := hu.PeakCount(); pu != 1 {
		t.Errorf("unimodal peaks = %d, want 1", pu)
	}
	if pb := hb.PeakCount(); pb != 2 {
		t.Errorf("bimodal peaks = %d, want 2", pb)
	}
}

func TestSortedCopyLeavesInputAlone(t *testing.T) {
	xs := []float64{3, 1, 2}
	s := sortedCopy(xs)
	if !sort.Float64sAreSorted(s) {
		t.Error("sortedCopy not sorted")
	}
	if xs[0] != 3 {
		t.Error("sortedCopy mutated input")
	}
}

// IQR returns the interquartile range Q3−Q1 of the non-NaN values.
func IQR(xs []float64) float64 { return iqr(sortedRuns{a: sortedCopy(xs)}) }

// MAD returns the median absolute deviation from the median, a robust
// scale estimate.
func MAD(xs []float64) float64 { return madSorted(sortedRuns{a: sortedCopy(xs)}) }
