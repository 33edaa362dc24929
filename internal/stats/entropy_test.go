package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestEntropy(t *testing.T) {
	almost(t, "uniform 2", Entropy([]int{5, 5}), math.Log(2), 1e-12)
	almost(t, "uniform 4", Entropy([]int{1, 1, 1, 1}), math.Log(4), 1e-12)
	almost(t, "point mass", Entropy([]int{10, 0, 0}), 0, 1e-12)
	almost(t, "empty", Entropy(nil), 0, 0)
	almost(t, "all zero", Entropy([]int{0, 0}), 0, 0)
}

func TestNormalizedEntropy(t *testing.T) {
	almost(t, "uniform", NormalizedEntropy([]int{3, 3, 3}), 1, 1e-12)
	almost(t, "single", NormalizedEntropy([]int{9}), 0, 0)
	almost(t, "skewed below 1", NormalizedEntropy([]int{99, 1}), 0.0808, 0.001)
}

// Property: 0 ≤ normalized entropy ≤ 1.
func TestQuickNormalizedEntropyBounds(t *testing.T) {
	prop := func(raw []uint16) bool {
		counts := make([]int, len(raw))
		for i, v := range raw {
			counts[i] = int(v)
		}
		h := NormalizedEntropy(counts)
		return h >= 0 && h <= 1+1e-12
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestContingencyIndependence(t *testing.T) {
	// Perfectly independent 2×2 table.
	a := []int32{0, 0, 1, 1, 0, 0, 1, 1}
	b := []int32{0, 1, 0, 1, 0, 1, 0, 1}
	ct := NewContingency(a, b, 2, 2)
	if ct.N != 8 {
		t.Fatalf("N = %d, want 8", ct.N)
	}
	almost(t, "chi2 independent", ct.ChiSquare(), 0, 1e-12)
	almost(t, "MI independent", ct.MutualInformation(), 0, 1e-12)
	almost(t, "V independent", ct.CramersV(), 0, 1e-12)
}

func TestContingencyPerfectAssociation(t *testing.T) {
	a := []int32{0, 0, 1, 1, 2, 2}
	b := a
	ct := NewContingency(a, b, 3, 3)
	almost(t, "V perfect", ct.CramersV(), 1, 1e-12)
	almost(t, "MI perfect", ct.MutualInformation(), math.Log(3), 1e-12)
}

func TestContingencyMissingSkipped(t *testing.T) {
	a := []int32{0, -1, 1}
	b := []int32{0, 0, 1}
	ct := NewContingency(a, b, 2, 2)
	if ct.N != 2 {
		t.Errorf("N = %d, want 2 (missing skipped)", ct.N)
	}
}

func TestContingencyDegenerate(t *testing.T) {
	empty := NewContingency(nil, nil, 2, 2)
	almost(t, "empty chi2", empty.ChiSquare(), math.NaN(), 0)
	almost(t, "empty V", empty.CramersV(), math.NaN(), 0)
	almost(t, "empty MI", empty.MutualInformation(), math.NaN(), 0)
	// Single used level on one side → V undefined.
	a := []int32{0, 0, 0}
	b := []int32{0, 1, 1}
	ct := NewContingency(a, b, 2, 2)
	almost(t, "single-level V", ct.CramersV(), math.NaN(), 0)
}

// Property: Cramér's V ∈ [0,1] and MI ≥ 0 for arbitrary tables.
func TestQuickContingencyBounds(t *testing.T) {
	prop := func(pairs []uint8) bool {
		n := len(pairs) / 2
		a := make([]int32, n)
		b := make([]int32, n)
		for i := 0; i < n; i++ {
			a[i] = int32(pairs[2*i] % 4)
			b[i] = int32(pairs[2*i+1] % 5)
		}
		ct := NewContingency(a, b, 4, 5)
		v := ct.CramersV()
		mi := ct.MutualInformation()
		if !math.IsNaN(v) && (v < 0 || v > 1+1e-9) {
			return false
		}
		return math.IsNaN(mi) || mi >= 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestCorrelationRatio(t *testing.T) {
	// Groups perfectly determine value → η² = 1.
	codes := []int32{0, 0, 1, 1, 2, 2}
	vals := []float64{1, 1, 5, 5, 9, 9}
	almost(t, "eta2 perfect", CorrelationRatio(codes, vals, 3), 1, 1e-12)
	// Groups carry no information → η² ≈ 0.
	codes2 := []int32{0, 1, 0, 1, 0, 1}
	vals2 := []float64{1, 1, 5, 5, 9, 9}
	almost(t, "eta2 none", CorrelationRatio(codes2, vals2, 2), 0, 1e-12)
	// Textbook example (algebra/geometry/statistics scores).
	codes3 := []int32{0, 0, 0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2}
	vals3 := []float64{45, 70, 29, 15, 21, 40, 20, 30, 42, 65, 95, 80, 70, 85, 73}
	almost(t, "eta2 textbook", CorrelationRatio(codes3, vals3, 3), 0.7033, 0.001)
}

func TestCorrelationRatioEdges(t *testing.T) {
	almost(t, "no groups", CorrelationRatio(nil, nil, 0), math.NaN(), 0)
	almost(t, "constant values", CorrelationRatio([]int32{0, 1}, []float64{3, 3}, 2), math.NaN(), 0)
	// Missing codes and NaN values skipped.
	eta := CorrelationRatio([]int32{0, -1, 1, 1}, []float64{1, 99, math.NaN(), 2}, 2)
	if math.IsNaN(eta) {
		t.Error("should compute with partial missing data")
	}
}

// Property: η² ∈ [0,1].
func TestQuickCorrelationRatioBounds(t *testing.T) {
	prop := func(raw []float64, groups []uint8) bool {
		n := len(raw)
		if len(groups) < n {
			n = len(groups)
		}
		codes := make([]int32, n)
		vals := make([]float64, n)
		for i := 0; i < n; i++ {
			codes[i] = int32(groups[i] % 3)
			v := raw[i]
			if math.IsInf(v, 0) {
				v = 0
			}
			vals[i] = v
		}
		eta := CorrelationRatio(codes, vals, 3)
		return math.IsNaN(eta) || (eta >= 0 && eta <= 1)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
