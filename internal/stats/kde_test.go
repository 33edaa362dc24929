package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestKDENormalDensity(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	n := 20000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	k := NewKDE(xs, 0)
	if k.Len() != n {
		t.Fatalf("Len = %d", k.Len())
	}
	// Density at 0 ≈ 1/√(2π) ≈ 0.399; at ±2 ≈ 0.054.
	almost(t, "density(0)", k.At(0), 0.3989, 0.03)
	almost(t, "density(2)", k.At(2), 0.054, 0.015)
	almost(t, "density(8)", k.At(8), 0, 1e-4)
	// Grid integrates to ≈1.
	gx, gd := k.Grid(256)
	if len(gx) != 256 || len(gd) != 256 {
		t.Fatal("grid shape wrong")
	}
	integral := 0.0
	for i := 1; i < len(gx); i++ {
		integral += (gd[i] + gd[i-1]) / 2 * (gx[i] - gx[i-1])
	}
	almost(t, "integral", integral, 1, 0.02)
	if k.ModeCount(0) != 1 {
		t.Errorf("normal modes = %d, want 1", k.ModeCount(0))
	}
}

func TestKDEBimodalModes(t *testing.T) {
	rng := rand.New(rand.NewSource(82))
	xs := make([]float64, 4000)
	for i := range xs {
		if i%2 == 0 {
			xs[i] = rng.NormFloat64() - 4
		} else {
			xs[i] = rng.NormFloat64() + 4
		}
	}
	k := NewKDE(xs, 0)
	if modes := k.ModeCount(128); modes != 2 {
		t.Errorf("bimodal modes = %d, want 2", modes)
	}
}

func TestKDEDegenerate(t *testing.T) {
	empty := NewKDE(nil, 0)
	if !math.IsNaN(empty.At(0)) {
		t.Error("empty KDE should be NaN")
	}
	gx, gd := empty.Grid(10)
	if gx != nil || gd != nil {
		t.Error("empty grid should be nil")
	}
	if empty.ModeCount(10) != 0 {
		t.Error("empty KDE modes should be 0")
	}
	// Constant sample: bandwidth falls back, single sharp mode.
	konst := NewKDE([]float64{5, 5, 5, 5}, 0)
	if konst.Bandwidth() != 1 {
		t.Errorf("degenerate bandwidth = %v, want fallback 1", konst.Bandwidth())
	}
	if konst.ModeCount(64) != 1 {
		t.Errorf("constant modes = %d, want 1", konst.ModeCount(64))
	}
	// Explicit bandwidth respected.
	kb := NewKDE([]float64{0, 1}, 0.25)
	if kb.Bandwidth() != 0.25 {
		t.Error("explicit bandwidth ignored")
	}
}

func TestSilvermanBandwidth(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = rng.NormFloat64() * 2
	}
	h := SilvermanBandwidth(xs)
	// 0.9·2·10000^-0.2 ≈ 0.285 (IQR/1.34 ≈ σ for normals).
	almost(t, "silverman", h, 0.285, 0.03)
	if SilvermanBandwidth([]float64{1}) != 1 {
		t.Error("short input fallback wrong")
	}
	if SilvermanBandwidth([]float64{3, 3, 3}) != 1 {
		t.Error("constant fallback wrong")
	}
}

// Property: density is non-negative everywhere and grid positions are
// increasing.
func TestQuickKDEProperties(t *testing.T) {
	prop := func(raw []float64, at float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if !math.IsNaN(v) && !math.IsInf(v, 0) && math.Abs(v) < 1e6 {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return true
		}
		k := NewKDE(xs, 0)
		if math.IsNaN(at) || math.IsInf(at, 0) {
			at = 0
		}
		if d := k.At(at); d < 0 || math.IsNaN(d) {
			return false
		}
		gx, gd := k.Grid(32)
		for i := range gd {
			if gd[i] < 0 {
				return false
			}
			if i > 0 && gx[i] <= gx[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Bandwidth returns the kernel bandwidth in use.
func (k *KDE) Bandwidth() float64 { return k.bandwidth }
