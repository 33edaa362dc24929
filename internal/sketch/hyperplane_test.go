package sketch

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"foresight/internal/stats"
)

// correlatedPair generates x,y with target correlation rho.
func correlatedPair(n int, rho float64, seed int64) (xs, ys []float64) {
	rng := rand.New(rand.NewSource(seed))
	xs = make([]float64, n)
	ys = make([]float64, n)
	c := math.Sqrt(1 - rho*rho)
	for i := 0; i < n; i++ {
		z1, z2 := rng.NormFloat64(), rng.NormFloat64()
		xs[i] = z1
		ys[i] = rho*z1 + c*z2
	}
	return xs, ys
}

// projectColumn is projectRange over all of one column.
func projectColumn(col []float64, mean float64, cfg ProjectConfig) *Projection {
	return projectRange([][]float64{col}, []float64{mean}, 0, len(col), cfg)[0]
}

func projectPair(xs, ys []float64, k int, seed int64) (*Projection, *Projection) {
	cols := [][]float64{xs, ys}
	means := []float64{stats.Mean(xs), stats.Mean(ys)}
	ps := projectRange(cols, means, 0, len(xs), ProjectConfig{K: k, Seed: seed})
	return ps[0], ps[1]
}

func TestHyperplaneCorrelationAccuracy(t *testing.T) {
	n := 20000
	for _, rho := range []float64{-0.95, -0.5, 0.0, 0.5, 0.8, 0.95} {
		xs, ys := correlatedPair(n, rho, 21)
		exact := stats.Pearson(xs, ys)
		px, py := projectPair(xs, ys, 512, 5)
		hx, hy := HyperplaneFromProjection(px), HyperplaneFromProjection(py)
		est := hx.EstimateCorrelation(hy)
		if math.Abs(est-exact) > 0.12 {
			t.Errorf("rho=%v: hyperplane est %v vs exact %v", rho, est, exact)
		}
	}
}

func TestHyperplaneSelfCorrelation(t *testing.T) {
	xs, _ := correlatedPair(5000, 0, 2)
	p := projectColumn(xs, stats.Mean(xs), ProjectConfig{K: 128, Seed: 3})
	h := HyperplaneFromProjection(p)
	if got := h.EstimateCorrelation(h); got != 1 {
		t.Errorf("self correlation = %v, want 1 (Hamming 0)", got)
	}
	if h.Hamming(h) != 0 {
		t.Error("self Hamming must be 0")
	}
}

func TestHyperplaneAntiCorrelation(t *testing.T) {
	xs, _ := correlatedPair(5000, 0, 4)
	neg := make([]float64, len(xs))
	for i, v := range xs {
		neg[i] = -v
	}
	px, py := projectPair(xs, neg, 256, 7)
	hx, hy := HyperplaneFromProjection(px), HyperplaneFromProjection(py)
	if got := hx.EstimateCorrelation(hy); math.Abs(got - -1) > 1e-9 {
		t.Errorf("anti correlation = %v, want -1 (all bits differ)", got)
	}
}

func TestHyperplaneShapeMismatch(t *testing.T) {
	xs, ys := correlatedPair(100, 0.5, 6)
	px, _ := projectPair(xs, ys, 64, 1)
	py2 := projectColumn(ys, stats.Mean(ys), ProjectConfig{K: 128, Seed: 1})
	hx := HyperplaneFromProjection(px)
	hy := HyperplaneFromProjection(py2)
	if hx.Hamming(hy) != -1 {
		t.Error("different k should report -1")
	}
	if !math.IsNaN(hx.EstimateCorrelation(hy)) {
		t.Error("mismatched estimate should be NaN")
	}
	if hx.Hamming(nil) != -1 {
		t.Error("nil should report -1")
	}
	// Different seeds are also incompatible.
	pySeed := projectColumn(ys, stats.Mean(ys), ProjectConfig{K: 64, Seed: 999})
	if hx.Hamming(HyperplaneFromProjection(pySeed)) != -1 {
		t.Error("different seed should report -1")
	}
}

func TestProjectionCovariance(t *testing.T) {
	n := 20000
	xs, ys := correlatedPair(n, 0.7, 8)
	exactCov := stats.Covariance(xs, ys)
	px, py := projectPair(xs, ys, 512, 9)
	estCov := px.EstimateCovariance(py)
	if math.Abs(estCov-exactCov) > 0.1 {
		t.Errorf("JL covariance %v vs exact %v", estCov, exactCov)
	}
	// Correlation via exact σ composition.
	est := px.EstimateCorrelation(py, stats.StdDev(xs), stats.StdDev(ys))
	if math.Abs(est-0.7) > 0.12 {
		t.Errorf("JL correlation %v, want ≈0.7", est)
	}
}

func TestProjectionCorrelationClampAndNaN(t *testing.T) {
	xs, ys := correlatedPair(500, 0.99, 10)
	px, py := projectPair(xs, ys, 32, 11)
	r := px.EstimateCorrelation(py, stats.StdDev(xs), stats.StdDev(ys))
	if r < -1 || r > 1 {
		t.Errorf("estimate %v outside [-1,1]", r)
	}
	if !math.IsNaN(px.EstimateCorrelation(py, 0, 1)) {
		t.Error("zero σ should be NaN")
	}
	if !math.IsNaN(px.EstimateCorrelation(py, math.NaN(), 1)) {
		t.Error("NaN σ should be NaN")
	}
	if !math.IsNaN(px.EstimateDot(nil)) {
		t.Error("nil other should be NaN")
	}
}

func TestProjectionMergePartitions(t *testing.T) {
	n := 10000
	xs, ys := correlatedPair(n, 0.6, 12)
	// Full-stream projections.
	pxFull, _ := projectPair(xs, ys, 256, 13)
	// Partitioned: same directions require same seed AND row alignment,
	// so partition by splitting the dot-product pass: simulate by
	// projecting with zero-padded halves.
	xsA := make([]float64, n)
	xsB := make([]float64, n)
	ysA := make([]float64, n)
	ysB := make([]float64, n)
	for i := 0; i < n; i++ {
		if i < n/2 {
			xsA[i], ysA[i] = xs[i], ys[i]
			xsB[i], ysB[i] = math.NaN(), math.NaN()
		} else {
			xsA[i], ysA[i] = math.NaN(), math.NaN()
			xsB[i], ysB[i] = xs[i], ys[i]
		}
	}
	mx, my := stats.Mean(xs), stats.Mean(ys)
	psA := projectRange([][]float64{xsA, ysA}, []float64{mx, my}, 0, n, ProjectConfig{K: 256, Seed: 13})
	psB := projectRange([][]float64{xsB, ysB}, []float64{mx, my}, 0, n, ProjectConfig{K: 256, Seed: 13})
	pxA, pyA := psA[0], psA[1]
	if err := pxA.Merge(psB[0]); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if err := pyA.Merge(psB[1]); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	for i := range pxA.Dots {
		if math.Abs(pxA.Dots[i]-pxFull.Dots[i]) > 1e-6*math.Max(1, math.Abs(pxFull.Dots[i])) {
			t.Fatalf("merged dot %d = %v, full = %v", i, pxA.Dots[i], pxFull.Dots[i])
		}
	}
	_ = pyA
	// Shape mismatch.
	bad := projectColumn(xs, mx, ProjectConfig{K: 64, Seed: 13})
	if err := pxA.Merge(bad); err != ErrShapeMismatch {
		t.Errorf("mismatched merge = %v, want ErrShapeMismatch", err)
	}
	if err := pxA.Merge(nil); err != nil {
		t.Errorf("Merge(nil) = %v", err)
	}
}

func TestProjectColumnsDeterministic(t *testing.T) {
	xs, ys := correlatedPair(3000, 0.4, 14)
	a1, _ := projectPair(xs, ys, 128, 15)
	a2, _ := projectPair(xs, ys, 128, 15)
	for i := range a1.Dots {
		if a1.Dots[i] != a2.Dots[i] {
			t.Fatal("projections not deterministic")
		}
	}
}

func TestProjectColumnsEdgeCases(t *testing.T) {
	// Empty inputs.
	out := projectRange(nil, nil, 0, 0, ProjectConfig{K: 16, Seed: 1})
	if len(out) != 0 {
		t.Error("no columns should give no projections")
	}
	// All-NaN column: dots are all zero.
	nan := make([]float64, 100)
	for i := range nan {
		nan[i] = math.NaN()
	}
	p := projectColumn(nan, 0, ProjectConfig{K: 16, Seed: 1})
	for _, d := range p.Dots {
		if d != 0 {
			t.Fatal("NaN column should project to zero")
		}
	}
	// Constant column: centered to zero, projects to zero.
	constant := make([]float64, 50)
	for i := range constant {
		constant[i] = 3
	}
	pc := projectColumn(constant, 3, ProjectConfig{K: 16, Seed: 1})
	for _, d := range pc.Dots {
		if d != 0 {
			t.Fatal("constant column should project to zero")
		}
	}
	// Zero-row estimate covariance is NaN.
	if !math.IsNaN((&Projection{Dots: []float64{1}, Rows: 0}).EstimateCovariance(&Projection{Dots: []float64{1}, Rows: 0})) {
		t.Error("zero-row covariance should be NaN")
	}
}

func TestKForRows(t *testing.T) {
	if k := KForRows(1); k != 64 {
		t.Errorf("KForRows(1) = %d, want 64", k)
	}
	if k := KForRows(1024); k != 100 {
		t.Errorf("KForRows(1024) = %d, want 100 (log2²=100)", k)
	}
	k100k := KForRows(100000)
	if k100k < 250 || k100k > 300 {
		t.Errorf("KForRows(100000) = %d, want ≈277", k100k)
	}
}

func TestKForRowsMonotone(t *testing.T) {
	prev := 0
	for _, n := range []int{10, 100, 1000, 10000, 100000, 1000000} {
		k := KForRows(n)
		if k < prev {
			t.Errorf("KForRows not monotone at n=%d", n)
		}
		prev = k
	}
}

// BenchmarkProjectRange times the projection kernel: one column at
// three widths, then the calls the benchmark workloads make — the
// startup pass over explore_wide's numeric columns, sequential and on
// two workers, and ingest_stream's 250-row and 10-row batches at the
// end of its frame.
func BenchmarkProjectRange(b *testing.B) {
	for _, k := range []int{32, 128, 512} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			col, _ := correlatedPair(10000, 0, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = projectColumn(col, 0, ProjectConfig{K: k, Seed: 1})
			}
		})
	}
	for _, c := range []struct {
		name                      string
		rows, d, k, from, workers int
	}{
		{"wide/workers=1", 30000, 160, 222, 0, 1},
		{"wide/workers=2", 30000, 160, 222, 0, 2},
		{"batch250", 20250, 48, 205, 20000, 0},
		{"batch10", 20250, 48, 205, 20240, 0},
	} {
		b.Run(c.name, func(b *testing.B) {
			cols, means := splitColumns(c.rows, c.d, 9)
			cfg := ProjectConfig{K: c.k, Seed: 1, Workers: c.workers}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = projectRange(cols, means, c.from, c.rows, cfg)
			}
		})
	}
}

func BenchmarkHyperplaneHamming(b *testing.B) {
	col, _ := correlatedPair(2000, 0, 1)
	p := projectColumn(col, 0, ProjectConfig{K: 512, Seed: 1})
	h1 := HyperplaneFromProjection(p)
	h2 := HyperplaneFromProjection(p)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h1.Hamming(h2)
	}
}
