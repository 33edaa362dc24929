package sketch

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"foresight/internal/frame"
	"foresight/internal/stats"
)

// testFrame builds a mixed frame with planted structure: x,y strongly
// correlated; z independent; skew lognormal; cat Zipf-distributed.
func testFrame(n int, seed int64) *frame.Frame {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	ys := make([]float64, n)
	zs := make([]float64, n)
	skew := make([]float64, n)
	cat := make([]string, n)
	zipf := rand.NewZipf(rng, 1.5, 1, 50)
	for i := 0; i < n; i++ {
		z1, z2 := rng.NormFloat64(), rng.NormFloat64()
		xs[i] = z1
		ys[i] = 0.9*z1 + math.Sqrt(1-0.81)*z2
		zs[i] = rng.NormFloat64()
		skew[i] = math.Exp(rng.NormFloat64())
		cat[i] = fmt.Sprintf("c%d", zipf.Uint64())
	}
	return frame.MustNew("test",
		frame.NewNumericColumn("x", xs),
		frame.NewNumericColumn("y", ys),
		frame.NewNumericColumn("z", zs),
		frame.NewNumericColumn("skew", skew),
		frame.NewCategoricalColumn("cat", cat),
	)
}

func TestBuildProfileBasics(t *testing.T) {
	f := testFrame(20000, 1)
	p := BuildProfile(f, ProfileConfig{Seed: 42, Spearman: true})
	if p.Rows != 20000 {
		t.Fatalf("Rows = %d", p.Rows)
	}
	if len(p.Numeric) != 4 || len(p.Categorical) != 1 {
		t.Fatalf("profiles: %d numeric, %d categorical", len(p.Numeric), len(p.Categorical))
	}
	np, err := p.NumericProfileOf("x")
	if err != nil {
		t.Fatal(err)
	}
	if np.Moments.Count() != 20000 {
		t.Errorf("moments count = %d", np.Moments.Count())
	}
	if np.Planes == nil || np.Proj == nil || np.RankPlanes == nil {
		t.Error("projection sketches missing")
	}
	if _, err := p.NumericProfileOf("nope"); err == nil {
		t.Error("missing profile should error")
	}
	if _, err := p.CategoricalProfileOf("x"); err == nil {
		t.Error("numeric name should not be categorical profile")
	}
	cp, err := p.CategoricalProfileOf("cat")
	if err != nil {
		t.Fatal(err)
	}
	if cp.Rows != 20000 {
		t.Errorf("categorical rows = %d", cp.Rows)
	}
}

func TestProfilePearsonEstimates(t *testing.T) {
	f := testFrame(20000, 2)
	p := BuildProfile(f, ProfileConfig{Seed: 7, K: 512})
	xCol, _ := f.Numeric("x")
	yCol, _ := f.Numeric("y")
	zCol, _ := f.Numeric("z")
	exactXY := stats.Pearson(xCol.Values(), yCol.Values())
	exactXZ := stats.Pearson(xCol.Values(), zCol.Values())

	estXY, err := p.EstimatePearson("x", "y")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(estXY-exactXY) > 0.1 {
		t.Errorf("hyperplane ρ(x,y) = %v, exact %v", estXY, exactXY)
	}
	estXZ, _ := p.EstimatePearson("x", "z")
	if math.Abs(estXZ-exactXZ) > 0.15 {
		t.Errorf("hyperplane ρ(x,z) = %v, exact %v", estXZ, exactXZ)
	}
	jlXY, err := p.EstimatePearsonJL("x", "y")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(jlXY-exactXY) > 0.1 {
		t.Errorf("JL ρ(x,y) = %v, exact %v", jlXY, exactXY)
	}
	if _, err := p.EstimatePearson("x", "missing"); err == nil {
		t.Error("missing column should error")
	}
	if _, err := p.EstimatePearsonJL("missing", "y"); err == nil {
		t.Error("missing column should error")
	}
}

func TestProfileSpearman(t *testing.T) {
	f := testFrame(10000, 3)
	p := BuildProfile(f, ProfileConfig{Seed: 11, K: 512, Spearman: true})
	xCol, _ := f.Numeric("x")
	yCol, _ := f.Numeric("y")
	exact := stats.Spearman(xCol.Values(), yCol.Values())
	est, err := p.EstimateSpearman("x", "y")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est-exact) > 0.12 {
		t.Errorf("Spearman est %v, exact %v", est, exact)
	}
	// Without Spearman config the estimate errors.
	p2 := BuildProfile(f, ProfileConfig{Seed: 11, K: 64})
	if _, err := p2.EstimateSpearman("x", "y"); err == nil {
		t.Error("Spearman without rank projections should error")
	}
	if _, err := p.EstimateSpearman("x", "zzz"); err == nil {
		t.Error("missing column should error")
	}
	if _, err := p.EstimateSpearman("zzz", "x"); err == nil {
		t.Error("missing column should error")
	}
}

func TestProfileMomentsMatchExact(t *testing.T) {
	f := testFrame(5000, 4)
	p := BuildProfile(f, ProfileConfig{Seed: 1})
	sk, _ := f.Numeric("skew")
	np := p.Numeric["skew"]
	almostEq := func(name string, got, want, tol float64) {
		if math.Abs(got-want) > tol {
			t.Errorf("%s: got %v want %v", name, got, want)
		}
	}
	almostEq("variance", np.Moments.Variance(), stats.NewMoments(sk.Values()).Variance(), 1e-9)
	almostEq("skewness", np.Moments.Skewness(), stats.NewMoments(sk.Values()).Skewness(), 1e-9)
	almostEq("kurtosis", np.Moments.Kurtosis(), stats.NewMoments(sk.Values()).Kurtosis(), 1e-9)
	// KLL quantiles close to exact.
	almostEq("median", np.Quantiles.Median(), stats.Median(sk.Values()), 0.1)
}

func TestProfileOutlierScoreEstimate(t *testing.T) {
	n := 20000
	rng := rand.New(rand.NewSource(5))
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	// Plant extreme outliers.
	for i := 0; i < 20; i++ {
		vals[i*97] = 25 + float64(i)
	}
	f := frame.MustNew("t", frame.NewNumericColumn("v", vals))
	p := BuildProfile(f, ProfileConfig{Seed: 3, SampleSize: 4096})
	np := p.Numeric["v"]
	estimate := np.OutlierScoreEstimate(0)
	exact, _ := stats.OutlierScore(vals, stats.IQRDetector{})
	if estimate <= 0 {
		t.Fatalf("outlier estimate = %v, want positive", estimate)
	}
	// The reservoir may or may not catch the planted points often; the
	// estimate should be within a factor-2 band of exact when it does.
	if estimate > 0 && exact > 0 && (estimate > exact*3 || estimate < exact/3) {
		t.Errorf("outlier estimate %v too far from exact %v", estimate, exact)
	}
	// Constant column → 0.
	cf := frame.MustNew("c", frame.NewNumericColumn("v", []float64{1, 1, 1, 1}))
	cp := BuildProfile(cf, ProfileConfig{Seed: 1})
	if got := cp.Numeric["v"].OutlierScoreEstimate(0); got != 0 {
		t.Errorf("constant outlier estimate = %v, want 0", got)
	}
}

func TestProfileDipEstimate(t *testing.T) {
	n := 20000
	rng := rand.New(rand.NewSource(6))
	bimodal := make([]float64, n)
	for i := range bimodal {
		if i%2 == 0 {
			bimodal[i] = rng.NormFloat64() - 4
		} else {
			bimodal[i] = rng.NormFloat64() + 4
		}
	}
	f := frame.MustNew("t", frame.NewNumericColumn("v", bimodal))
	p := BuildProfile(f, ProfileConfig{Seed: 2, SampleSize: 2048})
	if d := p.Numeric["v"].DipEstimate(); d < 0.05 {
		t.Errorf("bimodal dip estimate = %v, want large", d)
	}
}

func TestProfileCategoricalEstimates(t *testing.T) {
	f := testFrame(30000, 7)
	p := BuildProfile(f, ProfileConfig{Seed: 5})
	cp := p.Categorical["cat"]
	cc, _ := f.Categorical("cat")
	exactH := stats.Entropy(cc.Counts())
	estH := cp.EntropyEstimate()
	if math.Abs(estH-exactH)/math.Max(exactH, 1e-9) > 0.2 {
		t.Errorf("entropy estimate %v vs exact %v", estH, exactH)
	}
	u := cp.UniformityEstimate()
	if u < 0 || u > 1 {
		t.Errorf("uniformity = %v", u)
	}
	// RelFreq of top-1 should be substantial for Zipf data.
	if rf := cp.Heavy.RelFreqTopK(1); rf < 0.2 {
		t.Errorf("top-1 rel freq = %v, want heavy", rf)
	}
}

func TestProfileHandlesMissingValues(t *testing.T) {
	vals := []float64{1, math.NaN(), 3, math.NaN(), 5}
	f := frame.MustNew("t",
		frame.NewNumericColumn("v", vals),
		frame.NewCategoricalColumn("g", []string{"a", "", "b", "a", ""}),
	)
	p := BuildProfile(f, ProfileConfig{Seed: 1})
	np := p.Numeric["v"]
	if np.Moments.Count() != 3 {
		t.Errorf("moments count = %d, want 3", np.Moments.Count())
	}
	if np.Quantiles.Count() != 3 {
		t.Errorf("KLL count = %d, want 3", np.Quantiles.Count())
	}
	cp := p.Categorical["g"]
	if cp.Rows != 3 {
		t.Errorf("categorical rows = %d, want 3", cp.Rows)
	}
}

func TestProfileRowSampleShared(t *testing.T) {
	f := testFrame(5000, 8)
	p := BuildProfile(f, ProfileConfig{Seed: 9, RowSampleSize: 256})
	if p.RowSample.Len() != 256 {
		t.Errorf("row sample len = %d", p.RowSample.Len())
	}
	// Gathering x and y at shared indexes preserves their correlation.
	xCol, _ := f.Numeric("x")
	yCol, _ := f.Numeric("y")
	sx := p.RowSample.GatherFloats(xCol.Values())
	sy := p.RowSample.GatherFloats(yCol.Values())
	exact := stats.Pearson(xCol.Values(), yCol.Values())
	sampled := stats.Pearson(sx, sy)
	if math.Abs(sampled-exact) > 0.15 {
		t.Errorf("sampled ρ = %v vs exact %v", sampled, exact)
	}
}

// TestRowSampleOrdered: the cached view is the view of the current
// RowSampleValues — retained across calls, consistent under concurrent
// first calls (run with -race), and rebuilt when the builders replace
// the gather.
func TestRowSampleOrdered(t *testing.T) {
	p := BuildProfile(testFrame(3000, 3), ProfileConfig{Seed: 11})
	np := p.Numeric["x"]
	views := make([]*stats.Ordered, 6)
	var wg sync.WaitGroup
	for g := range views {
		wg.Add(1)
		go func() {
			defer wg.Done()
			views[g] = np.RowSampleOrdered()
		}()
	}
	wg.Wait()
	want := stats.NewOrdered(np.RowSampleValues())
	for _, v := range views {
		if !slices.Equal(orderOf(v), orderOf(want)) || v.Mean != want.Mean || v.StdDev != want.StdDev {
			t.Fatal("a concurrent first call returned a view that differs from a fresh one")
		}
	}
	if np.RowSampleOrdered() != np.RowSampleOrdered() {
		t.Error("the view is rebuilt on every call")
	}
	np.gather = builtGather(append([]float64{-1e9}, np.RowSampleValues()[1:]...))
	if got := np.RowSampleOrdered(); got.Quantile(0) != -1e9 || &got.Values[0] != &np.RowSampleValues()[0] {
		t.Error("the view survived a replacement of the gather")
	}
}

// orderOf returns a view's rows in its order.
func orderOf(v *stats.Ordered) []int32 {
	var rows []int32
	v.Walk(func(row int32, _ float64) { rows = append(rows, row) })
	return rows
}
