package stats

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

func baseWithOutliers() []float64 {
	rng := rand.New(rand.NewSource(31))
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	xs[10] = 40
	xs[20] = -35
	return xs
}

func TestDetectorsFindPlantedOutliers(t *testing.T) {
	xs := baseWithOutliers()
	for _, det := range []OutlierDetector{ZScoreDetector{}, MADDetector{}, IQRDetector{}} {
		got := det.Detect(xs)
		found := map[int]bool{}
		for _, i := range got {
			found[i] = true
		}
		if !found[10] || !found[20] {
			t.Errorf("%s missed planted outliers, got %v", fmt.Sprintf("%T", det), got)
		}
	}
}

func TestDetectorsDegenerate(t *testing.T) {
	constant := []float64{5, 5, 5, 5, 5}
	for _, det := range []OutlierDetector{ZScoreDetector{}, MADDetector{}, IQRDetector{}} {
		if got := det.Detect(constant); got != nil {
			t.Errorf("%s on constant = %v, want nil", fmt.Sprintf("%T", det), got)
		}
	}
	if got := (IQRDetector{}).Detect([]float64{1, 2}); got != nil {
		t.Errorf("IQR on tiny input = %v, want nil", got)
	}
}

func TestDetectorsSkipNaN(t *testing.T) {
	xs := []float64{0, 0, 0, 0, 0, 1, -1, 2, -2, math.NaN(), 100}
	for _, det := range []OutlierDetector{ZScoreDetector{Threshold: 2}, MADDetector{}} {
		for _, idx := range det.Detect(xs) {
			if math.IsNaN(xs[idx]) {
				t.Errorf("%s flagged a NaN cell", fmt.Sprintf("%T", det))
			}
		}
	}
}

func TestOutlierScore(t *testing.T) {
	xs := baseWithOutliers()
	score, outliers := OutlierScore(xs, IQRDetector{})
	if len(outliers) < 2 {
		t.Fatalf("outliers = %v, want at least the 2 planted", outliers)
	}
	if score < 3 {
		t.Errorf("score = %v, want large (planted at ±35σ-ish)", score)
	}
	// No outliers → score 0.
	clean := make([]float64, 100)
	for i := range clean {
		clean[i] = math.Sin(float64(i))
	}
	score0, out0 := OutlierScore(clean, ZScoreDetector{Threshold: 10})
	if score0 != 0 || out0 != nil {
		t.Errorf("clean data score = %v, %v; want 0, nil", score0, out0)
	}
	// Nil detector defaults to IQR.
	sd, _ := OutlierScore(xs, nil)
	if sd < 3 {
		t.Errorf("default detector score = %v", sd)
	}
}

func TestCustomThresholds(t *testing.T) {
	xs := baseWithOutliers()
	loose := ZScoreDetector{Threshold: 1}.Detect(xs)
	strict := ZScoreDetector{Threshold: 6}.Detect(xs)
	if len(loose) <= len(strict) {
		t.Errorf("loose (%d) should flag more than strict (%d)", len(loose), len(strict))
	}
	wide := IQRDetector{K: 10}.Detect(xs)
	narrow := IQRDetector{K: 1}.Detect(xs)
	if len(narrow) <= len(wide) {
		t.Errorf("narrow fences (%d) should flag more than wide (%d)", len(narrow), len(wide))
	}
}

func TestBoxStats(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 100}
	b := NewBoxStats(xs, 0) // default k=1.5
	almost(t, "Min", b.Min, 1, 0)
	almost(t, "Max", b.Max, 100, 0)
	almost(t, "Median", b.Median, 5.5, 1e-12)
	if len(b.Outliers) != 1 || b.Outliers[0] != 100 {
		t.Errorf("Outliers = %v, want [100]", b.Outliers)
	}
	if b.WhiskerHigh != 9 {
		t.Errorf("WhiskerHigh = %v, want 9", b.WhiskerHigh)
	}
	if b.WhiskerLow != 1 {
		t.Errorf("WhiskerLow = %v, want 1", b.WhiskerLow)
	}
	empty := NewBoxStats(nil, 1.5)
	if !math.IsNaN(empty.Median) {
		t.Error("empty box stats should be NaN")
	}
}

func TestKMeans1D(t *testing.T) {
	xs := []float64{1, 1.1, 0.9, 10, 10.1, 9.9, 20, 20.2, 19.8}
	assign, centers := KMeans1D(xs, 3, 100)
	if len(centers) != 3 {
		t.Fatalf("centers = %v", centers)
	}
	almost(t, "c0", centers[0], 1, 0.2)
	almost(t, "c1", centers[1], 10, 0.2)
	almost(t, "c2", centers[2], 20, 0.2)
	// Same-cluster members agree.
	if assign[0] != assign[1] || assign[3] != assign[4] || assign[0] == assign[3] {
		t.Errorf("assignments wrong: %v", assign)
	}
}

func TestKMeans1DEdges(t *testing.T) {
	assign, centers := KMeans1D(nil, 3, 10)
	if len(assign) != 0 || len(centers) != 3 {
		t.Error("empty input handling wrong")
	}
	// k > n collapses to n.
	_, c2 := KMeans1D([]float64{5, 6}, 10, 10)
	if len(c2) != 2 {
		t.Errorf("k>n centers = %v", c2)
	}
	// NaN values assigned 0 but skipped in fit.
	a3, c3 := KMeans1D([]float64{math.NaN(), 1, 2}, 1, 10)
	almost(t, "NaN fit center", c3[0], 1.5, 1e-9)
	if a3[0] != 0 {
		t.Error("NaN assignment should be 0")
	}
	// k<1 coerced to 1.
	_, c4 := KMeans1D([]float64{1, 2}, 0, 10)
	if len(c4) != 1 {
		t.Errorf("k=0 centers = %v", c4)
	}
}

func TestSilhouetteSeparatedVsRandomLabels(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	var pts []Point2
	var blob []int32
	for i := 0; i < 150; i++ {
		cx := float64(i%3) * 10
		pts = append(pts, Point2{cx + rng.NormFloat64()*0.5, cx + rng.NormFloat64()*0.5})
		blob = append(blob, int32(i%3))
	}
	if sil := groupSilhouette(pts, blob, 3); sil < 0.8 {
		t.Errorf("silhouette of well-separated clusters = %v, want >0.8", sil)
	}
	// Random labels → poor silhouette.
	random := make([]int32, len(pts))
	for i := range random {
		random[i] = int32(rng.Intn(3))
	}
	if sil := groupSilhouette(pts, random, 3); sil > 0.3 {
		t.Errorf("random-label silhouette = %v, want low", sil)
	}
}

func TestSilhouetteDegenerate(t *testing.T) {
	pts := []Point2{{0, 0}, {1, 1}}
	if s := groupSilhouette(pts, []int32{0, 0}, 2); !math.IsNaN(s) {
		t.Errorf("single-cluster silhouette = %v, want NaN", s)
	}
	if s := groupSilhouette(pts, []int32{0}, 2); !math.IsNaN(s) {
		t.Errorf("silhouette of one coded point = %v, want NaN", s)
	}
	if s := groupSilhouette(pts, []int32{0, 1}, 1); !math.IsNaN(s) {
		t.Errorf("one-level silhouette = %v, want NaN", s)
	}
}

func TestGroupSilhouette(t *testing.T) {
	var pts []Point2
	var codes []int32
	for i := 0; i < 60; i++ {
		g := int32(i % 2)
		base := float64(g) * 20
		pts = append(pts, Point2{base + math.Sin(float64(i)), base + math.Cos(float64(i))})
		codes = append(codes, g)
	}
	if s := groupSilhouette(pts, codes, 2); s < 0.8 {
		t.Errorf("group silhouette = %v, want high", s)
	}
	// Codes shorter than points → extra points skipped.
	if s := groupSilhouette(pts, codes[:30], 2); math.IsNaN(s) {
		t.Error("partial codes should still compute")
	}
}
