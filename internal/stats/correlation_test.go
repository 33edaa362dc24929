package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPearsonExactCases(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	almost(t, "perfect positive", Pearson(xs, []float64{2, 4, 6, 8, 10}), 1, 1e-12)
	almost(t, "perfect negative", Pearson(xs, []float64{5, 4, 3, 2, 1}), -1, 1e-12)
	almost(t, "constant y", Pearson(xs, []float64{7, 7, 7, 7, 7}), math.NaN(), 0)
	almost(t, "too short", Pearson([]float64{1}, []float64{2}), math.NaN(), 0)
}

func TestPearsonKnownValue(t *testing.T) {
	xs := []float64{43, 21, 25, 42, 57, 59}
	ys := []float64{99, 65, 79, 75, 87, 81}
	almost(t, "Pearson", Pearson(xs, ys), 0.5298, 0.0001)
}

func TestPearsonPairwiseComplete(t *testing.T) {
	xs := []float64{1, 2, math.NaN(), 4, 5}
	ys := []float64{2, 4, 6, math.NaN(), 10}
	// Complete pairs: (1,2),(2,4),(5,10) — perfectly linear.
	almost(t, "pairwise complete", Pearson(xs, ys), 1, 1e-12)
}

func TestPearsonMismatchedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on length mismatch")
		}
	}()
	Pearson([]float64{1, 2}, []float64{1})
}

func TestCovariance(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	// Population covariance of x with 2x = 2·Var(x) = 2·1.25.
	almost(t, "Covariance", Covariance(xs, ys), 2.5, 1e-12)
	almost(t, "Covariance short", Covariance([]float64{1}, []float64{1}), math.NaN(), 0)
}

func TestSpearmanMonotone(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = math.Exp(x) // nonlinear but perfectly monotone
	}
	almost(t, "Spearman exp", Spearman(xs, ys), 1, 1e-12)
	if r := Pearson(xs, ys); r >= 0.999 {
		t.Errorf("Pearson exp = %v, should be <1 for nonlinear", r)
	}
	for i := range ys {
		ys[i] = -ys[i]
	}
	almost(t, "Spearman -exp", Spearman(xs, ys), -1, 1e-12)
}

func TestSpearmanTies(t *testing.T) {
	xs := []float64{1, 2, 2, 3}
	ys := []float64{1, 2, 2, 3}
	almost(t, "Spearman ties identical", Spearman(xs, ys), 1, 1e-12)
}

func TestRanks(t *testing.T) {
	r := Ranks([]float64{10, 20, 20, 30})
	want := []float64{1, 2.5, 2.5, 4}
	for i := range want {
		almost(t, "rank", r[i], want[i], 1e-12)
	}
	r2 := Ranks([]float64{5, math.NaN(), 1})
	almost(t, "rank of 5", r2[0], 2, 1e-12)
	if !math.IsNaN(r2[1]) {
		t.Error("NaN input should have NaN rank")
	}
	almost(t, "rank of 1", r2[2], 1, 1e-12)
}

func TestKendallTauB(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	almost(t, "tau perfect", KendallTauB(xs, []float64{10, 20, 30, 40, 50}), 1, 1e-12)
	almost(t, "tau reversed", KendallTauB(xs, []float64{50, 40, 30, 20, 10}), -1, 1e-12)
	// Known small example: x=1..4, y={1,3,2,4}: 5 concordant, 1 discordant → tau = 4/6.
	almost(t, "tau mixed", KendallTauB([]float64{1, 2, 3, 4}, []float64{1, 3, 2, 4}), 4.0/6.0, 1e-12)
	almost(t, "tau constant", KendallTauB(xs, []float64{1, 1, 1, 1, 1}), math.NaN(), 0)
}

func TestKendallMatchesQuadratic(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 200
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = float64(rng.Intn(20)) // ties on both sides
		ys[i] = float64(rng.Intn(20)) + 0.3*xs[i]
	}
	want := kendallQuadratic(xs, ys)
	almost(t, "tau-b vs quadratic", KendallTauB(xs, ys), want, 1e-9)
}

// kendallQuadratic is the O(n²) reference implementation of τ-b.
func kendallQuadratic(xs, ys []float64) float64 {
	n := len(xs)
	var conc, disc, tx, ty float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			dx := xs[i] - xs[j]
			dy := ys[i] - ys[j]
			switch {
			case dx == 0 && dy == 0:
				tx++
				ty++
			case dx == 0:
				tx++
			case dy == 0:
				ty++
			case dx*dy > 0:
				conc++
			default:
				disc++
			}
		}
	}
	n0 := float64(n*(n-1)) / 2
	return (conc - disc) / math.Sqrt((n0-tx)*(n0-ty))
}

// Property: |Pearson| ≤ 1 and Pearson(x,x) = 1 for non-constant x.
func TestQuickPearsonBounds(t *testing.T) {
	prop := func(xs, ys []float64) bool {
		n := len(xs)
		if len(ys) < n {
			n = len(ys)
		}
		xs, ys = xs[:n], ys[:n]
		for i := range xs {
			if math.IsInf(xs[i], 0) || math.Abs(xs[i]) > 1e8 {
				xs[i] = 0
			}
			if math.IsInf(ys[i], 0) || math.Abs(ys[i]) > 1e8 {
				ys[i] = 0
			}
		}
		r := Pearson(xs, ys)
		if !math.IsNaN(r) && (r < -1 || r > 1) {
			return false
		}
		rr := Pearson(xs, xs)
		return math.IsNaN(rr) || math.Abs(rr-1) < 1e-9
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Spearman is invariant under strictly monotone transforms.
func TestQuickSpearmanMonotoneInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 30 + r.Intn(50)
		xs := make([]float64, n)
		ys := make([]float64, n)
		for i := range xs {
			xs[i] = r.NormFloat64()
			ys[i] = xs[i]*0.5 + r.NormFloat64()
		}
		before := Spearman(xs, ys)
		tx := make([]float64, n)
		for i, x := range xs {
			tx[i] = math.Atan(x) * 3 // strictly increasing
		}
		after := Spearman(tx, ys)
		return math.Abs(before-after) < 1e-9
	}
	for i := 0; i < 25; i++ {
		if !prop(rng.Int63()) {
			t.Fatal("Spearman not invariant under monotone transform")
		}
	}
}

// Covariance returns the population covariance of the
// pairwise-complete observations of xs and ys.
func Covariance(xs, ys []float64) float64 {
	s := newPairSums(xs, ys)
	if s.n < 2 {
		return math.NaN()
	}
	return s.sxy / float64(s.n)
}

// PearsonFit returns Pearson(xs, ys) and FitLine(xs, ys) from one scan
// of the pairs: both are functions of the same five sums.
func PearsonFit(xs, ys []float64) (float64, LinearFit) {
	s := newPairSums(xs, ys)
	return s.pearson(), s.fit()
}
