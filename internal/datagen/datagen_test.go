package datagen

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"foresight/internal/stats"
)

func TestMarginalsShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	n := 20000
	draw := func(m Marginal) []float64 {
		out := make([]float64, n)
		for i := range out {
			out[i] = m.Transform(rng.NormFloat64())
		}
		return out
	}
	normal := draw(Normal{Mu: 10, Sd: 2})
	if m := stats.Mean(normal); math.Abs(m-10) > 0.1 {
		t.Errorf("normal mean = %v", m)
	}
	if s := stats.StdDev(normal); math.Abs(s-2) > 0.1 {
		t.Errorf("normal sd = %v", s)
	}
	logn := draw(LogNormal{Mu: 0, Sigma: 1})
	if sk := stats.NewMoments(logn).Skewness(); sk < 2 {
		t.Errorf("lognormal skewness = %v, want strongly positive", sk)
	}
	left := draw(LeftSkew{Max: 95, Mu: 2.8, Sigma: 0.45})
	if sk := stats.NewMoments(left).Skewness(); sk > -1 {
		t.Errorf("leftskew skewness = %v, want strongly negative", sk)
	}
	mx, _ := stats.MinMax(left)
	_ = mx
	if _, maxv := stats.MinMax(left); maxv >= 95 {
		t.Errorf("leftskew max = %v, must stay < 95", maxv)
	}
	bim := draw(Bimodal{Sep: 3})
	if d := stats.Dip(bim); d < 0.03 {
		t.Errorf("bimodal dip = %v, want clearly bimodal", d)
	}
	scaled := draw(Scaled{Inner: Normal{Mu: 0, Sd: 1}, A: 100, B: 5})
	if m := stats.Mean(scaled); math.Abs(m-100) > 0.3 {
		t.Errorf("scaled mean = %v", m)
	}
}

// Property: all marginal transforms are monotone non-decreasing.
func TestQuickMarginalsMonotone(t *testing.T) {
	marginals := []Marginal{
		Normal{Mu: 1, Sd: 2}, LogNormal{Mu: 0, Sigma: 0.8},
		LeftSkew{Max: 50, Mu: 2, Sigma: 0.5}, Bimodal{Sep: 2}, Bimodal{Sep: 2, Sharp: 5},
		Scaled{Inner: LogNormal{Mu: 0, Sigma: 1}, A: 3, B: 2},
	}
	prop := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		if math.Abs(a) > 8 || math.Abs(b) > 8 {
			return true // outside the meaningful normal range
		}
		if a > b {
			a, b = b, a
		}
		for _, m := range marginals {
			if m.Transform(a) > m.Transform(b)+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestFactorTableCorrelations(t *testing.T) {
	specs := []ColumnSpec{
		{Name: "a", Loadings: map[string]float64{"f": 0.9}},
		{Name: "b", Loadings: map[string]float64{"f": -0.9}},
		{Name: "c", Loadings: map[string]float64{"g": 0.8}},
		{Name: "d", Loadings: map[string]float64{}},
	}
	cols := FactorTable(30000, specs, rand.New(rand.NewSource(4)))
	if r := stats.Pearson(cols[0], cols[1]); math.Abs(r+0.81) > 0.03 {
		t.Errorf("ρ(a,b) = %v, want ≈-0.81", r)
	}
	if r := stats.Pearson(cols[0], cols[2]); math.Abs(r) > 0.03 {
		t.Errorf("ρ(a,c) = %v, want 0 (disjoint factors)", r)
	}
	if r := stats.Pearson(cols[2], cols[3]); math.Abs(r) > 0.03 {
		t.Errorf("ρ(c,d) = %v, want 0 (no loadings)", r)
	}
	// Over-unit loadings get normalized, not rejected.
	over := []ColumnSpec{
		{Name: "x", Loadings: map[string]float64{"p": 0.9, "q": 0.9}},
		{Name: "y", Loadings: map[string]float64{"p": 0.9}},
	}
	oc := FactorTable(20000, over, rand.New(rand.NewSource(5)))
	if v := stats.NewMoments(oc[0]).Variance(); math.Abs(v-1) > 0.05 {
		t.Errorf("normalized column variance = %v, want 1", v)
	}
}

func TestOECDShapeAndScenarioFacts(t *testing.T) {
	// Use a large n so planted structure dominates sampling noise;
	// the 35-row paper-scale version is exercised elsewhere.
	f := OECD(5000, 7)
	if f.Cols() != 25 {
		t.Fatalf("OECD cols = %d, want 25", f.Cols())
	}
	if len(f.NumericColumns()) != 24 || len(f.CategoricalColumns()) != 1 {
		t.Fatalf("OECD kinds wrong")
	}
	get := func(name string) []float64 {
		c, err := f.Numeric(name)
		if err != nil {
			t.Fatal(err)
		}
		return c.Values()
	}
	wlh, tdl := get("WorkingLongHours"), get("TimeDevotedToLeisure")
	srh, ls := get("SelfReportedHealth"), get("LifeSatisfaction")
	if r := stats.Spearman(wlh, tdl); r > -0.6 {
		t.Errorf("ρs(WLH, TDTL) = %v, want strongly negative", r)
	}
	if r := stats.Pearson(tdl, srh); math.Abs(r) > 0.08 {
		t.Errorf("ρ(TDTL, SRH) = %v, want ≈0", r)
	}
	if r := stats.Pearson(ls, srh); r < 0.6 {
		t.Errorf("ρ(LS, SRH) = %v, want strongly positive", r)
	}
	if sk := stats.NewMoments(srh).Skewness(); sk > -0.8 {
		t.Errorf("SRH skewness = %v, want left-skewed", sk)
	}
	if sk := stats.NewMoments(tdl).Skewness(); math.Abs(sk) > 0.15 {
		t.Errorf("TDTL skewness = %v, want ≈0 (normal)", sk)
	}
	// Metadata present.
	if f.Meta("PersonalEarnings").Semantic != "currency" {
		t.Error("PersonalEarnings should be currency-tagged")
	}
	// Default size.
	small := OECD(0, 1)
	if small.Rows() != 35 {
		t.Errorf("default OECD rows = %d, want 35", small.Rows())
	}
	// Deterministic.
	again := OECD(0, 1)
	a1, _ := small.Numeric("LifeSatisfaction")
	a2, _ := again.Numeric("LifeSatisfaction")
	for i := range a1.Values() {
		if a1.At(i) != a2.At(i) {
			t.Fatal("OECD not deterministic for equal seeds")
		}
	}
}

func TestParkinsonShape(t *testing.T) {
	f := Parkinson(2000, 11)
	if f.Rows() != 2000 || f.Cols() != 50 {
		t.Fatalf("Parkinson shape = %d×%d, want 2000×50", f.Rows(), f.Cols())
	}
	cohort, err := f.Categorical("Cohort")
	if err != nil {
		t.Fatal(err)
	}
	if cohort.Cardinality() != 3 {
		t.Errorf("Cohort levels = %d, want 3", cohort.Cardinality())
	}
	// Cohort explains UPDRS variance (η² high).
	updrs, err := f.Numeric("UPDRS_Total")
	if err != nil {
		t.Fatal(err)
	}
	eta := stats.CorrelationRatio(cohort.Codes(), updrs.Values(), 3)
	if eta < 0.3 {
		t.Errorf("η²(UPDRS|Cohort) = %v, want substantial", eta)
	}
	// UPDRS parts strongly inter-correlated.
	p2, _ := f.Numeric("UPDRS_Part2")
	p3, _ := f.Numeric("UPDRS_Part3")
	if r := stats.Pearson(p2.Values(), p3.Values()); r < 0.5 {
		t.Errorf("ρ(Part2, Part3) = %v, want strong", r)
	}
	// Planted missingness present.
	abeta, _ := f.Numeric("CSF_Abeta42")
	if abeta.Missing() == 0 {
		t.Error("CSF_Abeta42 should have planted missing cells")
	}
	// Planted outliers in CRP.
	crp, _ := f.Numeric("CRP_Inflammation")
	score, _ := stats.OutlierScore(crp.Values(), stats.MADDetector{})
	if score <= 0 {
		t.Error("CRP should show outliers")
	}
	// Default size.
	if Parkinson(0, 1).Rows() != 2000 {
		t.Error("default rows wrong")
	}
}

func TestIMDBShape(t *testing.T) {
	f := IMDB(5000, 13)
	if f.Rows() != 5000 || f.Cols() != 28 {
		t.Fatalf("IMDB shape = %d×%d, want 5000×28", f.Rows(), f.Cols())
	}
	// Gross and budget correlate (profitability structure).
	budget, _ := f.Numeric("Budget")
	gross, _ := f.Numeric("Gross")
	if r := stats.Spearman(budget.Values(), gross.Values()); r < 0.3 {
		t.Errorf("ρs(Budget, Gross) = %v, want positive", r)
	}
	// Votes correlate with gross (popularity factor).
	votes, _ := f.Numeric("NumVotedUsers")
	if r := stats.Spearman(gross.Values(), votes.Values()); r < 0.3 {
		t.Errorf("ρs(Gross, Votes) = %v, want positive", r)
	}
	// Director column is heavy-hitter shaped.
	dir, _ := f.Categorical("Director")
	counts := dir.Counts()
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	if float64(max)/5000 < 0.02 {
		t.Errorf("top director share = %v, want heavy hitter", float64(max)/5000)
	}
	// Gross is heavy-tailed.
	if k := stats.NewMoments(gross.Values()).Kurtosis(); k < 10 {
		t.Errorf("Gross kurtosis = %v, want heavy", k)
	}
	if IMDB(0, 1).Rows() != 5000 {
		t.Error("default rows wrong")
	}
}

func TestScalable(t *testing.T) {
	cfg := ScalableConfig{Rows: 5000, NumericCols: 16, CatCols: 2, Seed: 3,
		OutlierEvery: 8, MissingEvery: 7}
	f := Scalable(cfg)
	if f.Rows() != 5000 || f.Cols() != 18 {
		t.Fatalf("shape = %d×%d", f.Rows(), f.Cols())
	}
	// Within-block pair: num000 and num001 share a factor.
	a, _ := f.Numeric("num000")
	b, _ := f.Numeric("num001")
	planted := TruePairCorrelation(cfg, 0, 1)
	got := stats.Pearson(a.Values(), b.Values())
	if got < planted-0.25 || got < 0.3 {
		t.Errorf("within-block ρ = %v, planted %v", got, planted)
	}
	// Cross-block pair ≈ 0.
	c, _ := f.Numeric("num008")
	if r := stats.Pearson(a.Values(), c.Values()); math.Abs(r) > 0.08 {
		t.Errorf("cross-block ρ = %v, want ≈0", r)
	}
	if TruePairCorrelation(cfg, 0, 8) != 0 {
		t.Error("cross-block true correlation must be 0")
	}
	if TruePairCorrelation(cfg, 3, 3) != 1 {
		t.Error("self correlation must be 1")
	}
	// Missingness planted in column 6 (MissingEvery=7).
	m, _ := f.Numeric("num006")
	if m.Missing() == 0 {
		t.Error("expected planted missing values")
	}
	// Defaults.
	tiny := Scalable(ScalableConfig{Rows: 10, NumericCols: 3, Seed: 1})
	if tiny.Rows() != 10 {
		t.Error("defaults broken")
	}
}

func TestPlantHelpers(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i % 7)
	}
	planted := PlantOutliers(xs, 25, 10)
	if planted != 4 {
		t.Errorf("planted = %d, want 4", planted)
	}
	score, out := stats.OutlierScore(xs, stats.ZScoreDetector{Threshold: 4})
	if len(out) == 0 || score <= 0 {
		t.Error("planted outliers not detectable")
	}
	// Constant column: nothing plantable.
	flat := []float64{2, 2, 2, 2}
	if PlantOutliers(flat, 2, 5) != 0 {
		t.Error("constant column should plant 0")
	}
	ys := make([]float64, 50)
	if got := PlantMissing(ys, 10); got != 5 {
		t.Errorf("missing planted = %d, want 5", got)
	}
	if PlantMissing(ys, 0) != 0 {
		t.Error("stride 0 should plant none")
	}
	// String generators.
	zs := ZipfStrings(100, "z", 10, 1.5, nil)
	if len(zs) != 100 {
		t.Error("zipf length wrong")
	}
	us := UniformStrings(100, "u", 5, nil)
	if len(us) != 100 {
		t.Error("uniform length wrong")
	}
	if len(ZipfStrings(10, "z", 0, 0, nil)) != 10 {
		t.Error("degenerate zipf args should still work")
	}
	if len(UniformStrings(10, "u", 0, nil)) != 10 {
		t.Error("degenerate uniform args should still work")
	}
}

// TruePairCorrelation returns the planted (asymptotic latent-scale)
// correlation between numeric columns i and j of a Scalable dataset:
// λi·λj within a block, 0 across blocks. Marginal transforms attenuate
// the observable Pearson value below this bound for non-normal
// marginals, so use it as a structural reference, not an exact truth.
func TruePairCorrelation(cfg ScalableConfig, i, j int) float64 {
	cfg.fill()
	if i/cfg.BlockSize != j/cfg.BlockSize {
		return 0
	}
	if i == j {
		return 1
	}
	li := 0.9 - 0.12*float64((i%cfg.BlockSize)%5)
	lj := 0.9 - 0.12*float64((j%cfg.BlockSize)%5)
	return li * lj
}
