package query

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"foresight/internal/core"
	"foresight/internal/frame"
	"foresight/internal/sketch"
)

// testFrame plants: a,b strongly correlated; a,c moderately (≈0.6);
// noise independent; skewed lognormal; grp segments gx/gy; zipf cat.
func testFrame(n int, seed int64) *frame.Frame {
	rng := rand.New(rand.NewSource(seed))
	a := make([]float64, n)
	b := make([]float64, n)
	c := make([]float64, n)
	noise := make([]float64, n)
	skewed := make([]float64, n)
	gx := make([]float64, n)
	gy := make([]float64, n)
	grp := make([]string, n)
	zipfc := make([]string, n)
	zipf := rand.NewZipf(rng, 2.0, 1, 20)
	for i := 0; i < n; i++ {
		z1, z2, z3 := rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()
		a[i] = z1
		b[i] = 0.9*z1 + math.Sqrt(1-0.81)*z2
		c[i] = 0.6*z1 + 0.8*z3
		noise[i] = rng.NormFloat64()
		skewed[i] = math.Exp(rng.NormFloat64())
		g := i % 3
		grp[i] = fmt.Sprintf("g%d", g)
		gx[i] = [3]float64{0, 9, 18}[g] + rng.NormFloat64()*0.4
		gy[i] = [3]float64{0, 7, 1}[g] + rng.NormFloat64()*0.4
		zipfc[i] = fmt.Sprintf("z%d", zipf.Uint64())
	}
	f := frame.MustNew("qtest",
		frame.NewNumericColumn("a", a),
		frame.NewNumericColumn("b", b),
		frame.NewNumericColumn("c", c),
		frame.NewNumericColumn("noise", noise),
		frame.NewNumericColumn("skewed", skewed),
		frame.NewNumericColumn("gx", gx),
		frame.NewNumericColumn("gy", gy),
		frame.NewCategoricalColumn("grp", grp),
		frame.NewCategoricalColumn("zipfc", zipfc),
	)
	_ = f.SetMeta("skewed", frame.Metadata{Semantic: frame.SemanticCurrency, Unit: "USD"})
	_ = f.SetMeta("a", frame.Metadata{Semantic: frame.SemanticScore})
	return f
}

func newTestEngine(t *testing.T, n int, seed int64) *Engine {
	t.Helper()
	f := testFrame(n, seed)
	e, err := NewEngine(f, core.NewRegistry(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(nil, nil, nil); err == nil {
		t.Error("nil frame should fail")
	}
	f := testFrame(50, 1)
	e, err := NewEngine(f, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.Registry().Names()) != 12 {
		t.Error("nil registry should default to built-ins")
	}
	if e.Frame() != f || e.Profile() != nil {
		t.Error("accessors wrong")
	}
}

func TestExecuteBasicTopK(t *testing.T) {
	e := newTestEngine(t, 2000, 1)
	res, err := e.ExecuteContext(context.Background(), Query{Classes: []string{"linear"}, K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Class != "linear" || res[0].Metric != "pearson" {
		t.Fatalf("result shape: %+v", res)
	}
	ins := res[0].Insights
	if len(ins) != 3 {
		t.Fatalf("K=3, got %d", len(ins))
	}
	if ins[0].Attrs[0] != "a" || ins[0].Attrs[1] != "b" {
		t.Errorf("top pair = %v, want a,b", ins[0].Attrs)
	}
	for i := 1; i < len(ins); i++ {
		if ins[i].Score > ins[i-1].Score {
			t.Error("not sorted")
		}
	}
}

func TestExecuteFixedAttribute(t *testing.T) {
	e := newTestEngine(t, 2000, 2)
	res, err := e.ExecuteContext(context.Background(), Query{Classes: []string{"linear"}, Fixed: []string{"c"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range res[0].Insights {
		if in.Attrs[0] != "c" && in.Attrs[1] != "c" {
			t.Errorf("tuple %v missing fixed attr c", in.Attrs)
		}
	}
	// The paper's "attributes most correlated with x̄" use case: with
	// c fixed, the top partner should be a (ρ≈0.6 planted).
	top := res[0].Insights[0]
	if !(top.Attrs[0] == "a" || top.Attrs[1] == "a") {
		t.Errorf("top partner of c = %v, want to include a", top.Attrs)
	}
}

func TestExecuteScoreRange(t *testing.T) {
	e := newTestEngine(t, 2000, 3)
	// The paper's example: ρ ∈ [0.5, 0.8] filters trivially high
	// correlations.
	res, err := e.ExecuteContext(context.Background(), Query{Classes: []string{"linear"}, MinScore: 0.5, MaxScore: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("expected results in band")
	}
	for _, in := range res[0].Insights {
		if in.Score < 0.5 || in.Score > 0.8 {
			t.Errorf("score %v outside [0.5, 0.8]", in.Score)
		}
		if in.Attrs[0] == "a" && in.Attrs[1] == "b" {
			t.Error("a,b (ρ≈0.9) should be filtered out")
		}
	}
}

// TestNaNScoreBoundRefused: a NaN bound is refused with an error that
// names it, whether the class has a view yet or not. A NaN compares
// false against every score, so the per-candidate pass kept nothing
// while a view's score range kept the whole class.
func TestNaNScoreBoundRefused(t *testing.T) {
	e := newTestEngine(t, 300, 3)
	ctx := context.Background()
	ask := func(stage string) {
		t.Helper()
		for _, q := range []Query{
			{Fixed: []string{"a"}, MinScore: math.NaN(), K: 3},
			{Fixed: []string{"a"}, MaxScore: math.NaN(), K: 3},
			{Classes: []string{"linear"}, MinScore: math.NaN()},
		} {
			name := "MinScore"
			if math.IsNaN(q.MaxScore) {
				name = "MaxScore"
			}
			res, err := e.ExecuteContext(ctx, q)
			if err == nil || !strings.Contains(err.Error(), name) {
				t.Errorf("%s: %+v answered %d classes, err %v; want an error naming %s", stage, q, len(res), err, name)
			}
		}
	}
	ask("before the views")
	if _, err := e.ExecuteContext(ctx, Query{}); err != nil {
		t.Fatal(err)
	}
	ask("after the views")
}

func TestExecuteSemanticFilter(t *testing.T) {
	e := newTestEngine(t, 1000, 4)
	res, err := e.ExecuteContext(context.Background(), Query{Classes: []string{"skew"}, Semantic: frame.SemanticCurrency})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0].Insights) != 1 || res[0].Insights[0].Attrs[0] != "skewed" {
		t.Errorf("semantic filter should leave only 'skewed': %+v", res)
	}
}

func TestExecuteMetricSelection(t *testing.T) {
	e := newTestEngine(t, 1500, 5)
	// Named metric on a single class.
	res, err := e.ExecuteContext(context.Background(), Query{Classes: []string{"monotonic"}, Metric: "kendall", K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Metric != "kendall" || res[0].Insights[0].Metric != "kendall" {
		t.Errorf("metric not applied: %+v", res[0])
	}
	// Unsupported metric on a single named class errors.
	if _, err := e.ExecuteContext(context.Background(), Query{Classes: []string{"linear"}, Metric: "kendall"}); err == nil {
		t.Error("unsupported metric should error for explicit single class")
	}
	// Unsupported metric across all classes silently skips.
	all, err := e.ExecuteContext(context.Background(), Query{Metric: "pearson"})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range all {
		if r.Class != "linear" {
			t.Errorf("only linear supports pearson, got %s", r.Class)
		}
	}
}

func TestExecuteUnknownClass(t *testing.T) {
	e := newTestEngine(t, 100, 6)
	if _, err := e.ExecuteContext(context.Background(), Query{Classes: []string{"wat"}}); err == nil {
		t.Error("unknown class should error")
	}
}

func TestExecuteApproxRequiresProfile(t *testing.T) {
	e := newTestEngine(t, 100, 7)
	if _, err := e.ExecuteContext(context.Background(), Query{Approx: true}); err == nil {
		t.Error("approx without profile should error")
	}
	if _, err := e.OverviewContext(context.Background(), "linear", "", true); err == nil {
		t.Error("approx overview without profile should error")
	}
}

func TestExecuteApproxMatchesExactRanking(t *testing.T) {
	f := testFrame(8000, 8)
	p := sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 1, K: 512})
	e, err := NewEngine(f, core.NewRegistry(), p)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := e.ExecuteContext(context.Background(), Query{Classes: []string{"linear"}, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	approx, err := e.ExecuteContext(context.Background(), Query{Classes: []string{"linear"}, K: 1, Approx: true})
	if err != nil {
		t.Fatal(err)
	}
	if exact[0].Insights[0].Key() != approx[0].Insights[0].Key() {
		t.Errorf("approx top %v != exact top %v",
			approx[0].Insights[0].Attrs, exact[0].Insights[0].Attrs)
	}
	if !approx[0].Insights[0].Approx {
		t.Error("approx flag missing")
	}
}

func TestCarousels(t *testing.T) {
	e := newTestEngine(t, 1500, 9)
	res, err := e.CarouselsContext(context.Background(), 4, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) < 8 {
		t.Errorf("expected most classes to produce carousels, got %d", len(res))
	}
	for _, r := range res {
		if len(r.Insights) > 4 {
			t.Errorf("%s carousel longer than K", r.Class)
		}
	}
}

func TestOverviewCorrelationMatrix(t *testing.T) {
	e := newTestEngine(t, 1500, 10)
	ov, err := e.OverviewContext(context.Background(), "linear", "", false)
	if err != nil {
		t.Fatal(err)
	}
	if !ov.Symmetric {
		t.Fatal("pairwise numeric overview should be symmetric")
	}
	d := len(ov.RowAttrs)
	if d != 7 { // 7 numeric columns
		t.Fatalf("axis size = %d, want 7", d)
	}
	for i := 0; i < d; i++ {
		if ov.Values[i][i] != 1 {
			t.Errorf("diagonal [%d] = %v, want 1", i, ov.Values[i][i])
		}
		for j := 0; j < d; j++ {
			if !math.IsNaN(ov.Values[i][j]) && ov.Values[i][j] != ov.Values[j][i] {
				t.Errorf("matrix not symmetric at %d,%d", i, j)
			}
		}
	}
	// a–b cell should be ≈0.9 with sign.
	ai, bi := indexIn(ov.RowAttrs, "a"), indexIn(ov.RowAttrs, "b")
	if v := ov.Values[ai][bi]; math.Abs(v-0.9) > 0.05 {
		t.Errorf("ρ(a,b) in overview = %v, want ≈0.9", v)
	}
	c, _ := e.registry.Lookup("linear")
	var want []core.Insight
	for _, attrs := range c.Candidates(e.Frame()) {
		in, err := c.Score(e.Frame(), attrs, ov.Metric)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, in)
	}
	if len(want) != d*(d-1)/2 {
		t.Fatalf("%d candidates, want %d", len(want), d*(d-1)/2)
	}
	checkOverviewCells(t, "linear overview", ov, want)
}

// TestOverviewDiagonal: a symmetric overview's diagonal is each
// attribute's association with itself. That is 1 under every metric
// but mi and mutualinfo, where it is the attribute's entropy, which no
// candidate scores, so those diagonals are undefined. Every other cell
// is the oracle's.
func TestOverviewDiagonal(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := 400
	x, y, z := make([]float64, n), make([]float64, n), make([]float64, n)
	u, v, w := make([]string, n), make([]string, n), make([]string, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = x[i]*x[i] + rng.NormFloat64()*0.3
		z[i] = 0.5*x[i] + rng.NormFloat64()
		u[i] = fmt.Sprintf("u%d", i%3)
		v[i] = fmt.Sprintf("v%d", (i%3+rng.Intn(2))%4)
		w[i] = fmt.Sprintf("w%d", rng.Intn(4))
	}
	f := frame.MustNew("diagonal",
		frame.NewNumericColumn("x", x), frame.NewNumericColumn("y", y), frame.NewNumericColumn("z", z),
		frame.NewCategoricalColumn("u", u), frame.NewCategoricalColumn("v", v), frame.NewCategoricalColumn("w", w))
	reg := core.NewRegistry()
	if err := reg.Register(core.NewNonlinearDependenceClass(0)); err != nil {
		t.Fatal(err)
	}
	e, err := NewEngine(f, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, class := range []string{"linear", "monotonic", "nonlinear", "catassoc"} {
		c, _ := reg.Lookup(class)
		for _, metric := range c.Metrics() {
			ov, err := e.OverviewContext(context.Background(), class, metric, false)
			if err != nil {
				t.Fatal(err)
			}
			if !ov.Symmetric || len(ov.Values) < 2 {
				t.Fatalf("%s/%s: symmetric %v, %d rows", class, metric, ov.Symmetric, len(ov.Values))
			}
			entropy := metric == "mi" || metric == "mutualinfo"
			for i, row := range ov.Values {
				if d := row[i]; entropy && !math.IsNaN(d) || !entropy && d != 1 {
					t.Errorf("%s/%s: diagonal cell %s = %v", class, metric, ov.RowAttrs[i], d)
				}
			}
			oracleOverview(t, class+"/"+metric, e, ov, false)
		}
	}
}

func TestOverviewUnary(t *testing.T) {
	e := newTestEngine(t, 1000, 11)
	ov, err := e.OverviewContext(context.Background(), "skew", "", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(ov.Values) != 1 || len(ov.ColAttrs) != 7 {
		t.Fatalf("unary overview shape wrong: %d rows, %d cols", len(ov.Values), len(ov.ColAttrs))
	}
	si := indexIn(ov.ColAttrs, "skewed")
	if ov.Values[0][si] < 1 {
		t.Errorf("skewed raw value = %v, want >1", ov.Values[0][si])
	}
}

func TestOverviewMixedKindsNotSymmetric(t *testing.T) {
	e := newTestEngine(t, 800, 12)
	ov, err := e.OverviewContext(context.Background(), "dependence", "", false)
	if err != nil {
		t.Fatal(err)
	}
	if ov.Symmetric {
		t.Error("numeric×categorical overview must not be symmetric")
	}
	if len(ov.RowAttrs) != 7 || len(ov.ColAttrs) < 1 {
		t.Errorf("axes: rows %v cols %v", ov.RowAttrs, ov.ColAttrs)
	}
}

func TestOverviewErrors(t *testing.T) {
	e := newTestEngine(t, 500, 13)
	if _, err := e.OverviewContext(context.Background(), "nope", "", false); err == nil {
		t.Error("unknown class should error")
	}
	if _, err := e.OverviewContext(context.Background(), "segmentation", "", false); err == nil {
		t.Error("arity-3 class should have no overview")
	}
	if _, err := e.OverviewContext(context.Background(), "linear", "bogus", false); err == nil {
		t.Error("unknown metric should error")
	}
}

func TestSimilarity(t *testing.T) {
	a := core.Insight{Class: "linear", Metric: "pearson", Attrs: []string{"x", "y"}, Score: 0.8}
	b := core.Insight{Class: "linear", Metric: "pearson", Attrs: []string{"x", "y"}, Score: 0.8}
	if s := Similarity(a, b); s != 1 {
		t.Errorf("identical insights similarity = %v, want 1", s)
	}
	c := core.Insight{Class: "linear", Metric: "pearson", Attrs: []string{"x", "z"}, Score: 0.8}
	sc := Similarity(a, c)
	if sc <= 0 || sc >= 1 {
		t.Errorf("overlapping similarity = %v, want in (0,1)", sc)
	}
	d := core.Insight{Class: "linear", Metric: "pearson", Attrs: []string{"p", "q"}, Score: 0.1}
	if sd := Similarity(a, d); sd >= sc {
		t.Errorf("disjoint+far similarity %v should be below %v", sd, sc)
	}
	// Cross-class: attributes only.
	e := core.Insight{Class: "skew", Metric: "skewness", Attrs: []string{"x"}, Score: 3}
	se := Similarity(a, e)
	if math.Abs(se-0.5) > 1e-9 {
		t.Errorf("cross-class similarity = %v, want jaccard 1/2", se)
	}
}

func TestNeighborhood(t *testing.T) {
	e := newTestEngine(t, 1500, 14)
	res, err := e.ExecuteContext(context.Background(), Query{Classes: []string{"linear"}, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	focus := res[0].Insights[0] // (a,b)
	nbrs, err := e.NeighborhoodContext(context.Background(), focus, nil, 10, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(nbrs) != 10 {
		t.Fatalf("neighborhood size = %d", len(nbrs))
	}
	for _, nb := range nbrs {
		if nb.Key() == focus.Key() {
			t.Error("focus must be excluded from its neighborhood")
		}
	}
	// Every top neighbor should share an attribute with the focus.
	shares := 0
	for _, nb := range nbrs[:5] {
		if jaccard(nb.Attrs, focus.Attrs) > 0 {
			shares++
		}
	}
	if shares < 4 {
		t.Errorf("top neighbors should mostly share attributes, got %d/5", shares)
	}
	if _, err := e.NeighborhoodContext(context.Background(), focus, []string{"bogus"}, 5, false); err == nil {
		t.Error("bad class in neighborhood should error")
	}
}

func TestSessionFocusReranking(t *testing.T) {
	e := newTestEngine(t, 1500, 15)
	s := NewSession(e, 5, false)
	base, err := s.RecommendationsKContext(context.Background(), s.K)
	if err != nil {
		t.Fatal(err)
	}
	// Focus on the skewed column's skew insight; linear carousel should
	// now prefer pairs involving "skewed".
	reg := e.Registry()
	skewClass, _ := reg.Lookup("skew")
	skewIns, err := skewClass.Score(e.Frame(), []string{"skewed"}, "")
	if err != nil {
		t.Fatal(err)
	}
	s.FocusOn(skewIns)
	got, err := s.RecommendationsKContext(context.Background(), s.K)
	if err != nil {
		t.Fatal(err)
	}
	rankWith := func(res []Result, class, attr string) int {
		for _, r := range res {
			if r.Class != class {
				continue
			}
			for i, in := range r.Insights {
				for _, a := range in.Attrs {
					if a == attr {
						return i
					}
				}
			}
		}
		return 999
	}
	before := rankWith(base, "linear", "skewed")
	after := rankWith(got, "linear", "skewed")
	if after > before {
		t.Errorf("focusing skewed should promote its pairs: before %d after %d", before, after)
	}
	// FocusOn dedupes.
	s.FocusOn(skewIns)
	if len(s.Focus) != 1 {
		t.Errorf("focus deduplication failed: %d", len(s.Focus))
	}
	// Unfocus.
	if !s.Unfocus(skewIns.Key()) {
		t.Error("Unfocus should remove")
	}
	if s.Unfocus("nope") {
		t.Error("Unfocus of absent key should report false")
	}
}

func TestSessionSaveLoad(t *testing.T) {
	e := newTestEngine(t, 800, 16)
	s := NewSession(e, 7, false)
	s.FocusOn(core.Insight{Class: "linear", Metric: "pearson", Attrs: []string{"a", "b"}, Score: 0.9})
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "qtest") {
		t.Error("saved state should name the dataset")
	}
	restored, err := LoadSession(bytes.NewReader(buf.Bytes()), e)
	if err != nil {
		t.Fatal(err)
	}
	if restored.K != 7 || len(restored.Focus) != 1 || restored.Focus[0].Key() != s.Focus[0].Key() {
		t.Errorf("restored session mismatch: %+v", restored)
	}
	// Wrong dataset.
	other, _ := NewEngine(testFrame(50, 17), nil, nil)
	other.Frame() // silence
	otherF := frame.MustNew("different", frame.NewNumericColumn("v", []float64{1, 2}))
	e2, _ := NewEngine(otherF, nil, nil)
	if _, err := LoadSession(bytes.NewReader(buf.Bytes()), e2); err == nil {
		t.Error("dataset mismatch should error")
	}
	// Corrupt JSON.
	if _, err := LoadSession(strings.NewReader("{"), e); err == nil {
		t.Error("corrupt state should error")
	}
}

func indexIn(names []string, want string) int {
	for i, n := range names {
		if n == want {
			return i
		}
	}
	return -1
}
