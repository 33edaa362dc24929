package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"foresight/internal/frame"
	"foresight/internal/sketch"
)

// plantedFrame builds a frame with one strong instance of every
// insight class:
//
//	hi_var     – dispersion (σ ≈ 100 vs 1 elsewhere)
//	skewed     – strong positive skew (lognormal)
//	heavy      – heavy tails (Student-t-ish via ratio)
//	outl       – extreme planted outliers
//	xa, xb     – strong linear pair (ρ≈0.95)
//	mono_x/y   – monotonic nonlinear pair
//	bimodal    – two well-separated modes
//	seg_x/y + seg  – categorical cleanly segmenting the (x,y) plane
//	zipfcat    – heavy hitters
//	unifcat    – near-uniform categories
//	dep_num + seg – numeric depends on the segmenting category
//	cat_a, cat_b  – strongly associated categoricals
func plantedFrame(n int, seed int64) *frame.Frame {
	rng := rand.New(rand.NewSource(seed))
	hiVar := make([]float64, n)
	loVar := make([]float64, n)
	skewed := make([]float64, n)
	heavy := make([]float64, n)
	outl := make([]float64, n)
	xa := make([]float64, n)
	xb := make([]float64, n)
	monoX := make([]float64, n)
	monoY := make([]float64, n)
	bimodal := make([]float64, n)
	segX := make([]float64, n)
	segY := make([]float64, n)
	depNum := make([]float64, n)
	seg := make([]string, n)
	zipfcat := make([]string, n)
	unifcat := make([]string, n)
	catA := make([]string, n)
	catB := make([]string, n)
	zipf := rand.NewZipf(rng, 2.2, 1, 30)
	groupOf := [4]int{0, 0, 1, 2} // unequal sizes so seg is not perfectly uniform
	for i := 0; i < n; i++ {
		z1, z2 := rng.NormFloat64(), rng.NormFloat64()
		hiVar[i] = rng.NormFloat64() * 100
		loVar[i] = rng.NormFloat64()
		skewed[i] = math.Exp(rng.NormFloat64() * 1.2)
		heavy[i] = rng.NormFloat64() / (math.Abs(rng.NormFloat64()) + 0.05)
		outl[i] = rng.NormFloat64()
		xa[i] = z1
		xb[i] = 0.95*z1 + math.Sqrt(1-0.95*0.95)*z2
		monoX[i] = rng.Float64() * 4
		monoY[i] = math.Exp(monoX[i]) + rng.NormFloat64()*0.1
		if i%2 == 0 {
			bimodal[i] = rng.NormFloat64() - 5
		} else {
			bimodal[i] = rng.NormFloat64() + 5
		}
		g := groupOf[i%4]
		seg[i] = fmt.Sprintf("g%d", g)
		// Non-collinear cluster centers so seg_x/seg_y are clustered
		// but not strongly linearly correlated.
		segX[i] = [3]float64{0, 8, 16}[g] + rng.NormFloat64()*0.5
		segY[i] = [3]float64{0, 9, 2}[g] + rng.NormFloat64()*0.5
		zipfcat[i] = fmt.Sprintf("z%d", zipf.Uint64())
		u := rng.Intn(8)
		unifcat[i] = fmt.Sprintf("u%d", u)
		// dep_num is driven by unifcat (not seg) so it does not
		// correlate with the seg_x/seg_y block.
		depNum[i] = float64(u)*15 + rng.NormFloat64()*0.3
		a := rng.Intn(8)
		catA[i] = fmt.Sprintf("a%d", a)
		// catB follows catA 90% of the time.
		if rng.Float64() < 0.9 {
			catB[i] = fmt.Sprintf("b%d", a)
		} else {
			catB[i] = fmt.Sprintf("b%d", rng.Intn(8))
		}
	}
	// Plant extreme symmetric outliers (symmetric so skew stays low).
	for i := 0; i < 10 && i*31 < n; i++ {
		sign := 1.0
		if i%2 == 1 {
			sign = -1
		}
		outl[i*31] = sign * (30 + float64(i))
	}
	return frame.MustNew("planted",
		frame.NewNumericColumn("hi_var", hiVar),
		frame.NewNumericColumn("lo_var", loVar),
		frame.NewNumericColumn("skewed", skewed),
		frame.NewNumericColumn("heavy", heavy),
		frame.NewNumericColumn("outl", outl),
		frame.NewNumericColumn("xa", xa),
		frame.NewNumericColumn("xb", xb),
		frame.NewNumericColumn("mono_x", monoX),
		frame.NewNumericColumn("mono_y", monoY),
		frame.NewNumericColumn("bimodal", bimodal),
		frame.NewNumericColumn("seg_x", segX),
		frame.NewNumericColumn("seg_y", segY),
		frame.NewNumericColumn("dep_num", depNum),
		frame.NewCategoricalColumn("seg", seg),
		frame.NewCategoricalColumn("zipfcat", zipfcat),
		frame.NewCategoricalColumn("unifcat", unifcat),
		frame.NewCategoricalColumn("cat_a", catA),
		frame.NewCategoricalColumn("cat_b", catB),
	)
}

func TestRegistryBuiltins(t *testing.T) {
	r := NewRegistry()
	names := r.Names()
	if len(names) != 12 {
		t.Fatalf("built-in classes = %d, want 12: %v", len(names), names)
	}
	for _, want := range []string{"linear", "outliers", "heavytails", "dispersion",
		"skew", "heavyhitters", "monotonic", "dependence", "catassoc",
		"multimodality", "segmentation", "uniformity"} {
		if _, ok := r.Lookup(want); !ok {
			t.Errorf("missing class %q", want)
		}
	}
	if _, ok := r.Lookup("nope"); ok {
		t.Error("Lookup(nope) should fail")
	}
	if len(r.Classes()) != 12 {
		t.Error("Classes() length wrong")
	}
}

func TestRegistryRegisterErrors(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(NewLinearClass()); err == nil {
		t.Error("duplicate registration should fail")
	}
	empty := NewEmptyRegistry()
	if len(empty.Names()) != 0 {
		t.Error("empty registry should have no classes")
	}
	if err := empty.Register(NewLinearClass()); err != nil {
		t.Errorf("register into empty: %v", err)
	}
}

// fakeClass exercises the plug-in path.
type fakeClass struct{ name string }

func (c *fakeClass) Name() string                         { return c.name }
func (c *fakeClass) Description() string                  { return "fake" }
func (c *fakeClass) Arity() int                           { return 1 }
func (c *fakeClass) Metrics() []string                    { return []string{"m"} }
func (c *fakeClass) Candidates(f *frame.Frame) [][]string { return nil }
func (c *fakeClass) Score(f *frame.Frame, attrs []string, metric string) (Insight, error) {
	return Insight{Class: c.name, Score: 1}, nil
}
func (c *fakeClass) ScoreApprox(p *sketch.DatasetProfile, attrs []string, metric string) (Insight, error) {
	return Insight{Class: c.name, Score: 1, Approx: true}, nil
}
func (c *fakeClass) VisKind() VisKind { return VisBar }

func TestRegistryPlugin(t *testing.T) {
	r := NewRegistry()
	if err := r.Register(&fakeClass{name: "custom"}); err != nil {
		t.Fatalf("plug-in registration: %v", err)
	}
	if _, ok := r.Lookup("custom"); !ok {
		t.Error("plug-in class not found")
	}
	if err := r.Register(&fakeClass{name: ""}); err == nil {
		t.Error("empty name should fail")
	}
}

func TestInsightKeyAndString(t *testing.T) {
	in := Insight{Class: "linear", Metric: "pearson", Attrs: []string{"a", "b"}, Score: 0.9, Approx: true}
	if in.Key() != "linear/pearson/a,b" {
		t.Errorf("Key = %q", in.Key())
	}
	s := in.String()
	if !strings.Contains(s, "linear") || !strings.Contains(s, "~") {
		t.Errorf("String = %q", s)
	}
}

func TestTopClassRankingsExact(t *testing.T) {
	f := plantedFrame(3000, 1)
	r := NewRegistry()
	expectTop := map[string][]string{
		"dispersion":    {"hi_var"},
		"skew":          {"skewed"},
		"outliers":      {"outl"},
		"linear":        {"xa", "xb"},
		"multimodality": {"bimodal"},
		"heavyhitters":  {"zipfcat"},
		"catassoc":      {"cat_a", "cat_b"},
	}
	for className, wantAttrs := range expectTop {
		c, _ := r.Lookup(className)
		ins := ScoreAll(c, f, "")
		if len(ins) == 0 {
			t.Errorf("%s: no insights", className)
			continue
		}
		top := ins[0]
		if !sameAttrs(top.Attrs, wantAttrs) {
			t.Errorf("%s top = %v (score %.3f), want %v", className, top.Attrs, top.Score, wantAttrs)
		}
		// Sorted descending.
		for i := 1; i < len(ins); i++ {
			if ins[i].Score > ins[i-1].Score {
				t.Errorf("%s not sorted at %d", className, i)
				break
			}
		}
	}
	// Uniformity: several columns are legitimately near-uniform; the
	// top must be one of them (score ≈1) and must not be seg/zipfcat.
	unif, _ := r.Lookup("uniformity")
	uIns := ScoreAll(unif, f, "")
	if len(uIns) == 0 || uIns[0].Score < 0.99 {
		t.Errorf("uniformity top = %+v, want ≈1", uIns[0])
	}
	if top := uIns[0].Attrs[0]; top == "seg" || top == "zipfcat" {
		t.Errorf("uniformity top should not be %s", top)
	}
	if rankOf(uIns, []string{"zipfcat"}) < len(uIns)-2 {
		t.Errorf("zipfcat should rank near the bottom on uniformity")
	}

	// Monotonic: mono pair should beat noise pairs and be in top 3
	// (the linear xa/xb pair is also monotone).
	mono, _ := r.Lookup("monotonic")
	ins := ScoreAll(mono, f, "")
	found := false
	for _, in := range ins[:3] {
		if sameAttrs(in.Attrs, []string{"mono_x", "mono_y"}) {
			found = true
		}
	}
	if !found {
		t.Errorf("monotonic top3 missing mono pair: %v", ins[:3])
	}
	// Segmentation: top should be (seg_x, seg_y, seg).
	segc, _ := r.Lookup("segmentation")
	segIns := ScoreAll(segc, f, "")
	if len(segIns) == 0 || !sameAttrs(segIns[0].Attrs, []string{"seg_x", "seg_y", "seg"}) {
		t.Errorf("segmentation top = %v", segIns[0].Attrs)
	}
	// Dependence: top should be (dep_num, unifcat).
	dep, _ := r.Lookup("dependence")
	depIns := ScoreAll(dep, f, "")
	if len(depIns) == 0 || !sameAttrs(depIns[0].Attrs, []string{"dep_num", "unifcat"}) {
		t.Errorf("dependence top = %v", depIns[0].Attrs)
	}
	// Heavy tails: heavy should rank above lo_var.
	ht, _ := r.Lookup("heavytails")
	htIns := ScoreAll(ht, f, "")
	if rankOf(htIns, []string{"heavy"}) > rankOf(htIns, []string{"lo_var"}) {
		t.Error("heavy should out-rank lo_var on kurtosis")
	}
}

func TestTopClassRankingsApprox(t *testing.T) {
	f := plantedFrame(5000, 2)
	p := sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 3, K: 512, Spearman: true})
	r := NewRegistry()
	for className, wantAttrs := range map[string][]string{
		"dispersion":   {"hi_var"},
		"skew":         {"skewed"},
		"linear":       {"xa", "xb"},
		"heavyhitters": {"zipfcat"},
		"dependence":   {"dep_num", "unifcat"},
		"catassoc":     {"cat_a", "cat_b"},
	} {
		c, _ := r.Lookup(className)
		var ins []Insight
		for _, attrs := range c.Candidates(f) {
			if in, err := c.ScoreApprox(p, attrs, ""); err == nil && !math.IsNaN(in.Score) {
				ins = append(ins, in)
			}
		}
		SortInsights(ins)
		if len(ins) == 0 {
			t.Errorf("%s: no approx insights", className)
			continue
		}
		if !sameAttrs(ins[0].Attrs, wantAttrs) {
			t.Errorf("%s approx top = %v (%.3f), want %v", className, ins[0].Attrs, ins[0].Score, wantAttrs)
		}
		if !ins[0].Approx {
			t.Errorf("%s approx flag not set", className)
		}
	}
	// Approx vs exact agreement for linear top pair.
	lin, _ := r.Lookup("linear")
	exact, err := lin.Score(f, []string{"xa", "xb"}, "")
	if err != nil {
		t.Fatal(err)
	}
	approx, err := lin.ScoreApprox(p, []string{"xa", "xb"}, "")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(exact.Score-approx.Score) > 0.1 {
		t.Errorf("linear exact %v vs approx %v", exact.Score, approx.Score)
	}
}

func sameAttrs(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func rankOf(ins []Insight, attrs []string) int {
	for i, in := range ins {
		if sameAttrs(in.Attrs, attrs) {
			return i
		}
	}
	return len(ins)
}

func TestMetricVariants(t *testing.T) {
	f := plantedFrame(2000, 4)
	r := NewRegistry()
	lin, _ := r.Lookup("linear")
	pearson, err := lin.Score(f, []string{"xa", "xb"}, "pearson")
	if err != nil {
		t.Fatal(err)
	}
	r2, err := lin.Score(f, []string{"xa", "xb"}, "r2")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(r2.Score-pearson.Score*pearson.Score) > 1e-9 {
		t.Errorf("r2 %v should equal pearson² %v", r2.Score, pearson.Score*pearson.Score)
	}
	if _, err := lin.Score(f, []string{"xa", "xb"}, "bogus"); err == nil {
		t.Error("unknown metric should error")
	}
	mono, _ := r.Lookup("monotonic")
	sp, err := mono.Score(f, []string{"mono_x", "mono_y"}, "spearman")
	if err != nil {
		t.Fatal(err)
	}
	if sp.Score < 0.99 {
		t.Errorf("spearman of exp relation = %v, want ≈1", sp.Score)
	}
	kd, err := mono.Score(f, []string{"mono_x", "mono_y"}, "kendall")
	if err != nil {
		t.Fatal(err)
	}
	if kd.Score < 0.95 {
		t.Errorf("kendall of exp relation = %v, want ≈1", kd.Score)
	}
	disp, _ := r.Lookup("dispersion")
	cv, err := disp.Score(f, []string{"skewed"}, "cv")
	if err != nil {
		t.Fatal(err)
	}
	if cv.Metric != "cv" || cv.Score <= 0 {
		t.Errorf("cv insight = %+v", cv)
	}
	uni, _ := r.Lookup("uniformity")
	raw, err := uni.Score(f, []string{"unifcat"}, "entropy")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(raw.Score-math.Log(8)) > 0.05 {
		t.Errorf("entropy of uniform-8 = %v, want ≈%v", raw.Score, math.Log(8))
	}
}

// tupleKinds is what each class reads at each tuple position ('n'
// numeric, 'c' categorical), written out here rather than read from
// the classes so that the tests below check them.
var tupleKinds = map[string]string{
	"linear": "nn", "outliers": "n", "heavytails": "n", "dispersion": "n",
	"skew": "n", "heavyhitters": "c", "monotonic": "nn", "dependence": "nc",
	"catassoc": "cc", "multimodality": "n", "segmentation": "nnc",
	"uniformity": "c", "nonlinear": "nn", "normality": "n",
}

// malformed reports a tuple every path must refuse: the wrong arity, an
// unknown metric, an unknown column or a column of the wrong kind.
func malformed(c Class, f *frame.Frame, attrs []string, metric string) bool {
	kinds := tupleKinds[c.Name()]
	if len(attrs) != len(kinds) || (metric != "" && !slices.Contains(c.Metrics(), metric)) {
		return true
	}
	for i, a := range attrs {
		_, numErr := f.Numeric(a)
		_, catErr := f.Categorical(a)
		if (kinds[i] == 'n' && numErr != nil) || (kinds[i] == 'c' && catErr != nil) {
			return true
		}
	}
	return false
}

// scoreBoth scores attrs on both paths and reports each path's error,
// failing t on a panic.
func scoreBoth(t *testing.T, c Class, f *frame.Frame, p *sketch.DatasetProfile, attrs []string, metric string) (exactErr, approxErr error) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s%q metric %q on %d rows: panic: %v", c.Name(), attrs, metric, f.Rows(), r)
		}
	}()
	_, exactErr = c.Score(f, attrs, metric)
	_, approxErr = c.ScoreApprox(p, attrs, metric)
	return exactErr, approxErr
}

// checkTuple holds both paths to the prologue's contract on one tuple:
// no panic, a malformed tuple refused by both, and otherwise both paths
// erroring or neither.
func checkTuple(t *testing.T, c Class, f *frame.Frame, p *sketch.DatasetProfile, attrs []string, metric string) {
	t.Helper()
	exactErr, approxErr := scoreBoth(t, c, f, p, attrs, metric)
	switch {
	case malformed(c, f, attrs, metric) && (exactErr == nil || approxErr == nil):
		t.Errorf("%s%q metric %q on %d rows: malformed, yet exact err %v, approx err %v",
			c.Name(), attrs, metric, f.Rows(), exactErr, approxErr)
	case (exactErr == nil) != (approxErr == nil):
		t.Errorf("%s%q metric %q on %d rows: exact err %v, approx err %v",
			c.Name(), attrs, metric, f.Rows(), exactErr, approxErr)
	}
}

// degenerateFrame has n rows and one column of each degenerate kind
// beside a normal numeric and a normal categorical.
func degenerateFrame(n int) *frame.Frame {
	missing, constant, num := make([]float64, n), make([]float64, n), make([]float64, n)
	empty, cat := make([]string, n), make([]string, n)
	for i := range n {
		missing[i], constant[i], num[i] = math.NaN(), 7, float64(i*i%5)
		cat[i] = fmt.Sprintf("v%d", i%3)
	}
	return frame.MustNew("degenerate",
		frame.NewNumericColumn("nan", missing),
		frame.NewNumericColumn("const", constant),
		frame.NewNumericColumn("num", num),
		frame.NewCategoricalColumn("emp", empty),
		frame.NewCategoricalColumn("cat", cat),
	)
}

// degenerateNames are the degenerate frame's columns and one it lacks.
var degenerateNames = []string{"nan", "const", "num", "emp", "cat", "no_such_column"}

// degenerateRows are the degenerate frames' row counts.
var degenerateRows = []int{0, 1, 5}

func TestScoreErrorPaths(t *testing.T) {
	f := plantedFrame(500, 5)
	p := sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 1, K: 64})
	for _, c := range pinnedClasses() {
		kinds := tupleKinds[c.Name()]
		ok, wrongKind := make([]string, len(kinds)), make([]string, len(kinds))
		for i := range kinds {
			ok[i], wrongKind[i] = "xa", "zipfcat"
			if kinds[i] == 'c' {
				ok[i], wrongKind[i] = "zipfcat", "xa"
			}
		}
		checkTuple(t, c, f, p, []string{}, "")
		checkTuple(t, c, f, p, append(ok, "xb"), "")
		checkTuple(t, c, f, p, ok, "no-such-metric")
		for i := range kinds {
			bad := slices.Clone(ok)
			bad[i] = "no_such_column"
			checkTuple(t, c, f, p, bad, "")
			bad[i] = wrongKind[i]
			checkTuple(t, c, f, p, bad, "")
		}
	}
	// Every tuple of up to three of the degenerate columns (and one that
	// is missing), under every metric, the default and an unknown one.
	for _, n := range degenerateRows {
		f := degenerateFrame(n)
		p := sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 1, Spearman: true})
		for _, c := range pinnedClasses() {
			for _, metric := range slices.Concat(c.Metrics(), []string{"", "no-such-metric"}) {
				tuples := [][]string{{}}
				for range 3 {
					var next [][]string
					for _, tuple := range tuples {
						checkTuple(t, c, f, p, tuple, metric)
						for _, name := range degenerateNames {
							next = append(next, append(slices.Clip(tuple), name))
						}
					}
					tuples = next
				}
				for _, tuple := range tuples {
					checkTuple(t, c, f, p, tuple, metric)
				}
			}
		}
	}
}

// FuzzScoreTuple drives every class on both paths with what a request's
// attrs and metric may carry (/api/render, /api/focus and
// /api/neighborhood pass them straight in): up to four comma-separated
// names, the degenerate frame's columns or anything else, and any
// metric, on a degenerate frame of 0, 1 or 5 rows.
func FuzzScoreTuple(f *testing.F) {
	frames := make([]*frame.Frame, len(degenerateRows))
	profiles := make([]*sketch.DatasetProfile, len(degenerateRows))
	for i, n := range degenerateRows {
		frames[i] = degenerateFrame(n)
		profiles[i] = sketch.BuildProfile(frames[i], sketch.ProfileConfig{Seed: 1, Spearman: true})
	}
	f.Add(uint8(2), "num,const", "")
	f.Add(uint8(2), "num,num,cat", "silhouette")
	f.Add(uint8(1), "emp", "relfreq")
	f.Add(uint8(0), "", "pearson")
	f.Add(uint8(2), "cat,emp", "mutualinfo")
	f.Add(uint8(2), "nan,cat,num,const", "kendall")
	f.Fuzz(func(t *testing.T, rows uint8, tuple, metric string) {
		attrs := strings.Split(tuple, ",")
		if tuple == "" {
			attrs = nil
		}
		if len(attrs) > 4 {
			attrs = attrs[:4]
		}
		k := int(rows) % len(degenerateRows)
		for _, c := range pinnedClasses() {
			checkTuple(t, c, frames[k], profiles[k], attrs, metric)
		}
	})
}

func TestCandidateEnumeration(t *testing.T) {
	f := plantedFrame(200, 6)
	r := NewRegistry()
	numN := len(f.NumericColumns())
	lin, _ := r.Lookup("linear")
	if got, want := len(lin.Candidates(f)), numN*(numN-1)/2; got != want {
		t.Errorf("linear candidates = %d, want %d", got, want)
	}
	disp, _ := r.Lookup("dispersion")
	if got := len(disp.Candidates(f)); got != numN {
		t.Errorf("dispersion candidates = %d, want %d", got, numN)
	}
	seg, _ := r.Lookup("segmentation")
	// Only cat columns with card ≤ 12 qualify: seg(3), unifcat(8),
	// cat_a(4), cat_b(4) — zipfcat has ~30.
	zc, _ := f.Categorical("zipfcat")
	segCands := seg.Candidates(f)
	for _, attrs := range segCands {
		if attrs[2] == "zipfcat" && zc.Cardinality() > 12 {
			t.Error("zipfcat should be excluded from segmentation candidates")
		}
	}
	// Candidates of all-numeric frame exclude categorical classes.
	numOnly := frame.MustNew("n", frame.NewNumericColumn("a", []float64{1, 2}))
	hh, _ := r.Lookup("heavyhitters")
	if len(hh.Candidates(numOnly)) != 0 {
		t.Error("no categorical candidates expected")
	}
}

func TestConstantColumnsDropped(t *testing.T) {
	f := frame.MustNew("c",
		frame.NewNumericColumn("const", []float64{5, 5, 5, 5, 5, 5}),
		frame.NewNumericColumn("vary", []float64{1, 2, 3, 4, 5, 6}),
	)
	r := NewRegistry()
	lin, _ := r.Lookup("linear")
	ins := ScoreAll(lin, f, "")
	// Pearson with a constant column is NaN → dropped.
	if len(ins) != 0 {
		t.Errorf("constant-column pair should be dropped, got %v", ins)
	}
	skewC, _ := r.Lookup("skew")
	sIns := ScoreAll(skewC, f, "")
	for _, in := range sIns {
		if in.Attrs[0] == "const" {
			t.Error("skew of constant should be dropped (NaN)")
		}
	}
}

func TestSortAndTopK(t *testing.T) {
	ins := []Insight{
		{Class: "a", Metric: "m", Attrs: []string{"x"}, Score: 0.5},
		{Class: "a", Metric: "m", Attrs: []string{"y"}, Score: 0.9},
		{Class: "a", Metric: "m", Attrs: []string{"w"}, Score: 0.9},
		{Class: "a", Metric: "m", Attrs: []string{"z"}, Score: 0.1},
	}
	top2 := TopK(ins, 2)
	if len(top2) != 2 || top2[0].Score != 0.9 {
		t.Errorf("TopK wrong: %v", top2)
	}
	// Tie broken by key: "w" < "y".
	if top2[0].Attrs[0] != "w" || top2[1].Attrs[0] != "y" {
		t.Errorf("tie-break wrong: %v", top2)
	}
	all := TopK(ins, 0)
	if len(all) != 4 {
		t.Error("k ≤ 0 should return all")
	}
	big := TopK(ins, 100)
	if len(big) != 4 {
		t.Error("k > len should return all")
	}
}

func TestUndefinedError(t *testing.T) {
	err := errUndefined("segmentation", []string{"a", "b", "c"})
	var ue *UndefinedError
	if !asUndefined(err, &ue) {
		t.Fatal("should be UndefinedError")
	}
	if !strings.Contains(err.Error(), "a,b,c") {
		t.Errorf("error text = %q", err.Error())
	}
}

func asUndefined(err error, target **UndefinedError) bool {
	ue, ok := err.(*UndefinedError)
	if ok {
		*target = ue
	}
	return ok
}

func TestOutlierDetectorConfigurable(t *testing.T) {
	f := plantedFrame(2000, 7)
	zc := NewOutliersClass(zscoreDet{})
	in, err := zc.Score(f, []string{"outl"}, "")
	if err != nil {
		t.Fatal(err)
	}
	if in.Score <= 0 {
		t.Error("z-score detector should find planted outliers")
	}
}

type zscoreDet struct{}

func (zscoreDet) Name() string { return "custom-z" }
func (zscoreDet) Detect(xs []float64) []int {
	var out []int
	m, s := meanStd(xs)
	for i, x := range xs {
		if !math.IsNaN(x) && math.Abs(x-m) > 4*s {
			out = append(out, i)
		}
	}
	return out
}

func meanStd(xs []float64) (float64, float64) {
	n, sum := 0, 0.0
	for _, x := range xs {
		if !math.IsNaN(x) {
			sum += x
			n++
		}
	}
	m := sum / float64(n)
	ss := 0.0
	for _, x := range xs {
		if !math.IsNaN(x) {
			ss += (x - m) * (x - m)
		}
	}
	return m, math.Sqrt(ss / float64(n))
}
