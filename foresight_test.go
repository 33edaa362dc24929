package foresight_test

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"foresight"
)

// TestEndToEndOECD is the integration test for the full public flow:
// load → profile → carousels → focus → recommendations → overview →
// render → save/load.
func TestEndToEndOECD(t *testing.T) {
	f := foresight.OECDDataset(0, 42) // paper-scale 35×25
	if f.Rows() != 35 || f.Cols() != 25 {
		t.Fatalf("OECD shape = %d×%d", f.Rows(), f.Cols())
	}
	profile := foresight.BuildProfile(f, foresight.ProfileConfig{Seed: 7, Spearman: true})
	engine, err := foresight.NewEngine(f, foresight.NewRegistry(), profile)
	if err != nil {
		t.Fatal(err)
	}
	carousels, err := engine.Carousels(5, false)
	if err != nil {
		t.Fatal(err)
	}
	// OECD's only categorical column is the Country identifier, which
	// the engine rightly excludes, so only the numeric classes fire.
	if len(carousels) < 7 {
		t.Fatalf("only %d carousels", len(carousels))
	}
	// The headline discovery of §4.1: WorkingLongHours ↔
	// TimeDevotedToLeisure should be among the top correlation
	// insights, with negative sign.
	var wlhTdl *foresight.Insight
	for _, r := range carousels {
		if r.Class != "linear" {
			continue
		}
		for i := range r.Insights {
			in := r.Insights[i]
			if contains(in.Attrs, "WorkingLongHours") && contains(in.Attrs, "TimeDevotedToLeisure") {
				wlhTdl = &in
			}
		}
	}
	if wlhTdl == nil {
		t.Fatal("WLH↔TDTL not in top-5 correlations")
	}
	if wlhTdl.Raw >= 0 {
		t.Errorf("WLH↔TDTL should be negative, got %v", wlhTdl.Raw)
	}

	// Focus it; recommendations update.
	session := foresight.NewSession(engine, 5, false)
	session.FocusOn(*wlhTdl)
	updated, err := session.Recommendations()
	if err != nil {
		t.Fatal(err)
	}
	if len(updated) == 0 {
		t.Fatal("no recommendations after focus")
	}

	// Overview (Figure 2) and its SVG.
	ov, err := engine.Overview("linear", "", false)
	if err != nil {
		t.Fatal(err)
	}
	if len(ov.RowAttrs) != 24 || !ov.Symmetric {
		t.Fatalf("overview shape: %d attrs, symmetric=%v", len(ov.RowAttrs), ov.Symmetric)
	}
	svg := foresight.CorrelogramSVG(ov, "OECD pairwise correlations")
	if !strings.HasPrefix(svg, "<svg") {
		t.Error("correlogram SVG malformed")
	}

	// Render the focused insight both ways.
	if svg, err := foresight.RenderSVG(f, *wlhTdl); err != nil || !strings.HasPrefix(svg, "<svg") {
		t.Errorf("RenderSVG: %v", err)
	}
	if txt, err := foresight.RenderASCII(f, *wlhTdl); err != nil || txt == "" {
		t.Errorf("RenderASCII: %v", err)
	}

	// Save / load session round trip.
	var buf bytes.Buffer
	if err := session.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := foresight.LoadSession(&buf, engine)
	if err != nil {
		t.Fatal(err)
	}
	if len(restored.Focus) != 1 {
		t.Error("restored focus lost")
	}
}

func TestPublicCSVAndQuery(t *testing.T) {
	csv := "a,b,cat\n1,2,x\n2,4,y\n3,6,x\n4,8.1,y\n5,9.9,x\n"
	f, err := foresight.ReadCSV(strings.NewReader(csv), "mini", nil)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := foresight.NewEngine(f, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Execute(foresight.Query{Classes: []string{"linear"}, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || res[0].Insights[0].Score < 0.99 {
		t.Errorf("a,b nearly perfectly correlated, got %+v", res)
	}
}

func TestPublicConstructorsAndSimilarity(t *testing.T) {
	col := foresight.NewNumericColumn("v", []float64{1, 2, math.NaN()})
	cat := foresight.NewCategoricalColumn("c", []string{"a", "", "b"})
	f, err := foresight.NewFrame("t", col, cat)
	if err != nil {
		t.Fatal(err)
	}
	if f.Rows() != 3 {
		t.Error("frame shape wrong")
	}
	a := foresight.Insight{Class: "linear", Metric: "pearson", Attrs: []string{"x", "y"}, Score: 1}
	if foresight.Similarity(a, a) != 1 {
		t.Error("self similarity should be 1")
	}
}

func TestDemoDatasets(t *testing.T) {
	if f := foresight.ParkinsonDataset(500, 1); f.Rows() != 500 || f.Cols() != 50 {
		t.Error("parkinson dataset shape wrong")
	}
	if f := foresight.IMDBDataset(500, 1); f.Rows() != 500 || f.Cols() != 28 {
		t.Error("imdb dataset shape wrong")
	}
}

func contains(xs []string, want string) bool {
	for _, x := range xs {
		if x == want {
			return true
		}
	}
	return false
}

func TestFacadePartitionedAndPersistence(t *testing.T) {
	f := foresight.IMDBDataset(2000, 3)
	cfg := foresight.ProfileConfig{Seed: 5, K: 64, Workers: 3}
	p := foresight.BuildProfile(f, cfg)
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := foresight.LoadProfile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	engine, err := foresight.NewEngine(f, nil, loaded)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Execute(foresight.Query{Classes: []string{"linear"}, K: 3, Approx: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 || len(res[0].Insights) != 3 {
		t.Fatalf("approx query over loaded profile: %+v", res)
	}
	// Sketch-only rendering of the top insight.
	svg, err := foresight.RenderSVGFromProfile(loaded, res[0].Insights[0])
	if err != nil || !strings.HasPrefix(svg, "<svg") {
		t.Errorf("RenderSVGFromProfile: %v", err)
	}
}

func TestFacadeCustomRegistry(t *testing.T) {
	reg := foresight.NewEmptyRegistry()
	if err := reg.Register(foresight.NewNonlinearDependenceClass(8)); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(foresight.NewHeavyHittersClassWithK(5)); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register(foresight.NewOutliersClassWithDetector(nil)); err != nil {
		t.Fatal(err)
	}
	if got := len(foresight.BuiltinClasses()); got != 12 {
		t.Errorf("builtin classes = %d, want 12", got)
	}
	f := foresight.IMDBDataset(1500, 4)
	engine, err := foresight.NewEngine(f, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Execute(foresight.Query{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) < 2 {
		t.Errorf("custom registry produced %d result groups", len(res))
	}
}

func TestFacadeParallelWorkers(t *testing.T) {
	f := foresight.OECDDataset(0, 42)
	engine, err := foresight.NewEngine(f, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	engine.SetWorkers(0) // GOMAXPROCS
	res, err := engine.Execute(foresight.Query{Classes: []string{"linear"}, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 1 {
		t.Error("parallel execute through facade broken")
	}
}

// TestDrillDownWorkflow exercises §2's second level of exploration:
// constrain the data, re-run insight queries on the subset.
func TestDrillDownWorkflow(t *testing.T) {
	f := foresight.ParkinsonDataset(2000, 11)
	// Constrain to the PD cohort.
	keep, err := f.WhereCategory("Cohort", "PD")
	if err != nil {
		t.Fatal(err)
	}
	sub, err := f.FilterRows(keep)
	if err != nil {
		t.Fatal(err)
	}
	if sub.Rows() >= f.Rows() || sub.Rows() < 500 {
		t.Fatalf("PD subset rows = %d", sub.Rows())
	}
	engine, err := foresight.NewEngine(sub, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Within one cohort the Cohort column is constant, so it yields no
	// dependence insights; motor-score correlations remain.
	res, err := engine.Execute(foresight.Query{Classes: []string{"dependence"}, Fixed: []string{"Cohort"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 0 {
		t.Errorf("constant cohort should yield no dependence insights, got %d", len(res))
	}
	lin, err := engine.Execute(foresight.Query{Classes: []string{"linear"}, K: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(lin) != 1 || lin[0].Insights[0].Score < 0.5 {
		t.Errorf("drill-down correlations missing: %+v", lin)
	}
	// Numeric range drill-down.
	keepAge, err := f.WhereNumeric("AgeAtVisit", 70, 200)
	if err != nil {
		t.Fatal(err)
	}
	old, err := f.FilterRows(keepAge)
	if err != nil {
		t.Fatal(err)
	}
	if old.Rows() == 0 || old.Rows() >= f.Rows() {
		t.Errorf("age drill-down rows = %d", old.Rows())
	}
}

func TestNormalityClassThroughFacade(t *testing.T) {
	reg := foresight.NewRegistry()
	if err := reg.Register(foresight.NewNormalityClass()); err != nil {
		t.Fatal(err)
	}
	f := foresight.OECDDataset(0, 42)
	engine, err := foresight.NewEngine(f, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := engine.Execute(foresight.Query{Classes: []string{"normality"}})
	if err != nil {
		t.Fatal(err)
	}
	// TimeDevotedToLeisure is planted normal (one of several normal
	// indicators); its normality score must be high, and the planted
	// left-skewed SelfReportedHealth must rank below it.
	score := func(attr string) float64 {
		for _, in := range res[0].Insights {
			if in.Attrs[0] == attr {
				return in.Score
			}
		}
		return -1
	}
	if s := score("TimeDevotedToLeisure"); s < 0.5 {
		t.Errorf("TDTL normality = %v, want high", s)
	}
	if score("SelfReportedHealth") >= score("TimeDevotedToLeisure") {
		t.Error("left-skewed SRH should be less normal than TDTL")
	}
}
