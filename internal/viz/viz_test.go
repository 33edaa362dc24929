package viz

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"foresight/internal/core"
	"foresight/internal/frame"
	"foresight/internal/sketch"
	"foresight/internal/stats"
)

func randVals(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		out[i] = rng.NormFloat64()
	}
	return out
}

func assertSVG(t *testing.T, svg string, mustContain ...string) {
	t.Helper()
	if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(svg, "</svg>") {
		t.Fatalf("not a complete SVG document: %.80s ... %.40s", svg, svg[len(svg)-40:])
	}
	for _, want := range mustContain {
		if !strings.Contains(svg, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
}

func TestHistogramSVG(t *testing.T) {
	svg := HistogramSVG(randVals(1000, 1), "my histogram")
	assertSVG(t, svg, "my histogram", "<rect")
	empty := HistogramSVG(nil, "none")
	assertSVG(t, empty, "no data")
}

func TestBoxPlotSVG(t *testing.T) {
	vals := randVals(500, 2)
	vals[0] = 25 // outlier
	svg := BoxPlotSVG(vals, "box")
	assertSVG(t, svg, "box", "median", "<circle")
	assertSVG(t, BoxPlotSVG(nil, "x"), "no data")
}

func TestParetoSVG(t *testing.T) {
	svg := ParetoSVG([]string{"a", "b", "c"}, []int{50, 30, 20}, "pareto", 0)
	assertSVG(t, svg, "pareto", "<rect", "<line")
	assertSVG(t, ParetoSVG(nil, nil, "e", 0), "no data")
	// Labels longer than bars allow are truncated/escaped safely.
	svg2 := ParetoSVG([]string{"<evil&name>"}, []int{5}, "esc", 0)
	if strings.Contains(svg2, "<evil") {
		t.Error("labels must be escaped")
	}
}

func TestScatterSVG(t *testing.T) {
	xs := randVals(800, 3)
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 2*x + 1
	}
	fit := stats.FitLine(xs, ys)
	svg := ScatterSVG(xs, ys, &fit, "scatter", 200)
	assertSVG(t, svg, "scatter", "<circle")
	// Fit line drawn in accent color.
	if !strings.Contains(svg, colorAccent) {
		t.Error("fit line missing")
	}
	assertSVG(t, ScatterSVG(nil, nil, nil, "e", 0), "no data")
	// NaN-only data.
	nan := []float64{math.NaN(), math.NaN()}
	assertSVG(t, ScatterSVG(nan, nan, nil, "e", 0), "no data")
}

func TestColorScatterSVG(t *testing.T) {
	xs := randVals(300, 4)
	ys := randVals(300, 5)
	groups := make([]int, 300)
	for i := range groups {
		groups[i] = i % 3
	}
	svg := ColorScatterSVG(xs, ys, groups, "colored", 0)
	assertSVG(t, svg, "colored")
	// At least two distinct category colors used.
	if !strings.Contains(svg, categoryColor(0)) || !strings.Contains(svg, categoryColor(1)) {
		t.Error("expected multiple category colors")
	}
}

func TestBarAndStripAndMosaicSVG(t *testing.T) {
	assertSVG(t, BarSVG([]string{"x", "y"}, []float64{3, 1}, "bars", 0), "bars", "<rect")
	assertSVG(t, BarSVG(nil, nil, "none", 0), "no data")

	vals := randVals(400, 6)
	groups := make([]int, 400)
	for i := range groups {
		groups[i] = i % 4
	}
	svg := StripSVG(vals, groups, []string{"g0", "g1", "g2", "g3"}, "strips", 0)
	assertSVG(t, svg, "strips", "<circle")
	assertSVG(t, StripSVG(nil, nil, nil, "x", 0), "no data")

	table := [][]int{{10, 2}, {3, 9}}
	assertSVG(t, MosaicSVG(table, []string{"r0", "r1"}, []string{"c0", "c1"}, "mosaic"), "mosaic", "<rect")
	assertSVG(t, MosaicSVG(nil, nil, nil, "m"), "no data")
}

func TestCorrelogramSVG(t *testing.T) {
	names := []string{"alpha", "beta", "gamma"}
	m := [][]float64{{1, 0.8, -0.5}, {0.8, 1, math.NaN()}, {-0.5, math.NaN(), 1}}
	svg := CorrelogramSVG(names, m, "Figure 2")
	assertSVG(t, svg, "Figure 2", "alpha", "positive", "negative")
	// Both sign colors present (0.8 positive, -0.5 negative).
	if !strings.Contains(svg, colorPositive) || !strings.Contains(svg, colorNegative) {
		t.Error("sign colors missing")
	}
}

func testInsightFrame() (*frame.Frame, map[string]core.Insight) {
	n := 300
	rng := rand.New(rand.NewSource(9))
	xs := make([]float64, n)
	ys := make([]float64, n)
	grp := make([]string, n)
	cat2 := make([]string, n)
	for i := 0; i < n; i++ {
		xs[i] = rng.NormFloat64()
		ys[i] = xs[i] + rng.NormFloat64()*0.2
		grp[i] = []string{"a", "b", "c"}[i%3]
		cat2[i] = []string{"p", "q"}[i%2]
	}
	f := frame.MustNew("vt",
		frame.NewNumericColumn("x", xs),
		frame.NewNumericColumn("y", ys),
		frame.NewCategoricalColumn("g", grp),
		frame.NewCategoricalColumn("h", cat2),
	)
	mk := func(vis core.VisKind, attrs ...string) core.Insight {
		return core.Insight{Class: "c", Metric: "m", Attrs: attrs, Score: 0.5, Vis: vis}
	}
	ins := map[string]core.Insight{
		"hist":    mk(core.VisHistogram, "x"),
		"box":     mk(core.VisBoxPlot, "x"),
		"pareto":  mk(core.VisPareto, "g"),
		"bar":     mk(core.VisBar, "g"),
		"scatter": mk(core.VisScatterFit, "x", "y"),
		"plain":   mk(core.VisScatter, "x", "y"),
		"strip":   mk(core.VisStrip, "x", "g"),
		"mosaic":  mk(core.VisMosaic, "g", "h"),
		"color":   mk(core.VisColorScatter, "x", "y", "g"),
	}
	return f, ins
}

func TestRenderSVGAllKinds(t *testing.T) {
	f, ins := testInsightFrame()
	for name, in := range ins {
		svg, err := RenderSVG(f, in)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		assertSVG(t, svg)
	}
	// Unknown kind.
	if _, err := RenderSVG(f, core.Insight{Vis: "nope", Attrs: []string{"x"}}); err == nil {
		t.Error("unknown vis kind should error")
	}
	// Wrong column kind.
	if _, err := RenderSVG(f, core.Insight{Vis: core.VisHistogram, Attrs: []string{"g"}}); err == nil {
		t.Error("histogram of categorical should error")
	}
	if _, err := RenderSVG(f, core.Insight{Vis: core.VisScatter, Attrs: []string{"x", "g"}}); err == nil {
		t.Error("scatter with categorical should error")
	}
	if _, err := RenderSVG(f, core.Insight{Vis: core.VisColorScatter, Attrs: []string{"x", "y", "y"}}); err == nil {
		t.Error("color scatter with numeric z should error")
	}
}

func TestRenderASCIIAllKinds(t *testing.T) {
	f, ins := testInsightFrame()
	for name, in := range ins {
		out, err := RenderASCII(f, in)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !strings.Contains(out, "c(") {
			t.Errorf("%s: header missing: %q", name, out)
		}
	}
	if _, err := RenderASCII(f, core.Insight{Vis: core.VisHistogram, Attrs: []string{"g"}}); err == nil {
		t.Error("wrong kind should error")
	}
}

func TestASCIIPrimitives(t *testing.T) {
	vals := randVals(500, 10)
	hist := ASCIIHistogram(vals, 10)
	if strings.Count(hist, "\n") != 10 {
		t.Errorf("histogram rows = %d", strings.Count(hist, "\n"))
	}
	if ASCIIHistogram(nil, 5) != "(no data)\n" {
		t.Error("empty histogram text wrong")
	}
	vals[0] = 30
	box := ASCIIBoxPlot(vals)
	if !strings.Contains(box, "█") || !strings.Contains(box, "*") {
		t.Errorf("box plot missing parts: %q", box)
	}
	if ASCIIBoxPlot(nil) != "(no data)\n" {
		t.Error("empty box text wrong")
	}
	sc := ASCIIScatter(vals, vals, 10, 30)
	if !strings.Contains(sc, "x: [") {
		t.Error("scatter footer missing")
	}
	if ASCIIScatter(nil, nil, 5, 5) != "(no data)\n" {
		t.Error("empty scatter text wrong")
	}
	par := ASCIIPareto([]string{"aa", "bb"}, []int{9, 1}, 5)
	if !strings.Contains(par, "90.0%") {
		t.Errorf("pareto shares wrong: %q", par)
	}
	if ASCIIPareto(nil, nil, 3) != "(no data)\n" {
		t.Error("empty pareto text wrong")
	}
	cg := ASCIICorrelogram([]string{"a", "b"}, [][]float64{{1, -0.9}, {-0.9, 1}})
	if !strings.Contains(cg, "━━") || !strings.Contains(cg, "legend") {
		t.Errorf("correlogram wrong: %q", cg)
	}
}

func TestFmtNumAndHelpers(t *testing.T) {
	cases := map[float64]string{
		math.NaN(): "–",
		0:          "0",
		1234567:    "1.23e+06",
		150:        "150",
		3.14159:    "3.14",
		0.00123:    "0.00123",
	}
	for in, want := range cases {
		if got := fmtNum(in); got != want {
			t.Errorf("fmtNum(%v) = %q, want %q", in, got, want)
		}
	}
	if truncate("hello", 10) != "hello" {
		t.Error("truncate short wrong")
	}
	if got := truncate("verylongname", 6); len(got) > 9 { // 5 bytes + ellipsis rune
		t.Errorf("truncate long = %q", got)
	}
	if clamp(5, 0, 3) != 3 || clamp(-1, 0, 3) != 0 || clamp(2, 0, 3) != 2 {
		t.Error("clamp wrong")
	}
	if j := jitter(42); j < -0.5 || j >= 0.5 {
		t.Errorf("jitter out of range: %v", j)
	}
}

func TestSVGEscaping(t *testing.T) {
	s := newSVG(100, 100)
	s.text(1, 1, 10, "start", `<b>&"x"`)
	out := s.String()
	if strings.Contains(out, "<b>") {
		t.Error("text not escaped")
	}
	if !strings.Contains(out, "&lt;b&gt;") {
		t.Error("escape output missing")
	}
}

func TestReportHTML(t *testing.T) {
	sections := []ReportSection{
		{
			Title:       "linear — ranked by pearson",
			Caption:     "top pairs",
			PanelSVGs:   []string{HistogramSVG(randVals(100, 1), "panel1")},
			PanelLabels: []string{"a, b · pearson = 0.9"},
		},
		{
			Title:     "no-label section",
			PanelSVGs: []string{HistogramSVG(randVals(100, 2), "panel2")},
		},
	}
	html := ReportHTML("My Report", "test: 100 rows", sections)
	for _, want := range []string{
		"<!DOCTYPE html>", "My Report", "test: 100 rows",
		"linear — ranked by pearson", "top pairs", "panel1",
		"a, b · pearson = 0.9", "2 sections", "</html>",
	} {
		if !strings.Contains(html, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// Titles are escaped.
	xss := ReportHTML("<script>", "", nil)
	if strings.Contains(xss, "<script>") {
		t.Error("title not escaped")
	}
	if !strings.Contains(xss, "&lt;script&gt;") {
		t.Error("escaped title missing")
	}
}

func TestHistogramDensitySVG(t *testing.T) {
	rng := rand.New(rand.NewSource(90))
	bimodal := make([]float64, 3000)
	for i := range bimodal {
		if i%2 == 0 {
			bimodal[i] = rng.NormFloat64() - 4
		} else {
			bimodal[i] = rng.NormFloat64() + 4
		}
	}
	svg := HistogramDensitySVG(bimodal, "density")
	assertSVG(t, svg, "density", "<rect", "2 modes")
	if !strings.Contains(svg, colorAccent) {
		t.Error("KDE curve missing")
	}
	assertSVG(t, HistogramDensitySVG(nil, "e"), "no data")
}

func TestRenderHistogramDensityKind(t *testing.T) {
	f, _ := testInsightFrame()
	in := core.Insight{Class: "multimodality", Metric: "dip", Attrs: []string{"x"},
		Score: 0.1, Vis: core.VisHistogramDensity}
	svg, err := RenderSVG(f, in)
	if err != nil {
		t.Fatal(err)
	}
	assertSVG(t, svg, "modes")
	txt, err := RenderASCII(f, in)
	if err != nil || !strings.Contains(txt, "multimodality(") {
		t.Errorf("ASCII density render: %v", err)
	}
}

// TestRenderErrorPaths gives every kind's renderers tuples of every
// wrong length and a kind mismatch at each position. Each must error,
// never panic. An unknown kind errors on the SVG renderers and draws
// its title alone in ASCII.
func TestRenderErrorPaths(t *testing.T) {
	f, _ := testInsightFrame()
	p := sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 1})
	renderers := map[string]func(core.Insight) (string, error){
		"svg":         func(in core.Insight) (string, error) { return RenderSVG(f, in) },
		"svg-profile": func(in core.Insight) (string, error) { return RenderSVGFromProfile(p, in) },
		"ascii":       func(in core.Insight) (string, error) { return RenderASCII(f, in) },
	}
	mustErr := func(name string, render func(core.Insight) (string, error), in core.Insight) {
		t.Helper()
		defer func() {
			if r := recover(); r != nil {
				t.Errorf("%s %s %v: panic: %v", name, in.Vis, in.Attrs, r)
			}
		}()
		if _, err := render(in); err == nil {
			t.Errorf("%s %s %v: no error", name, in.Vis, in.Attrs)
		}
	}
	attr := map[byte]string{'n': "x", 'c': "g"}
	other := map[byte]string{'n': "g", 'c': "x"}
	for vis, kinds := range tupleKinds {
		valid := make([]string, len(kinds))
		for i := range kinds {
			valid[i] = attr[kinds[i]]
		}
		for name, render := range renderers {
			if _, err := render(core.Insight{Vis: vis, Attrs: valid}); err != nil {
				t.Errorf("%s %s %v: %v", name, vis, valid, err)
			}
			for n := 0; n <= len(kinds)+1; n++ {
				if n == len(kinds) {
					continue
				}
				attrs := make([]string, n)
				for i := range attrs {
					attrs[i] = "x"
					if i < len(kinds) {
						attrs[i] = attr[kinds[i]]
					}
				}
				mustErr(name, render, core.Insight{Vis: vis, Attrs: attrs})
			}
			for i := range kinds {
				attrs := append([]string(nil), valid...)
				attrs[i] = other[kinds[i]]
				mustErr(name, render, core.Insight{Vis: vis, Attrs: attrs})
			}
		}
	}
	for _, name := range []string{"svg", "svg-profile"} {
		mustErr(name, renderers[name], core.Insight{Vis: "nope", Attrs: []string{"x"}})
	}
	unknown := core.Insight{Class: "c", Metric: "m", Vis: "nope"}
	if out, err := RenderASCII(f, unknown); err != nil || out != insightTitle(unknown)+"\n" {
		t.Errorf("unknown kind in ASCII: %q, %v", out, err)
	}
}
