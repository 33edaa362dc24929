package viz

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"foresight/internal/core"
	"foresight/internal/frame"
	"foresight/internal/sketch"
)

func approxTestProfile(t *testing.T) (*frame.Frame, *sketch.DatasetProfile) {
	t.Helper()
	n := 5000
	rng := rand.New(rand.NewSource(51))
	xs := make([]float64, n)
	ys := make([]float64, n)
	grp := make([]string, n)
	hc := make([]string, n)
	for i := 0; i < n; i++ {
		xs[i] = rng.NormFloat64()
		ys[i] = 0.8*xs[i] + 0.6*rng.NormFloat64()
		grp[i] = []string{"a", "b", "c"}[i%3]
		hc[i] = fmt.Sprintf("h%d", int(math.Abs(rng.NormFloat64())*3))
	}
	xs[7] = 30 // planted outlier
	f := frame.MustNew("apt",
		frame.NewNumericColumn("x", xs),
		frame.NewNumericColumn("y", ys),
		frame.NewCategoricalColumn("g", grp),
		frame.NewCategoricalColumn("h", hc),
	)
	return f, sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 3, K: 64, RowSampleSize: 4096})
}

func TestRenderSVGFromProfileAllKinds(t *testing.T) {
	_, p := approxTestProfile(t)
	mk := func(vis core.VisKind, attrs ...string) core.Insight {
		return core.Insight{Class: "c", Metric: "m", Attrs: attrs, Score: 0.5, Vis: vis}
	}
	cases := map[string]core.Insight{
		"hist":    mk(core.VisHistogram, "x"),
		"box":     mk(core.VisBoxPlot, "x"),
		"pareto":  mk(core.VisPareto, "h"),
		"bar":     mk(core.VisBar, "g"),
		"scatter": mk(core.VisScatterFit, "x", "y"),
		"plain":   mk(core.VisScatter, "x", "y"),
		"strip":   mk(core.VisStrip, "x", "g"),
		"mosaic":  mk(core.VisMosaic, "g", "h"),
		"color":   mk(core.VisColorScatter, "x", "y", "g"),
	}
	for name, in := range cases {
		svg, err := RenderSVGFromProfile(p, in)
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if !strings.HasPrefix(svg, "<svg") || !strings.HasSuffix(svg, "</svg>") {
			t.Errorf("%s: malformed SVG", name)
		}
		// Approx marker in title.
		if !strings.Contains(svg, "~") {
			t.Errorf("%s: approx marker missing", name)
		}
	}
	// Error paths.
	if _, err := RenderSVGFromProfile(p, mk("nope", "x")); err == nil {
		t.Error("unknown kind should error")
	}
	if _, err := RenderSVGFromProfile(p, mk(core.VisHistogram, "missing")); err == nil {
		t.Error("missing column should error")
	}
	if _, err := RenderSVGFromProfile(p, mk(core.VisStrip, "x", "missing")); err == nil {
		t.Error("missing categorical should error")
	}
}

func TestHistogramFromKLLMatchesShape(t *testing.T) {
	f, p := approxTestProfile(t)
	np := p.Numeric["x"]
	edges, counts := HistogramFromKLL(np.Quantiles, &np.Moments, 20)
	if len(edges) != 21 || len(counts) != 20 {
		t.Fatalf("shape: %d edges %d counts", len(edges), len(counts))
	}
	// Total mass ≈ n.
	total := 0.0
	maxIdx := 0
	for i, c := range counts {
		total += c
		if c > counts[maxIdx] {
			maxIdx = i
		}
	}
	col, _ := f.Numeric("x")
	if math.Abs(total-float64(col.Len())) > float64(col.Len())/20 {
		t.Errorf("histogram mass %v, want ≈%d", total, col.Len())
	}
	// Mode should be near 0 for a standard normal (middle bins; the
	// planted outlier at 30 stretches the domain so the normal mass
	// concentrates in the first bins).
	modeCenter := (edges[maxIdx] + edges[maxIdx+1]) / 2
	if math.Abs(modeCenter) > 2 {
		t.Errorf("mode center = %v, want near 0", modeCenter)
	}
}

func TestHistogramFromKLLDegenerate(t *testing.T) {
	edges, counts := HistogramFromKLL(nil, &sketch.Moments{}, 0)
	if len(counts) != 1 || counts[0] != 0 {
		t.Errorf("nil sketch: %v %v", edges, counts)
	}
	// Constant column.
	s := sketch.NewKLL(64, 1)
	var m sketch.Moments
	for i := 0; i < 100; i++ {
		s.Update(5)
		m.Add(5)
	}
	edges, counts = HistogramFromKLL(s, &m, 10)
	if len(counts) != 1 || counts[0] != 100 {
		t.Errorf("constant column: %v %v", edges, counts)
	}
}

func TestBoxFromSketchShowsOutlier(t *testing.T) {
	_, p := approxTestProfile(t)
	in := core.Insight{Class: "outliers", Metric: "meandist", Attrs: []string{"x"}, Vis: core.VisBoxPlot}
	svg, err := RenderSVGFromProfile(p, in)
	if err != nil {
		t.Fatal(err)
	}
	// Sampled values past the fences are drawn as accent circles: the
	// planted outlier at 30 when the row sample (4 096 of the 5 000
	// rows) holds it, and the normal tail's few.
	if !strings.Contains(svg, colorAccent) {
		t.Error("outlier marker missing from sketch box plot")
	}
	if !strings.Contains(svg, "median") {
		t.Error("median label missing")
	}
}
