package viz

import (
	"fmt"

	"foresight/internal/core"
	"foresight/internal/frame"
	"foresight/internal/sketch"
	"foresight/internal/stats"
)

// tupleKinds holds, for every visualization kind the renderers draw, one
// byte per tuple position: 'n' for a numeric column, 'c' for a
// categorical one.
var tupleKinds = map[core.VisKind]string{
	core.VisHistogram:        "n",
	core.VisHistogramDensity: "n",
	core.VisBoxPlot:          "n",
	core.VisPareto:           "c",
	core.VisBar:              "c",
	core.VisScatter:          "nn",
	core.VisScatterFit:       "nn",
	core.VisStrip:            "nc",
	core.VisMosaic:           "cc",
	core.VisColorScatter:     "nnc",
}

// column is one tuple position's data as a backend holds it: the whole
// column on the frame, the shared row sample on the profile.
type column struct {
	// values are a numeric position's rows.
	values []float64
	// sketch is a numeric position's profile (nil on the frame): the
	// histogram and the box plot read its sketches (the box's outlier
	// dots read values).
	sketch *sketch.NumericProfile
	// codes, dict and card are a categorical position's rows (-1 =
	// missing), dictionary and cardinality.
	codes []int32
	dict  []string
	card  int
	// labels and counts are its frequencies: every dictionary entry on
	// the frame, the heavy hitters on the profile.
	labels []string
	counts []int
}

// groups returns a categorical position's codes as group indexes.
func (c column) groups() []int {
	groups := make([]int, len(c.codes))
	for i, code := range c.codes {
		groups[i] = int(code)
	}
	return groups
}

// A source is one backend's lookup of a tuple position's column.
type source interface {
	column(kind byte, attr string) (column, error)
}

// resolve is the renderers' prologue: it checks in's arity against its
// kind's tuple and looks up each position once, in tuple order, in src.
func resolve(in core.Insight, src source) ([]column, error) {
	kinds, ok := tupleKinds[in.Vis]
	if !ok {
		return nil, fmt.Errorf("viz: no renderer for visualization kind %q", in.Vis)
	}
	if len(in.Attrs) != len(kinds) {
		return nil, fmt.Errorf("viz: a %s draws %d attributes, got %v", in.Vis, len(kinds), in.Attrs)
	}
	cols := make([]column, len(kinds))
	for i := range cols {
		var err error
		if cols[i], err = src.column(kinds[i], in.Attrs[i]); err != nil {
			return nil, err
		}
	}
	return cols, nil
}

// frameSource looks up a position in a frame: the whole column, and a
// categorical column's dictionary and its counts.
type frameSource struct{ f *frame.Frame }

func (s frameSource) column(kind byte, attr string) (column, error) {
	if kind == 'n' {
		col, err := s.f.Numeric(attr)
		if err != nil {
			return column{}, err
		}
		return column{values: col.Values()}, nil
	}
	col, err := s.f.Categorical(attr)
	if err != nil {
		return column{}, err
	}
	return column{codes: col.Codes(), dict: col.Dict(), card: col.Cardinality(), labels: col.Dict(), counts: col.Counts()}, nil
}

// profileSource looks up a position in a sketch store: the row sample's
// column (sketch.DatasetProfile.Sample), a numeric column's profile, and
// a categorical column's heavy hitters.
type profileSource struct{ p *sketch.DatasetProfile }

func (s profileSource) column(kind byte, attr string) (column, error) {
	if kind == 'n' {
		np, err := s.p.NumericProfileOf(attr)
		if err != nil {
			return column{}, err
		}
		sampled, _ := s.p.Sample().Numeric(attr)
		return column{values: sampled.Values(), sketch: np}, nil
	}
	cp, err := s.p.CategoricalProfileOf(attr)
	if err != nil {
		return column{}, err
	}
	hits := cp.Heavy.Top(0)
	sampled, _ := s.p.Sample().Categorical(attr)
	c := column{codes: sampled.Codes(), dict: cp.Dict, card: cp.Cardinality,
		labels: make([]string, len(hits)), counts: make([]int, len(hits))}
	for i, h := range hits {
		c.labels[i], c.counts[i] = h.Item, int(h.Count)
	}
	return c, nil
}

// RenderSVG draws the preferred visualization of an insight against
// its dataset, returning a self-contained SVG document.
func RenderSVG(f *frame.Frame, in core.Insight) (string, error) {
	cols, err := resolve(in, frameSource{f})
	if err != nil {
		return "", err
	}
	return drawSVG(in, cols), nil
}

// RenderSVGFromProfile draws an insight's visualization using *only*
// the preprocessed sketch store — no access to the raw columns. This
// is the display-side counterpart of §3: histograms reconstruct from
// KLL CDF differences, box plots from KLL quantiles plus the row
// sample's outliers, Pareto charts from SpaceSaving counters, density
// histograms, scatters and the rest from the row sample
// (sketch.DatasetProfile.Sample). Approximate renderings are titled
// with the "~" marker.
func RenderSVGFromProfile(p *sketch.DatasetProfile, in core.Insight) (string, error) {
	in.Approx = true
	cols, err := resolve(in, profileSource{p})
	if err != nil {
		return "", err
	}
	return drawSVG(in, cols), nil
}

// drawSVG draws in's kind from the columns resolve returned.
func drawSVG(in core.Insight, c []column) string {
	title := insightTitle(in)
	switch in.Vis {
	case core.VisHistogram:
		if np := c[0].sketch; np != nil {
			edges, counts := HistogramFromKLL(np.Quantiles, &np.Moments, 0)
			return histogramBarsSVG(edges, counts, title)
		}
		return HistogramSVG(c[0].values, title)
	case core.VisHistogramDensity:
		return HistogramDensitySVG(c[0].values, title)
	case core.VisBoxPlot:
		if np := c[0].sketch; np != nil {
			return boxFromSketchSVG(np, c[0].values, title)
		}
		return BoxPlotSVG(c[0].values, title)
	case core.VisPareto:
		return ParetoSVG(c[0].labels, c[0].counts, title, 0)
	case core.VisBar:
		vals := make([]float64, len(c[0].counts))
		for i, n := range c[0].counts {
			vals[i] = float64(n)
		}
		return BarSVG(c[0].labels, vals, title, 0)
	case core.VisScatter:
		return ScatterSVG(c[0].values, c[1].values, nil, title, 0)
	case core.VisScatterFit:
		fit := stats.FitLine(c[0].values, c[1].values)
		return ScatterSVG(c[0].values, c[1].values, &fit, title, 0)
	case core.VisStrip:
		return StripSVG(c[0].values, c[1].groups(), c[1].dict, title, 0)
	case core.VisMosaic:
		ct := stats.NewContingency(c[0].codes, c[1].codes, c[0].card, c[1].card)
		return MosaicSVG(ct.Counts, c[0].dict, c[1].dict, title)
	case core.VisColorScatter:
		return ColorScatterSVG(c[0].values, c[1].values, c[2].groups(), title, 0)
	}
	panic(fmt.Sprintf("viz: %q has a tuple in tupleKinds but no SVG drawing", in.Vis))
}

// insightTitle builds a chart title such as
// "linear(xa, xb): pearson = 0.95".
func insightTitle(in core.Insight) string {
	attrs := ""
	for i, a := range in.Attrs {
		if i > 0 {
			attrs += ", "
		}
		attrs += a
	}
	approx := ""
	if in.Approx {
		approx = "~"
	}
	return fmt.Sprintf("%s(%s): %s %s= %s", in.Class, attrs, in.Metric, approx, fmtNum(in.Score))
}
