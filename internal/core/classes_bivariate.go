package core

import (
	"fmt"
	"math"

	"foresight/internal/frame"
	"foresight/internal/sketch"
	"foresight/internal/stats"
)

// numericPairs returns all (x, y) tuples with x before y in column
// order (i < j, as the paper defines the linear-relationship class).
func numericPairs(f *frame.Frame) [][]string {
	numeric := f.NumericColumns()
	var out [][]string
	for i := 0; i < len(numeric); i++ {
		for j := i + 1; j < len(numeric); j++ {
			out = append(out, []string{numeric[i].Name(), numeric[j].Name()})
		}
	}
	return out
}

// linearClass is insight class #6: strength of a linear relationship
// between two numeric columns, ranked by |ρ| (alternative: R²);
// scatter plot with best-fit line.
type linearClass struct{}

// NewLinearClass returns the linear-relationship insight class.
func NewLinearClass() Class { return &linearClass{} }

func (c *linearClass) Name() string { return "linear" }
func (c *linearClass) Description() string {
	return "Strong linear relationship between two attributes"
}
func (c *linearClass) Arity() int        { return 2 }
func (c *linearClass) Metrics() []string { return []string{"pearson", "r2"} }
func (c *linearClass) VisKind() VisKind  { return VisScatterFit }

func (c *linearClass) Candidates(f *frame.Frame) [][]string { return numericPairs(f) }

func (c *linearClass) Score(f *frame.Frame, attrs []string, metric string) (Insight, error) {
	var out [1]Insight
	err := c.ScoreRun(f, [][]string{attrs}, metric, out[:])
	return out[0], err
}

// ScoreRun is Score for every pair of a run that shares attrs[0]: one
// scan of that column serves up to stats.RunWidth partners
// (stats.PearsonFits, the same bits as a pair at a time).
func (c *linearClass) ScoreRun(f *frame.Frame, run [][]string, metric string, out []Insight) error {
	var x []float64
	var partners [stats.RunWidth][]float64
	ys := partners[:0]
	for k, attrs := range run {
		if err := checkArity("linear", attrs, 2); err != nil {
			return err
		}
		if k == 0 {
			var err error
			if metric, err = validateMetric(c, metric); err != nil {
				return err
			}
			col, err := f.Numeric(attrs[0])
			if err != nil {
				return err
			}
			x = col.Values()
		} else if err := checkRun("linear", run[0], attrs); err != nil {
			return err
		}
		y, err := f.Numeric(attrs[1])
		if err != nil {
			return err
		}
		ys = append(ys, y.Values())
	}
	var rhoBuf [stats.RunWidth]float64
	var fitBuf [stats.RunWidth]stats.LinearFit
	rho, fits := rhoBuf[:], fitBuf[:]
	if len(run) > stats.RunWidth {
		rho, fits = make([]float64, len(run)), make([]stats.LinearFit, len(run))
	}
	stats.PearsonFits(x, ys, rho, fits)
	for k, attrs := range run {
		in := Insight{
			Class:  "linear",
			Metric: metric,
			Attrs:  attrs,
			Vis:    VisScatterFit,
			Details: map[string]float64{
				"rho":       rho[k],
				"slope":     fits[k].Slope,
				"intercept": fits[k].Intercept,
				"r2":        fits[k].R2,
			},
		}
		switch metric {
		case "pearson":
			in.Raw = rho[k]
			in.Score = math.Abs(rho[k])
		case "r2":
			in.Raw = fits[k].R2
			in.Score = fits[k].R2
		}
		out[k] = in
	}
	return nil
}

// checkRun reports a candidate that does not share the first attribute
// of its run's first candidate.
func checkRun(class string, first, attrs []string) error {
	if attrs[0] != first[0] {
		return fmt.Errorf("core: class %q scores a run over one first attribute, got %v after %v", class, attrs, first)
	}
	return nil
}

func (c *linearClass) ScoreApprox(p *sketch.DatasetProfile, attrs []string, metric string) (Insight, error) {
	if err := checkArity("linear", attrs, 2); err != nil {
		return Insight{}, err
	}
	metric, err := validateMetric(c, metric)
	if err != nil {
		return Insight{}, err
	}
	rho, err := p.EstimatePearson(attrs[0], attrs[1])
	if err != nil {
		return Insight{}, err
	}
	in := Insight{
		Class:   "linear",
		Metric:  metric,
		Attrs:   attrs,
		Approx:  true,
		Vis:     VisScatterFit,
		Details: map[string]float64{"rho": rho},
	}
	switch metric {
	case "pearson":
		in.Raw = rho
		in.Score = math.Abs(rho)
	case "r2":
		in.Raw = rho * rho
		in.Score = rho * rho
	}
	return in, nil
}

// monotonicClass covers the paper's "nonlinear monotonic
// relationships" additional insight: ranked by |Spearman ρ|
// (alternative: Kendall τ-b); scatter plot.
type monotonicClass struct{}

// NewMonotonicClass returns the monotonic-relationship insight class.
func NewMonotonicClass() Class { return &monotonicClass{} }

func (c *monotonicClass) Name() string { return "monotonic" }
func (c *monotonicClass) Description() string {
	return "Monotonic (possibly nonlinear) relationship between two attributes"
}
func (c *monotonicClass) Arity() int        { return 2 }
func (c *monotonicClass) Metrics() []string { return []string{"spearman", "kendall"} }
func (c *monotonicClass) VisKind() VisKind  { return VisScatter }

func (c *monotonicClass) Candidates(f *frame.Frame) [][]string { return numericPairs(f) }

func (c *monotonicClass) Score(f *frame.Frame, attrs []string, metric string) (Insight, error) {
	in, _, err := c.ScoreCertified(f, attrs, metric)
	return in, err
}

// ScoreCertified is the pair's |ρ| or |τ-b|, and for a defined Spearman ρ
// the certificate: the frame's rows and the kernel's rank sums.
func (c *monotonicClass) ScoreCertified(f *frame.Frame, attrs []string, metric string) (Insight, Certificate, error) {
	if err := checkArity("monotonic", attrs, 2); err != nil {
		return Insight{}, nil, err
	}
	metric, err := validateMetric(c, metric)
	if err != nil {
		return Insight{}, nil, err
	}
	x, err := f.Numeric(attrs[0])
	if err != nil {
		return Insight{}, nil, err
	}
	y, err := f.Numeric(attrs[1])
	if err != nil {
		return Insight{}, nil, err
	}
	var raw float64
	var cert Certificate
	switch metric {
	case "spearman":
		s := stats.SpearmanSums(x.Ordered(), y.Ordered())
		if raw = s.Rho(); raw == raw {
			cert = Certificate{float64(f.Rows()), float64(s.M), s.XX, s.YY, s.XY}
		}
	case "kendall":
		raw = stats.KendallTauB(x.Values(), y.Values())
	}
	return Insight{
		Class:   "monotonic",
		Metric:  metric,
		Attrs:   attrs,
		Score:   math.Abs(raw),
		Raw:     raw,
		Vis:     VisScatter,
		Details: map[string]float64{"rho": raw},
	}, cert, nil
}

func (c *monotonicClass) ScoreApprox(p *sketch.DatasetProfile, attrs []string, metric string) (Insight, error) {
	if err := checkArity("monotonic", attrs, 2); err != nil {
		return Insight{}, err
	}
	metric, err := validateMetric(c, metric)
	if err != nil {
		return Insight{}, err
	}
	var raw float64
	switch metric {
	case "spearman":
		// Prefer the rank-projection sketch; fall back to the shared
		// row sample when rank projections were not built.
		if est, err := p.EstimateSpearman(attrs[0], attrs[1]); err == nil {
			raw = est
		} else {
			px, err := p.NumericProfileOf(attrs[0])
			if err != nil {
				return Insight{}, err
			}
			py, err := p.NumericProfileOf(attrs[1])
			if err != nil {
				return Insight{}, err
			}
			raw = stats.SpearmanOrdered(px.RowSampleOrdered(), py.RowSampleOrdered())
		}
	case "kendall":
		px, err := p.NumericProfileOf(attrs[0])
		if err != nil {
			return Insight{}, err
		}
		py, err := p.NumericProfileOf(attrs[1])
		if err != nil {
			return Insight{}, err
		}
		raw = stats.KendallTauB(px.RowSampleValues, py.RowSampleValues)
	}
	return Insight{
		Class:   "monotonic",
		Metric:  metric,
		Attrs:   attrs,
		Score:   math.Abs(raw),
		Raw:     raw,
		Approx:  true,
		Vis:     VisScatter,
		Details: map[string]float64{"rho": raw},
	}, nil
}

// dependenceClass covers "general statistical dependencies" between a
// numeric and a categorical attribute, ranked by the correlation ratio
// η² (share of numeric variance explained by the grouping); strip-plot
// visualization. Attrs order: [numeric, categorical].
type dependenceClass struct {
	maxCardinality int
}

// NewDependenceClass returns the numeric×categorical dependence class.
// Categorical candidates are limited to maxCardinality groups
// (64 when ≤ 0) to keep group statistics meaningful.
func NewDependenceClass(maxCardinality int) Class {
	if maxCardinality <= 0 {
		maxCardinality = 64
	}
	return &dependenceClass{maxCardinality: maxCardinality}
}

func (c *dependenceClass) Name() string { return "dependence" }
func (c *dependenceClass) Description() string {
	return "Numeric attribute depends on a categorical attribute"
}
func (c *dependenceClass) Arity() int        { return 2 }
func (c *dependenceClass) Metrics() []string { return []string{"eta2"} }
func (c *dependenceClass) VisKind() VisKind  { return VisStrip }

func (c *dependenceClass) Candidates(f *frame.Frame) [][]string {
	var out [][]string
	for _, nc := range f.NumericColumns() {
		for _, cc := range f.CategoricalColumns() {
			card := cc.Cardinality()
			if card < 2 || card > c.maxCardinality || identifierLike(cc) {
				continue
			}
			out = append(out, []string{nc.Name(), cc.Name()})
		}
	}
	return out
}

func (c *dependenceClass) Score(f *frame.Frame, attrs []string, metric string) (Insight, error) {
	var out [1]Insight
	err := c.ScoreRun(f, [][]string{attrs}, metric, out[:])
	return out[0], err
}

// ScoreRun is Score for every pair of a run that shares its numeric
// attrs[0]: one scan of that column serves up to stats.RunWidth
// categoricals (stats.CorrelationRatios, the same bits as a pair at a
// time).
func (c *dependenceClass) ScoreRun(f *frame.Frame, run [][]string, metric string, out []Insight) error {
	var values []float64
	var codeBuf [stats.RunWidth][]int32
	var groupBuf [stats.RunWidth]int
	codes, groups := codeBuf[:0], groupBuf[:0]
	for k, attrs := range run {
		if err := checkArity("dependence", attrs, 2); err != nil {
			return err
		}
		if k == 0 {
			var err error
			if metric, err = validateMetric(c, metric); err != nil {
				return err
			}
			num, err := f.Numeric(attrs[0])
			if err != nil {
				return err
			}
			values = num.Values()
		} else if err := checkRun("dependence", run[0], attrs); err != nil {
			return err
		}
		cat, err := f.Categorical(attrs[1])
		if err != nil {
			return err
		}
		codes, groups = append(codes, cat.Codes()), append(groups, cat.Cardinality())
	}
	var etaBuf [stats.RunWidth]float64
	eta2 := etaBuf[:]
	if len(run) > stats.RunWidth {
		eta2 = make([]float64, len(run))
	}
	stats.CorrelationRatios(values, codes, groups, eta2)
	for k, attrs := range run {
		out[k] = Insight{
			Class:  "dependence",
			Metric: metric,
			Attrs:  attrs,
			Score:  eta2[k],
			Raw:    eta2[k],
			Vis:    VisStrip,
			Details: map[string]float64{
				"groups": float64(groups[k]),
			},
		}
	}
	return nil
}

func (c *dependenceClass) ScoreApprox(p *sketch.DatasetProfile, attrs []string, metric string) (Insight, error) {
	if err := checkArity("dependence", attrs, 2); err != nil {
		return Insight{}, err
	}
	metric, err := validateMetric(c, metric)
	if err != nil {
		return Insight{}, err
	}
	np, err := p.NumericProfileOf(attrs[0])
	if err != nil {
		return Insight{}, err
	}
	cp, err := p.CategoricalProfileOf(attrs[1])
	if err != nil {
		return Insight{}, err
	}
	eta2 := stats.CorrelationRatio(cp.RowSampleCodes, np.RowSampleValues, cp.Cardinality)
	return Insight{
		Class:  "dependence",
		Metric: metric,
		Attrs:  attrs,
		Score:  eta2,
		Raw:    eta2,
		Approx: true,
		Vis:    VisStrip,
		Details: map[string]float64{
			"groups": float64(cp.Cardinality),
		},
	}, nil
}

// catAssocClass measures association between two categorical
// attributes, ranked by Cramér's V (alternative: mutual information);
// mosaic/heatmap visualization.
type catAssocClass struct {
	maxCardinality int
}

// NewCategoricalAssociationClass returns the categorical-association
// class; candidate columns are limited to maxCardinality levels
// (64 when ≤ 0).
func NewCategoricalAssociationClass(maxCardinality int) Class {
	if maxCardinality <= 0 {
		maxCardinality = 64
	}
	return &catAssocClass{maxCardinality: maxCardinality}
}

func (c *catAssocClass) Name() string { return "catassoc" }
func (c *catAssocClass) Description() string {
	return "Association between two categorical attributes"
}
func (c *catAssocClass) Arity() int        { return 2 }
func (c *catAssocClass) Metrics() []string { return []string{"cramersv", "mutualinfo"} }
func (c *catAssocClass) VisKind() VisKind  { return VisMosaic }

func (c *catAssocClass) Candidates(f *frame.Frame) [][]string {
	cats := f.CategoricalColumns()
	var eligible []*frame.CategoricalColumn
	for _, cc := range cats {
		if card := cc.Cardinality(); card >= 2 && card <= c.maxCardinality && !identifierLike(cc) {
			eligible = append(eligible, cc)
		}
	}
	var out [][]string
	for i := 0; i < len(eligible); i++ {
		for j := i + 1; j < len(eligible); j++ {
			out = append(out, []string{eligible[i].Name(), eligible[j].Name()})
		}
	}
	return out
}

func (c *catAssocClass) Score(f *frame.Frame, attrs []string, metric string) (Insight, error) {
	if err := checkArity("catassoc", attrs, 2); err != nil {
		return Insight{}, err
	}
	metric, err := validateMetric(c, metric)
	if err != nil {
		return Insight{}, err
	}
	a, err := f.Categorical(attrs[0])
	if err != nil {
		return Insight{}, err
	}
	b, err := f.Categorical(attrs[1])
	if err != nil {
		return Insight{}, err
	}
	ct := stats.NewContingency(a.Codes(), b.Codes(), a.Cardinality(), b.Cardinality())
	var raw float64
	switch metric {
	case "cramersv":
		raw = ct.CramersV()
	case "mutualinfo":
		raw = ct.MutualInformation()
	}
	return Insight{
		Class:  "catassoc",
		Metric: metric,
		Attrs:  attrs,
		Score:  raw,
		Raw:    raw,
		Vis:    VisMosaic,
		Details: map[string]float64{
			"chi2": ct.ChiSquare(),
		},
	}, nil
}

func (c *catAssocClass) ScoreApprox(p *sketch.DatasetProfile, attrs []string, metric string) (Insight, error) {
	if err := checkArity("catassoc", attrs, 2); err != nil {
		return Insight{}, err
	}
	metric, err := validateMetric(c, metric)
	if err != nil {
		return Insight{}, err
	}
	a, err := p.CategoricalProfileOf(attrs[0])
	if err != nil {
		return Insight{}, err
	}
	b, err := p.CategoricalProfileOf(attrs[1])
	if err != nil {
		return Insight{}, err
	}
	ct := stats.NewContingency(a.RowSampleCodes, b.RowSampleCodes, a.Cardinality, b.Cardinality)
	var raw float64
	switch metric {
	case "cramersv":
		raw = ct.CramersV()
	case "mutualinfo":
		raw = ct.MutualInformation()
	}
	return Insight{
		Class:  "catassoc",
		Metric: metric,
		Attrs:  attrs,
		Score:  raw,
		Raw:    raw,
		Approx: true,
		Vis:    VisMosaic,
	}, nil
}

// segmentationClass covers the paper's "strong clustering of
// (x,y)-values according to z-values" example: a categorical attribute
// that cleanly segments a 2-D numeric scatter, ranked by the mean
// silhouette of the category-induced grouping. Attrs order:
// [numericX, numericY, categorical].
type segmentationClass struct {
	maxCardinality int
	// sampleCap bounds the O(n²) silhouette computation.
	sampleCap int
}

// NewSegmentationClass returns the segmentation insight class;
// categorical candidates are limited to maxCardinality groups (12 when
// ≤ 0). A silhouette costs a square root per pair of scored points, so
// of n > sampleCap rows (512 when ≤ 0) scoring reads every
// ⌊n/sampleCap⌋-th. The stride is floored, so the sample holds
// ⌈n/⌊n/sampleCap⌋⌉ points: at least sampleCap and up to 2·sampleCap−1
// (534 at 8 010 rows with the default cap).
func NewSegmentationClass(maxCardinality, sampleCap int) Class {
	if maxCardinality <= 0 {
		maxCardinality = 12
	}
	if sampleCap <= 0 {
		sampleCap = 512
	}
	return &segmentationClass{maxCardinality: maxCardinality, sampleCap: sampleCap}
}

func (c *segmentationClass) Name() string { return "segmentation" }
func (c *segmentationClass) Description() string {
	return "A categorical attribute segments a numeric scatter into clusters"
}
func (c *segmentationClass) Arity() int        { return 3 }
func (c *segmentationClass) Metrics() []string { return []string{"silhouette"} }
func (c *segmentationClass) VisKind() VisKind  { return VisColorScatter }

func (c *segmentationClass) Candidates(f *frame.Frame) [][]string {
	var cats []*frame.CategoricalColumn
	for _, cc := range f.CategoricalColumns() {
		if card := cc.Cardinality(); card >= 2 && card <= c.maxCardinality && !identifierLike(cc) {
			cats = append(cats, cc)
		}
	}
	numeric := f.NumericColumns()
	var out [][]string
	for i := 0; i < len(numeric); i++ {
		for j := i + 1; j < len(numeric); j++ {
			for _, cc := range cats {
				out = append(out, []string{numeric[i].Name(), numeric[j].Name(), cc.Name()})
			}
		}
	}
	return out
}

// step is the stride the silhouette reads n rows at.
func (c *segmentationClass) step(n int) int {
	if n > c.sampleCap {
		return n / c.sampleCap
	}
	return 1
}

// columns looks up a triple's columns in f.
func (c *segmentationClass) columns(f *frame.Frame, attrs []string) (x, y *frame.NumericColumn, z *frame.CategoricalColumn, err error) {
	if x, err = f.Numeric(attrs[0]); err != nil {
		return nil, nil, nil, err
	}
	if y, err = f.Numeric(attrs[1]); err != nil {
		return nil, nil, nil, err
	}
	z, err = f.Categorical(attrs[2])
	return x, y, z, err
}

func (c *segmentationClass) Score(f *frame.Frame, attrs []string, metric string) (Insight, error) {
	in, _, err := c.ScoreCertified(f, attrs, metric)
	return in, err
}

// ScoreCertified is the silhouette of the grouping z's codes induce on
// the standardized (x, y) scatter, and the kernel's certificate.
func (c *segmentationClass) ScoreCertified(f *frame.Frame, attrs []string, metric string) (Insight, Certificate, error) {
	if err := checkArity("segmentation", attrs, 3); err != nil {
		return Insight{}, nil, err
	}
	metric, err := validateMetric(c, metric)
	if err != nil {
		return Insight{}, nil, err
	}
	x, y, z, err := c.columns(f, attrs)
	if err != nil {
		return Insight{}, nil, err
	}
	sil, cert := stats.CertifiedSilhouette(x.Ordered(), y.Ordered(), z.Codes(), z.Cardinality(), c.step(f.Rows()))
	score := sil
	if math.IsNaN(score) {
		return Insight{}, nil, errUndefined("segmentation", attrs)
	}
	if score < 0 {
		score = 0 // negative silhouettes mean "no segmentation"
	}
	return Insight{
		Class:  "segmentation",
		Metric: metric,
		Attrs:  attrs,
		Score:  score,
		Raw:    sil,
		Vis:    VisColorScatter,
		Details: map[string]float64{
			"groups": float64(z.Cardinality()),
		},
	}, Certificate(cert), nil
}

func (c *segmentationClass) ScoreApprox(p *sketch.DatasetProfile, attrs []string, metric string) (Insight, error) {
	if err := checkArity("segmentation", attrs, 3); err != nil {
		return Insight{}, err
	}
	metric, err := validateMetric(c, metric)
	if err != nil {
		return Insight{}, err
	}
	x, err := p.NumericProfileOf(attrs[0])
	if err != nil {
		return Insight{}, err
	}
	y, err := p.NumericProfileOf(attrs[1])
	if err != nil {
		return Insight{}, err
	}
	z, err := p.CategoricalProfileOf(attrs[2])
	if err != nil {
		return Insight{}, err
	}
	xs, ys, codes := x.RowSampleOrdered(), y.RowSampleOrdered(), z.RowSampleCodes
	sil := stats.GroupSilhouette(xs, ys, codes, z.Cardinality, c.step(min(len(xs.Values), len(ys.Values), len(codes))))
	if math.IsNaN(sil) {
		return Insight{}, errUndefined("segmentation", attrs)
	}
	score := sil
	if score < 0 {
		score = 0
	}
	return Insight{
		Class:  "segmentation",
		Metric: metric,
		Attrs:  attrs,
		Score:  score,
		Raw:    sil,
		Approx: true,
		Vis:    VisColorScatter,
		Details: map[string]float64{
			"groups": float64(z.Cardinality),
		},
	}, nil
}

func errUndefined(class string, attrs []string) error {
	return &UndefinedError{Class: class, Attrs: attrs}
}

// UndefinedError reports that an insight metric is undefined for a
// tuple (degenerate data such as constant columns).
type UndefinedError struct {
	Class string
	Attrs []string
}

func (e *UndefinedError) Error() string {
	return "core: " + e.Class + " undefined for " + joinAttrs(e.Attrs)
}

func joinAttrs(attrs []string) string {
	out := ""
	for i, a := range attrs {
		if i > 0 {
			out += ","
		}
		out += a
	}
	return out
}

// BuiltinClasses returns the twelve insight classes Foresight ships
// with, in carousel display order.
func BuiltinClasses() []Class {
	return []Class{
		NewLinearClass(),
		NewOutliersClass(nil),
		NewHeavyTailsClass(),
		NewDispersionClass(),
		NewSkewClass(),
		NewHeavyHittersClass(0),
		NewMonotonicClass(),
		NewDependenceClass(0),
		NewCategoricalAssociationClass(0),
		NewMultimodalityClass(),
		NewSegmentationClass(0, 0),
		NewUniformityClass(),
	}
}
