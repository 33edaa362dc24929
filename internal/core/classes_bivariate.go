package core

import (
	"math"
	"strings"

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
type linearClass struct{ spec }

// NewLinearClass returns the linear-relationship insight class.
func NewLinearClass() Class {
	return &linearClass{spec{
		name:    "linear",
		desc:    "Strong linear relationship between two attributes",
		metrics: []string{"pearson", "r2"},
		vis:     VisScatterFit, kinds: "nn",
	}}
}

func (c *linearClass) Candidates(f *frame.Frame) [][]string { return numericPairs(f) }

// linearInsight fills in the insight of a correlation ρ whose fit
// explains r2 of the variance.
func linearInsight(in Insight, rho, r2 float64, details map[string]float64) Insight {
	in.Raw, in.Score, in.Details = rho, math.Abs(rho), details
	if in.Metric == "r2" {
		in.Raw, in.Score = r2, r2
	}
	return in
}

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
	for k := range run {
		in, cols, err := c.onRun(f, run, k, metric)
		if err != nil {
			return err
		}
		x, ys, out[k] = cols.num[0].Values(), append(ys, cols.num[1].Values()), in
	}
	var rhoBuf [stats.RunWidth]float64
	var fitBuf [stats.RunWidth]stats.LinearFit
	rho, fits := rhoBuf[:], fitBuf[:]
	if len(run) > stats.RunWidth {
		rho, fits = make([]float64, len(run)), make([]stats.LinearFit, len(run))
	}
	stats.PearsonFits(x, ys, rho, fits)
	for k := range run {
		out[k] = linearInsight(out[k], rho[k], fits[k].R2, map[string]float64{
			"rho":       rho[k],
			"slope":     fits[k].Slope,
			"intercept": fits[k].Intercept,
			"r2":        fits[k].R2,
		})
	}
	return nil
}

func (c *linearClass) ScoreApprox(p *sketch.DatasetProfile, attrs []string, metric string) (Insight, error) {
	in, ps, err := c.onProfile(p, attrs, metric)
	if err != nil {
		return Insight{}, err
	}
	// The hyperplane-sketch estimate (sketch.DatasetProfile.EstimatePearson).
	rho := ps.num[0].Planes.EstimateCorrelation(ps.num[1].Planes)
	return linearInsight(in, rho, rho*rho, map[string]float64{"rho": rho}), nil
}

// monotonicClass covers the paper's "nonlinear monotonic
// relationships" additional insight: ranked by |Spearman ρ|
// (alternative: Kendall τ-b); scatter plot.
type monotonicClass struct{ spec }

// NewMonotonicClass returns the monotonic-relationship insight class.
func NewMonotonicClass() Class {
	return &monotonicClass{spec{
		name:    "monotonic",
		desc:    "Monotonic (possibly nonlinear) relationship between two attributes",
		metrics: []string{"spearman", "kendall"},
		vis:     VisScatter, kinds: "nn",
	}}
}

func (c *monotonicClass) Candidates(f *frame.Frame) [][]string { return numericPairs(f) }

// rankInsight fills in the insight of a rank correlation.
func rankInsight(in Insight, rho float64) Insight {
	in.Score, in.Raw, in.Details = math.Abs(rho), rho, map[string]float64{"rho": rho}
	return in
}

func (c *monotonicClass) Score(f *frame.Frame, attrs []string, metric string) (Insight, error) {
	in, _, err := c.rank(f, attrs, metric)
	return in, err
}

// ScoreCertified is the pair's |ρ| or |τ-b|, and for a defined Spearman ρ
// the certificate: the frame's rows and the kernel's rank sums.
func (c *monotonicClass) ScoreCertified(f *frame.Frame, attrs []string, metric string) (Insight, Certificate, error) {
	in, s, err := c.rank(f, attrs, metric)
	if err != nil || in.Metric == "kendall" || in.Raw != in.Raw {
		return in, nil, err
	}
	return in, Certificate{float64(f.Rows()), float64(s.M), s.XX, s.YY, s.XY}, nil
}

// rank is the pair's insight and, for Spearman, the rank sums its ρ is
// formed from; Score leaves them, so it allocates no certificate.
func (c *monotonicClass) rank(f *frame.Frame, attrs []string, metric string) (Insight, stats.RankSums, error) {
	in, cols, err := c.onFrame(f, attrs, metric)
	if err != nil {
		return Insight{}, stats.RankSums{}, err
	}
	x, y := cols.num[0], cols.num[1]
	if in.Metric == "kendall" {
		return rankInsight(in, stats.KendallTauB(x.Values(), y.Values())), stats.RankSums{}, nil
	}
	s := stats.SpearmanSums(x.Ordered(), y.Ordered())
	return rankInsight(in, s.Rho()), s, nil
}

func (c *monotonicClass) ScoreApprox(p *sketch.DatasetProfile, attrs []string, metric string) (Insight, error) {
	in, ps, err := c.onProfile(p, attrs, metric)
	if err != nil {
		return Insight{}, err
	}
	if x, y := ps.num[0].RankPlanes, ps.num[1].RankPlanes; in.Metric == "spearman" && x != nil && y != nil {
		// The rank-projection sketch (sketch.DatasetProfile.EstimateSpearman).
		return rankInsight(in, x.EstimateCorrelation(y)), nil
	}
	// Kendall, or Spearman without rank projections: the row sample.
	return c.onSample(p, attrs, metric, c.Score)
}

// dependenceClass covers "general statistical dependencies" between a
// numeric and a categorical attribute, ranked by the correlation ratio
// η² (share of numeric variance explained by the grouping); strip-plot
// visualization. Attrs order: [numeric, categorical].
type dependenceClass struct {
	spec
	maxCardinality int
}

// NewDependenceClass returns the numeric×categorical dependence class.
// Categorical candidates are limited to maxCardinality groups
// (64 when ≤ 0) to keep group statistics meaningful.
func NewDependenceClass(maxCardinality int) Class {
	if maxCardinality <= 0 {
		maxCardinality = 64
	}
	return &dependenceClass{spec: spec{
		name:    "dependence",
		desc:    "Numeric attribute depends on a categorical attribute",
		metrics: []string{"eta2"},
		vis:     VisStrip, kinds: "nc",
	}, maxCardinality: maxCardinality}
}

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

// Score is η² of one pair by the pair kernel, the bits ScoreRun gives
// it: a run of one would fill the run kernel's block with copies of it.
func (c *dependenceClass) Score(f *frame.Frame, attrs []string, metric string) (Insight, error) {
	in, cols, err := c.onFrame(f, attrs, metric)
	if err != nil {
		return Insight{}, err
	}
	z := cols.cat[1]
	eta2 := stats.CorrelationRatio(z.Codes(), cols.num[0].Values(), z.Cardinality())
	return scored(in, eta2, map[string]float64{"groups": float64(z.Cardinality())}), nil
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
	for k := range run {
		in, cols, err := c.onRun(f, run, k, metric)
		if err != nil {
			return err
		}
		values, out[k] = cols.num[0].Values(), in
		codes, groups = append(codes, cols.cat[1].Codes()), append(groups, cols.cat[1].Cardinality())
	}
	var etaBuf [stats.RunWidth]float64
	eta2 := etaBuf[:]
	if len(run) > stats.RunWidth {
		eta2 = make([]float64, len(run))
	}
	stats.CorrelationRatios(values, codes, groups, eta2)
	for k := range run {
		out[k] = scored(out[k], eta2[k], map[string]float64{"groups": float64(groups[k])})
	}
	return nil
}

func (c *dependenceClass) ScoreApprox(p *sketch.DatasetProfile, attrs []string, metric string) (Insight, error) {
	return c.onSample(p, attrs, metric, c.Score)
}

// catAssocClass measures association between two categorical
// attributes, ranked by Cramér's V (alternative: mutual information);
// mosaic/heatmap visualization.
type catAssocClass struct {
	spec
	maxCardinality int
}

// NewCategoricalAssociationClass returns the categorical-association
// class; candidate columns are limited to maxCardinality levels
// (64 when ≤ 0).
func NewCategoricalAssociationClass(maxCardinality int) Class {
	if maxCardinality <= 0 {
		maxCardinality = 64
	}
	return &catAssocClass{spec: spec{
		name:    "catassoc",
		desc:    "Association between two categorical attributes",
		metrics: []string{"cramersv", "mutualinfo"},
		vis:     VisMosaic, kinds: "cc",
	}, maxCardinality: maxCardinality}
}

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
	in, cols, err := c.onFrame(f, attrs, metric)
	if err != nil {
		return Insight{}, err
	}
	a, b := cols.cat[0], cols.cat[1]
	ct := stats.NewContingency(a.Codes(), b.Codes(), a.Cardinality(), b.Cardinality())
	v := ct.CramersV
	if in.Metric == "mutualinfo" {
		v = ct.MutualInformation
	}
	return scored(in, v(), map[string]float64{"chi2": ct.ChiSquare()}), nil
}

func (c *catAssocClass) ScoreApprox(p *sketch.DatasetProfile, attrs []string, metric string) (Insight, error) {
	in, err := c.onSample(p, attrs, metric, c.Score)
	// χ² grows with the rows, so the sample's is no estimate of the
	// frame's; Cramér's V and mutual information do not.
	in.Details = nil
	return in, err
}

// segmentationClass covers the paper's "strong clustering of
// (x,y)-values according to z-values" example: a categorical attribute
// that cleanly segments a 2-D numeric scatter, ranked by the mean
// silhouette of the category-induced grouping. Attrs order:
// [numericX, numericY, categorical].
type segmentationClass struct {
	spec
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
	return &segmentationClass{spec: spec{
		name:    "segmentation",
		desc:    "A categorical attribute segments a numeric scatter into clusters",
		metrics: []string{"silhouette"},
		vis:     VisColorScatter, kinds: "nnc",
	}, maxCardinality: maxCardinality, sampleCap: sampleCap}
}

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

func (c *segmentationClass) Score(f *frame.Frame, attrs []string, metric string) (Insight, error) {
	in, _, err := c.ScoreCertified(f, attrs, metric)
	return in, err
}

// ScoreCertified is the silhouette of the grouping z's codes induce on
// the standardized (x, y) scatter, and the kernel's certificate. The
// score clamps a negative silhouette ("no segmentation") to 0, and an
// undefined one has no insight.
func (c *segmentationClass) ScoreCertified(f *frame.Frame, attrs []string, metric string) (Insight, Certificate, error) {
	in, cols, err := c.onFrame(f, attrs, metric)
	if err != nil {
		return Insight{}, nil, err
	}
	z := cols.cat[2]
	sil, cert := stats.CertifiedSilhouette(cols.num[0].Ordered(), cols.num[1].Ordered(), z.Codes(), z.Cardinality(), c.step(f.Rows()))
	if math.IsNaN(sil) {
		return Insight{}, nil, errUndefined(in.Class, in.Attrs)
	}
	in.Score, in.Raw, in.Details = sil, sil, map[string]float64{"groups": float64(z.Cardinality())}
	if sil < 0 {
		in.Score = 0
	}
	return in, Certificate(cert), nil
}

func (c *segmentationClass) ScoreApprox(p *sketch.DatasetProfile, attrs []string, metric string) (Insight, error) {
	return c.onSample(p, attrs, metric, c.Score)
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
	return "core: " + e.Class + " undefined for " + strings.Join(e.Attrs, ",")
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
