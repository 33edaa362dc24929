// Package foresight is the public API of the Foresight visual-insight
// recommendation engine, a from-scratch Go reproduction of
// "Foresight: Recommending Visual Insights" (Demiralp, Haas,
// Parthasarathy, Pedapati; VLDB 2017).
//
// Foresight helps an analyst explore the *space of insights* of a
// tabular dataset instead of the space of data dimensions and visual
// encodings. The typical flow:
//
//	f, _ := foresight.ReadCSVFile("data.csv", "", nil)
//	profile := foresight.BuildProfile(f, foresight.ProfileConfig{Seed: 1})
//	engine, _ := foresight.NewEngine(f, foresight.NewRegistry(), profile)
//	ctx := context.Background()
//	carousels, _ := engine.CarouselsContext(ctx, 5, true)          // Figure-1 view
//	overview, _ := engine.OverviewContext(ctx, "linear", "", true) // Figure-2 view
//	session := foresight.NewSession(engine, 5, true)
//	session.FocusOn(carousels[0].Insights[0])
//	updated, _ := session.RecommendationsKContext(ctx, session.K)  // §4.1 re-ranking
//
// Everything here is a thin re-export of the internal packages; see
// DESIGN.md for the module map.
package foresight

import (
	"io"

	"foresight/internal/core"
	"foresight/internal/datagen"
	"foresight/internal/frame"
	"foresight/internal/query"
	"foresight/internal/sketch"
	"foresight/internal/stats"
	"foresight/internal/viz"
)

// Data model.
type (
	// Frame is an immutable columnar table (the paper's matrix A).
	Frame = frame.Frame
	// Column is a read-only view of one attribute.
	Column = frame.Column
	// NumericColumn holds float64 cells (NaN = missing).
	NumericColumn = frame.NumericColumn
	// CategoricalColumn holds dictionary-encoded string cells.
	CategoricalColumn = frame.CategoricalColumn
	// Metadata annotates an attribute (semantic type, unit, docs).
	Metadata = frame.Metadata
	// SemanticType classifies what an attribute measures.
	SemanticType = frame.SemanticType
	// ReadCSVOptions controls CSV ingestion and type inference.
	ReadCSVOptions = frame.ReadCSVOptions
	// RowBatch is a batch of rows for live ingest (Frame.AppendRows,
	// Engine.Ingest).
	RowBatch = frame.RowBatch
)

// Insight framework (the paper's §2).
type (
	// Insight is one scored instance of an insight class.
	Insight = core.Insight
	// Class is a pluggable insight class.
	Class = core.Class
	// Registry holds the active insight classes.
	Registry = core.Registry
	// VisKind names an insight's preferred visualization.
	VisKind = core.VisKind
)

// Sketching layer (the paper's §3).
type (
	// Profile is the preprocessed sketch store for one Frame.
	Profile = sketch.DatasetProfile
	// ProfileConfig sizes the sketches built during preprocessing.
	ProfileConfig = sketch.ProfileConfig
)

// Exploration engine (the paper's §2.1 / contribution iii).
type (
	// Query is one insight query (top-k, fixed attrs, score range).
	Query = query.Query
	// Result groups the insights returned for one class.
	Result = query.Result
	// Engine executes insight queries over one dataset.
	Engine = query.Engine
	// Overview is a per-class global view (Figure 2).
	Overview = query.Overview
	// Session is an exploration session with focus insights.
	Session = query.Session
	// CacheStats is a snapshot of the engine's memoized scoring cache
	// (hits, misses, entries, generation).
	CacheStats = query.CacheStats
	// IngestResult reports one applied live-ingest batch (rows added,
	// new total, new cache generation).
	IngestResult = query.IngestResult
)

// OutlierDetector configures the outlier insight class.
type OutlierDetector = stats.OutlierDetector

// NewFrame builds a Frame from columns; see NewNumericColumn and
// NewCategoricalColumn.
func NewFrame(name string, cols ...Column) (*Frame, error) { return frame.New(name, cols...) }

// NewNumericColumn builds a numeric column (NaN = missing).
func NewNumericColumn(name string, values []float64) *NumericColumn {
	return frame.NewNumericColumn(name, values)
}

// NewCategoricalColumn builds a categorical column ("" = missing).
func NewCategoricalColumn(name string, values []string) *CategoricalColumn {
	return frame.NewCategoricalColumn(name, values)
}

// ReadCSV ingests a CSV stream with type inference.
func ReadCSV(r io.Reader, name string, opts *ReadCSVOptions) (*Frame, error) {
	return frame.ReadCSV(r, name, opts)
}

// ReadCSVFile ingests a CSV file with type inference.
func ReadCSVFile(path, name string, opts *ReadCSVOptions) (*Frame, error) {
	return frame.ReadCSVFile(path, name, opts)
}

// NewRegistry returns the twelve built-in insight classes; extend it
// with Registry.Register (the paper's plug-in point).
func NewRegistry() *Registry { return core.NewRegistry() }

// NewEmptyRegistry returns a registry with no classes, for fully
// custom class sets.
func NewEmptyRegistry() *Registry { return core.NewEmptyRegistry() }

// BuiltinClasses returns fresh instances of the twelve built-in
// insight classes, for assembling custom registries.
func BuiltinClasses() []Class { return core.BuiltinClasses() }

// NewNonlinearDependenceClass returns the optional numeric×numeric
// general-dependence class (normalized binned mutual information),
// which detects non-monotone relationships such as y = x² that both
// Pearson and Spearman miss. Register it explicitly:
//
//	reg := foresight.NewRegistry()
//	_ = reg.Register(foresight.NewNonlinearDependenceClass(0))
func NewNonlinearDependenceClass(bins int) Class {
	return core.NewNonlinearDependenceClass(bins)
}

// NewOutliersClassWithDetector returns the outlier insight class with
// a custom detection algorithm (the paper's "user-configurable
// outlier-detection algorithm"). Use it with NewEmptyRegistry or after
// removing the default class.
func NewOutliersClassWithDetector(det OutlierDetector) Class {
	return core.NewOutliersClass(det)
}

// NewHeavyHittersClassWithK returns the heterogeneous-frequency class
// with a custom k for the RelFreq(k, c) metric.
func NewHeavyHittersClassWithK(k int) Class { return core.NewHeavyHittersClass(k) }

// NewNormalityClass returns the optional normality insight class
// (Jarque–Bera-based), surfacing "this attribute is approximately
// normal" insights as the §4.1 scenario does.
func NewNormalityClass() Class { return core.NewNormalityClass() }

// BuildProfile preprocesses a Frame into the sketch store that powers
// approximate (interactive-speed) insight queries.
func BuildProfile(f *Frame, cfg ProfileConfig) *Profile { return sketch.BuildProfile(f, cfg) }

// LoadProfile reloads a sketch store saved with Profile.Save, so the
// preprocessing pass runs once per dataset rather than once per
// session.
func LoadProfile(r io.Reader) (*Profile, error) { return sketch.LoadProfile(r) }

// RenderSVGFromProfile draws an insight using only the preprocessed
// sketch store — no raw-data access.
func RenderSVGFromProfile(p *Profile, in Insight) (string, error) {
	return viz.RenderSVGFromProfile(p, in)
}

// ReportSection is one carousel of a static HTML report.
type ReportSection = viz.ReportSection

// ReportHTML assembles a self-contained HTML report from pre-rendered
// panels (the shareable, offline form of the demo UI).
func ReportHTML(title, subtitle string, sections []ReportSection) string {
	return viz.ReportHTML(title, subtitle, sections)
}

// NewEngine returns a query engine over f. profile may be nil (exact
// queries only); registry nil defaults to the built-ins.
func NewEngine(f *Frame, reg *Registry, profile *Profile) (*Engine, error) {
	return query.NewEngine(f, reg, profile)
}

// NewSession starts an exploration session with carousel length k.
func NewSession(e *Engine, k int, approx bool) *Session { return query.NewSession(e, k, approx) }

// LoadSession restores a session saved with Session.Save.
func LoadSession(r io.Reader, e *Engine) (*Session, error) { return query.LoadSession(r, e) }

// Similarity is the §2.1 insight-space distance used for
// neighborhoods.
func Similarity(a, b Insight) float64 { return query.Similarity(a, b) }

// RenderSVG draws an insight's preferred visualization as a
// self-contained SVG document.
func RenderSVG(f *Frame, in Insight) (string, error) { return viz.RenderSVG(f, in) }

// RenderASCII draws an insight as a text panel.
func RenderASCII(f *Frame, in Insight) (string, error) { return viz.RenderASCII(f, in) }

// CorrelogramSVG renders the Figure-2 overview heat map from an
// Overview of a symmetric pairwise class.
func CorrelogramSVG(ov *Overview, title string) string {
	return viz.CorrelogramSVG(ov.RowAttrs, ov.Values, title)
}

// Demo datasets (synthetic stand-ins for the paper's demo data; see
// DESIGN.md §2 for the substitution rationale).

// OECDDataset synthesizes the 35×25 OECD well-being table of §4.1
// (n ≤ 0 selects the paper's 35 rows).
func OECDDataset(n int, seed int64) *Frame { return datagen.OECD(n, seed) }

// ParkinsonDataset synthesizes the 2000×50 PPMI-style table of §4.2.
func ParkinsonDataset(n int, seed int64) *Frame { return datagen.Parkinson(n, seed) }

// IMDBDataset synthesizes the 5000×28 movie table of §4.2.
func IMDBDataset(n int, seed int64) *Frame { return datagen.IMDB(n, seed) }
