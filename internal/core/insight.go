// Package core implements Foresight's primary contribution (paper §2):
// the framework of insights, insight metrics, insight visualizations
// and insight classes.
//
// An insight is a strong manifestation of a distributional property of
// one, two, or three attributes. Each insight class defines
//
//   - the set of attribute tuples it applies to (Candidates),
//   - one or more ranking metrics (Metrics; the first is the default),
//   - an exact scorer over the raw data (Score),
//   - an approximate scorer over the preprocessed sketch store
//     (ScoreApprox, paper §3), and
//   - a preferred visualization (VisKind).
//
// The Registry holds the twelve built-in classes and accepts
// user-defined ones ("a data scientist can plug in new insight
// classes", §2.2).
package core

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"foresight/internal/frame"
	"foresight/internal/sketch"
)

// VisKind names the preferred visualization of an insight class.
type VisKind string

// Built-in visualization kinds, consumed by package viz.
const (
	VisHistogram    VisKind = "histogram"
	VisBoxPlot      VisKind = "boxplot"
	VisPareto       VisKind = "pareto"
	VisScatterFit   VisKind = "scatter-fit"
	VisScatter      VisKind = "scatter"
	VisStrip        VisKind = "strip"
	VisMosaic       VisKind = "mosaic"
	VisColorScatter VisKind = "color-scatter"
	VisBar          VisKind = "bar"
	VisCorrelogram  VisKind = "correlogram"
	// VisHistogramDensity is a histogram with a KDE curve overlay,
	// used by the multimodality class.
	VisHistogramDensity VisKind = "histogram-density"
)

// Insight is one scored instance of an insight class on a specific
// attribute tuple.
type Insight struct {
	// Class is the insight class name (e.g. "linear").
	Class string `json:"class"`
	// Metric is the ranking metric used (e.g. "pearson").
	Metric string `json:"metric"`
	// Attrs is the attribute tuple, in class-defined order.
	Attrs []string `json:"attrs"`
	// Score is the ranking strength; higher is stronger. Always ≥ 0
	// and comparable within a (class, metric) pair.
	Score float64 `json:"score"`
	// Raw is the signed/unnormalized metric value (e.g. ρ including
	// sign, skewness including direction).
	Raw float64 `json:"raw"`
	// Approx marks scores computed from sketches rather than raw data.
	Approx bool `json:"approx,omitempty"`
	// Details carries auxiliary values for display (means, fences,
	// slopes, …), keyed by short names.
	Details map[string]float64 `json:"details,omitempty"`
	// Vis is the preferred visualization for this insight.
	Vis VisKind `json:"vis"`
}

// Key returns a stable identity for the insight instance:
// class/metric/attr-tuple.
func (in Insight) Key() string {
	return in.Class + "/" + in.Metric + "/" + strings.Join(in.Attrs, ",")
}

// String renders a compact human-readable description.
func (in Insight) String() string {
	approx := ""
	if in.Approx {
		approx = "~"
	}
	return fmt.Sprintf("%s(%s) %s= %.4f [%s]",
		in.Class, strings.Join(in.Attrs, ", "), approx, in.Score, in.Metric)
}

// Class is one pluggable insight class (paper §2.2).
type Class interface {
	// Name is the unique class identifier (lowercase).
	Name() string
	// Description is a one-line human-readable summary.
	Description() string
	// Arity is the number of attributes in each tuple (1–3).
	Arity() int
	// Metrics lists the supported ranking metrics; the first is the
	// default.
	Metrics() []string
	// Candidates enumerates the attribute tuples of the class present
	// in f (the "insight class" of the paper: all compatible tuples).
	Candidates(f *frame.Frame) [][]string
	// Score computes the insight exactly from raw data. metric == ""
	// selects the default metric.
	Score(f *frame.Frame, attrs []string, metric string) (Insight, error)
	// ScoreApprox computes the insight from the preprocessed sketch
	// store. metric == "" selects the default metric.
	ScoreApprox(p *sketch.DatasetProfile, attrs []string, metric string) (Insight, error)
	// VisKind is the preferred visualization.
	VisKind() VisKind
}

// Registry maps class names to implementations. The zero value is not
// usable; call NewRegistry.
type Registry struct {
	ordered []Class
	byName  map[string]Class
}

// NewRegistry returns a registry pre-loaded with the twelve built-in
// Foresight insight classes.
func NewRegistry() *Registry {
	r := &Registry{byName: make(map[string]Class)}
	for _, c := range BuiltinClasses() {
		if err := r.Register(c); err != nil {
			panic(err) // built-ins are unique by construction
		}
	}
	return r
}

// NewEmptyRegistry returns a registry with no classes, for fully
// custom deployments.
func NewEmptyRegistry() *Registry {
	return &Registry{byName: make(map[string]Class)}
}

// Register adds a class; duplicate names, empty names, and classes
// declaring no metrics are rejected. The zero-metric check matters:
// the query engine resolves an unspecified metric to Metrics()[0], so
// a metric-less class would panic at query time instead of failing
// loudly here.
func (r *Registry) Register(c Class) error {
	name := c.Name()
	if name == "" {
		return fmt.Errorf("core: class with empty name")
	}
	if len(c.Metrics()) == 0 {
		return fmt.Errorf("core: insight class %q declares no metrics", name)
	}
	if _, dup := r.byName[name]; dup {
		return fmt.Errorf("core: duplicate insight class %q", name)
	}
	r.byName[name] = c
	r.ordered = append(r.ordered, c)
	return nil
}

// Lookup returns the named class, or false.
func (r *Registry) Lookup(name string) (Class, bool) {
	c, ok := r.byName[name]
	return c, ok
}

// Classes returns all registered classes in registration order.
func (r *Registry) Classes() []Class {
	out := make([]Class, len(r.ordered))
	copy(out, r.ordered)
	return out
}

// Names returns all class names in registration order.
func (r *Registry) Names() []string {
	names := make([]string, len(r.ordered))
	for i, c := range r.ordered {
		names[i] = c.Name()
	}
	return names
}

// ScoreAll enumerates the candidates of class c in f and scores each
// exactly with the given metric ("" = default). Tuples whose score is
// NaN (undefined) are dropped. The result is sorted by descending
// score with a deterministic tie-break on the attribute tuple.
func ScoreAll(c Class, f *frame.Frame, metric string) []Insight {
	var out []Insight
	for _, attrs := range c.Candidates(f) {
		in, err := c.Score(f, attrs, metric)
		if err != nil || math.IsNaN(in.Score) {
			continue
		}
		out = append(out, in)
	}
	SortInsights(out)
	return out
}

// SortInsights orders insights by descending score, breaking ties by
// class, metric, and attribute tuple for determinism.
func SortInsights(ins []Insight) {
	sort.Slice(ins, func(a, b int) bool { return outranks(ins[a], ins[b]) })
}

// outranks reports whether a ranks strictly ahead of b under the
// SortInsights order: descending score, ties by ascending Key().
func outranks(a, b Insight) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return keyLess(&a, &b)
}

// keyPiece returns the i-th piece of in.Key() — class, "/", metric,
// "/", then the attributes with a "," between them — and false past
// the last one.
func (in *Insight) keyPiece(i int) (string, bool) {
	switch i {
	case 0:
		return in.Class, true
	case 1, 3:
		return "/", true
	case 2:
		return in.Metric, true
	}
	switch j := i - 4; {
	case j >= 2*len(in.Attrs)-1:
		return "", false
	case j%2 == 1:
		return ",", true
	default:
		return in.Attrs[j/2], true
	}
}

// keyLess reports a.Key() < b.Key() without building either string:
// it walks the two keys piece by piece as one byte stream each. The
// fields cannot be compared one at a time instead, because a name may
// hold bytes that sort below the separators.
func keyLess(a, b *Insight) bool {
	ai, bi := 0, 0
	as, aok := a.keyPiece(0)
	bs, bok := b.keyPiece(0)
	for {
		for aok && as == "" {
			ai++
			as, aok = a.keyPiece(ai)
		}
		for bok && bs == "" {
			bi++
			bs, bok = b.keyPiece(bi)
		}
		if !aok || !bok {
			// A key that ends first is a proper prefix, hence smaller.
			return !aok && bok
		}
		n := min(len(as), len(bs))
		if as[:n] != bs[:n] {
			return as[:n] < bs[:n]
		}
		as, bs = as[n:], bs[n:]
	}
}
