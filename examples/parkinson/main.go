// Parkinson exploration: clinical-style analysis of the synthetic
// PPMI-like dataset (2000 patients × 50 columns, §4.2). Shows the
// dependence, segmentation and outlier insight classes doing the kind
// of cohort analysis the paper motivates, plus a custom plug-in
// insight class (the §2.2 extensibility point).
package main

import (
	"context"
	"fmt"
	"log"
	"math"
	"strings"

	"foresight"
)

func main() {
	f := foresight.ParkinsonDataset(0, 11)
	fmt.Println("loaded:", f.Summary())
	reg := foresight.NewRegistry()

	// Plug in a custom insight class before building the engine: the
	// fraction of missing cells per column ("completeness"), something
	// a clinician checks first.
	if err := reg.Register(missingnessClass{}); err != nil {
		log.Fatal(err)
	}
	engine, err := foresight.NewEngine(f, reg, nil)
	if err != nil {
		log.Fatal(err)
	}

	// Which numeric measures does the cohort explain best?
	fmt.Println("\n1. Cohort-dependent measures (η², dependence class):")
	res, err := engine.ExecuteContext(context.Background(), foresight.Query{
		Classes: []string{"dependence"}, Fixed: []string{"Cohort"}, K: 6,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, in := range res[0].Insights {
		fmt.Printf("   %-24s eta2=%.3f\n", in.Attrs[0], in.Score)
	}

	// Does the cohort segment the motor-score plane?
	fmt.Println("\n2. Cohort segmentation of score scatters (silhouette):")
	res, err = engine.ExecuteContext(context.Background(), foresight.Query{
		Classes: []string{"segmentation"}, Fixed: []string{"Cohort"}, K: 4,
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, in := range res[0].Insights {
		fmt.Printf("   %-44s silhouette=%.3f\n", strings.Join(in.Attrs[:2], " × "), in.Score)
	}

	// Outliers in biomarkers (planted in CRP_Inflammation).
	fmt.Println("\n3. Outlier-heavy measurements (box-plot class):")
	res, err = engine.ExecuteContext(context.Background(), foresight.Query{Classes: []string{"outliers"}, K: 4})
	if err != nil {
		log.Fatal(err)
	}
	for _, in := range res[0].Insights {
		fmt.Printf("   %-24s mean outlier distance=%.1f sd (n=%d)\n",
			in.Attrs[0], in.Score, int(in.Details["count"]))
	}
	panel, err := foresight.RenderASCII(f, res[0].Insights[0])
	if err == nil {
		fmt.Println("\n" + panel)
	}

	// The custom class at work: most-missing columns first.
	fmt.Println("4. Data completeness (custom plug-in class):")
	res, err = engine.ExecuteContext(context.Background(), foresight.Query{Classes: []string{"missingness"}, K: 4})
	if err != nil {
		log.Fatal(err)
	}
	for _, in := range res[0].Insights {
		fmt.Printf("   %-24s missing=%.1f%%\n", in.Attrs[0], 100*in.Score)
	}
}

// missingnessClass ranks columns by their fraction of missing cells —
// a minimal example of the paper's "plug in new insight classes"
// extension point. It supports both exact and sketch-store scoring.
type missingnessClass struct{}

func (missingnessClass) Name() string               { return "missingness" }
func (missingnessClass) Description() string        { return "Columns with many missing values" }
func (missingnessClass) Arity() int                 { return 1 }
func (missingnessClass) Metrics() []string          { return []string{"fraction"} }
func (missingnessClass) VisKind() foresight.VisKind { return "histogram" }

func (missingnessClass) Candidates(f *foresight.Frame) [][]string {
	var out [][]string
	for _, name := range f.Names() {
		out = append(out, []string{name})
	}
	return out
}

func (missingnessClass) Score(f *foresight.Frame, attrs []string, metric string) (foresight.Insight, error) {
	if len(attrs) != 1 {
		return foresight.Insight{}, fmt.Errorf("missingness wants 1 attribute")
	}
	col, ok := f.Lookup(attrs[0])
	if !ok {
		return foresight.Insight{}, fmt.Errorf("no column %q", attrs[0])
	}
	frac := float64(col.Missing()) / math.Max(1, float64(col.Len()))
	if frac == 0 {
		frac = math.NaN() // complete columns carry no insight; drop them
	}
	return foresight.Insight{
		Class: "missingness", Metric: "fraction", Attrs: attrs,
		Score: frac, Raw: frac, Vis: "histogram",
	}, nil
}

func (missingnessClass) ScoreApprox(p *foresight.Profile, attrs []string, metric string) (foresight.Insight, error) {
	return foresight.Insight{}, fmt.Errorf("missingness: exact only")
}
