package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"

	"foresight"
	"foresight/internal/server"
)

// runReport implements `foresight report`: a self-contained HTML
// report with one carousel per insight class plus the overview
// correlogram — the shareable offline form of the demo UI.
func runReport(args []string) error {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	data := fs.String("data", "", "CSV path or demo dataset name")
	out := fs.String("out", "foresight-report.html", "output HTML path")
	k := fs.Int("k", 4, "insights per class")
	approx := fs.Bool("approx", false, "build panels from sketches only")
	seed := fs.Int64("seed", 42, "seed for demo datasets / sketches")
	_ = fs.Parse(args)
	f, err := server.LoadData(*data, *seed)
	if err != nil {
		return err
	}
	engine, err := newEngine(f, *approx, *seed, "")
	if err != nil {
		return err
	}
	carousels, err := engine.CarouselsContext(context.Background(), *k, *approx)
	if err != nil {
		return err
	}
	var sections []foresight.ReportSection
	for _, r := range carousels {
		sec := foresight.ReportSection{
			Title: fmt.Sprintf("%s — ranked by %s", r.Class, r.Metric),
		}
		for _, in := range r.Insights {
			var svg string
			var rerr error
			if *approx {
				svg, rerr = foresight.RenderSVGFromProfile(engine.Profile(), in)
			} else {
				svg, rerr = foresight.RenderSVG(f, in)
			}
			if rerr != nil {
				continue
			}
			sec.PanelSVGs = append(sec.PanelSVGs, svg)
			sec.PanelLabels = append(sec.PanelLabels,
				fmt.Sprintf("%s · %s = %.3f", strings.Join(in.Attrs, ", "), in.Metric, in.Score))
		}
		if len(sec.PanelSVGs) > 0 {
			sections = append(sections, sec)
		}
	}
	// Overview correlogram (Figure 2).
	if ov, err := engine.OverviewContext(context.Background(), "linear", "", *approx); err == nil {
		sections = append(sections, foresight.ReportSection{
			Title:     "overview — all pairwise correlations",
			Caption:   "circle size and intensity encode |rho|; blue positive, red negative",
			PanelSVGs: []string{foresight.CorrelogramSVG(ov, "pairwise correlations")},
		})
	}
	html := foresight.ReportHTML(
		"Foresight insight report",
		f.Summary(),
		sections,
	)
	if err := os.WriteFile(*out, []byte(html), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d sections)\n", *out, len(sections))
	return nil
}

// runProfile implements `foresight profile`: build and persist a
// sketch store, on every core by default as foresightd builds it.
func runProfile(args []string) error {
	fs := flag.NewFlagSet("profile", flag.ExitOnError)
	data := fs.String("data", "", "CSV path or demo dataset name")
	out := fs.String("out", "", "output profile path")
	k := fs.Int("k", 0, "hyperplane directions (0 = log²n)")
	spearman := fs.Bool("spearman", true, "build rank projections for Spearman estimates")
	workers := fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS, as foresightd; the bytes do not depend on it)")
	seed := fs.Int64("seed", 42, "seed")
	_ = fs.Parse(args)
	f, err := server.LoadData(*data, *seed)
	if err != nil {
		return err
	}
	if *out == "" {
		return fmt.Errorf("profile needs -out")
	}
	if *workers == 0 {
		*workers = -1 // the sketch layer's spelling of GOMAXPROCS
	}
	p := foresight.BuildProfile(f, foresight.ProfileConfig{K: *k, Seed: *seed, Spearman: *spearman, Workers: *workers})
	file, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer file.Close()
	if err := p.Save(file); err != nil {
		return err
	}
	info, _ := file.Stat()
	size := int64(0)
	if info != nil {
		size = info.Size()
	}
	fmt.Printf("wrote %s (%d bytes) for %s\n", *out, size, f.Summary())
	return nil
}
