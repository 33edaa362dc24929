// Command foresight is the Foresight CLI: load a CSV (or one of the
// built-in demo datasets), print ranked insight carousels, run insight
// queries, and export insight visualizations as SVG.
//
// Usage:
//
//	foresight info      -data file.csv
//	foresight carousels -data file.csv [-k 5] [-approx]
//	foresight query     -data file.csv -class linear [-metric spearman]
//	                    [-fix attr1,attr2] [-min 0.5] [-max 0.8] [-k 10] [-approx]
//	foresight overview  -data file.csv [-class linear] [-svg out.svg]
//	foresight render    -data file.csv -class linear -attrs x,y -svg out.svg
//	foresight selfcheck -data file.csv [-profile store.bin] [-tol 0.07]
//	foresight serve     -data file.csv [-addr :8600] [-workers 0]   (foresightd's flags)
//	foresight top       [-addr http://localhost:8600] [-interval 2s] [-once]
//	foresight demo      -name oecd|parkinson|imdb -out file.csv
//
// -data accepts a CSV path or the names oecd, parkinson, imdb for the
// built-in synthetic demo datasets.
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

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "info":
		err = runInfo(args)
	case "carousels":
		err = runCarousels(args)
	case "query":
		err = runQuery(args)
	case "overview":
		err = runOverview(args)
	case "render":
		err = runRender(args)
	case "demo":
		err = runDemo(args)
	case "serve":
		err = runServe(args)
	case "top":
		err = runTop(args)
	case "report":
		err = runReport(args)
	case "profile":
		err = runProfile(args)
	case "selfcheck":
		err = runSelfcheck(args)
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "foresight: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "foresight:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: foresight <command> [flags]

commands:
  info       dataset shape and per-column summary
  carousels  top-k insights per class (the Figure-1 view)
  query      one insight query (class, metric, fixed attrs, score range)
  overview   per-class global view (the Figure-2 heat map)
  render     one insight visualization as SVG
  report     self-contained HTML report (carousels + overview)
  profile    build and persist a sketch store (on every core)
  selfcheck  verify sketch invariants against a dataset (-profile checks a saved store)
  serve      start the demo web server (foresightd itself: same flags, same loop)
  top        live insight-telemetry dashboard for a running server
  demo       write a synthetic demo dataset as CSV

run 'foresight <command> -h' for per-command flags`)
}

// newEngine builds the engine. With sketches set it carries a sketch
// store, loaded from profilePath (if given) or built fresh: approximate
// queries answer from it, and exact top-k queries take their score
// bounds from it while still scoring from raw data.
func newEngine(f *foresight.Frame, sketches bool, seed int64, profilePath string) (*foresight.Engine, error) {
	var profile *foresight.Profile
	if sketches || profilePath != "" {
		var err error
		if profile, err = server.Preprocess(f, profilePath, seed, 1); err != nil {
			return nil, err
		}
	}
	return foresight.NewEngine(f, foresight.NewRegistry(), profile)
}

func runInfo(args []string) error {
	fs := flag.NewFlagSet("info", flag.ExitOnError)
	data := fs.String("data", "", "CSV path or demo dataset name")
	seed := fs.Int64("seed", 42, "seed for demo datasets")
	_ = fs.Parse(args)
	f, err := server.LoadData(*data, *seed)
	if err != nil {
		return err
	}
	fmt.Println(f.Summary())
	for _, name := range f.Names() {
		col, _ := f.Lookup(name)
		meta := f.Meta(name)
		extra := ""
		if meta.Unit != "" {
			extra = " [" + meta.Unit + "]"
		}
		fmt.Printf("  %-28s %-12s missing=%d%s\n", name, col.Kind(), col.Missing(), extra)
	}
	return nil
}

func runCarousels(args []string) error {
	fs := flag.NewFlagSet("carousels", flag.ExitOnError)
	data := fs.String("data", "", "CSV path or demo dataset name")
	k := fs.Int("k", 5, "insights per class")
	approx := fs.Bool("approx", false, "answer from sketches")
	workers := fs.Int("workers", 1, "parallel scoring workers (0 = GOMAXPROCS)")
	seed := fs.Int64("seed", 42, "seed for demo datasets / sketches")
	_ = fs.Parse(args)
	f, err := server.LoadData(*data, *seed)
	if err != nil {
		return err
	}
	engine, err := newEngine(f, true, *seed, "")
	if err != nil {
		return err
	}
	engine.SetWorkers(*workers)
	carousels, err := engine.CarouselsContext(context.Background(), *k, *approx)
	if err != nil {
		return err
	}
	for _, r := range carousels {
		fmt.Printf("\n═══ %s (%s) ═══\n", r.Class, r.Metric)
		for _, in := range r.Insights {
			panel, err := foresight.RenderASCII(f, in)
			if err != nil {
				fmt.Printf("  %s (render: %v)\n", in.String(), err)
				continue
			}
			fmt.Println(indent(panel, "  "))
		}
	}
	return nil
}

func runQuery(args []string) error {
	fs := flag.NewFlagSet("query", flag.ExitOnError)
	data := fs.String("data", "", "CSV path or demo dataset name")
	class := fs.String("class", "", "insight class (empty = all)")
	metric := fs.String("metric", "", "ranking metric (empty = class default)")
	fix := fs.String("fix", "", "comma-separated fixed attributes")
	minScore := fs.Float64("min", 0, "minimum strength")
	maxScore := fs.Float64("max", 0, "maximum strength (0 = unbounded; negative is an error)")
	k := fs.Int("k", 10, "top-k per class")
	approx := fs.Bool("approx", false, "answer from sketches")
	profilePath := fs.String("profile", "", "load a saved sketch store (implies -approx)")
	seed := fs.Int64("seed", 42, "seed for demo datasets / sketches")
	_ = fs.Parse(args)
	if *profilePath != "" {
		*approx = true
	}
	f, err := server.LoadData(*data, *seed)
	if err != nil {
		return err
	}
	engine, err := newEngine(f, true, *seed, *profilePath)
	if err != nil {
		return err
	}
	q := foresight.Query{
		Metric:   *metric,
		MinScore: *minScore,
		MaxScore: *maxScore,
		K:        *k,
		Approx:   *approx,
	}
	if *class != "" {
		q.Classes = []string{*class}
	}
	if *fix != "" {
		q.Fixed = strings.Split(*fix, ",")
	}
	results, err := engine.ExecuteContext(context.Background(), q)
	if err != nil {
		return err
	}
	if len(results) == 0 {
		fmt.Println("no insights matched the query")
		return nil
	}
	for _, r := range results {
		fmt.Printf("\n%s (%s):\n", r.Class, r.Metric)
		for i, in := range r.Insights {
			fmt.Printf("  %2d. %-40s score=%.4f raw=%+.4f\n",
				i+1, strings.Join(in.Attrs, ", "), in.Score, in.Raw)
		}
	}
	return nil
}

func runOverview(args []string) error {
	fs := flag.NewFlagSet("overview", flag.ExitOnError)
	data := fs.String("data", "", "CSV path or demo dataset name")
	class := fs.String("class", "linear", "insight class")
	metric := fs.String("metric", "", "ranking metric")
	svgPath := fs.String("svg", "", "write the heat map SVG here")
	approx := fs.Bool("approx", false, "answer from sketches")
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
	ov, err := engine.OverviewContext(context.Background(), *class, *metric, *approx)
	if err != nil {
		return err
	}
	fmt.Printf("%s overview (%s): %d×%d, %d scored tuples\n",
		ov.Class, ov.Metric, len(ov.RowAttrs), len(ov.ColAttrs), ov.DefinedTuples())
	top, err := engine.ExecuteContext(context.Background(), foresight.Query{Classes: []string{ov.Class}, Metric: ov.Metric, K: 10, Approx: *approx})
	if err != nil {
		return err
	}
	for _, r := range top {
		for i, in := range r.Insights {
			fmt.Printf("  %2d. %-40s %+.4f\n", i+1, strings.Join(in.Attrs, ", "), in.Raw)
		}
	}
	if *svgPath != "" {
		svg := foresight.CorrelogramSVG(ov, fmt.Sprintf("%s overview of %s", ov.Class, f.Name()))
		if err := os.WriteFile(*svgPath, []byte(svg), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", *svgPath)
	}
	return nil
}

func runRender(args []string) error {
	fs := flag.NewFlagSet("render", flag.ExitOnError)
	data := fs.String("data", "", "CSV path or demo dataset name")
	class := fs.String("class", "", "insight class")
	metric := fs.String("metric", "", "ranking metric")
	attrs := fs.String("attrs", "", "comma-separated attribute tuple")
	svgPath := fs.String("svg", "", "output SVG path (default stdout)")
	seed := fs.Int64("seed", 42, "seed for demo datasets")
	_ = fs.Parse(args)
	f, err := server.LoadData(*data, *seed)
	if err != nil {
		return err
	}
	if *class == "" || *attrs == "" {
		return fmt.Errorf("render needs -class and -attrs")
	}
	reg := foresight.NewRegistry()
	c, ok := reg.Lookup(*class)
	if !ok {
		return fmt.Errorf("unknown class %q (have %v)", *class, reg.Names())
	}
	in, err := c.Score(f, strings.Split(*attrs, ","), *metric)
	if err != nil {
		return err
	}
	svg, err := foresight.RenderSVG(f, in)
	if err != nil {
		return err
	}
	if *svgPath == "" {
		fmt.Println(svg)
		return nil
	}
	if err := os.WriteFile(*svgPath, []byte(svg), 0o644); err != nil {
		return err
	}
	fmt.Printf("%s → %s\n", in.String(), *svgPath)
	return nil
}

// runServe is foresightd under the CLI's name: the flags and the run
// loop are internal/server's.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	flags := server.RegisterFlags(fs)
	_ = fs.Parse(args)
	return flags.Run("foresight-cli")
}

func runDemo(args []string) error {
	fs := flag.NewFlagSet("demo", flag.ExitOnError)
	name := fs.String("name", "oecd", "oecd | parkinson | imdb")
	out := fs.String("out", "", "output CSV path")
	rows := fs.Int("rows", 0, "row count (0 = paper default)")
	seed := fs.Int64("seed", 42, "generator seed")
	_ = fs.Parse(args)
	var f *foresight.Frame
	switch strings.ToLower(*name) {
	case "oecd":
		f = foresight.OECDDataset(*rows, *seed)
	case "parkinson":
		f = foresight.ParkinsonDataset(*rows, *seed)
	case "imdb":
		f = foresight.IMDBDataset(*rows, *seed)
	default:
		return fmt.Errorf("unknown demo dataset %q", *name)
	}
	if *out == "" {
		return f.WriteCSV(os.Stdout)
	}
	file, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer file.Close()
	if err := f.WriteCSV(file); err != nil {
		return err
	}
	fmt.Printf("wrote %s: %s\n", *out, f.Summary())
	return nil
}

func indent(text, prefix string) string {
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	for i, l := range lines {
		lines[i] = prefix + l
	}
	return strings.Join(lines, "\n")
}
