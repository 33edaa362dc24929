// Command foresight-bench regenerates the paper's evaluation: every
// figure (E1, E2), the accuracy claim (E3: each class's approximate
// scores against its exact ones), the §4.1 usage scenario (E7), the
// §4.2 demo datasets (E8), and the sketch-parameter ablations. The
// timing claims (E4 preprocessing speedup, E5 interactive latency, E6
// all-pairs complexity) are the root package's BenchmarkE4*–E6*
// pairs; the serving layer built on top (cache, observability,
// cancellation, ingest, telemetry, durability) is timed end to end by
// the repository benchmark (benchmark/), not here.
// Results print to stdout and, with -out, land as TSV/SVG artifacts.
//
// Usage:
//
//	foresight-bench                 # everything, moderate sizes
//	foresight-bench -exp e3,e7      # selected experiments
//	foresight-bench -full -out results_full -exp e3   # paper-scale E3 (slower)
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"slices"
	"strings"
	"time"

	"foresight/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiments: all or "+strings.Join(names(bench.Experiments(false)), ","))
	out := flag.String("out", "", "directory for TSV/SVG artifacts (empty = stdout only)")
	full := flag.Bool("full", false, "paper-scale E3 sizes (n=100K, d up to 200; slower)")
	seed := flag.Int64("seed", 42, "experiment seed")
	flag.Parse()

	run, err := parseExperiments(*exp, bench.Experiments(*full))
	if err != nil {
		fmt.Fprintln(os.Stderr, "foresight-bench:", err)
		os.Exit(2)
	}
	w := os.Stdout
	start := time.Now()
	for _, e := range run {
		fmt.Fprintf(w, "\n######## %s ########\n", strings.ToUpper(e.Name))
		t0 := time.Now()
		if err := e.Run(w, *out, *seed); err != nil {
			log.Fatalf("%s: %v", e.Name, err)
		}
		fmt.Fprintf(w, "[%s finished in %v]\n", e.Name, time.Since(t0).Round(time.Millisecond))
	}
	fmt.Fprintf(w, "\nall experiments finished in %v\n", time.Since(start).Round(time.Millisecond))
}

// parseExperiments resolves a comma-separated -exp value ("all" for
// every experiment) to the experiments of all it names, in run order.
// An unknown or empty name is an error that lists the valid ones.
func parseExperiments(spec string, all []bench.Experiment) ([]bench.Experiment, error) {
	valid := names(all)
	want := map[string]bool{}
	for _, name := range strings.Split(strings.ToLower(spec), ",") {
		name = strings.TrimSpace(name)
		if name != "all" && !slices.Contains(valid, name) {
			return nil, fmt.Errorf("unknown experiment %q (valid: all, %s)", name, strings.Join(valid, ", "))
		}
		want[name] = true
	}
	var run []bench.Experiment
	for _, e := range all {
		if want["all"] || want[e.Name] {
			run = append(run, e)
		}
	}
	return run, nil
}

func names(es []bench.Experiment) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.Name
	}
	return out
}
