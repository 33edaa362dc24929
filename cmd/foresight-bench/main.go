// Command foresight-bench regenerates the paper's evaluation: every
// figure (E1, E2), every quantified claim (E3 accuracy, E4
// preprocessing speedup, E5 interactive latency, E6 all-pairs
// complexity), the §4.1 usage scenario (E7), the §4.2 demo datasets
// (E8), and the sketch-parameter ablations. The serving layer built on
// top (cache, observability, cancellation, ingest, telemetry,
// durability) is timed end to end by the repository benchmark
// (benchmark/), not here.
// Results print to stdout and, with -out, land as TSV/SVG artifacts.
//
// Usage:
//
//	foresight-bench                 # everything, moderate sizes
//	foresight-bench -exp e3,e4      # selected experiments
//	foresight-bench -full -out results   # paper-scale sizes (slower)
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"foresight/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "comma-separated experiments: e1,e2,e3,e4,e5,e6,e7,e8,ablations")
	out := flag.String("out", "", "directory for TSV/SVG artifacts (empty = stdout only)")
	full := flag.Bool("full", false, "paper-scale sizes (n=100K, d up to 200; slower)")
	seed := flag.Int64("seed", 42, "experiment seed")
	k := flag.Int("k", 64, "hyperplane sketch width for E4-E6")
	flag.Parse()

	want := map[string]bool{}
	for _, e := range strings.Split(strings.ToLower(*exp), ",") {
		want[strings.TrimSpace(e)] = true
	}
	all := want["all"]
	w := os.Stdout

	rows3, dims3 := 20000, []int{25, 50}
	rows4, dims4 := 20000, []int{50, 100}
	rows5, dims5 := 30000, 100
	dims6, rows6 := 64, []int{5000, 10000, 20000, 40000}
	if *full {
		rows3, dims3 = 100000, []int{25, 50, 100, 200}
		rows4, dims4 = 100000, []int{50, 100, 200}
		rows5, dims5 = 100000, 200
		dims6, rows6 = 100, []int{10000, 25000, 50000, 100000}
	}

	start := time.Now()
	run := func(name string, fn func() error) {
		if !all && !want[name] {
			return
		}
		fmt.Fprintf(w, "\n######## %s ########\n", strings.ToUpper(name))
		t0 := time.Now()
		if err := fn(); err != nil {
			log.Fatalf("%s: %v", name, err)
		}
		fmt.Fprintf(w, "[%s finished in %v]\n", name, time.Since(t0).Round(time.Millisecond))
	}

	run("e1", func() error { return bench.RunE1Carousels(w, *out, 5, *seed) })
	run("e2", func() error { return bench.RunE2Overview(w, *out, *seed) })
	run("e3", func() error {
		return bench.RunE3Accuracy(w, *out, bench.E3Config{Rows: rows3, Dims: dims3, Seed: *seed})
	})
	run("e4", func() error {
		return bench.RunE4Preprocess(w, *out, bench.E4Config{Rows: rows4, Dims: dims4, K: *k, Seed: *seed})
	})
	run("e5", func() error {
		return bench.RunE5QueryLatency(w, *out, bench.E5Config{Rows: rows5, Dims: dims5, K: *k, Seed: *seed})
	})
	run("e6", func() error {
		return bench.RunE6AllPairs(w, *out, bench.E6Config{Dims: dims6, RowsSet: rows6, K: *k, Seed: *seed})
	})
	run("e7", func() error {
		checks, err := bench.RunE7Scenario(w, *out, *seed)
		if err != nil {
			return err
		}
		failed := 0
		for _, c := range checks {
			if !c.Pass {
				failed++
			}
		}
		if failed > 0 {
			return fmt.Errorf("%d scenario checks failed", failed)
		}
		return nil
	})
	run("e8", func() error { return bench.RunE8DemoDatasets(w, *out, *seed) })
	run("ablations", func() error { return bench.RunAllAblations(w, *out, *seed) })

	fmt.Fprintf(w, "\nall experiments finished in %v\n", time.Since(start).Round(time.Millisecond))
}
