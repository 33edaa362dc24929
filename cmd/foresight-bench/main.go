// Command foresight-bench regenerates the paper's evaluation: every
// figure (E1, E2), every quantified claim (E3 accuracy, E4
// preprocessing speedup, E5 interactive latency, E6 all-pairs
// complexity), the §4.1 usage scenario (E7), the §4.2 demo datasets
// (E8), the memoized-cache serving experiment (E9), the
// observability-overhead guardrail (E10), the request-cancellation
// experiment (E11), the streaming-ingest experiment (E12), the
// insight-telemetry overhead experiment (E14), the durable-ingest
// experiment (E17), and the sketch-parameter ablations.
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
	exp := flag.String("exp", "all", "comma-separated experiments: e1,e2,e3,e4,e5,e6,e7,e8,e9,e10,e11,e12,e14,e17,ablations")
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
	run("e9", func() error {
		rows9, dims9 := 20000, 32
		if *full {
			rows9, dims9 = 100000, 64
		}
		return bench.RunE9CacheServing(w, *out, bench.E9Config{Rows: rows9, Dims: dims9, Seed: *seed})
	})
	run("e10", func() error {
		rows10, dims10 := 20000, 32
		if *full {
			rows10, dims10 = 100000, 64
		}
		return bench.RunE10ObsOverhead(w, *out, bench.E10Config{Rows: rows10, Dims: dims10, Seed: *seed})
	})
	run("e11", func() error {
		rows11, dims11 := 20000, 32
		if *full {
			rows11, dims11 = 100000, 64
		}
		return bench.RunE11Cancellation(w, *out, bench.E11Config{Rows: rows11, Dims: dims11, Seed: *seed})
	})
	run("e12", func() error {
		c := bench.E12Config{BaseRows: 20000, BatchRows: 2000, Batches: 8, Dims: 16, Seed: *seed}
		if *full {
			c = bench.E12Config{BaseRows: 100000, BatchRows: 10000, Batches: 8, Dims: 32, Seed: *seed}
		}
		return bench.RunE12Ingest(w, *out, c)
	})
	run("e14", func() error {
		rows14, dims14 := 20000, 32
		if *full {
			rows14, dims14 = 100000, 64
		}
		return bench.RunE14TelemetryOverhead(w, *out, bench.E14Config{Rows: rows14, Dims: dims14, Seed: *seed})
	})
	run("e17", func() error {
		c := bench.E17Config{BaseRows: 20000, BatchRows: 2000, Batches: 8, Dims: 8, Seed: *seed}
		if *full {
			c = bench.E17Config{BaseRows: 100000, BatchRows: 10000, Batches: 8, Dims: 16, Seed: *seed}
		}
		return bench.RunE17Durable(w, *out, c)
	})
	run("ablations", func() error { return bench.RunAllAblations(w, *out, *seed) })

	fmt.Fprintf(w, "\nall experiments finished in %v\n", time.Since(start).Round(time.Millisecond))
}
