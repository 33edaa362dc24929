package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"

	"foresight/benchmark/workload"
)

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), which
// is what the acceptance check of this benchmark is written in.
func quartiles(values []float64) (q1, q3 float64) {
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	n := len(x)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return x[0], x[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile distance as a share of the median; NaN
// for no values or a median of 0, which compares as outside any bound.
func spread(values []float64) float64 {
	q1, q3 := quartiles(values)
	return (q3 - q1) / median(values)
}

// worse is by how much b is worse than a, as a share of a; NaN when
// either is not a positive number, so the caller cannot take a missing
// or zero metric for an unchanged one.
func worse(m workload.Metric, a, b float64) float64 {
	if !(a > 0) || !(b > 0) {
		return math.NaN()
	}
	if m.Higher {
		return (a - b) / a
	}
	return (b - a) / a
}

// aaRow compares one metric of one workload across the two sets.
type aaRow struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	A        []float64 `json:"a"`
	B        []float64 `json:"b"`
	MedianA  float64   `json:"median_a"`
	MedianB  float64   `json:"median_b"`
	// Worse is by how much set B's median is worse than set A's, as a
	// share of A's (negative: better).
	Worse   float64 `json:"worse"`
	SpreadA float64 `json:"spread_a"`
	SpreadB float64 `json:"spread_b"`
	Bound   float64 `json:"bound"`
	Within  bool    `json:"within"`
}

// runAA measures the benchmark against itself: two sets of n runs per
// workload on one binary, every run on a seed of its own, workloads
// interleaved so that a slow spell of the machine falls on all of
// them. Per gated metric it reports how far the second set's median is
// from the first's and each set's spread, next to the bound: the same
// two checks the benchmark is accepted by.
func runAA(d dirs, bin string, specs []workload.Spec, seed int64, n int) error {
	values := [2]map[string]map[string][]float64{{}, {}}
	for set := 0; set < 2; set++ {
		for i := 0; i < n; i++ {
			for _, spec := range specs {
				s := seed + int64(set*n+i)
				res, err := runWorkload(d, bin, spec, s, workload.Rounds)
				if err != nil {
					return err
				}
				if !res.Correct {
					res.print(os.Stdout)
					return fmt.Errorf("%s seed %d: a request or a correctness check failed", spec.Name, s)
				}
				fmt.Printf("set %d run %d/%d %s seed %d: %.1f s\n", set+1, i+1, n, spec.Name, s, res.WallS)
				if values[set][spec.Name] == nil {
					values[set][spec.Name] = map[string][]float64{}
				}
				for name, v := range res.Metrics {
					values[set][spec.Name][name] = append(values[set][spec.Name][name], v.Value)
				}
			}
		}
	}
	var rows []aaRow
	ok := true
	fmt.Printf("\n%-14s %-20s %12s %12s %8s %8s %8s %7s\n", "workload", "metric", "median A", "median B", "B worse", "spread A", "spread B", "bound")
	for _, spec := range specs {
		for _, m := range workload.EndToEnd {
			a, b := values[0][spec.Name][m.Name], values[1][spec.Name][m.Name]
			row := aaRow{
				Workload: spec.Name, Metric: m.Name, A: a, B: b,
				MedianA: median(a), MedianB: median(b),
				SpreadA: spread(a), SpreadB: spread(b), Bound: m.Bound,
			}
			row.Worse = worse(m, row.MedianA, row.MedianB)
			// The spread of set-up time is not held to its bound: it is
			// dominated by what else the machine does while a process
			// starts. Its drift is.
			row.Within = row.Worse <= row.Bound &&
				(m.Name == "setup_s" || (row.SpreadA <= row.Bound && row.SpreadB <= row.Bound))
			ok = ok && row.Within
			mark := ""
			if !row.Within {
				mark = "  EXCEEDS"
			}
			fmt.Printf("%-14s %-20s %12.4f %12.4f %+7.1f%% %7.1f%% %7.1f%% %6.0f%%%s\n", spec.Name, m.Name,
				row.MedianA, row.MedianB, 100*row.Worse, 100*row.SpreadA, 100*row.SpreadB, 100*row.Bound, mark)
			rows = append(rows, row)
		}
	}
	if err := writeJSON(filepath.Join(d.out, "aa.json"), map[string]any{
		"stamp": newStamp(d, seed, workload.Rounds), "runs_per_set": n, "rows": rows,
	}); err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("two sets of runs of the same binary differ by more than a bound")
	}
	return nil
}
