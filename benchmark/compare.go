package main

import (
	"fmt"
	"math"
	"path/filepath"

	"foresight/benchmark/workload"
)

// compareFiles prints, per workload and gated metric, how much worse
// the new result is than the old one next to the metric's bound, and
// fails when any is worse by more than its bound. It refuses two
// results that were not measured alike (seed, rounds): their inputs or
// sample counts differ. A metric is unresolved, not a regression and
// not unchanged, when either file lacks a positive value for it, or
// when its spread in the last A/A run (benchmark/out/aa.json, when
// there is one) exceeds its bound: two runs of the same code differ by
// that much, so the difference says nothing.
func compareFiles(d dirs, oldPath, newPath string) error {
	var before, after map[string]*Result
	if err := readJSON(oldPath, &before); err != nil {
		return err
	}
	if err := readJSON(newPath, &after); err != nil {
		return err
	}
	var aa struct {
		Rows []aaRow `json:"rows"`
	}
	_ = readJSON(filepath.Join(d.out, "aa.json"), &aa) // optional evidence
	noisy := map[string]bool{}
	for _, row := range aa.Rows {
		noisy[row.Workload+"/"+row.Metric] = !(max(row.SpreadA, row.SpreadB) <= row.Bound)
	}
	regressed, compared := 0, 0
	fmt.Printf("%-14s %-20s %12s %12s %8s %7s\n", "workload", "metric", "old", "new", "worse", "bound")
	for _, spec := range workload.Specs {
		a, b := before[spec.Name], after[spec.Name]
		if a == nil || b == nil {
			continue
		}
		if a.Stamp.Seed != b.Stamp.Seed || a.Stamp.Rounds != b.Stamp.Rounds {
			return fmt.Errorf("%s: %s has seed %d, %d rounds and %s seed %d, %d rounds; measure both alike",
				spec.Name, oldPath, a.Stamp.Seed, a.Stamp.Rounds, newPath, b.Stamp.Seed, b.Stamp.Rounds)
		}
		compared++
		for _, m := range workload.EndToEnd {
			va, vb := a.Metrics[m.Name].Value, b.Metrics[m.Name].Value
			w := worse(m, va, vb)
			verdict := ""
			switch {
			case math.IsNaN(w) || noisy[spec.Name+"/"+m.Name]:
				verdict = "  unresolved"
			case w > m.Bound:
				verdict = "  REGRESSION"
				regressed++
			}
			fmt.Printf("%-14s %-20s %12.4f %12.4f %+7.1f%% %6.0f%%%s\n",
				spec.Name, m.Name, va, vb, 100*w, 100*m.Bound, verdict)
		}
	}
	if compared == 0 {
		return fmt.Errorf("%s and %s have no workload in common", oldPath, newPath)
	}
	if regressed > 0 {
		return fmt.Errorf("%d metrics are worse by more than their bound", regressed)
	}
	return nil
}
