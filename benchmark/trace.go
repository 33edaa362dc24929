package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"

	"foresight/benchmark/workload"
)

// runTraced produces the per-layer metrics: the end-to-end script (for
// the numbers only a real process has: the e2e.* floors, tails,
// counters from /api/stats, recovery) and then the in-process traced
// run of benchmark/layers. End-to-end metrics are never taken from
// here; obs.trace_overhead_pct is how far the traced run's explore
// cycle is from the untraced one (explore_wide).
func runTraced(d dirs, bin string, spec workload.Spec, seed int64, rounds int) (*Result, string, error) {
	res, err := runWorkload(d, bin, spec, seed, rounds)
	if err != nil {
		return nil, "", err
	}
	layers, err := runLayers(d, spec, seed)
	if err != nil {
		// An API change broke the tagged package, or it failed: the
		// end-to-end part still stands and says so.
		fmt.Printf("layers: unavailable: %v\n", err)
	}
	if layers != nil {
		// The traced run times the explore cycle's requests on every
		// workload; only LoopExplore has an untraced one to compare with.
		layers["obs.trace_overhead_pct"] = 0
		if cycle := res.Metrics["cycle_ms"].Value; spec.Loop == workload.LoopExplore {
			layers["obs.trace_overhead_pct"] = 100 * (layers["loopback.cycle_ms"] - cycle) / cycle
		}
	}
	metrics := map[string]Value{}
	for _, m := range workload.PerLayer {
		v, ok := layers[m.Name]
		if !ok {
			// From the end-to-end run; a metric of a phase this
			// workload's script lacks reads 0.
			var e Value
			if e, ok = res.Extra[m.Name]; !ok && layers != nil {
				res.Unmeasured = append(res.Unmeasured, m.Name)
			}
			v = e.Value
		}
		metrics[m.Name] = Value{v, m.Unit}
		res.Extra[m.Name] = metrics[m.Name]
	}
	if layers != nil {
		report := func(request, e2e string, got float64) {
			sum := layers["layers."+request+".sum_ms"]
			fmt.Printf("layers: %s self times sum to %.2f ms; %s measured end to end %.2f ms (%+.1f%%)\n",
				request, sum, e2e, got, 100*(sum-got)/got)
		}
		if got := res.Extra[workload.Ungated(workload.CarouselMS)].Value; got > 0 {
			report("carousels", workload.CarouselMS, got)
		}
		if got := res.Extra[workload.Ungated(workload.IngestAckMS)].Value; got > 0 {
			report("ingest", workload.IngestAckMS, got)
		}
	}
	return res, res.line(metrics), nil
}

// runLayers builds and runs the traced run and returns the metrics on
// its last output line.
func runLayers(d dirs, spec workload.Spec, seed int64) (map[string]float64, error) {
	bin, err := d.goBuild(d.bench, "layers", "-tags", "benchlayers", "./layers")
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, "-workload", spec.Name, "-seed", strconv.FormatInt(seed, 10),
		"-out", filepath.Join(d.out, "trace_"+spec.Name+".json"))
	cmd.Env = childEnv()
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, err
	}
	out = bytes.TrimSpace(out)
	var m map[string]float64
	if err := json.Unmarshal(out[bytes.LastIndexByte(out, '\n')+1:], &m); err != nil {
		return nil, fmt.Errorf("layers: last output line: %w", err)
	}
	return m, nil
}
