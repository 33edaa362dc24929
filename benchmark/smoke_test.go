package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"foresight/benchmark/workload"
)

func TestInputsFollowTheSeed(t *testing.T) {
	small := workload.Specs[2].Small() // ingest_stream: both kinds of batch
	a := workload.MakeInputs(small, 7)
	b := workload.MakeInputs(small, 7)
	c := workload.MakeInputs(small, 8)
	if !bytes.Equal(a.Data, b.Data) || !bytes.Equal(a.Timed[0], b.Timed[0]) || !bytes.Equal(a.Small[0], b.Small[0]) {
		t.Fatal("the same seed gave different inputs")
	}
	if bytes.Equal(a.Data, c.Data) {
		t.Fatal("different seeds gave the same dataset")
	}
	if got, want := bytes.Count(a.Data, []byte("\n")), small.Shape.Rows+1; got != want {
		t.Fatalf("dataset has %d lines, want header + %d rows", got, want-1)
	}
}

// TestEstimators pins the arithmetic -aa and -compare judge by: the
// quartiles are Python's statistics.quantiles(values, n=4), and a
// metric that is missing or 0 on either side is NaN, never "unchanged".
func TestEstimators(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 are %v and %v, want 2.75 and 8.25", q1, q3)
	}
	if q1, q3 := quartiles(nil); q1 != 0 || q3 != 0 {
		t.Errorf("quartiles of nothing are %v and %v, want 0 and 0", q1, q3)
	}
	if got := spread(nil); !math.IsNaN(got) {
		t.Errorf("spread of nothing is %v, want NaN", got)
	}
	lower, higher := workload.Metric{}, workload.Metric{Higher: true}
	if got := worse(lower, 100, 125); got != 0.25 {
		t.Errorf("125 against 100, lower is better: worse by %v, want 0.25", got)
	}
	if got := worse(higher, 100, 125); got != -0.25 {
		t.Errorf("125 against 100, higher is better: worse by %v, want -0.25", got)
	}
	for _, pair := range [][2]float64{{0, 1}, {1, 0}, {math.NaN(), 1}} {
		if got := worse(lower, pair[0], pair[1]); !math.IsNaN(got) {
			t.Errorf("worse(%v, %v) is %v, want NaN", pair[0], pair[1], got)
		}
	}
}

// TestManifest keeps BENCHMARK.json, which the driver reads, in step
// with the tables the benchmark reports from.
func TestManifest(t *testing.T) {
	d, err := findDirs()
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		Command   []string `json:"command"`
		Paths     []string `json:"paths"`
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := readJSON(filepath.Join(d.root, "BENCHMARK.json"), &man); err != nil {
		t.Fatal(err)
	}
	better := func(m workload.Metric) string {
		if m.Higher {
			return "higher"
		}
		return "lower"
	}
	if len(man.Workloads) != len(workload.Specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d specs", len(man.Workloads), len(workload.Specs))
	}
	for i, s := range workload.Specs {
		if w := man.Workloads[i]; w.Name != s.Name || w.Why != s.Why {
			t.Errorf("workload %d is %+v, want %s: %s", i, w, s.Name, s.Why)
		}
	}
	if len(man.EndToEnd) != len(workload.EndToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d declared", len(man.EndToEnd), len(workload.EndToEnd))
	}
	for i, m := range workload.EndToEnd {
		if e := man.EndToEnd[i]; e.Name != m.Name || e.Unit != m.Unit || e.Better != better(m) || e.Bound != m.Bound {
			t.Errorf("end-to-end metric %d is %+v, want %+v", i, e, m)
		}
	}
	if len(man.PerLayer) != len(workload.PerLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d declared", len(man.PerLayer), len(workload.PerLayer))
	}
	for i, m := range workload.PerLayer {
		if e := man.PerLayer[i]; e.Name != m.Name || e.Unit != m.Unit || e.Better != better(m) {
			t.Errorf("per-layer metric %d is %+v, want %+v", i, e, m)
		}
	}
}

// TestSmoke runs one round of every workload's script at 400 × (8 + 2)
// against a real foresightd, then the traced run on the same inputs.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and starts foresightd")
	}
	d, err := findDirs()
	if err != nil {
		t.Fatal(err)
	}
	bin, err := d.goBuild(d.root, "foresightd", "./cmd/foresightd")
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range workload.Specs {
		spec := spec.Small()
		t.Run(spec.Name, func(t *testing.T) { smoke(t, d, bin, spec) })
	}
}

func smoke(t *testing.T, d dirs, bin string, spec workload.Spec) {
	res, line, err := runTraced(d, bin, spec, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Problems {
		t.Error(p)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("correct %v, %d of %d failed", res.Correct, res.Failed, res.Attempted)
	}
	for _, m := range workload.EndToEnd {
		if v, ok := res.Metrics[m.Name]; !ok || v.Unit != m.Unit || v.Value <= 0 {
			t.Errorf("end-to-end metric %s is %+v, want a positive value in %s", m.Name, v, m.Unit)
		}
	}
	if len(res.Unmeasured) > 0 {
		t.Errorf("per-layer metrics neither run reported: %v", res.Unmeasured)
	}
	var last struct {
		Metrics map[string]Value `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(line), &last); err != nil {
		t.Fatal(err)
	}
	for _, m := range workload.PerLayer {
		if v, ok := last.Metrics[m.Name]; !ok || v.Unit != m.Unit {
			t.Errorf("per-layer metric %s is %+v, want unit %s", m.Name, v, m.Unit)
		}
	}
	// The requests of the workload's own cycle must have been timed.
	for _, op := range spec.CycleOps() {
		if res.Samples[op] == 0 {
			t.Errorf("no sample of %s, a request of the main loop", op)
		}
	}
	if v := last.Metrics[workload.Ungated(workload.ErrorRate)]; v.Value != 0 {
		t.Errorf("error_rate %v, want 0", v.Value)
	}
	if _, err := os.Stat(filepath.Join(d.out, "trace_"+spec.Name+".json")); err != nil {
		t.Errorf("the traced run left no trace file: %v", err)
	}
}
