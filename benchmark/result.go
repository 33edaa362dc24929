package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"sort"
	"strings"

	"foresight/benchmark/workload"
)

// Value is one reported number with its unit.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Stamp records where and how a result was measured.
type Stamp struct {
	GitSHA     string `json:"git_sha"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`
	Rounds     int    `json:"rounds"`
}

// Result is one workload's run.
type Result struct {
	Workload  string  `json:"workload"`
	Stamp     Stamp   `json:"stamp"`
	WallS     float64 `json:"wall_s"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	// Metrics are the gated end-to-end metrics; Extra are the numbers
	// the same run yields that are not gated: metrics defined on this
	// workload only, medians and high percentiles, exact counters.
	Metrics  map[string]Value `json:"metrics"`
	Extra    map[string]Value `json:"extra"`
	Samples  map[string]int   `json:"samples"`
	Problems []string         `json:"problems,omitempty"`
	// Unmeasured lists per-layer metrics a traced run found no value
	// for; a phase the workload lacks is not among them, it reads 0.
	Unmeasured []string `json:"unmeasured,omitempty"`
}

func newStamp(d dirs, seed int64, rounds int) Stamp {
	st := Stamp{
		GitSHA: "unknown", GoVersion: runtime.Version(), CPU: "unknown",
		NumCPU: runtime.NumCPU(), GOMAXPROCS: childProcs(),
		Seed: seed, Rounds: rounds,
	}
	cmd := exec.Command("git", "rev-parse", "HEAD")
	cmd.Dir = d.root
	if out, err := cmd.Output(); err == nil { // a source archive has no .git
		st.GitSHA = strings.TrimSpace(string(out))
	}
	if info, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(info), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				st.CPU = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return st
}

func floor(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Min(xs)
}

func highest(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Max(xs)
}

// median returns the middle value of xs, the mean of the middle two
// for an even count (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// highTail returns the value at the highest percentile of xs that
// still has ten samples beyond it (0 with fewer than twenty-two
// samples: at or below the median the number says nothing about a
// tail).
func highTail(xs []float64) float64 {
	if len(xs) < 22 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	return s[len(s)-11]
}

// summarize turns a run's samples into the reported metrics. Timed
// metrics are floors: contention on a shared runner only ever adds
// time, so the minimum over repeats of the same work estimates what
// the program costs, where a median estimates what the machine was
// doing (README.md has the measurements behind this).
func summarize(r *run, res *Result) {
	s := r.rec.samples
	ms := func(v float64) Value { return Value{v, "ms"} }
	// cycle_ms is one cycle of the workload's main loop, each request
	// at its floor.
	cycle := 0.0
	for _, op := range r.spec.CycleOps() {
		cycle += floor(s[op])
	}
	// The two memory metrics have one sample a round and are medians: a
	// collector that lets the heap take one more step in one round of
	// three would otherwise decide peak_rss_mb.
	res.Metrics = map[string]Value{
		"setup_s":            {floor(s["setup"]), "s"},
		"cycle_ms":           ms(cycle),
		"alloc_mb_per_cycle": {median(s["alloc_mb_per_cycle"]), "MB"},
		"peak_rss_mb":        {median(s["peak_rss_mb"]), "MB"},
	}

	// A request the workload's script does not make reads 0: no ingest
	// on explore_wide, no focus on the other two, no recovery without a
	// WAL.
	x := map[string]Value{}
	for name, op := range map[string]string{
		workload.ColdCarouselMS: "cold_carousel", workload.CarouselMS: "carousel",
		workload.FocusedCarouselMS: "focused_carousel", workload.NeighborhoodMS: "neighborhood",
		workload.OverviewMS: "overview", workload.QueryMS: "query",
		workload.FreshCarouselMS: "fresh_carousel", workload.IngestAckMS: "ingest_ack",
	} {
		x[workload.Ungated(name)] = ms(floor(s[op]))
	}
	x[workload.Ungated(workload.RecoveryS)] = Value{floor(s[workload.RecoveryS]), "s"}
	x[workload.Ungated(workload.ReadOpsPerS)] = Value{highest(s[workload.ReadOpsPerS]), "1/s"}
	x[workload.Ungated(workload.ErrorRate)] = Value{float64(res.Failed) / float64(max(res.Attempted, 1)), "ratio"}
	for op, from := range map[string]string{
		"carousel": "carousel", "neighborhood": "neighborhood",
		"fresh_carousel": "fresh_carousel", "ingest_ack": "ingest_ack_all",
	} {
		x["server."+op+"_p50_ms"] = ms(median(s[from]))
		x["server."+op+"_phi_ms"] = ms(highTail(s[from]))
	}
	first, growth := floor(s["ingest_ack_first"]), 0.0
	if first > 0 {
		growth = floor(s["ingest_ack"]) / first
	}
	x["server.ingest_ack_first_ms"] = ms(first)
	x["server.ingest_ack_growth"] = Value{growth, "ratio"}
	if spin := s["spin"]; len(spin) > 0 {
		x["bench.contention_ratio"] = Value{median(spin) / floor(spin), "ratio"}
	}
	for _, name := range []string{"durable.write_amp", "durable.fsyncs", "durable.checkpoints", "durable.replayed_batches"} {
		x[name] = Value{0, "count"} // stays 0 without a WAL
	}
	for name, per := range r.counts {
		x[name] = Value{median(per), "count"}
	}
	res.Extra = x
	res.Samples = map[string]int{}
	for op, xs := range s {
		res.Samples[op] = len(xs)
	}
}

// print writes the human-readable report of one workload.
func (res *Result) print(w io.Writer) {
	fmt.Fprintf(w, "\n%s  seed %d  %d rounds  wall %.1f s  %d requests, %d failed\n",
		res.Workload, res.Stamp.Seed, res.Stamp.Rounds, res.WallS, res.Attempted, res.Failed)
	for _, m := range workload.EndToEnd {
		v := res.Metrics[m.Name]
		fmt.Fprintf(w, "  %-30s %12.4f %s\n", m.Name, v.Value, v.Unit)
	}
	fmt.Fprintln(w, "  not gated:")
	names := make([]string, 0, len(res.Extra))
	for name := range res.Extra {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		v := res.Extra[name]
		fmt.Fprintf(w, "  %-30s %12.4f %s\n", name, v.Value, v.Unit)
	}
	ops := make([]string, 0, len(res.Samples))
	for op := range res.Samples {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	fmt.Fprint(w, "  samples:")
	for _, op := range ops {
		fmt.Fprintf(w, " %s=%d", op, res.Samples[op])
	}
	fmt.Fprintln(w)
	for _, p := range res.Problems {
		fmt.Fprintf(w, "  FAILED: %s\n", p)
	}
}

// line is the driver's contract: the last line of standard output.
func (res *Result) line(metrics map[string]Value) string {
	out, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	if err != nil {
		panic(err) // plain numbers and strings always encode
	}
	return string(out)
}
