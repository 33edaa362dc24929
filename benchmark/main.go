// Command benchmark measures foresightd from the outside: it builds
// the real cmd/foresightd binary, generates a dataset from a seed,
// starts the binary on it and talks to it only over loopback HTTP, as
// one analyst who waits for each reply. README.md describes the
// workloads, the metrics and why timed metrics are floors.
//
//	go run -C benchmark foresight/benchmark -workload all -seed 1     # every end-to-end metric
//	go run -C benchmark foresight/benchmark -workload explore_wide -trace 1   # per-layer metrics
//	go run -C benchmark foresight/benchmark -aa 5                     # two sets of five runs, compared
//	go run -C benchmark foresight/benchmark -compare old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"foresight/benchmark/workload"
)

func main() {
	name := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	// The driver of BENCHMARK.json passes -seconds and -trace as
	// `--seconds 30 --trace 0`, which is why -trace is not a bool.
	seconds := flag.Int("seconds", workload.RunSeconds, "run length; must be the one the scripts are sized for")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics (the script end to end, then the in-process traced run)")
	aa := flag.Int("aa", 0, "run two sets of this many runs per workload and compare their medians")
	compare := flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
	out := flag.String("out", "", "result file (default benchmark/out/result.json)")
	flag.Parse()
	var err error
	switch {
	case *seconds != workload.RunSeconds:
		// Floors are minima over a fixed number of samples; a run of
		// another length would not compare with any other.
		err = fmt.Errorf("-seconds %d: the scripts are sized for %d", *seconds, workload.RunSeconds)
	case *trace != 0 && *trace != 1:
		err = fmt.Errorf("-trace %d: want 0 or 1", *trace)
	default:
		err = dispatch(*name, *seed, *trace == 1, *aa, *compare, *out, flag.Args())
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func dispatch(name string, seed int64, trace bool, aa int, compare bool, out string, args []string) error {
	d, err := findDirs()
	if err != nil {
		return err
	}
	if compare {
		if len(args) != 2 {
			return fmt.Errorf("-compare wants two result files")
		}
		return compareFiles(d, args[0], args[1])
	}
	specs := workload.Specs
	if name != "all" {
		spec, err := workload.Lookup(name)
		if err != nil {
			return err
		}
		specs = []workload.Spec{spec}
	}
	bin, err := d.goBuild(d.root, "foresightd", "./cmd/foresightd")
	if err != nil {
		return err
	}
	if aa > 0 {
		return runAA(d, bin, specs, seed, aa)
	}
	if out == "" {
		out = filepath.Join(d.out, "result.json")
	}
	results := map[string]*Result{}
	var lines []string
	failed := false
	for _, spec := range specs {
		var res *Result
		var line string
		if trace {
			res, line, err = runTraced(d, bin, spec, seed, workload.Rounds)
		} else {
			res, err = runWorkload(d, bin, spec, seed, workload.Rounds)
			if res != nil {
				line = res.line(res.Metrics)
			}
		}
		if err != nil {
			return err
		}
		results[spec.Name] = res
		res.print(os.Stdout)
		failed = failed || !res.Correct
		lines = append(lines, line)
	}
	if err := writeJSON(out, results); err != nil {
		return err
	}
	for _, line := range lines { // the contract's line comes last
		fmt.Println(line)
	}
	if failed {
		return fmt.Errorf("a request or a correctness check failed; the run is not a measurement")
	}
	return nil
}

// runWorkload generates the inputs and runs the script for the given
// number of rounds.
func runWorkload(d dirs, bin string, spec workload.Spec, seed int64, rounds int) (*Result, error) {
	start := time.Now()
	r := &run{
		spec: spec, in: workload.MakeInputs(spec, seed), bin: bin,
		dataPath: filepath.Join(d.out, spec.Name+".csv"),
		walDir:   filepath.Join(d.out, "wal_"+spec.Name),
		logPath:  filepath.Join(d.out, "foresightd_"+spec.Name+".log"),
		rec:      newRecorder(),
		counts:   map[string][]float64{},
	}
	if err := os.WriteFile(r.dataPath, r.in.Data, 0o644); err != nil {
		return nil, err
	}
	// A directory left by an interrupted run would be recovered from.
	if err := os.RemoveAll(r.walDir); err != nil {
		return nil, err
	}
	_ = os.Remove(r.logPath) // the log is per run; absent is fine
	for i := 0; i < rounds; i++ {
		if err := r.round(); err != nil {
			return nil, fmt.Errorf("%s round %d: %w", spec.Name, i+1, err)
		}
	}
	res := &Result{
		Workload:  spec.Name,
		Stamp:     newStamp(d, seed, rounds),
		Attempted: r.rec.attempted,
		Failed:    r.rec.failed,
		Correct:   r.rec.failed == 0,
		Problems:  r.rec.problems,
	}
	summarize(r, res)
	for _, m := range workload.EndToEnd {
		// A gated metric that is 0 or absent cannot be compared.
		if v := res.Metrics[m.Name].Value; !(v > 0) {
			res.Failed, res.Correct = res.Failed+1, false
			res.Problems = append(res.Problems, fmt.Sprintf("%s is %v, want a positive number", m.Name, v))
		}
	}
	res.WallS = time.Since(start).Seconds()
	return res, os.Remove(r.dataPath)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
