package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"foresight"
	"foresight/internal/core"
	"foresight/internal/durable"
	"foresight/internal/frame"
	"foresight/internal/server"
	"foresight/internal/sketch"
	"foresight/internal/sketch/sketchcheck"
)

// runSelfcheck executes the sketch invariant suite against live
// profiles of -data: ground-truth checks for every per-column sketch,
// persist→load query identity, Extend leaving its receiver intact, the
// same bytes from a build on any worker count, and a cross-check of
// the extend path against the one-pass build within -tol. With
// -profile it instead verifies an already-persisted sketch store
// against the dataset it claims to summarize. It then
// cross-checks the pruning contract — SuccessorBound ≥ Score on
// sampled candidates of every class that leaves certificates, once
// rows are appended — since an unsound bound would silently change
// top-k results. Exits non-zero when any invariant is violated, so it
// slots into CI and operational smoke tests directly.
func runSelfcheck(args []string) error {
	fs := flag.NewFlagSet("selfcheck", flag.ExitOnError)
	data := fs.String("data", "", "CSV path or demo dataset name")
	profilePath := fs.String("profile", "", "verify this saved sketch store instead of building fresh")
	tol := fs.Float64("tol", sketchcheck.DefaultScoreTol, "estimator-delta gate between build paths (every alternate path is held to it)")
	boundSample := fs.Int("bound-sample", 64, "candidates sampled per class/metric for the SuccessorBound ≥ Score gate (0 = all)")
	seed := fs.Int64("seed", 42, "seed for demo datasets / sketches")
	walDir := fs.String("wal", "", "verify this WAL/snapshot directory instead: CRC-scan every segment, replay into a scratch engine over -data, and gate the recovered profile against a cold rebuild")
	permissive := fs.Bool("recover-permissive", false, "with -wal: tolerate mid-log corruption and verify the valid prefix")
	_ = fs.Parse(args)
	f, err := server.LoadData(*data, *seed)
	if err != nil {
		return err
	}
	if *walDir != "" {
		return runWALCheck(f, *walDir, *tol, *seed, *permissive)
	}

	var r *sketchcheck.Report
	if *profilePath != "" {
		file, err := os.Open(*profilePath)
		if err != nil {
			return err
		}
		defer file.Close()
		p, err := sketch.LoadProfile(file)
		if err != nil {
			return err
		}
		r = sketchcheck.RunProfile(f, p)
	} else {
		// The server's configuration, rank projections included, so the
		// gates cover the profile that is actually served.
		cfg := sketch.ProfileConfig{Seed: *seed, Spearman: true}
		r = sketchcheck.Run(f, sketchcheck.Config{Profile: cfg, ScoreTol: *tol})
	}
	sketchcheck.WriteReport(os.Stdout, r)

	// The successor gate: certificates made on the dataset bound the
	// scores once 1 % of its rows (at least one) are appended again.
	grown, err := f.AppendRows(ownRows(f, max(1, f.Rows()/100)), nil)
	if err != nil {
		return fmt.Errorf("selfcheck: growing the dataset: %w", err)
	}
	violations := core.CheckSuccessorBounds(foresight.NewRegistry(), f, grown, *boundSample)
	if len(violations) == 0 {
		fmt.Printf("successor-bound gate OK: SuccessorBound ≥ Score with %d of the dataset's rows appended (sample=%d per class/metric)\n", grown.Rows()-f.Rows(), *boundSample)
	}
	for _, v := range violations {
		fmt.Printf("VIOLATION successor-bound %s/%s %s: score %v > bound %v\n",
			v.Class, v.Metric, strings.Join(v.Attrs, ","), v.Score, v.Bound)
	}

	if !r.Ok() || len(violations) > 0 {
		return fmt.Errorf("selfcheck: %d invariant violation(s)", len(r.Violations)+len(violations))
	}
	return nil
}

// ownRows renders the first n rows of f as an ingest batch.
func ownRows(f *foresight.Frame, n int) frame.RowBatch {
	batch := frame.RowBatch{Columns: f.Names(), Records: make([][]string, n)}
	for r := range batch.Records {
		for c := 0; c < f.Cols(); c++ {
			batch.Records[r] = append(batch.Records[r], f.Column(c).StringAt(r))
		}
	}
	return batch
}

// runWALCheck verifies a durability directory end to end without
// touching it: a read-only recovery (no torn-tail repair, no WAL
// opened for appending) CRC-scans every segment and replays snapshot +
// tail into a scratch engine over the same base dataset the serving
// process uses, then the recovered sketch profile is gated against a
// cold from-scratch rebuild of the recovered frame with the usual
// estimator-delta tolerance. Exits non-zero on CRC damage, mid-log
// corruption (unless -recover-permissive), dataset mismatch, or a
// recovered profile outside the gate.
func runWALCheck(f *foresight.Frame, dir string, tol float64, seed int64, permissive bool) error {
	if tol <= 0 {
		tol = sketchcheck.DefaultScoreTol
	}
	cfg := sketch.ProfileConfig{Seed: seed, Spearman: true}
	base := sketch.BuildProfile(f, cfg)
	engine, err := foresight.NewEngine(f, foresight.NewRegistry(), base)
	if err != nil {
		return err
	}
	m, err := durable.Open(durable.Options{
		Dir: dir, ReadOnly: true, Permissive: permissive,
		Logf: func(format string, args ...any) { fmt.Fprintf(os.Stderr, format+"\n", args...) },
	})
	if err != nil {
		return err
	}
	rec, err := m.Recover(engine)
	if err != nil {
		return fmt.Errorf("selfcheck -wal: %w", err)
	}
	fmt.Printf("wal %s: snapshot seq %d (%d rows, %d skipped) + %d replayed batches (%d rows), last seq %d, torn tail %v\n",
		dir, rec.SnapshotSeq, rec.SnapshotRows, rec.SnapshotsSkipped,
		rec.ReplayedBatches, rec.ReplayedRows, rec.LastSeq, rec.TornTailDetected)

	// The recovered profile grew by snapshot-restore + incremental
	// Extend; the cold rebuild sees the recovered frame in one pass.
	// Agreement within the estimator gate is the whole durability
	// claim: a restart answers like a process that never died.
	cold := sketch.BuildProfile(engine.Frame(), cfg)
	r := &sketchcheck.Report{}
	sketchcheck.CheckProfilesCompatible(r, "wal-recovered", engine.Profile(), cold, tol, false)
	sketchcheck.WriteReport(os.Stdout, r)
	if !r.Ok() {
		return fmt.Errorf("selfcheck -wal: %d invariant violation(s)", len(r.Violations))
	}
	fmt.Printf("wal gate OK: recovered profile within %.2f of a cold rebuild (%d recovered rows, %d total)\n",
		tol, engine.Frame().Rows()-f.Rows(), engine.Frame().Rows())
	return nil
}
