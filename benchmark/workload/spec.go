package workload

import (
	"fmt"
	"math/rand"
	"strings"
)

// BatchRows is the size of an ingest batch whose acknowledgement is
// timed; SmallBatchRows is the ingest that precedes a fresh read.
const (
	BatchRows      = 250
	SmallBatchRows = 10
)

// CarouselK is the carousel length every carousels request asks for.
const CarouselK = 5

// Rounds is how many times a run repeats the script, each from a
// freshly started process. Restart-bound metrics (set-up, cold
// carousel, recovery) get one sample per round.
const Rounds = 3

// RunSeconds is the run length the scripts are sized for on 2 vCPUs,
// BENCHMARK.json's run_seconds. It is not a knob: a floor is the
// minimum over a fixed number of samples, so runs of different lengths
// would not compare.
const RunSeconds = 30

// Loop names the main loop of a workload's script. Every round is
//
//	start → cold carousel → Cycles × the loop's cycle → [LoopExplore: read window] → kill
//	[WAL: → restart on the same directory → verify]
//
// and cycle_ms and alloc_mb_per_cycle are taken over that loop.
type Loop int

const (
	// LoopExplore is the analyst's cycle over the seeded focus pairs,
	// memo warm: carousels, POST focus, carousels, neighborhood,
	// overview, query, render, POST unfocus.
	LoopExplore Loop = iota
	// LoopFresh reads right behind a small write, so every carousel
	// follows a memo invalidation: 10-row ingest, carousels,
	// neighborhood, overview, query.
	LoopFresh
	// LoopStream is the write path: BatchesPerCycle timed 250-row
	// batches, then a 10-row ingest and the carousel behind it.
	LoopStream
)

// BatchesPerCycle is how many timed batches one LoopStream cycle posts.
const BatchesPerCycle = 8

// Spec is one workload: the dataset shape, the foresightd flags, the
// main loop and how many cycles of it a round runs. Shape, flags and
// loop are the workload; Cycles only sizes it to the time a run may
// take.
type Spec struct {
	Name, Why string
	Shape     Shape
	// Approx starts foresightd with -approx and sends approx=1 on the
	// read routes that take it, so reads are answered from sketches.
	Approx bool
	// CheckpointRows above 0 starts foresightd with -wal-dir and this
	// -checkpoint-rows, and ends each round with SIGKILL, a restart on
	// the same directory and a check that every acknowledged row came
	// back.
	CheckpointRows int
	Loop           Loop
	Cycles         int
}

// Specs lists the workloads in the order `-workload all` runs them.
var Specs = []Spec{
	{
		Name:   "explore_wide",
		Why:    "the paper's focus/carousel loop at attributes in the hundreds: 12720 pairs per bivariate class, memo warm, so query ranking, overview JSON and sketch estimates do the work",
		Shape:  Shape{Rows: 30000, Numeric: 160, Categorical: 8},
		Approx: true, Loop: LoopExplore, Cycles: 10,
	},
	{
		Name:  "explore_exact",
		Why:   "no sketches: every carousel follows a memo invalidation by ingest, so the exact stats and core kernels are nearly all of the work and JSON is negligible",
		Shape: Shape{Rows: 8000, Numeric: 32, Categorical: 4, LowCard: 1},
		Loop:  LoopFresh, Cycles: 6,
	},
	{
		Name:   "ingest_stream",
		Why:    "the write path (parse, frame append, sketch extend, WAL, async checkpoint) with reads right behind writes, then SIGKILL and recovery from snapshot plus WAL tail",
		Shape:  Shape{Rows: 20000, Numeric: 48, Categorical: 4},
		Approx: true, CheckpointRows: 10000, Loop: LoopStream, Cycles: 6,
	},
}

// Small returns the workload at a size `go test` can afford: the same
// flags and script on 400 × (8 + 2), two cycles. It is not a benchmark
// workload.
func (s Spec) Small() Spec {
	s.Name = "smoke_" + s.Name
	s.Shape = Shape{Rows: 400, Numeric: 8, Categorical: 2, LowCard: 1}
	s.Cycles = 2
	if s.CheckpointRows > 0 {
		s.CheckpointRows = 300
	}
	return s
}

// Lookup returns the named workload, or its Small version under the
// name that gives it.
func Lookup(name string) (Spec, error) {
	var names []string
	for _, s := range Specs {
		if s.Name == name {
			return s, nil
		}
		if small := s.Small(); small.Name == name {
			return small, nil
		}
		names = append(names, s.Name)
	}
	return Spec{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// CycleOps lists the requests of one cycle of the workload's main
// loop, by the name their latency is recorded under. cycle_ms is the
// sum of their floors.
func (s Spec) CycleOps() []string {
	switch s.Loop {
	case LoopFresh:
		return []string{"ingest_small", "fresh_carousel", "neighborhood", "overview", "query"}
	case LoopStream:
		ops := make([]string, BatchesPerCycle, BatchesPerCycle+2)
		for i := range ops {
			ops[i] = "ingest_ack"
		}
		return append(ops, "ingest_small", "fresh_carousel")
	}
	return []string{"carousel", "focus", "focused_carousel", "neighborhood", "overview", "query", "render", "unfocus"}
}

// AckFrom is the index of the first timed batch of a round that counts
// toward ingest_ack_ms: the acknowledgement grows with the frame, so
// the floor is taken over the last quarter of the stream, where the
// frame is largest.
func (s Spec) AckFrom() int {
	return BatchesPerCycle * (s.Cycles - max(1, s.Cycles/4))
}

// ExpectClasses filters the classes the server lists down to the ones
// a carousel over this shape must carry: the engine omits a class with
// no candidates, and segmentation has none unless a categorical has at
// most 12 levels.
func (s Spec) ExpectClasses(listed []string) []string {
	var out []string
	for _, c := range listed {
		if c == "segmentation" && s.Shape.LowCard == 0 {
			continue
		}
		out = append(out, c)
	}
	return out
}

// FocusPair is one seeded stop of the explore loop: the pair of
// numeric attributes the analyst focuses (a linear insight).
type FocusPair struct{ A, B string }

// FocusPairs returns up to n focus pairs in seeded order: the anchor
// pair of one factor block each. The analyst focuses what a carousel
// recommends, and the anchors are the pairs it recommends. A weak pair
// would also be a different amount of work: the neighborhood's
// insertion sort is quadratic in how many insights outrank the focus,
// 0.25 s for a top pair against 1.2 s for a weak one on explore_wide.
func (s Spec) FocusPairs(seed int64, n int) []FocusPair {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var pairs []FocusPair
	for _, b := range rng.Perm(s.Shape.Numeric / blockSize) {
		if len(pairs) == n {
			break
		}
		pairs = append(pairs, FocusPair{
			A: fmt.Sprintf("n%03d", b*blockSize),
			B: fmt.Sprintf("n%03d", b*blockSize+1),
		})
	}
	return pairs
}

// Metric declares one reported number.
type Metric struct {
	Name, Unit string
	// Higher is set where a larger value is better.
	Higher bool
	// Bound is, for a gated metric, the share of the parent's median by
	// which it may get worse before a change counts as a regression
	// (BENCHMARK.json repeats it; AA.md has the runs it was set from).
	Bound float64
}

// EndToEnd lists, in print order, the gated metrics: the ones every
// workload's script defines. Bounds follow the rule in AA.md: a timed
// metric that would need more than 20 % is not gated (setup_s stays
// regardless; BENCHMARK.json requires it).
var EndToEnd = []Metric{
	{Name: "setup_s", Unit: "s", Bound: 0.25},
	{Name: "cycle_ms", Unit: "ms", Bound: 0.20},
	{Name: "alloc_mb_per_cycle", Unit: "MB", Bound: 0.05},
	{Name: "peak_rss_mb", Unit: "MB", Bound: 0.25},
}

// Ungated names a metric of the untraced run that is not gated:
// BENCHMARK.json wants every gated metric from every workload, and
// these are either part of some scripts only (the explore requests,
// fresh_carousel_ms, ingest_ack_ms, recovery_s; 0 where the script has
// no such request) or too few samples a run to be steady (cold
// carousel: one per process). The traced run reports them all, so they
// stay on record.
func Ungated(name string) string { return "e2e." + name }

// Names of the ungated end-to-end metrics, without the prefix.
const (
	ColdCarouselMS    = "cold_carousel_ms"
	CarouselMS        = "carousel_ms"
	FocusedCarouselMS = "focused_carousel_ms"
	NeighborhoodMS    = "neighborhood_ms"
	OverviewMS        = "overview_ms"
	QueryMS           = "query_ms"
	ReadOpsPerS       = "read_ops_per_s"
	FreshCarouselMS   = "fresh_carousel_ms"
	IngestAckMS       = "ingest_ack_ms"
	RecoveryS         = "recovery_s"
	ErrorRate         = "error_rate"
)

// ClassNames are the twelve built-in insight classes, in registry
// order; the traced run reports one exact and one sketch scoring cost
// for each.
var ClassNames = []string{
	"linear", "outliers", "heavytails", "dispersion", "skew", "heavyhitters",
	"monotonic", "dependence", "catassoc", "multimodality", "segmentation", "uniformity",
}

// PerLayer lists what `-trace 1` reports, layer by layer. README.md
// says which end-to-end metric each is expected to move.
var PerLayer = perLayer()

func perLayer() []Metric {
	names := []string{}
	add := func(prefix string, rest ...string) {
		for _, r := range rest {
			names = append(names, prefix+r)
		}
	}
	add("e2e.", ColdCarouselMS, CarouselMS, FocusedCarouselMS, NeighborhoodMS, OverviewMS, QueryMS,
		ReadOpsPerS, FreshCarouselMS, IngestAckMS, RecoveryS, ErrorRate)
	add("frame.", "read_csv_s", "append_first_ms", "append_last_ms", "append_growth")
	add("sketch.", "build_s", "extend_ms", "estimate_pearson_us", "estimate_spearman_us", "save_ms", "load_ms", "wire_mb")
	add("stats.", "ranks_us", "spearman_pair_us", "pearson_pair_us", "dip_us", "binned_mi_pair_us")
	add("core.", "enumerate_ms", "candidates", "bound_us")
	add("core.score_exact_us.", ClassNames...)
	add("core.score_approx_us.", ClassNames...)
	add("query.", "carousels_cold_ms", "carousels_warm_ms", "carousels_fresh_ms", "recommend_focused_ms",
		"neighborhood_ms", "overview_ms", "execute_fixed_ms", "self_cold_ms", "self_fresh_ms",
		"ingest_ms", "ingest_self_ms", "memo_hit_ratio", "prune_skip_ratio")
	add("viz.", "render_exact_ms", "render_approx_ms")
	for _, route := range []string{"carousels", "overview", "neighborhood", "query", "render", "ingest"} {
		add("server."+route, "_handler_ms", "_self_ms", "_resp_kb")
	}
	add("server.", "overview_transport_ms")
	for _, op := range []string{"carousel", "neighborhood", "fresh_carousel", "ingest_ack"} {
		add("server."+op, "_p50_ms", "_phi_ms")
	}
	add("server.", "ingest_ack_first_ms", "ingest_ack_growth")
	add("durable.", "wal_append_ms", "checkpoint_ms", "recover_s", "snapshot_mb", "write_amp",
		"replayed_batches", "fsyncs", "checkpoints")
	add("obs.", "metrics_scrape_ms", "stats_ms", "trace_overhead_pct")
	add("bench.", "gc_per_100_cycles", "contention_ratio")
	add("layers.carousels.", "transport_ms", "server_ms", "query_ms", "sum_ms")
	add("layers.ingest.", "transport_ms", "server_ms", "query_ms", "frame_ms", "sketch_ms", "durable_ms", "sum_ms")
	out := make([]Metric, len(names))
	for i, n := range names {
		out[i] = Metric{Name: n, Unit: unitOf(n), Higher: strings.HasSuffix(n, "_hit_ratio") ||
			strings.HasSuffix(n, "_skip_ratio") || strings.HasSuffix(n, "_per_s")}
	}
	return out
}

// unitOf reads a per-layer metric's unit off its name.
func unitOf(name string) string {
	for _, u := range []struct{ mark, unit string }{
		{"_us.", "us"}, {"_per_s", "1/s"}, {"_ms", "ms"}, {"_us", "us"}, {"_s", "s"},
		{"_mb", "MB"}, {"_kb", "KB"}, {"_pct", "%"},
		{"_ratio", "ratio"}, {"_growth", "ratio"}, {"_amp", "ratio"}, {"_rate", "ratio"},
	} {
		if strings.HasSuffix(name, u.mark) || (strings.HasSuffix(u.mark, ".") && strings.Contains(name, u.mark)) {
			return u.unit
		}
	}
	return "count"
}

// FocusCount is how many distinct focus pairs the explore loop cycles
// through.
const FocusCount = 10
