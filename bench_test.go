// Benchmarks mirroring the paper's evaluation, one per experiment in
// DESIGN.md §5 (E1–E8) plus ablation micro-benchmarks for the sketch
// parameters. The full parameter sweeps with paper-scale sizes live in
// cmd/foresight-bench; these benchmarks use moderate sizes so the
// whole suite runs in minutes on one core.
package foresight_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"testing"
	"time"

	"foresight"
	"foresight/internal/bench"
	"foresight/internal/core"
	"foresight/internal/datagen"
	"foresight/internal/frame"
	"foresight/internal/query"
	"foresight/internal/sketch"
	"foresight/internal/stats"
)

// --- E1 / Figure 1: carousel generation ---

func BenchmarkE1Carousels(b *testing.B) {
	f := datagen.OECD(0, 42)
	engine, err := query.NewEngine(f, core.NewRegistry(), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Carousels(5, false); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E2 / Figure 2: overview heat map ---

func BenchmarkE2Overview(b *testing.B) {
	f := datagen.OECD(0, 42)
	engine, err := query.NewEngine(f, core.NewRegistry(), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ov, err := engine.Overview("linear", "", false)
		if err != nil {
			b.Fatal(err)
		}
		_ = foresight.CorrelogramSVG(ov, "bench")
	}
}

// --- E3: sketch estimator accuracy (measured as throughput here;
// accuracy numbers come from cmd/foresight-bench / the E3 test) ---

func BenchmarkE3HyperplaneEstimate(b *testing.B) {
	f := datagen.Scalable(datagen.ScalableConfig{Rows: 20000, NumericCols: 2, Seed: 1})
	p := sketch.BuildProfile(f, sketch.ProfileConfig{K: 256, Seed: 1})
	names := f.Names()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.EstimatePearson(names[0], names[1]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE3ExactPearson(b *testing.B) {
	f := datagen.Scalable(datagen.ScalableConfig{Rows: 20000, NumericCols: 2, Seed: 1})
	x := f.NumericColumns()[0].Values()
	y := f.NumericColumns()[1].Values()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats.Pearson(x, y)
	}
}

// --- E4: preprocessing, exact vs sketch ---

func BenchmarkE4PreprocessExact(b *testing.B) {
	f := datagen.Scalable(datagen.ScalableConfig{Rows: 10000, NumericCols: 50, Seed: 2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = bench.BuildExactStore(f, false)
	}
}

func BenchmarkE4PreprocessSketch(b *testing.B) {
	f := datagen.Scalable(datagen.ScalableConfig{Rows: 10000, NumericCols: 50, Seed: 2})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sketch.BuildProfile(f, sketch.ProfileConfig{K: 64, Seed: 1})
	}
}

// --- E5: interactive query latency over a preprocessed store ---

func newE5Engine(b *testing.B) *query.Engine {
	b.Helper()
	f := datagen.Scalable(datagen.ScalableConfig{Rows: 20000, NumericCols: 64, CatCols: 3, Seed: 3})
	p := sketch.BuildProfile(f, sketch.ProfileConfig{K: 64, Seed: 3, Spearman: true})
	engine, err := query.NewEngine(f, core.NewRegistry(), p)
	if err != nil {
		b.Fatal(err)
	}
	return engine
}

func BenchmarkE5CarouselsApprox(b *testing.B) {
	engine := newE5Engine(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Execute(query.Query{K: 5, Approx: true}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE5FixedAttrQuery(b *testing.B) {
	engine := newE5Engine(b)
	fixed := engine.Frame().NumericColumns()[0].Name()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := engine.Execute(query.Query{Classes: []string{"linear"}, Fixed: []string{fixed}, K: 10, Approx: true})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE5RangeFilterQuery(b *testing.B) {
	engine := newE5Engine(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := engine.Execute(query.Query{Classes: []string{"linear"}, MinScore: 0.3, MaxScore: 0.6, Approx: true})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE5NeighborhoodQuery(b *testing.B) {
	engine := newE5Engine(b)
	top, err := engine.Execute(query.Query{Classes: []string{"linear"}, K: 1, Approx: true})
	if err != nil || len(top) == 0 {
		b.Fatal("no focus insight")
	}
	focus := top[0].Insights[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Neighborhood(focus, []string{"linear"}, 10, true); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E6: all-pairs correlation, exact O(d²n) vs sketch O(d²k) ---

func BenchmarkE6AllPairsExact(b *testing.B) {
	f := datagen.Scalable(datagen.ScalableConfig{Rows: 20000, NumericCols: 48, Seed: 4})
	engine, err := query.NewEngine(f, core.NewRegistry(), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Overview("linear", "", false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE6AllPairsSketch(b *testing.B) {
	f := datagen.Scalable(datagen.ScalableConfig{Rows: 20000, NumericCols: 48, Seed: 4})
	p := sketch.BuildProfile(f, sketch.ProfileConfig{K: 64, Seed: 4})
	engine, err := query.NewEngine(f, core.NewRegistry(), p)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Overview("linear", "", true); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E7: the scripted usage scenario end to end ---

func BenchmarkE7Scenario(b *testing.B) {
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := bench.RunE7Scenario(io.Discard, "", 42); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E8: demo-dataset insight extraction ---

func BenchmarkE8IMDBCarousels(b *testing.B) {
	f := datagen.IMDB(0, 7)
	engine, err := query.NewEngine(f, core.NewRegistry(), nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Carousels(1, false); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablation micro-benchmarks: per-sketch costs ---

func BenchmarkSketchKLLUpdate(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	s := sketch.NewKLL(200, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Update(rng.NormFloat64())
	}
}

func BenchmarkSketchSpaceSavingUpdate(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	z := rand.NewZipf(rng, 1.3, 1, 9999)
	items := make([]string, 4096)
	for i := range items {
		items[i] = fmt.Sprintf("item%d", z.Uint64())
	}
	s := sketch.NewSpaceSaving(128)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Update(items[i&4095])
	}
}

func BenchmarkSketchKMVUpdate(b *testing.B) {
	items := make([]string, 4096)
	for i := range items {
		items[i] = fmt.Sprintf("key-%d", i)
	}
	s := sketch.NewKMV(1024)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Update(items[i&4095])
	}
}

func BenchmarkSketchMomentsAdd(b *testing.B) {
	var m sketch.Moments
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 4096)
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Add(vals[i&4095])
	}
}

// ingestBenchFrame is a base×(numeric+cats) frame and the batch the
// ingest benchmarks append to it (its own first rows, as string cells).
func ingestBenchFrame(base, numeric, cats, batchRows int) (*frame.Frame, frame.RowBatch) {
	f := datagen.Scalable(datagen.ScalableConfig{Rows: base, NumericCols: numeric, CatCols: cats, Seed: 5})
	return f, headBatch(f, batchRows)
}

// headBatch renders f's first rows as an ingest batch of string cells.
func headBatch(f *frame.Frame, rows int) frame.RowBatch {
	batch := frame.RowBatch{Records: make([][]string, rows)}
	for r := range batch.Records {
		rec := make([]string, f.Cols())
		for c := range rec {
			rec[c] = f.Column(c).StringAt(r)
		}
		batch.Records[r] = rec
	}
	return batch
}

// withLowCard is f plus a categorical column "lowcard" of the given
// number of levels: few enough (≤ 12) for the segmentation class to take
// it. Unlinked, the levels cycle row by row and segment nothing; linked,
// a row's level is its standardised |num000|·levels/3, capped, so it
// follows num000's block as the repository benchmark's c00 follows a
// factor.
func withLowCard(b *testing.B, f *frame.Frame, levels int, linked bool) *frame.Frame {
	b.Helper()
	labels := make([]string, f.Rows())
	anchor, err := f.Numeric("num000")
	if err != nil {
		b.Fatal(err)
	}
	z := anchor.Ordered()
	for i := range labels {
		level := i % levels
		if linked {
			level = min(levels-1, int(math.Abs(z.Values[i]-z.Mean)/z.StdDev*float64(levels)/3))
		}
		labels[i] = fmt.Sprintf("level%d", level)
	}
	cols := make([]frame.Column, 0, f.Cols()+1)
	for c := 0; c < f.Cols(); c++ {
		cols = append(cols, f.Column(c))
	}
	out, err := frame.New(f.Name()+"+lowcard", append(cols, frame.NewCategoricalColumn("lowcard", labels))...)
	if err != nil {
		b.Fatal(err)
	}
	return out
}

// BenchmarkBuildProfile is the startup build at the repository
// benchmark's explore_wide shape, 30 000 rows × (160+8) with rank
// projections, on 1, 2 and GOMAXPROCS workers. It reports what the
// workers buy on the machine it runs on and gates nothing; that every
// worker count saves to the same bytes is TestBuildProfileBytesPinned's.
func BenchmarkBuildProfile(b *testing.B) {
	f := datagen.Scalable(datagen.ScalableConfig{Rows: 30000, NumericCols: 160, CatCols: 8, Seed: 5})
	for _, workers := range []int{1, 2, -1} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 1, Spearman: true, Workers: workers})
			}
		})
	}
}

// BenchmarkStartup is what foresightd does between exec and /readyz on
// a CSV, at the repository benchmark's explore_wide and ingest_stream
// shapes: frame.ReadCSV over the file's bytes, then the profile build
// with rank projections on every core. It reports the two halves
// (read_s, build_s) and the reader's throughput, and gates nothing.
func BenchmarkStartup(b *testing.B) {
	for _, c := range []struct {
		name                string
		rows, numeric, cats int
	}{
		{"wide", 30000, 160, 8},
		{"stream", 20000, 48, 4},
	} {
		b.Run(c.name, func(b *testing.B) {
			var csv bytes.Buffer
			src := datagen.Scalable(datagen.ScalableConfig{Rows: c.rows, NumericCols: c.numeric, CatCols: c.cats, Seed: 5})
			if err := src.WriteCSV(&csv); err != nil {
				b.Fatal(err)
			}
			var read, build time.Duration
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				start := time.Now()
				f, err := frame.ReadCSV(bytes.NewReader(csv.Bytes()), c.name, nil)
				if err != nil {
					b.Fatal(err)
				}
				read += time.Since(start)
				start = time.Now()
				sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 42, Spearman: true, Workers: -1})
				build += time.Since(start)
			}
			b.ReportMetric(read.Seconds()/float64(b.N), "read_s")
			b.ReportMetric(build.Seconds()/float64(b.N), "build_s")
			b.ReportMetric(float64(csv.Len())*float64(b.N)/1e6/read.Seconds(), "MB/s")
		})
	}
}

// BenchmarkExtend is the sketch half of one ingest acknowledgement: a
// 250-row batch folded into the profile of a base of 8K, 32K and 128K
// rows × (16+2) (K fixed so the bases differ in nothing else) — O(batch)
// means ns/op is flat across the bases — and, at the repository
// benchmark's ingest shape, 30 000 rows × (48+4) under the default
// sizes, a 250-row, a 10-row and an 8 192-row batch: what the small one
// still costs is the per-profile overhead. Each runs on 1 and 2 workers,
// the profile's Config.Workers, which Extend runs on.
func BenchmarkExtend(b *testing.B) {
	for _, c := range []struct {
		name                      string
		base, numeric, cats, rows int
		cfg                       sketch.ProfileConfig
	}{
		{"base=8k", 8 << 10, 16, 2, 250, sketch.ProfileConfig{Seed: 1, K: 256}},
		{"base=32k", 32 << 10, 16, 2, 250, sketch.ProfileConfig{Seed: 1, K: 256}},
		{"base=128k", 128 << 10, 16, 2, 250, sketch.ProfileConfig{Seed: 1, K: 256}},
		{"wide/batch=250", 30000, 48, 4, 250, sketch.ProfileConfig{Seed: 1}},
		{"wide/batch=10", 30000, 48, 4, 10, sketch.ProfileConfig{Seed: 1}},
		{"wide/batch=8192", 30000, 48, 4, 8192, sketch.ProfileConfig{Seed: 1}},
	} {
		b.Run(c.name, func(b *testing.B) {
			f, batch := ingestBenchFrame(c.base, c.numeric, c.cats, c.rows)
			f2, err := f.AppendRows(batch, nil)
			if err != nil {
				b.Fatal(err)
			}
			for _, workers := range []int{1, 2} {
				b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
					cfg := c.cfg
					cfg.Workers = workers
					p := sketch.BuildProfile(f, cfg)
					b.ReportAllocs()
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						if _, err := p.Extend(f2); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		})
	}
}

// BenchmarkAppendRowsChain is the frame half: one op is a chain of 40
// successive 250-row appends onto a 20 000-row frame, each onto the
// frame the one before returned, as live ingest does.
func BenchmarkAppendRowsChain(b *testing.B) {
	base, batch := ingestBenchFrame(20000, 16, 2, 250)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := base
		for j := 0; j < 40; j++ {
			var err error
			if f, err = f.AppendRows(batch, nil); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func BenchmarkStatsDip(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	vals := make([]float64, 2048)
	for i := range vals {
		vals[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats.Dip(vals)
	}
}

func BenchmarkStatsSpearman(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	n := 10000
	x := make([]float64, n)
	y := make([]float64, n)
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = x[i] + rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats.Spearman(x, y)
	}
}

// --- Scoring cache: repeated-query serving (ISSUE 1 tentpole) ---

func newCacheBenchEngine(b *testing.B) *query.Engine {
	b.Helper()
	f := datagen.Scalable(datagen.ScalableConfig{Rows: 4000, NumericCols: 24, CatCols: 3, Seed: 12})
	engine, err := query.NewEngine(f, core.NewRegistry(), nil)
	if err != nil {
		b.Fatal(err)
	}
	return engine
}

// BenchmarkQueryCold scores every candidate from scratch on each
// request (memo dropped first): the pre-cache serving cost.
func BenchmarkQueryCold(b *testing.B) {
	engine := newCacheBenchEngine(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := engine.RestoreSnapshot(engine.Frame(), nil); err != nil {
			b.Fatal(err)
		}
		if _, err := engine.Carousels(5, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQueryCached serves the same request from the memo: only
// filtering and top-k ranking remain on the hot path.
func BenchmarkQueryCached(b *testing.B) {
	engine := newCacheBenchEngine(b)
	if _, err := engine.Carousels(5, false); err != nil { // warm the memo
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Carousels(5, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOverviewCached measures the Figure-2 heat map served from
// the memo (cold cost is BenchmarkE2Overview/E6AllPairsExact).
func BenchmarkOverviewCached(b *testing.B) {
	engine := newCacheBenchEngine(b)
	if _, err := engine.Overview("linear", "", false); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Overview("linear", "", false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWarmExploreCycle is the analyst's loop on a warm engine at
// 64 numeric columns (2016 pairs per bivariate class), answered from
// the sketches: carousel, focused carousel, neighborhood, overview.
// Every reply is a read of the generation's class views, so time and
// allocations follow the replies, not the classes.
func BenchmarkWarmExploreCycle(b *testing.B) {
	f := datagen.Scalable(datagen.ScalableConfig{Rows: 2000, NumericCols: 64, Seed: 12})
	p := sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 12, K: 128, Spearman: true})
	engine, err := query.NewEngine(f, core.NewRegistry(), p)
	if err != nil {
		b.Fatal(err)
	}
	plain, focused := query.NewSession(engine, 5, true), query.NewSession(engine, 5, true)
	top, err := engine.Execute(query.Query{Classes: []string{"linear"}, K: 40, Approx: true})
	if err != nil {
		b.Fatal(err)
	}
	focus := top[0].Insights[len(top[0].Insights)-1]
	focused.FocusOn(focus)
	cycle := func() {
		_, err1 := plain.RecommendationsK(5)
		_, err2 := focused.RecommendationsK(5)
		_, err3 := engine.Neighborhood(focus, nil, 10, true)
		_, err4 := engine.Overview("linear", "", true)
		if err := errors.Join(err1, err2, err3, err4); err != nil {
			b.Fatal(err)
		}
	}
	cycle() // the cold carousel scores every candidate once
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}

// BenchmarkColdCarousel is the first carousel a user of each demo
// dataset sees: an exact session carousel on an empty memo, the engine
// set up as foresightd sets it up (sketch store built, all cores). It
// reports and gates nothing.
func BenchmarkColdCarousel(b *testing.B) {
	for _, f := range []*frame.Frame{datagen.OECD(0, 42), datagen.Parkinson(0, 42), datagen.IMDB(0, 42)} {
		b.Run(f.Name(), func(b *testing.B) {
			p := sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 42, Spearman: true})
			engine, err := query.NewEngine(f, core.NewRegistry(), p)
			if err != nil {
				b.Fatal(err)
			}
			engine.SetWorkers(0)
			session := query.NewSession(engine, 5, false)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := engine.RestoreSnapshot(f, nil); err != nil {
					b.Fatal(err)
				}
				if _, err := session.Recommendations(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFreshCarousel is the read right behind a small write at the
// repository benchmark's ingest_stream shape, 20 000 rows × (48+4) with
// the sketch store foresightd builds: one op is a 10-row Engine.Ingest,
// then an approx session carousel on the memo that ingest invalidated.
// Extend carries no rank projections, so monotonic scores every pair by
// exact Spearman on the row sample. It is the in-process counterpart of
// e2e.fresh_carousel_ms, reports the carousel alone as carousel_ms, and
// gates nothing.
func BenchmarkFreshCarousel(b *testing.B) {
	f, batch := ingestBenchFrame(20000, 48, 4, 10)
	freshCarousel(b, f, batch, true)
}

// BenchmarkFreshCarouselExact is the same op at the repository
// benchmark's explore_exact shape, 8 000 rows × (32+4) with one
// categorical of four levels, so segmentation has 496 triples: a 10-row
// Engine.Ingest, then an exact session carousel on every core. It is
// the in-process counterpart of explore_exact's cycle_ms, reports the
// carousel alone as carousel_ms and the segmentation triples it scored
// as triples_scored, and gates nothing. The categorical comes two ways:
//
//   - cycled: no level segments anything, so every silhouette is ≤ 0
//     and all 496 scores tie at 0. The certificates the previous
//     carousel left bound every triple by 0 as well, which rules none
//     out, so every op scores all 496.
//   - linked: the levels follow num000's block, as explore_exact's c00
//     follows a factor. The certificates rule out all but the triples
//     near the top five, so an op scores a handful.
func BenchmarkFreshCarouselExact(b *testing.B) {
	base := datagen.Scalable(datagen.ScalableConfig{Rows: 8000, NumericCols: 32, CatCols: 3, Seed: 5})
	for _, linked := range []bool{false, true} {
		name := "cycled"
		if linked {
			name = "linked"
		}
		b.Run(name, func(b *testing.B) {
			f := withLowCard(b, base, 4, linked)
			if got := len(core.NewSegmentationClass(0, 0).Candidates(f)); got != 496 {
				b.Fatalf("%d segmentation triples, want 496", got)
			}
			freshCarousel(b, f, headBatch(f, 10), false)
		})
	}
}

// freshCarousel times one op of the fresh-carousel benchmarks on f with
// the sketch store foresightd builds: ingest batch, then a session
// carousel (from the sketches when approx) on every core, reported
// alone as carousel_ms. One untimed op first leaves what a carousel
// leaves for the next. triples_scored is what the carousel's
// bound-ordered passes scored, which only segmentation's (certificates,
// exact) takes.
func freshCarousel(b *testing.B, f *frame.Frame, batch frame.RowBatch, approx bool) {
	p := sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 42, Spearman: true, Workers: -1})
	engine, err := query.NewEngine(f, core.NewRegistry(), p)
	if err != nil {
		b.Fatal(err)
	}
	engine.SetWorkers(0)
	session := query.NewSession(engine, 5, approx)
	op := func() time.Duration {
		if _, err := engine.Ingest(context.Background(), batch, nil); err != nil {
			b.Fatal(err)
		}
		start := time.Now()
		if _, err := session.Recommendations(); err != nil {
			b.Fatal(err)
		}
		return time.Since(start)
	}
	op()
	before := engine.PruneStats()
	var carousel time.Duration
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		carousel += op()
	}
	b.StopTimer()
	after := engine.PruneStats()
	b.ReportMetric(carousel.Seconds()*1e3/float64(b.N), "carousel_ms")
	b.ReportMetric(float64((after.Considered-before.Considered)-(after.Pruned-before.Pruned))/float64(b.N), "triples_scored")
}

// BenchmarkSegmentationWide is the segmentation class pass at the shape
// the repository benchmark's explore_wide avoids (ROADMAP 6(d)): 30 000
// rows × 160 numeric columns and one 8-level categorical, answered from
// the sketches — 12 720 triples of 512 sampled points each. It reports
// what a cold carousel would pay for the class there and gates nothing.
func BenchmarkSegmentationWide(b *testing.B) {
	f := withLowCard(b, datagen.Scalable(datagen.ScalableConfig{Rows: 30000, NumericCols: 160, Seed: 5}), 8, false)
	if got := len(core.NewSegmentationClass(0, 0).Candidates(f)); got != 12720 {
		b.Fatalf("%d segmentation triples, want 12720", got)
	}
	engine, err := query.NewEngine(f, core.NewRegistry(), sketch.BuildProfile(f, sketch.ProfileConfig{Seed: 5}))
	if err != nil {
		b.Fatal(err)
	}
	engine.SetWorkers(0)
	q := query.Query{Classes: []string{"segmentation"}, Approx: true}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := engine.RestoreSnapshot(f, nil); err != nil {
			b.Fatal(err)
		}
		if _, err := engine.Execute(q); err != nil {
			b.Fatal(err)
		}
	}
}

// --- TopK: bounded min-heap vs full sort ---

func benchInsights(n int, seed int64) []core.Insight {
	rng := rand.New(rand.NewSource(seed))
	ins := make([]core.Insight, n)
	for i := range ins {
		ins[i] = core.Insight{
			Class:  "linear",
			Metric: "pearson",
			Attrs:  []string{fmt.Sprintf("x%05d", i), fmt.Sprintf("y%05d", rng.Intn(n))},
			Score:  rng.Float64(),
		}
	}
	return ins
}

func BenchmarkTopKHeap(b *testing.B) {
	for _, n := range []int{1000, 20000} {
		b.Run(fmt.Sprintf("n=%d/k=10", n), func(b *testing.B) {
			ins := benchInsights(n, int64(n))
			buf := make([]core.Insight, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(buf, ins)
				_ = core.TopK(buf, 10)
			}
		})
	}
}

// BenchmarkTopKSort is the pre-heap baseline: sort everything, slice
// off the head.
func BenchmarkTopKSort(b *testing.B) {
	for _, n := range []int{1000, 20000} {
		b.Run(fmt.Sprintf("n=%d/k=10", n), func(b *testing.B) {
			ins := benchInsights(n, int64(n))
			buf := make([]core.Insight, n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(buf, ins)
				core.SortInsights(buf)
				_ = buf[:10]
			}
		})
	}
}
