package sketch

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"foresight/internal/frame"
	"foresight/internal/stats"
)

// TestPartitionedProfileMatchesSinglePass builds a prefix and folds
// the rest of the frame in with Extend: a batch that spans many
// direction blocks and holds more rows than the row sample. The merged
// profile is held to the one-pass build: moments up to association,
// dots to the one-pass projection at the stored centres, KLL within its
// error bounds, the row sample cell for cell, and the categorical
// sketches' bounds against exact counts.
func TestPartitionedProfileMatchesSinglePass(t *testing.T) {
	f := testFrame(12000, 41)
	cfg := ProfileConfig{Seed: 6, K: 256}
	const cut = 5000 // mid-block; the batch is 7 000 rows > RowSampleSize
	keep := make([]bool, f.Rows())
	for i := range cut {
		keep[i] = true
	}
	prefix, err := f.FilterRows(keep)
	if err != nil {
		t.Fatal(err)
	}
	parted, err := BuildProfile(prefix, cfg).Extend(f)
	if err != nil {
		t.Fatal(err)
	}
	single := BuildProfile(f, cfg)
	if parted.Rows != single.Rows {
		t.Fatalf("rows = %d, want %d", parted.Rows, single.Rows)
	}

	numeric := f.NumericColumns()
	cols, centers := make([][]float64, len(numeric)), make([]float64, len(numeric))
	for i, nc := range numeric {
		cols[i], centers[i] = nc.Values(), parted.Numeric[nc.Name()].ProjCenter
	}
	onePass := projectRange(cols, centers, 0, f.Rows(), ProjectConfig{K: parted.Config.K, Seed: cfg.Seed + 101})
	for i, nc := range numeric {
		name := nc.Name()
		snp, pnp := single.Numeric[name], parted.Numeric[name]
		// Moments: merged running sums equal the single pass within fp
		// associativity.
		if math.Abs(pnp.Moments.Mean-snp.Moments.Mean) > 1e-9*math.Max(1, math.Abs(snp.Moments.Mean)) {
			t.Errorf("%s: mean %v vs %v", name, pnp.Moments.Mean, snp.Moments.Mean)
		}
		if pnp.Moments.Count() != snp.Moments.Count() {
			t.Errorf("%s: count %d vs %d", name, pnp.Moments.Count(), snp.Moments.Count())
		}
		relTol := 1e-6 * math.Max(1, math.Abs(snp.Moments.Variance()))
		if math.Abs(pnp.Moments.Variance()-snp.Moments.Variance()) > relTol {
			t.Errorf("%s: variance %v vs %v", name, pnp.Moments.Variance(), snp.Moments.Variance())
		}
		// Projections: the same directions, so the merged dots are the
		// one-pass dots at the same centre up to association.
		if err := dotsClose(pnp.Proj, onePass[i]); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		// KLL quantiles: merged sketch stays within its error bounds.
		for _, q := range []float64{0.25, 0.5, 0.75} {
			exact := stats.Quantile(fColumn(t, f, name), q)
			got := pnp.Quantiles.Quantile(q)
			spread := snp.Moments.StdDev()
			if spread > 0 && math.Abs(got-exact) > 0.25*spread {
				t.Errorf("%s: merged q%v = %v, exact %v", name, q, got, exact)
			}
		}
		// The row sample is the same rows on both paths.
		ps, _ := parted.Sample().Numeric(name)
		ss, _ := single.Sample().Numeric(name)
		if !slices.EqualFunc(ps.Values(), ss.Values(), func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Errorf("%s: the row sample's values differ from the one-pass build's", name)
		}
	}
	// Hyperplane correlation estimates effectively identical.
	for _, pair := range [][2]string{{"x", "y"}, {"x", "z"}} {
		a, _ := single.EstimatePearson(pair[0], pair[1])
		b, _ := parted.EstimatePearson(pair[0], pair[1])
		if math.Abs(a-b) > 0.05 {
			t.Errorf("pearson(%v): partitioned %v vs single %v", pair, b, a)
		}
	}

	// Categorical: exact fields match; merged heavy hitters keep the
	// SpaceSaving bound true ∈ [Count−Err, Count] against exact counts.
	sc, pc := single.Categorical["cat"], parted.Categorical["cat"]
	if pc.Rows != sc.Rows || pc.Cardinality != sc.Cardinality {
		t.Errorf("cat rows, cardinality: %d, %d vs %d, %d", pc.Rows, pc.Cardinality, sc.Rows, sc.Cardinality)
	}
	cc, err := f.Categorical("cat")
	if err != nil {
		t.Fatal(err)
	}
	exact := map[string]uint64{}
	for _, code := range cc.Codes() {
		if code >= 0 {
			exact[cc.Dict()[code]]++
		}
	}
	for _, hh := range pc.Heavy.Top(5) {
		if truth := exact[hh.Item]; hh.Count < truth || hh.Count-hh.Err > truth {
			t.Errorf("heavy %q: [%d, %d] misses the true count %d", hh.Item, hh.Count-hh.Err, hh.Count, truth)
		}
	}
	if math.Abs(pc.Heavy.RelFreqTopK(3)-sc.Heavy.RelFreqTopK(3)) > 0.02 {
		t.Errorf("cat relfreq: %v vs %v", pc.Heavy.RelFreqTopK(3), sc.Heavy.RelFreqTopK(3))
	}
	if rel := math.Abs(pc.Distinct.Distinct()-sc.Distinct.Distinct()) / math.Max(sc.Distinct.Distinct(), 1); rel > 0.05 {
		t.Errorf("cat distinct: %v vs %v", pc.Distinct.Distinct(), sc.Distinct.Distinct())
	}
	// Row sample extended to the global level.
	if parted.RowSample.Len() != single.RowSample.Len() {
		t.Errorf("row sample len %d vs %d", parted.RowSample.Len(), single.RowSample.Len())
	}
}

func fColumn(t *testing.T, f *frame.Frame, name string) []float64 {
	t.Helper()
	c, err := f.Numeric(name)
	if err != nil {
		t.Fatal(err)
	}
	return c.Values()
}

// TestPartitionedEdgeCases: more workers than direction blocks or
// column tiles, and a count below one, are the sequential build; a
// frame with no rows still gets every column's (empty) sketches.
func TestPartitionedEdgeCases(t *testing.T) {
	f := testFrame(100, 42)
	cfg := ProfileConfig{Seed: 1, K: 32}
	want := saveBytes(t, BuildProfile(f, cfg))
	for _, workers := range []int{3, 1000, -1} {
		par := cfg
		par.Workers = workers
		if !bytes.Equal(saveBytes(t, BuildProfile(f, par)), want) {
			t.Errorf("workers=%d over one block differs from the sequential build", workers)
		}
	}
	// No rows (found by FuzzProfileRoundTrip when a row-split builder
	// divided by zero).
	empty, err := f.FilterRows(make([]bool, f.Rows()))
	if err != nil {
		t.Fatal(err)
	}
	p := BuildProfile(empty, ProfileConfig{Seed: 1, K: 32, Spearman: true, Workers: 3})
	if p.Rows != 0 || len(p.Numeric) != 4 || len(p.Categorical) != 1 {
		t.Fatalf("empty frame: rows %d, %d numeric, %d categorical", p.Rows, len(p.Numeric), len(p.Categorical))
	}
	if np := p.Numeric["x"]; np.Moments.Count() != 0 || np.Proj.K() != 32 || np.RankProj.K() != 32 || p.Sample().Rows() != 0 {
		t.Errorf("empty frame: x has count %d, %d dots, %d rank dots, %d sampled rows",
			np.Moments.Count(), np.Proj.K(), np.RankProj.K(), p.Sample().Rows())
	}
}

func TestProfileMergeErrors(t *testing.T) {
	f := testFrame(500, 43)
	a := BuildProfile(f, ProfileConfig{Seed: 1, K: 32})
	b := BuildProfile(f, ProfileConfig{Seed: 2, K: 32})
	if err := a.Merge(b); err != ErrShapeMismatch {
		t.Errorf("different seeds should mismatch, got %v", err)
	}
	c := BuildProfile(f, ProfileConfig{Seed: 1, K: 64})
	if err := a.Merge(c); err != ErrShapeMismatch {
		t.Errorf("different k should mismatch, got %v", err)
	}
	if err := a.Merge(nil); err != nil {
		t.Errorf("nil merge should no-op, got %v", err)
	}
	// Missing column.
	sub := selectColumns(t, f, "x", "y")
	d := BuildProfile(f, ProfileConfig{Seed: 1, K: 32})
	e := BuildProfile(sub, ProfileConfig{Seed: 1, K: 32})
	if err := e.Merge(d); err == nil {
		t.Error("merging superset into subset should fail on missing column")
	}
}

// selectColumns is a frame of f's named columns, in the given order.
func selectColumns(t *testing.T, f *frame.Frame, names ...string) *frame.Frame {
	t.Helper()
	cols := make([]frame.Column, len(names))
	for i, name := range names {
		c, ok := f.Lookup(name)
		if !ok {
			t.Fatalf("no column %q", name)
		}
		cols[i] = c
	}
	out, err := frame.New(f.Name(), cols...)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
