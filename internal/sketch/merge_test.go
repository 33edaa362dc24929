package sketch

import (
	"bytes"
	"math"
	"slices"
	"testing"

	"foresight/internal/frame"
	"foresight/internal/stats"
)

func TestPartitionedProfileMatchesSinglePass(t *testing.T) {
	f := testFrame(12000, 41)
	cfg := ProfileConfig{Seed: 6, K: 256}
	single := BuildProfile(f, cfg)
	// An odd shard count over 47 direction blocks: the partials are
	// unequal (15, 16 and 16 blocks) and the tree has a bye.
	parted := BuildProfileSharded(f, cfg, 3)

	if parted.Rows != single.Rows {
		t.Fatalf("rows = %d, want %d", parted.Rows, single.Rows)
	}
	for name, snp := range single.Numeric {
		pnp := parted.Numeric[name]
		if pnp == nil {
			t.Fatalf("numeric %q missing", name)
		}
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
		// Projections: identical directions, so dots agree to fp noise.
		for i := range snp.Proj.Dots {
			d := math.Abs(pnp.Proj.Dots[i] - snp.Proj.Dots[i])
			if d > 1e-6*math.Max(1, math.Abs(snp.Proj.Dots[i])) {
				t.Fatalf("%s: dot %d differs: %v vs %v", name, i, pnp.Proj.Dots[i], snp.Proj.Dots[i])
			}
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
	}
	// Hyperplane correlation estimates effectively identical.
	for _, pair := range [][2]string{{"x", "y"}, {"x", "z"}} {
		a, _ := single.EstimatePearson(pair[0], pair[1])
		b, _ := parted.EstimatePearson(pair[0], pair[1])
		if math.Abs(a-b) > 0.05 {
			t.Errorf("pearson(%v): partitioned %v vs single %v", pair, b, a)
		}
	}
	// Categorical sketches merged.
	sc := single.Categorical["cat"]
	pc := parted.Categorical["cat"]
	if pc.Rows != sc.Rows {
		t.Errorf("cat rows: %d vs %d", pc.Rows, sc.Rows)
	}
	if math.Abs(pc.Heavy.RelFreqTopK(3)-sc.Heavy.RelFreqTopK(3)) > 0.02 {
		t.Errorf("cat relfreq: %v vs %v", pc.Heavy.RelFreqTopK(3), sc.Heavy.RelFreqTopK(3))
	}
	if rel := math.Abs(pc.Distinct.Distinct()-sc.Distinct.Distinct()) / math.Max(sc.Distinct.Distinct(), 1); rel > 0.05 {
		t.Errorf("cat distinct: %v vs %v", pc.Distinct.Distinct(), sc.Distinct.Distinct())
	}
	// Row sample rebuilt at the global level.
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

func TestPartitionedEdgeCases(t *testing.T) {
	f := testFrame(100, 42)
	// Fewer direction blocks than shards, more shards than rows, and a
	// count below one: all one shard, the plain build.
	want := saveBytes(t, BuildProfile(f, ProfileConfig{Seed: 1, K: 32}))
	for _, shards := range []int{3, 1000, 0} {
		p := BuildProfileSharded(f, ProfileConfig{Seed: 1, K: 32}, shards)
		if p.Rows != 100 {
			t.Errorf("shards=%d: rows = %d", shards, p.Rows)
		}
		if !bytes.Equal(saveBytes(t, p), want) {
			t.Errorf("shards=%d over one block differs from the one-shard build", shards)
		}
	}
	// No rows: every column still gets its (empty) sketches (found by
	// FuzzProfileRoundTrip when the partitioned builder divided by zero).
	empty, err := f.FilterRows(make([]bool, f.Rows()))
	if err != nil {
		t.Fatal(err)
	}
	p := BuildProfileSharded(empty, ProfileConfig{Seed: 1, K: 32, Spearman: true}, 3)
	if p.Rows != 0 || len(p.Numeric) != 4 || len(p.Categorical) != 1 {
		t.Fatalf("empty frame: rows %d, %d numeric, %d categorical", p.Rows, len(p.Numeric), len(p.Categorical))
	}
	if np := p.Numeric["x"]; np.Moments.Count() != 0 || np.Proj.K() != 32 || np.RankProj.K() != 32 || np.Sample.Count() != 0 {
		t.Errorf("empty frame: x has count %d, %d dots, %d rank dots, %d sampled",
			np.Moments.Count(), np.Proj.K(), np.RankProj.K(), np.Sample.Count())
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
	sub, err := f.Select("x", "y")
	if err != nil {
		t.Fatal(err)
	}
	d := BuildProfile(f, ProfileConfig{Seed: 1, K: 32})
	e := BuildProfile(sub, ProfileConfig{Seed: 1, K: 32})
	if err := e.Merge(d); err == nil {
		t.Error("merging superset into subset should fail on missing column")
	}
}

func TestMergeReservoirs(t *testing.T) {
	a := NewReservoir(100, 1)
	b := NewReservoir(100, 2)
	for i := 0; i < 1000; i++ {
		a.Update(0) // stream A is all zeros
		b.Update(1) // stream B is all ones
	}
	m := mergeReservoirs(a, b)
	if m.Count() != 2000 {
		t.Fatalf("merged count = %d", m.Count())
	}
	ones := 0
	for _, v := range m.Sample() {
		if v == 1 {
			ones++
		}
	}
	// Expect ≈50% from each stream.
	if ones < 25 || ones > 75 {
		t.Errorf("merged sample has %d/100 ones, want ≈50", ones)
	}
	// Degenerate sides.
	empty := NewReservoir(100, 5)
	if got := mergeReservoirs(a, empty); got != a {
		t.Error("empty rhs should return lhs")
	}
	// An empty lhs takes the rhs sample but keeps its own coin stream.
	got := mergeReservoirs(empty, b)
	if got == b || got.seed != empty.seed || got.Count() != b.Count() || !slices.Equal(got.Sample(), b.Sample()) {
		t.Errorf("empty lhs: seed %d count %d, want the rhs sample under seed %d", got.seed, got.Count(), empty.seed)
	}
}
