package sketch

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"foresight/internal/stats"
)

func TestKLLExactWhenSmall(t *testing.T) {
	s := NewKLL(200, 1)
	for i := 1; i <= 100; i++ {
		s.Update(float64(i))
	}
	if s.Count() != 100 {
		t.Fatalf("Count = %d, want 100", s.Count())
	}
	// With n < k the sketch holds everything; quantiles are exact up
	// to the rank convention.
	if m := s.Quantile(0.5); math.Abs(m-50) > 1 {
		t.Errorf("Median = %v, want ≈50", m)
	}
	if q := s.Quantile(0); q != 1 {
		t.Errorf("Quantile(0) = %v, want 1", q)
	}
	if q := s.Quantile(1); q != 100 {
		t.Errorf("Quantile(1) = %v, want 100", q)
	}
}

func TestKLLEmptyAndInvalid(t *testing.T) {
	s := NewKLL(0, 1) // k<8 coerced to default
	if !math.IsNaN(s.Quantile(0.5)) {
		t.Error("empty sketch quantile should be NaN")
	}
	if !math.IsNaN(s.CDF(1)) {
		t.Error("empty sketch CDF should be NaN")
	}
	s.Update(5)
	if !math.IsNaN(s.Quantile(-0.1)) || !math.IsNaN(s.Quantile(1.1)) || !math.IsNaN(s.Quantile(math.NaN())) {
		t.Error("out-of-range q should be NaN")
	}
	s.Update(math.NaN())
	if s.Count() != 1 {
		t.Error("NaN update should be ignored")
	}
}

func TestKLLRankErrorUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := 200000
	s := NewKLL(200, 5)
	for i := 0; i < n; i++ {
		s.Update(rng.Float64())
	}
	if s.StoredItems() > 3000 {
		t.Errorf("sketch stores %d items; should be compact", s.StoredItems())
	}
	// Rank error at several quantiles should be small (≲1.5% of n for
	// k=200).
	for _, q := range []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99} {
		got := s.Quantile(q)
		if math.Abs(got-q) > 0.015 {
			t.Errorf("Quantile(%v) = %v, want within 0.015", q, got)
		}
		cdf := s.CDF(q)
		if math.Abs(cdf-q) > 0.015 {
			t.Errorf("CDF(%v) = %v, want within 0.015", q, cdf)
		}
	}
}

func TestKLLVersusExactNormal(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	n := 50000
	xs := make([]float64, n)
	s := NewKLL(200, 9)
	for i := range xs {
		xs[i] = rng.NormFloat64()
		s.Update(xs[i])
	}
	sort.Float64s(xs)
	qs := []float64{0.25, 0.5, 0.75}
	got := s.Quantiles(qs)
	for i, q := range qs {
		want := stats.QuantileSorted(xs, q)
		if math.Abs(got[i]-want) > 0.05 {
			t.Errorf("q%v: got %v want %v", q, got[i], want)
		}
	}
	if math.Abs(s.IQR()-(got[2]-got[0])) > 1e-12 {
		t.Error("IQR should equal q75−q25")
	}
}

func TestKLLMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := NewKLL(200, 10)
	b := NewKLL(200, 11)
	full := NewKLL(200, 12)
	for i := 0; i < 30000; i++ {
		v := rng.NormFloat64()
		if i%2 == 0 {
			a.Update(v)
		} else {
			b.Update(v)
		}
		full.Update(v)
	}
	if err := a.Merge(b); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if a.Count() != 30000 {
		t.Fatalf("merged Count = %d, want 30000", a.Count())
	}
	for _, q := range []float64{0.1, 0.5, 0.9} {
		if d := math.Abs(a.Quantile(q) - full.Quantile(q)); d > 0.08 {
			t.Errorf("merged q%v differs from full-stream by %v", q, d)
		}
	}
	if err := a.Merge(nil); err != nil {
		t.Errorf("Merge(nil) = %v", err)
	}
}

func TestKLLMergeDifferentLevels(t *testing.T) {
	big := NewKLL(64, 1)
	for i := 0; i < 100000; i++ {
		big.Update(float64(i))
	}
	small := NewKLL(64, 2)
	small.Update(5)
	// Merging a deep sketch into a shallow one must grow the shallow.
	if err := small.Merge(big); err != nil {
		t.Fatalf("Merge: %v", err)
	}
	if small.Count() != 100001 {
		t.Errorf("Count = %d", small.Count())
	}
	med := small.Quantile(0.5)
	if math.Abs(med-50000) > 3000 {
		t.Errorf("median after deep merge = %v, want ≈50000", med)
	}
}

func TestKLLClone(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	s := NewKLL(64, 7)
	for i := 0; i < 50000; i++ {
		s.Update(rng.NormFloat64())
	}
	// A clone is a continuation: the same updates keep it equal to the
	// original, compaction coins included.
	twin := s.Clone()
	for i := 0; i < 5000; i++ {
		x := rng.NormFloat64()
		s.Update(x)
		twin.Update(x)
	}
	if !reflect.DeepEqual(s, twin) {
		t.Error("a clone fed the original's updates diverged from it")
	}
	c := s.Clone()
	if c.Count() != s.Count() || c.StoredItems() != s.StoredItems() || c.K() != s.K() {
		t.Fatalf("clone shape mismatch: n=%d/%d items=%d/%d k=%d/%d",
			c.Count(), s.Count(), c.StoredItems(), s.StoredItems(), c.K(), s.K())
	}
	for _, q := range []float64{0.1, 0.5, 0.9} {
		if c.Quantile(q) != s.Quantile(q) {
			t.Errorf("clone Quantile(%v) = %v, original %v", q, c.Quantile(q), s.Quantile(q))
		}
	}
	// Mutating the clone must not touch the original.
	before := s.Quantile(0.5)
	for i := 0; i < 50000; i++ {
		c.Update(1000)
	}
	if s.Quantile(0.5) != before {
		t.Error("updating the clone changed the original")
	}
	if c.Quantile(0.9) < 100 {
		t.Errorf("clone did not absorb updates: p90 = %v", c.Quantile(0.9))
	}
}

func TestKLLRankErrorBoundHolds(t *testing.T) {
	// The advertised bound must cover the observed rank error on a
	// uniform stream (where quantile value ≈ rank fraction).
	rng := rand.New(rand.NewSource(33))
	s := NewKLL(128, 3)
	n := 100000
	for i := 0; i < n; i++ {
		s.Update(rng.Float64())
	}
	eps := s.RankErrorBound()
	if eps <= 0 || eps > 0.5 {
		t.Fatalf("RankErrorBound = %v, want a small positive fraction", eps)
	}
	for _, q := range []float64{0.05, 0.25, 0.5, 0.75, 0.95} {
		if d := math.Abs(s.Quantile(q) - q); d > eps {
			t.Errorf("Quantile(%v) off by %v, bound %v", q, d, eps)
		}
	}
}

// Property: quantiles are monotone in q and within the observed range.
func TestQuickKLLQuantileMonotone(t *testing.T) {
	prop := func(seed int64, raw []float64) bool {
		s := NewKLL(128, seed)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			s.Update(v)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		if s.Count() == 0 {
			return true
		}
		prev := math.Inf(-1)
		for _, q := range []float64{0, 0.25, 0.5, 0.75, 1} {
			v := s.Quantile(q)
			if v < prev || v < lo || v > hi {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: merge order does not change counts, and rank estimates of
// merged sketches stay within tolerance of exact ranks.
func TestQuickKLLMergeCount(t *testing.T) {
	prop := func(a, b []float64) bool {
		sa, sb := NewKLL(64, 1), NewKLL(64, 2)
		na, nb := uint64(0), uint64(0)
		for _, v := range a {
			if !math.IsNaN(v) {
				sa.Update(v)
				na++
			}
		}
		for _, v := range b {
			if !math.IsNaN(v) {
				sb.Update(v)
				nb++
			}
		}
		if err := sa.Merge(sb); err != nil {
			return false
		}
		return sa.Count() == na+nb
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// quantilesOracle is Quantiles as it was before weighted sorted typed
// pairs: the retained items through sort.Slice, split into values and
// weights, then one scan per quantile.
func quantilesOracle(s *KLL, qs []float64) []float64 {
	type vw struct {
		v float64
		w uint64
	}
	var all []vw
	for h, items := range s.compactors {
		w := uint64(1) << uint(h)
		for _, v := range items {
			all = append(all, vw{v, w})
		}
	}
	sort.Slice(all, func(a, b int) bool { return all[a].v < all[b].v })
	vals := make([]float64, len(all))
	weights := make([]uint64, len(all))
	for i, p := range all {
		vals[i] = p.v
		weights[i] = p.w
	}
	out := make([]float64, len(qs))
	var total uint64
	for _, w := range weights {
		total += w
	}
	for i, q := range qs {
		if s.n == 0 || q < 0 || q > 1 || math.IsNaN(q) || len(vals) == 0 {
			out[i] = math.NaN()
			continue
		}
		target := q * float64(total)
		var cum uint64
		out[i] = vals[len(vals)-1]
		for j, v := range vals {
			cum += weights[j]
			if float64(cum) >= target {
				out[i] = v
				break
			}
		}
	}
	return out
}

// TestKLLQuantilesMatchOracle: on sketches of heavily duplicated values
// (both zeros among them), with compacted levels and merged ones,
// Quantiles and Quantile return the bits the sort.Slice version did.
func TestKLLQuantilesMatchOracle(t *testing.T) {
	qs := []float64{0, 1e-9, 0.01, 0.25, 0.5, 0.75, 0.9, 0.99, 1, -0.5, 1.5, math.NaN()}
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 60; trial++ {
		distinct := 1 + rng.Intn(1+trial*trial)
		draw := func() float64 {
			v := float64(rng.Intn(distinct) - distinct/2)
			if v == 0 && rng.Intn(2) == 0 {
				v = math.Copysign(0, -1)
			}
			return v
		}
		s := NewKLL(8+rng.Intn(120), int64(trial))
		for i := 0; i < rng.Intn(20000); i++ {
			s.Update(draw())
		}
		if trial%3 == 0 {
			other := NewKLL(8+rng.Intn(120), int64(trial)+100)
			for i := 0; i < rng.Intn(20000); i++ {
				other.Update(draw())
			}
			if err := s.Merge(other); err != nil {
				t.Fatal(err)
			}
		}
		got, want := s.Quantiles(qs), quantilesOracle(s, qs)
		for i, q := range qs {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d: Quantiles q=%v = %v, oracle %v", trial, q, got[i], want[i])
			}
			if one := s.Quantile(q); math.Float64bits(one) != math.Float64bits(want[i]) {
				t.Fatalf("trial %d: Quantile(%v) = %v, oracle %v", trial, q, one, want[i])
			}
		}
	}
}

// BenchmarkKLLQuantiles is the outliers class's read of a column's KLL:
// the box-plot quantiles of a compacted sketch at the default k.
func BenchmarkKLLQuantiles(b *testing.B) {
	rng := rand.New(rand.NewSource(43))
	s := NewKLL(200, 1)
	for i := 0; i < 20000; i++ {
		s.Update(math.Round(rng.NormFloat64()*1e4) / 1e4)
	}
	qs := []float64{0.25, 0.5, 0.75}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Quantiles(qs)
	}
}
