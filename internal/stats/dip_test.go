package stats

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

func TestDipDegenerate(t *testing.T) {
	if d := Dip(nil); d != 0 {
		t.Errorf("Dip(empty) = %v, want 0", d)
	}
	if d := Dip([]float64{5}); d != 0 {
		t.Errorf("Dip(single) = %v, want 0", d)
	}
	if d := Dip([]float64{3, 3, 3, 3}); d != 0 {
		t.Errorf("Dip(constant) = %v, want 0", d)
	}
}

func TestDipUnimodalVsBimodal(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	n := 2000
	unimodal := make([]float64, n)
	bimodal := make([]float64, n)
	for i := 0; i < n; i++ {
		unimodal[i] = rng.NormFloat64()
		if i%2 == 0 {
			bimodal[i] = rng.NormFloat64() - 4
		} else {
			bimodal[i] = rng.NormFloat64() + 4
		}
	}
	du := Dip(unimodal)
	db := Dip(bimodal)
	if du <= 0 || db <= 0 {
		t.Fatalf("dip values must be positive: uni=%v bi=%v", du, db)
	}
	if db < 4*du {
		t.Errorf("bimodal dip (%v) should dominate unimodal dip (%v)", db, du)
	}
	// Unimodal dip should be small in absolute terms (≲0.02 at n=2000).
	if du > 0.02 {
		t.Errorf("unimodal dip = %v, want ≲0.02", du)
	}
	if db < 0.05 {
		t.Errorf("bimodal dip = %v, want ≳0.05", db)
	}
}

func TestDipGridUnimodal(t *testing.T) {
	ref := unimodalReference(500)
	d := Dip(ref)
	if d > 0.02 {
		t.Errorf("dip of normal grid = %v, want tiny", d)
	}
}

func TestDipTrimodal(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 3000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64()*0.3 + float64(i%3)*5
	}
	if d := Dip(xs); d < 0.05 {
		t.Errorf("trimodal dip = %v, want large", d)
	}
}

func TestDipSkipsNaN(t *testing.T) {
	xs := []float64{1, 2, math.NaN(), 3, 4}
	if d := Dip(xs); math.IsNaN(d) || d < 0 {
		t.Errorf("Dip with NaN = %v", d)
	}
}

func TestDipPValueApprox(t *testing.T) {
	// Large dip at decent n → significant.
	if p := DipPValueApprox(0.08, 1000); p > 0.05 {
		t.Errorf("large dip p = %v, want <0.05", p)
	}
	// Tiny dip → not significant.
	if p := DipPValueApprox(0.005, 1000); p < 0.5 {
		t.Errorf("tiny dip p = %v, want ≈1", p)
	}
	if p := DipPValueApprox(math.NaN(), 100); p != 1 {
		t.Errorf("NaN dip p = %v, want 1", p)
	}
	if p := DipPValueApprox(0.5, 2); p != 1 {
		t.Errorf("small-n p = %v, want 1", p)
	}
	// Monotone decreasing in dip.
	ps := []float64{DipPValueApprox(0.01, 500), DipPValueApprox(0.03, 500), DipPValueApprox(0.06, 500)}
	if !(ps[0] >= ps[1] && ps[1] >= ps[2]) {
		t.Errorf("p-values not monotone: %v", ps)
	}
}

func TestBimodalitySeparation(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	n := 1000
	uni := make([]float64, n)
	bi := make([]float64, n)
	for i := range uni {
		uni[i] = rng.NormFloat64()
		if i%2 == 0 {
			bi[i] = rng.NormFloat64() - 5
		} else {
			bi[i] = rng.NormFloat64() + 5
		}
	}
	su := BimodalitySeparation(uni)
	sb := BimodalitySeparation(bi)
	if sb < 2 {
		t.Errorf("bimodal separation = %v, want >2", sb)
	}
	if sb < 1.5*su {
		t.Errorf("bimodal (%v) should beat unimodal (%v)", sb, su)
	}
	if s := BimodalitySeparation([]float64{1, 2}); s != 0 {
		t.Errorf("short input separation = %v, want 0", s)
	}
	if s := BimodalitySeparation([]float64{4, 4, 4, 4, 4}); s != 0 {
		t.Errorf("constant separation = %v, want 0", s)
	}
}

func TestNormQuantile(t *testing.T) {
	almost(t, "median", normQuantile(0.5), 0, 1e-9)
	almost(t, "q975", normQuantile(0.975), 1.959964, 1e-5)
	almost(t, "q025", normQuantile(0.025), -1.959964, 1e-5)
	almost(t, "q0.999", normQuantile(0.999), 3.090232, 1e-5)
	if !math.IsInf(normQuantile(0), -1) || !math.IsInf(normQuantile(1), 1) {
		t.Error("extremes should be ±Inf")
	}
	// Round trip through the normal CDF via erf.
	for _, p := range []float64{0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99} {
		z := normQuantile(p)
		cdf := 0.5 * (1 + math.Erf(z/math.Sqrt2))
		almost(t, "round trip", cdf, p, 1e-6)
	}
}

func BenchmarkDip(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Dip(xs)
	}
}

// bimodalSorted is n sorted values from two separated normals.
func bimodalSorted(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64() + float64(4*(i%2))
	}
	slices.Sort(xs)
	return xs
}

// TestDipSortedAllocations: the dip's work arrays come from the scratch
// pool, so 100 dips of 8 000 values allocate next to nothing; fresh
// arrays cost 40 bytes a value, ≈ 32 MB over the 100. The fewest bytes
// of three rounds count: a round whose goroutine moved to a processor
// with a cold pool pays for its arrays once.
func TestDipSortedAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled objects at random")
	}
	const n, calls, ceiling = 8000, 100, 100 << 10
	xs := bimodalSorted(n, 3)
	least := ^uint64(0)
	var before, after runtime.MemStats
	for range 3 {
		runtime.ReadMemStats(&before)
		for range calls {
			DipSorted(xs)
		}
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	if least > ceiling {
		t.Fatalf("%d dips of %d values allocated %d bytes, ceiling %d", calls, n, least, ceiling)
	}
}

// TestDipSortedPooledScratch: a dip reads only work-array entries it
// wrote, so a pooled scratch full of another call's leftovers, or of
// garbage, gives the dip bit for bit that fresh zeroed arrays give.
func TestDipSortedPooledScratch(t *testing.T) {
	var samples [][]float64
	for i, n := range []int{8000, 50, 777, 3, 2000} {
		samples = append(samples, bimodalSorted(n, int64(i)))
	}
	fresh := make([]float64, len(samples))
	for i, s := range samples {
		scratchPool.Put(new(scratch))
		fresh[i] = DipSorted(s)
	}
	poison := &scratch{floats: make([]float64, 9000), ints: make([]int, 40000)}
	for i := range poison.floats {
		poison.floats[i] = math.NaN()
	}
	for i := range poison.ints {
		poison.ints[i] = 1 << 40
	}
	for i, s := range samples {
		scratchPool.Put(poison)
		if got := DipSorted(s); math.Float64bits(got) != math.Float64bits(fresh[i]) {
			t.Errorf("sample %d (n=%d): dip %v on a used scratch, %v on a fresh one", i, len(s), got, fresh[i])
		}
	}
}

// TestNumBinsSortedInPlace: sorted NaN-free values are binned without
// a sorted copy, to the same count a shuffled copy of them gets.
func TestNumBinsSortedInPlace(t *testing.T) {
	xs := bimodalSorted(4000, 5)
	shuffled := slices.Clone(xs)
	rand.New(rand.NewSource(1)).Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	withNaN := append(slices.Clone(xs), math.NaN())
	for _, rule := range []BinRule{FreedmanDiaconis, Sturges, Scott} {
		want := NumBins(shuffled, rule)
		if got := NumBins(xs, rule); got != want {
			t.Errorf("rule %d: %d bins sorted, %d shuffled", rule, got, want)
		}
		if got := NumBins(withNaN, rule); got != want {
			t.Errorf("rule %d: %d bins with a NaN, %d without", rule, got, want)
		}
		if a := testing.AllocsPerRun(10, func() { NumBins(xs, rule) }); a != 0 {
			t.Errorf("rule %d: NumBins of sorted values allocated %v times", rule, a)
		}
	}
}
