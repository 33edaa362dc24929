package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"slices"
	"strconv"
	"sync"
	"testing"
)

// SpearmanOrdered is SpearmanSums' ρ, the form these tests hold to the
// oracles.
func SpearmanOrdered(x, y *Ordered) float64 { return SpearmanSums(x, y).Rho() }

// GroupSilhouette is CertifiedSilhouette's score without its
// certificate.
func GroupSilhouette(x, y *Ordered, codes []int32, levels, stride int) float64 {
	s, _ := CertifiedSilhouette(x, y, codes, levels, stride)
	return s
}

// fuzzAlphabet is what one fuzz byte decodes to: the values that break
// rankers (NaN runs, both zeros, both infinities) and a handful of
// small numbers so ties are heavy.
var fuzzAlphabet = []float64{
	math.NaN(), math.NaN(), math.Copysign(0, -1), 0, math.Inf(-1), math.Inf(1),
	1, 1, 2, -1, 0.5, 3, 1e300, -1e300, 5e-324, 7,
}

// fuzzFloats decodes data into a sample. An even first byte reads the
// rest one byte per value through fuzzAlphabet; an odd one reads raw
// little-endian float64s, so the fuzzer can reach any bit pattern.
func fuzzFloats(data []byte) []float64 {
	if len(data) == 0 {
		return nil
	}
	mode, data := data[0], data[1:]
	var out []float64
	if mode%2 == 0 {
		for _, b := range data {
			out = append(out, fuzzAlphabet[int(b)%len(fuzzAlphabet)])
		}
		return out
	}
	for ; len(data) >= 8; data = data[8:] {
		out = append(out, math.Float64frombits(binary.LittleEndian.Uint64(data)))
	}
	return out
}

func requireSameBits(t *testing.T, what string, got, want float64) {
	t.Helper()
	if !sameBits(got, want) {
		t.Fatalf("%s = %v (%#x), oracle %v (%#x)", what, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// checkOrder holds orderFrom to the comparison sort it replaced, bit
// for bit: on xs as given (short samples take the comparison sort
// still), through radixOrder directly at that length, and on xs tiled
// past radixMin, where every value of xs is a tie group the radix must
// leave in row order.
func checkOrder(t *testing.T, xs []float64) {
	t.Helper()
	tiled := slices.Clip(xs)
	for len(xs) > 0 && len(tiled) < 2*radixMin {
		tiled = append(tiled, xs...)
	}
	for _, sample := range [][]float64{xs, tiled} {
		for _, from := range []int{0, len(sample) / 3} {
			wantOrder, wantSorted := orderFromOracle(sample, from)
			order, sorted := orderFrom(sample, from)
			if !slices.Equal(order, wantOrder) {
				t.Fatalf("orderFrom(%v, %d) = %v, oracle %v", sample, from, order, wantOrder)
			}
			for k := range sorted {
				if !sameBits(sorted[k], wantSorted[k]) {
					t.Fatalf("orderFrom(%v, %d): sorted[%d] = %v, oracle %v", sample, from, k, sorted[k], wantSorted[k])
				}
			}
			if len(wantOrder) > 0 {
				radix := slices.Clone(wantOrder)
				slices.Sort(radix) // rows ascending, as orderFrom hands them over
				radixOrder(radix, sample)
				if !slices.Equal(radix, wantOrder) {
					t.Fatalf("radixOrder(%v, %d) = %v, oracle %v", sample, from, radix, wantOrder)
				}
			}
		}
	}
}

func checkRanks(t *testing.T, xs []float64) {
	t.Helper()
	checkOrder(t, xs)
	whole := NewOrdered(xs)
	checkView(t, whole, xs)
	for _, from := range splits(xs) {
		v := splitOrdered(xs, from)
		checkView(t, v, xs)
		// Ranked against the whole view, the split one ranks as it does.
		if got, want := SpearmanSums(v, whole), SpearmanSums(whole, whole); !sameSums(got, want) {
			t.Fatalf("SpearmanSums of %v split at %d against itself = %+v, unsplit %+v", xs, from, got, want)
		}
	}
	got, want := Ranks(xs), ranksOracle(xs)
	if len(got) != len(want) {
		t.Fatalf("Ranks(%v): %d ranks, oracle %d", xs, len(got), len(want))
	}
	for i := range got {
		if !sameBits(got[i], want[i]) {
			t.Fatalf("Ranks(%v)[%d] = %v, oracle %v", xs, i, got[i], want[i])
		}
	}
}

// checkSpearman compares both entry points — the transient-order
// wrapper and the retained-view kernel — to the oracle, the kernel also
// over views of xs and ys split into base and delta runs, each at a
// split of its own.
func checkSpearman(t *testing.T, xs, ys []float64) {
	t.Helper()
	checkOrder(t, xs)
	checkOrder(t, ys)
	want := spearmanOracle(xs, ys)
	requireSameBits(t, "Spearman", Spearman(xs, ys), want)
	requireSameBits(t, "SpearmanOrdered", SpearmanOrdered(NewOrdered(xs), NewOrdered(ys)), want)
	sums := SpearmanSums(NewOrdered(xs), NewOrdered(ys))
	fx, fy := splits(xs), splits(ys)
	for k := range max(len(fx), len(fy)) {
		x, y := splitOrdered(xs, fx[k%len(fx)]), splitOrdered(ys, fy[(k*7+3)%len(fy)])
		requireSameBits(t, "SpearmanOrdered over runs", SpearmanOrdered(x, y), want)
		if got := SpearmanSums(x, y); !sameSums(got, sums) {
			t.Fatalf("SpearmanSums split at %d, %d = %+v, unsplit %+v", x.base.to, y.base.to, got, sums)
		}
	}
}

// splitOrdered is the view of xs as a base run over xs[:from] and a
// delta run over the rest, never merged however long the delta.
func splitOrdered(xs []float64, from int) *Ordered {
	prefix := NewOrdered(xs[:from])
	return extendOrdered(xs, prefix.Base(), prefix.Fold(), false)
}

// splits returns where to split xs into runs: everywhere when it is
// short, else at its ends, a third of the way and at points drawn from
// its length.
func splits(xs []float64) []int {
	n := len(xs)
	if n <= 40 {
		all := make([]int, n+1)
		for i := range all {
			all[i] = i
		}
		return all
	}
	return []int{0, 1, n / 3, n * 7 / 8, n - 1, n, n*5/9 + n%13}
}

func sameSums(a, b RankSums) bool {
	return a.M == b.M && sameBits(a.XX, b.XX) && sameBits(a.YY, b.YY) && sameBits(a.XY, b.XY)
}

// checkView holds every reader of v to the oracle order of xs, the
// sample v views: the walk, each position's value, the quantiles, box
// statistics and detectors read from it, the merged copy and the fold.
func checkView(t *testing.T, v *Ordered, xs []float64) {
	t.Helper()
	order, sorted := orderFromOracle(xs, 0)
	if v.Len() != len(order) {
		t.Fatalf("view of %v split at %d: Len %d, oracle %d", xs, v.base.to, v.Len(), len(order))
	}
	k := 0
	v.Walk(func(row int32, x float64) {
		if k >= len(order) || row != order[k] || !sameBits(x, sorted[k]) {
			t.Fatalf("view of %v split at %d: walk step %d is row %d (%v), oracle %v", xs, v.base.to, k, row, x, order)
		}
		k++
	})
	for k := range sorted {
		requireSameBits(t, fmt.Sprintf("value %d split at %d", k, v.base.to), v.runs().at(k), sorted[k])
	}
	v.WithSorted(func(s []float64) {
		for k := range s {
			requireSameBits(t, "WithSorted", s[k], sorted[k])
		}
	})
	for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 1} {
		requireSameBits(t, fmt.Sprint("Quantile ", q), quantile(v.runs(), q), QuantileSorted(sorted, q))
	}
	requireSameBits(t, "IQR", v.IQR(), iqr(sortedRuns{a: sorted}))
	got, want := v.BoxStats(0), NewBoxStatsSorted(sorted, 0)
	for _, f := range [][2]float64{{got.Min, want.Min}, {got.Q1, want.Q1}, {got.Median, want.Median}, {got.Q3, want.Q3},
		{got.Max, want.Max}, {got.WhiskerLow, want.WhiskerLow}, {got.WhiskerHigh, want.WhiskerHigh}} {
		requireSameBits(t, "BoxStats", f[0], f[1])
	}
	if len(got.Outliers) != len(want.Outliers) {
		t.Fatalf("BoxStats: %d outliers, oracle %d", len(got.Outliers), len(want.Outliers))
	}
	for k := range got.Outliers {
		requireSameBits(t, "BoxStats outlier", got.Outliers[k], want.Outliers[k])
	}
	for _, det := range []OutlierDetector{IQRDetector{}, MADDetector{}} {
		score, flagged := OutlierScoreOrdered(v, det)
		wantScore, wantFlagged := OutlierScore(xs, det)
		requireSameBits(t, fmt.Sprintf("%T", det)+" score", score, wantScore)
		if !slices.Equal(flagged, wantFlagged) {
			t.Fatalf("%s flags %v, oracle %v", fmt.Sprintf("%T", det), flagged, wantFlagged)
		}
	}
	requireSameBits(t, "Mean", v.Mean, Mean(xs))
	requireSameBits(t, "StdDev", v.StdDev, StdDev(xs))
}

var nan = math.NaN()

var rankCases = [][]float64{
	nil,
	{4},
	{nan},
	{2, 1},
	{1, nan},
	{nan, nan, nan},
	{10, 20, 20, 30},
	{5, nan, 1},
	{0, math.Copysign(0, -1), 0, math.Copysign(0, -1)},
	{math.Inf(1), math.Inf(-1), math.Inf(1), 0, nan, math.Inf(-1)},
	{3, 3, 3, 3, 3},
	{nan, 1, nan, 1, nan, 2, 2, nan},
}

func TestRanksMatchOracle(t *testing.T) {
	for _, xs := range rankCases {
		checkRanks(t, xs)
	}
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		xs := make([]float64, rng.Intn(60))
		for i := range xs {
			xs[i] = fuzzAlphabet[rng.Intn(len(fuzzAlphabet))]
		}
		checkRanks(t, xs)
	}
	// Past radixMin: continuous values of every magnitude and sign, with
	// the alphabet's special values mixed in.
	for _, n := range []int{radixMin - 1, radixMin, 1000, 5000} {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
			if rng.Intn(8) == 0 {
				xs[i] = fuzzAlphabet[rng.Intn(len(fuzzAlphabet))]
			}
		}
		checkRanks(t, xs)
	}
}

func TestSpearmanMatchesOracle(t *testing.T) {
	for _, xs := range rankCases {
		for _, ys := range rankCases {
			if len(xs) == len(ys) {
				checkSpearman(t, xs, ys)
			}
		}
	}
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(80)
		xs, ys := make([]float64, n), make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
			ys[i] = xs[i]*xs[i] + rng.NormFloat64()
			if trial%3 == 0 { // heavy ties and missing cells
				xs[i] = fuzzAlphabet[rng.Intn(len(fuzzAlphabet))]
			}
			if trial%5 == 0 && rng.Intn(4) == 0 {
				ys[i] = nan
			}
		}
		checkSpearman(t, xs, ys)
	}
	// One side all missing.
	checkSpearman(t, []float64{nan, nan, nan}, []float64{1, 2, 3})
	// At the row sample's length and past it: tie groups of every size
	// that lose members to the partner's NaNs, and drops anywhere in the
	// order.
	for _, n := range []int{2048, 9000} {
		for _, levels := range []float64{4, 300, 1e6} {
			xs, ys := make([]float64, n), make([]float64, n)
			for i := range xs {
				xs[i] = math.Round(rng.NormFloat64() * levels)
				ys[i] = math.Round((xs[i]/levels + rng.NormFloat64()) * levels)
				if rng.Intn(20) == 0 {
					xs[i] = nan
				}
				if rng.Intn(20) == 0 {
					ys[i] = nan
				}
			}
			checkSpearman(t, xs, ys)
		}
	}
}

// TestSpearmanSumsExact holds the kernel's integer sums to math/big at
// the lengths int64 alone cannot carry: the 128-bit total of int64 block
// sums, each block as long as rowsPerBlock allows for m rows of the
// largest centred rank m−1, up to the 2³¹−1 rows an Ordered allows;
// and the single rounding of a total to float64, at ties included. The
// sums over views split into base and delta runs — tie groups and NaN
// on both sides of each split, and splits that differ between the
// columns — are the unsplit views' to the bit.
func TestSpearmanSumsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(400)
		levels := []int{2, 7, 50, 1 << 20}[trial%4]
		xs, ys := make([]float64, n), make([]float64, n)
		for i := range xs {
			xs[i], ys[i] = float64(rng.Intn(levels)), float64(rng.Intn(levels)+i%3)
			if rng.Intn(10) == 0 {
				xs[i] = nan
			}
			if rng.Intn(12) == 0 {
				ys[i] = nan
			}
		}
		want := SpearmanSums(NewOrdered(xs), NewOrdered(ys))
		for range 6 {
			fx, fy := rng.Intn(n+1), rng.Intn(n+1)
			if got := SpearmanSums(splitOrdered(xs, fx), splitOrdered(ys, fy)); !sameSums(got, want) {
				t.Fatalf("n %d split at %d, %d: sums %+v, unsplit %+v", n, fx, fy, got, want)
			}
		}
	}
	maxInt64 := new(big.Int).SetInt64(math.MaxInt64)
	for _, m := range []int{2, 3, 1000, 1<<21 - 1, 1 << 21, 1<<21 + 1, 1 << 28, math.MaxInt32} {
		worst := big.NewInt(int64(m - 1))
		worst.Mul(worst, worst)
		block := rowsPerBlock(m)
		if m == 2 {
			if block != math.MaxInt {
				t.Fatalf("m = 2: %d rows a block, want no limit", block)
			}
			continue
		}
		// A block of the largest terms fits in int64; one row more would not.
		full := new(big.Int).Mul(worst, big.NewInt(int64(block)))
		if full.Cmp(maxInt64) > 0 || full.Add(full, worst).Cmp(maxInt64) <= 0 {
			t.Fatalf("m = %d: %d rows a block for terms of %v", m, block, worst)
		}
		// Fold full blocks of those terms as the kernel does, past 2⁶⁴
		// and back.
		want, total := new(big.Int), int128{}
		blockSum := int64(m-1) * int64(m-1) * int64(block)
		for _, sign := range []int64{1, 1, 1, -1, 1, -1, -1, -1, -1} {
			total.add(sign * blockSum)
			want.Add(want, big.NewInt(sign*blockSum))
			requireInt128(t, total, want)
		}
	}
	// Totals far past 2⁶⁴ in both signs, and the carries between halves.
	rng = rand.New(rand.NewSource(29))
	for trial := 0; trial < 200; trial++ {
		var total int128
		want := new(big.Int)
		for i := 0; i < 1+rng.Intn(40); i++ {
			v := rng.Int63()
			switch rng.Intn(4) {
			case 0:
				v = -v
			case 1:
				v = math.MaxInt64
			case 2:
				v = math.MinInt64
			}
			total.add(v)
			want.Add(want, big.NewInt(v))
			requireInt128(t, total, want)
		}
	}
	// Rounding at 2⁶⁴ and above, where one float64 step is 2¹²: halfway
	// totals go to the even neighbour, a sticky bit past the half rounds
	// up.
	two64 := new(big.Int).Lsh(big.NewInt(1), 64)
	for _, off := range []int64{0, 1, 1 << 11, 1<<11 + 1, 3 << 11, 1<<12 - 1, 1 << 12} {
		for _, scale := range []uint{0, 1, 40, 62} {
			v := new(big.Int).Add(two64, big.NewInt(off))
			v.Lsh(v, scale)
			for _, neg := range []bool{false, true} {
				w := new(big.Int).Set(v)
				if neg {
					w.Neg(w)
				}
				requireInt128(t, int128FromBig(w), w)
			}
		}
	}
}

func int128FromBig(v *big.Int) int128 {
	u := new(big.Int).Set(v)
	if u.Sign() < 0 {
		u.Add(u, new(big.Int).Lsh(big.NewInt(1), 128))
	}
	lo := new(big.Int).And(u, new(big.Int).SetUint64(math.MaxUint64))
	return int128{hi: new(big.Int).Rsh(u, 64).Uint64(), lo: lo.Uint64()}
}

func requireInt128(t *testing.T, got int128, want *big.Int) {
	t.Helper()
	if got != int128FromBig(want) {
		t.Fatalf("int128 total %#x:%#x, want %v", got.hi, got.lo, want)
	}
	f, _ := new(big.Float).SetInt(want).Float64()
	requireSameBits(t, "int128.float64 of "+want.String(), got.float64(), f)
}

// TestSpearmanOrderedConcurrentFirstTouch scores one pair of fresh views
// from eight goroutines at once, so the views' rank indexes are first
// built under a race. Run with -race.
func TestSpearmanOrderedConcurrentFirstTouch(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	xs, ys := make([]float64, 3000), make([]float64, 3000)
	for i := range xs {
		xs[i], ys[i] = math.Round(rng.NormFloat64()*50), rng.NormFloat64()
		if rng.Intn(30) == 0 {
			ys[i] = nan
		}
	}
	x, y := NewOrdered(xs), NewOrdered(ys)
	got := make([]float64, 8)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if g%2 == 0 {
				got[g] = SpearmanOrdered(x, y)
			} else {
				got[g] = SpearmanOrdered(y, x)
			}
		}()
	}
	wg.Wait()
	want := spearmanOracle(xs, ys)
	for _, r := range got {
		requireSameBits(t, "concurrent SpearmanOrdered", r, want)
	}
}

func TestPairSumsMatchOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(50)
		xs, ys := make([]float64, n), make([]float64, n)
		for i := range xs {
			xs[i], ys[i] = rng.NormFloat64()*1e3, rng.ExpFloat64()
			if trial%2 == 0 {
				xs[i] = fuzzAlphabet[rng.Intn(len(fuzzAlphabet))]
			}
			if trial%3 == 0 && rng.Intn(5) == 0 {
				ys[i] = nan
			}
		}
		rho, fit := PearsonFit(xs, ys)
		requireSameBits(t, "PearsonFit rho", rho, pearsonOracle(xs, ys))
		requireSameBits(t, "Pearson", Pearson(xs, ys), pearsonOracle(xs, ys))
		requireSameBits(t, "Covariance", Covariance(xs, ys), covarianceOracle(xs, ys))
		want := fitLineOracle(xs, ys)
		for _, got := range []LinearFit{fit, FitLine(xs, ys)} {
			requireSameBits(t, "slope", got.Slope, want.Slope)
			requireSameBits(t, "intercept", got.Intercept, want.Intercept)
			requireSameBits(t, "r2", got.R2, want.R2)
			if got.N != want.N {
				t.Fatalf("fit N = %d, oracle %d", got.N, want.N)
			}
		}
	}
}

func TestOrderIsSortedAndExtendable(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 200; trial++ {
		xs := make([]float64, rng.Intn(70))
		for i := range xs {
			xs[i] = fuzzAlphabet[rng.Intn(len(fuzzAlphabet))]
			if trial%2 == 0 {
				xs[i] = math.Round(rng.NormFloat64() * 3)
			}
		}
		order, _ := orderFrom(xs, 0)
		present := 0
		for _, v := range xs {
			if !math.IsNaN(v) {
				present++
			}
		}
		if len(order) != present {
			t.Fatalf("order of %v has %d rows, want %d", xs, len(order), present)
		}
		for k := 1; k < len(order); k++ {
			a, b := order[k-1], order[k]
			if xs[a] > xs[b] || (xs[a] == xs[b] && a >= b) {
				t.Fatalf("order of %v = %v: rows %d, %d out of order", xs, order, a, b)
			}
		}
		// Extending a prefix's view keeps its base until the rows after
		// it pass 1/compactShare of the base's, then merges the two into
		// a base over every row: either way the view of the whole.
		for _, from := range []int{0, len(xs) / 3, len(xs) * 8 / 9, len(xs) - 1, len(xs)} {
			if from < 0 {
				continue
			}
			prefix := NewOrdered(xs[:from])
			v := ExtendOrdered(xs, prefix.Base(), prefix.Fold())
			checkView(t, v, xs)
			if merged := (len(xs)-from)*compactShare > from; merged {
				if v.Base() == prefix.Base() || v.Base().to != len(xs) || len(v.delta.order) != 0 || !slices.Equal(v.Base().order, order) {
					t.Fatalf("%d rows after a base of %d: the runs were not merged into one of every row", len(xs)-from, from)
				}
			} else if v.Base() != prefix.Base() || v.delta.from != from || v.delta.to != len(xs) {
				t.Fatalf("%d rows after a base of %d: the base was not kept", len(xs)-from, from)
			}
		}
		v := NewOrdered(xs)
		checkView(t, v, xs)
		if s := sortedCopy(xs); !slices.Equal(v.base.sorted, s) && !containsBothZeros(xs) {
			t.Fatalf("sorted %v, sortedCopy %v", v.base.sorted, s)
		}
	}
}

// containsBothZeros reports a sample holding −0 and +0: the one case
// where a sorted copy is not unique (the two compare equal, and an
// unstable sort may interleave them either way).
func containsBothZeros(xs []float64) bool {
	neg, pos := false, false
	for _, v := range xs {
		if v == 0 {
			if math.Signbit(v) {
				neg = true
			} else {
				pos = true
			}
		}
	}
	return neg && pos
}

func FuzzRanks(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 1})             // NaN run
	f.Add([]byte{0, 2, 3, 2, 3})             // −0 / +0 ties
	f.Add([]byte{0, 4, 5, 4, 5, 0})          // ±Inf with a NaN
	f.Add([]byte{0, 6, 7, 6, 7, 6, 7, 8, 8}) // heavy ties
	f.Add([]byte{0, 9})                      // length 1
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0xf0, 0x3f, 0, 0, 0, 0, 0, 0, 0xf8, 0x7f})
	f.Add([]byte{0, 3, 2, 5, 4, 0, 6, 2, 4, 13, 12, 14, 3, 5, 1, 9}) // ±0, ±Inf, ties, NaN, subnormal
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRanks(t, fuzzFloats(data))
	})
}

func FuzzSpearmanOrdered(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{0, 6}, []byte{0, 8})                         // length 1
	f.Add([]byte{0, 6, 8}, []byte{0, 8, 6})                   // length 2
	f.Add([]byte{0, 0, 1, 0, 1}, []byte{0, 6, 8, 9, 10})      // one side all missing
	f.Add([]byte{0, 2, 3, 6, 0, 8}, []byte{0, 3, 2, 0, 7, 8}) // zeros, NaNs on both sides
	f.Add([]byte{0, 4, 5, 4, 6, 6, 6}, []byte{0, 5, 4, 11, 11, 11, 0})
	f.Add([]byte{0, 3, 2, 5, 4, 0, 6, 2}, []byte{0, 2, 3, 4, 5, 13, 0, 3}) // ±0, ±Inf, ties, NaN on both sides
	// What the rank index adds to the walk it replaced:
	f.Add([]byte{0, 6, 6, 6, 8, 11}, []byte{0, 0, 15, 0, 9, 10}) // a tie group loses two of three members
	f.Add([]byte{0, 8, 9, 11, 10, 6}, []byte{0, 6, 0, 1, 15, 8}) // dropped rows first and last in x's order
	f.Add([]byte{0, 6, 0, 8, 11}, []byte{0, 9, 1, 10, 15})       // a row NaN on both sides
	f.Add([]byte{0, 6, 8, 11, 15}, []byte{0, 0, 1, 10, 0})       // every row dropped but one
	f.Add([]byte{0, 6, 8, 11, 15}, []byte{0, 0, 9, 10, 1})       // every row dropped but two
	f.Fuzz(func(t *testing.T, a, b []byte) {
		xs, ys := fuzzFloats(a), fuzzFloats(b)
		n := min(len(xs), len(ys))
		checkSpearman(t, xs[:n], ys[:n])
	})
}

// columns is the kernel's input form of pts: two columns that
// standardise to themselves (mean 0, σ 1).
func columns(pts []Point2) (x, y *Ordered) {
	xs, ys := make([]float64, len(pts)), make([]float64, len(pts))
	for i, p := range pts {
		xs[i], ys[i] = p.X, p.Y
	}
	return &Ordered{Values: xs, StdDev: 1}, &Ordered{Values: ys, StdDev: 1}
}

func groupSilhouette(pts []Point2, codes []int32, levels int) float64 {
	x, y := columns(pts)
	return GroupSilhouette(x, y, codes, levels, 1)
}

var silhouetteCases = []struct {
	name   string
	pts    []Point2
	codes  []int32
	levels int
}{
	{"two blobs", []Point2{{0, 0}, {0, 1}, {9, 9}, {9, 8}, {1, 0}}, []int32{0, 0, 1, 1, 0}, 2},
	{"negative codes skipped", []Point2{{0, 0}, {5, 5}, {0, 1}, {9, 9}, {9, 8}}, []int32{0, -1, 0, 1, 1}, 2},
	{"codes beyond the levels skipped", []Point2{{0, 0}, {5, 5}, {0, 1}, {9, 9}, {9, 8}, {3, 3}}, []int32{0, 2, 0, 1, 1, 1 << 30}, 2},
	{"missing codes skipped", []Point2{{0, 0}, {0, 1}, {9, 9}, {9, 8}, {5, 5}}, []int32{0, 0, 1, 1}, 2},
	{"NaN points skipped", []Point2{{0, 0}, {nan, 5}, {0, 1}, {9, nan}, {9, 8}, {8, 8}}, []int32{0, 0, 0, 1, 1, 1}, 2},
	{"single surviving cluster", []Point2{{0, 0}, {1, 1}, {nan, 2}, {3, 3}}, []int32{0, 0, 1, -1}, 2},
	{"empty levels between", []Point2{{0, 0}, {0, 1}, {9, 9}, {9, 8}, {4, 4}}, []int32{11, 11, 7, 7, 2}, 12},
	{"all singletons", []Point2{{0, 0}, {1, 5}, {7, 2}, {3, 3}}, []int32{3, 2, 1, 0}, 4},
	{"singleton among pairs", []Point2{{0, 0}, {0, 1}, {5, 5}, {9, 9}, {9, 8}}, []int32{0, 0, 1, 2, 2}, 3},
	{"coincident points", []Point2{{1, 1}, {1, 1}, {1, 1}, {1, 1}}, []int32{0, 0, 1, 1}, 2},
	{"infinite coordinate", []Point2{{math.Inf(1), 0}, {0, 1}, {9, 9}, {9, 8}}, []int32{0, 0, 1, 1}, 2},
	{"huge coordinates", []Point2{{0, 0}, {0, 1e200}, {9e200, 9e200}, {9e200, 8e200}, {1e200, 0}}, []int32{0, 0, 1, 1, 0}, 2},
	{"tiny coordinates", []Point2{{0, 0}, {0, 1e-200}, {9e-200, 9e-200}, {9e-200, 8e-200}, {1e-200, 0}}, []int32{0, 0, 1, 1, 0}, 2},
	{"huge and infinite", []Point2{{math.Inf(-1), 0}, {0, 1e200}, {9e200, 9e200}, {9e200, 8e200}}, []int32{0, 0, 1, 1}, 2},
	{"one level", []Point2{{0, 0}, {1, 1}}, []int32{0, 0}, 1},
	{"too short", []Point2{{0, 0}}, []int32{0}, 2},
}

func TestSilhouetteMatchesOracle(t *testing.T) {
	for _, tc := range silhouetteCases {
		requireSameBits(t, tc.name, groupSilhouette(tc.pts, tc.codes, tc.levels), groupSilhouetteOracle(tc.pts, tc.codes, tc.levels))
	}
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 150; trial++ {
		n := rng.Intn(90)
		k := 1 + rng.Intn(6)
		spread := 1 + trial%3*3 // dense codes, and ones with empty levels between
		levels := rng.Intn((k-1)*spread + 3)
		xs, ys := make([]float64, n), make([]float64, n)
		codes := make([]int32, n)
		for i := range codes {
			c := rng.Intn(k+1) - 1 // −1 … k−1
			xs[i], ys[i] = float64(c)*2+rng.NormFloat64(), rng.NormFloat64()
			if rng.Intn(15) == 0 {
				xs[i] = nan
			}
			codes[i] = int32(c * spread)
		}
		// What the kernel is to score: every stride-th row, standardised.
		x, y := NewOrdered(xs), NewOrdered(ys)
		if trial%4 == 0 {
			y.StdDev = 0 // reads as 1
		}
		stride := 1 + rng.Intn(3)
		var pts []Point2
		var sampled []int32
		sx, sy := unitIfUnusable(x.StdDev), unitIfUnusable(y.StdDev)
		for i := 0; i < n; i += stride {
			pts = append(pts, Point2{(xs[i] - x.Mean) / sx, (ys[i] - y.Mean) / sy})
			sampled = append(sampled, codes[i])
		}
		requireSameBits(t, "GroupSilhouette", GroupSilhouette(x, y, codes, levels, stride), groupSilhouetteOracle(pts, sampled, levels))
		short := codes[:n/2] // points beyond the codes are skipped
		requireSameBits(t, "GroupSilhouette short", groupSilhouette(pts, short, levels), groupSilhouetteOracle(pts, short, levels))
	}
}

// A silhouette is a ratio of distances: points scaled so far that their
// squared differences would overflow or underflow score what the
// unscaled points score.
func TestSilhouetteScaleInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	pts := make([]Point2, 80)
	codes := make([]int32, len(pts))
	for i := range pts {
		codes[i] = int32(i % 3)
		pts[i] = Point2{float64(codes[i]) + rng.NormFloat64(), rng.NormFloat64()}
	}
	want := groupSilhouette(pts, codes, 3)
	if math.IsNaN(want) {
		t.Fatal("unscaled score undefined")
	}
	for _, scale := range []float64{1e200, 1e-200, 1e151, 1e-151} {
		scaled := make([]Point2, len(pts))
		for i, p := range pts {
			scaled[i] = Point2{p.X * scale, p.Y * scale}
		}
		if got := groupSilhouette(scaled, codes, 3); !(math.Abs(got-want) <= 1e-12) {
			t.Errorf("scale %g: %v, unscaled %v", scale, got, want)
		}
	}
}

func FuzzSilhouette(f *testing.F) {
	f.Add([]byte{8, 6, 7, 8, 9, 10, 11, 6, 6}, []byte{0, 0, 1, 1})
	f.Add([]byte{40, 0, 6, 6, 7, 4, 5, 9, 9}, []byte{0, 255, 1, 3}) // stride 2, a negative code
	f.Fuzz(func(t *testing.T, coords, clusters []byte) {
		if len(coords) == 0 {
			return
		}
		levels, stride := int(coords[0])/2%12, 1+int(coords[0])/32%3
		vals := fuzzFloats(coords)
		n := min(len(vals)/2, len(clusters))
		pts := make([]Point2, n)
		codes := make([]int32, n)
		for i := range pts {
			pts[i] = Point2{vals[2*i], vals[2*i+1]}
			codes[i] = int32(int8(clusters[i])) % 16 // negative, dense, and at or beyond levels
		}
		var strided []Point2
		var sampled []int32
		for i := 0; i < n; i += stride {
			strided, sampled = append(strided, pts[i]), append(sampled, codes[i])
		}
		x, y := columns(pts)
		requireSameBits(t, "GroupSilhouette", GroupSilhouette(x, y, codes, levels, stride), groupSilhouetteOracle(strided, sampled, levels))
	})
}

var benchSink float64

func benchColumns(n int) (xs, ys []float64) {
	rng := rand.New(rand.NewSource(3))
	xs, ys = make([]float64, n), make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64()
		ys[i] = xs[i] + rng.NormFloat64()
		if rng.Intn(100) == 0 {
			ys[i] = nan
		}
	}
	return xs, ys
}

// BenchmarkSpearmanPair is one candidate of the monotonic class, both
// views built and ranked once before the clock starts: 1 % missing cells
// on each side, and values rounded to 6 significant digits, so tie
// groups form as they do in the repository benchmark's CSVs. The
// lengths are the row sample the approximate fallback ranks, and the
// columns of explore_exact and of ingest_stream. Each length is timed
// over views of one base run, and over views whose last 1/16 of the
// rows (under the share that merges them) is a delta run, as an exact
// read after a run of ingests sees them: what the per-pair merge walk
// that places both runs costs. It gates nothing.
func BenchmarkSpearmanPair(b *testing.B) {
	for _, n := range []int{2048, 8000, 20000} {
		rng := rand.New(rand.NewSource(3))
		xs, ys := make([]float64, n), make([]float64, n)
		for i := range xs {
			xs[i] = rng.NormFloat64()
			ys[i] = xs[i] + rng.NormFloat64()
		}
		for _, col := range [][]float64{xs, ys} {
			for i, v := range col {
				col[i], _ = strconv.ParseFloat(strconv.FormatFloat(v, 'g', 6, 64), 64)
				if rng.Intn(100) == 0 {
					col[i] = nan
				}
			}
		}
		for _, delta := range []int{0, n / 16} {
			x, y := splitOrdered(xs, n-delta), splitOrdered(ys, n-delta)
			benchSink = SpearmanOrdered(x, y)
			name := fmt.Sprint(n)
			if delta > 0 {
				name += "/delta"
			}
			b.Run(name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					benchSink = SpearmanOrdered(x, y)
				}
			})
		}
	}
}

// BenchmarkSilhouette512 is one candidate of the segmentation class at
// its sample cap: 512 points in four groups.
func BenchmarkSilhouette512(b *testing.B) {
	xs, ys := benchColumns(512)
	x, y := NewOrdered(xs), NewOrdered(ys)
	codes := make([]int32, len(xs))
	for i := range codes {
		codes[i] = int32(i % 4)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSink = GroupSilhouette(x, y, codes, 4, 1)
	}
}

// BenchmarkOrderFrom is the sort under Ranks, every Ordered() view and
// the row sample's order, at the lengths the benchmark workloads sort:
// the row sample, explore_exact's columns and explore_wide's (1 % NaN).
func BenchmarkOrderFrom(b *testing.B) {
	for _, n := range []int{2048, 8000, 30000} {
		_, ys := benchColumns(n)
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				order, _ := orderFrom(ys, 0)
				benchSink = float64(len(order))
			}
		})
	}
}
