package stats

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// panicValue runs fn and returns what it panicked with, nil if nothing.
func panicValue(fn func()) (v any) {
	defer func() { v = recover() }()
	fn()
	return nil
}

// runPartner decodes partner k of a run from data: one alphabet value a
// row, read at a stride the partner's index shifts, so partners differ
// in where their NaNs, zeros and infinities fall.
func runPartner(data []byte, k, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		if len(data) == 0 {
			out[i] = float64(i + k)
			continue
		}
		out[i] = fuzzAlphabet[int(data[(i*(k+1)+k)%len(data)])%len(fuzzAlphabet)]
	}
	return out
}

// checkPearsonRun holds PearsonFits to PearsonFit on every field, bit
// for bit, and to its panic when a partner's length differs.
func checkPearsonRun(t *testing.T, x []float64, ys [][]float64) {
	t.Helper()
	rho, fits := make([]float64, len(ys)), make([]LinearFit, len(ys))
	for _, y := range ys {
		if len(y) != len(x) {
			want := panicValue(func() { PearsonFit(x, y) })
			if got := panicValue(func() { PearsonFits(x, ys, rho, fits) }); want == nil || got != want {
				t.Fatalf("a partner of length %d against %d: panic %v, pair kernel %v", len(y), len(x), got, want)
			}
			return
		}
	}
	PearsonFits(x, ys, rho, fits)
	for k, y := range ys {
		r, fit := PearsonFit(x, y)
		what := fmt.Sprintf("partner %d of %d", k, len(ys))
		requireSameBits(t, what+": rho", rho[k], r)
		requireSameBits(t, what+": slope", fits[k].Slope, fit.Slope)
		requireSameBits(t, what+": intercept", fits[k].Intercept, fit.Intercept)
		requireSameBits(t, what+": r2", fits[k].R2, fit.R2)
		if fits[k].N != fit.N {
			t.Fatalf("%s: N = %d, pair kernel %d", what, fits[k].N, fit.N)
		}
	}
}

// FuzzPearsonRun checks PearsonFits against PearsonFit over runs of one
// to six partners (a block of four and a short one), with NaN in x and
// in the partners, ±0, ±Inf and ±1e300. shape adds a constant partner,
// an all-NaN one, or one of another length.
func FuzzPearsonRun(f *testing.F) {
	f.Add([]byte{}, []byte{}, uint8(0), uint8(0))
	f.Add([]byte{0, 6}, []byte{8}, uint8(3), uint8(0))                               // n = 1
	f.Add([]byte{0, 6, 8, 9, 10, 11}, []byte{6, 8, 0, 9, 11}, uint8(3), uint8(0))    // NaN in the partners
	f.Add([]byte{0, 0, 6, 8, 9, 1, 11}, []byte{6, 8, 9, 11, 10}, uint8(3), uint8(1)) // NaN in x, a constant partner
	f.Add([]byte{0, 2, 3, 6, 8, 9, 10}, []byte{2, 3, 6, 8, 12}, uint8(1), uint8(2))  // ±0, an all-NaN partner
	f.Add([]byte{0, 12, 13, 6, 8, 9}, []byte{12, 13, 4, 5, 6}, uint8(2), uint8(0))   // ±1e300, ±Inf
	f.Add([]byte{0, 6, 8, 9, 10}, []byte{6, 8, 9}, uint8(5), uint8(3))               // a partner of another length
	f.Add([]byte{0, 6, 8, 9, 10, 11, 15, 8, 6}, []byte{0, 6, 1, 8, 9, 0, 11}, uint8(4), uint8(0))
	f.Fuzz(func(t *testing.T, a, b []byte, width, shape uint8) {
		x := fuzzFloats(a)
		ys := make([][]float64, 1+int(width)%6)
		for k := range ys {
			ys[k] = runPartner(b, k, len(x))
		}
		last := len(ys) - 1
		switch shape % 4 {
		case 1:
			for i := range ys[0] {
				ys[0][i] = 7
			}
		case 2:
			for i := range ys[last] {
				ys[last][i] = math.NaN()
			}
		case 3:
			ys[last] = append(ys[last], 1)
		}
		checkPearsonRun(t, x, ys)
	})
}

// checkCorrelationRatioRun holds CorrelationRatios to CorrelationRatio,
// bit for bit.
func checkCorrelationRatioRun(t *testing.T, values []float64, codes [][]int32, groups []int) {
	t.Helper()
	eta2 := make([]float64, len(codes))
	CorrelationRatios(values, codes, groups, eta2)
	for k := range codes {
		requireSameBits(t, fmt.Sprintf("partner %d of %d (%d groups)", k, len(codes), groups[k]),
			eta2[k], CorrelationRatio(codes[k], values, groups[k]))
	}
}

// FuzzCorrelationRatioRun checks CorrelationRatios against
// CorrelationRatio over runs of one to six partners, with NaN values,
// ±0, ±Inf and ±1e300, codes of −1 and at or beyond the group count,
// partners of zero groups, and partners shorter or longer than the
// values.
func FuzzCorrelationRatioRun(f *testing.F) {
	f.Add([]byte{}, []byte{}, uint8(0), uint8(0))
	f.Add([]byte{0, 6}, []byte{1}, uint8(3), uint8(0))                                  // n = 1
	f.Add([]byte{0, 6, 8, 9, 10, 11, 15}, []byte{1, 2, 3, 1, 2, 3}, uint8(3), uint8(0)) // clean
	f.Add([]byte{0, 0, 6, 1, 9, 10, 11}, []byte{0, 1, 5, 2, 9, 3}, uint8(3), uint8(1))  // NaN, codes −1 and ≥ groups
	f.Add([]byte{0, 2, 3, 12, 13, 6, 8}, []byte{1, 2, 1, 2, 1, 2}, uint8(1), uint8(2))  // ±0, ±1e300
	f.Add([]byte{0, 4, 5, 6, 8, 9}, []byte{1, 2, 3, 4}, uint8(2), uint8(3))             // ±Inf, ragged lengths
	f.Add([]byte{0, 7, 7, 7, 7, 7}, []byte{1, 2, 1, 2, 3}, uint8(5), uint8(0))          // constant values
	f.Fuzz(func(t *testing.T, a, b []byte, width, shape uint8) {
		values := fuzzFloats(a)
		w := 1 + int(width)%6
		codes, groups := make([][]int32, w), make([]int, w)
		for k := range codes {
			groups[k] = 1 + (k+int(shape))%5
			n := len(values)
			if shape%4 == 3 { // ragged: partners shorter and longer than the values
				n = max(0, n+k%3-1)
			}
			codes[k] = make([]int32, n)
			for i := range codes[k] {
				c := int32(i + k)
				if len(b) > 0 {
					c = int32(b[(i*(k+1)+k)%len(b)])
				}
				codes[k][i] = c%int32(groups[k]+2) - 1 // −1 … groups
			}
		}
		if shape%4 == 1 {
			groups[w-1] = 0
		}
		checkCorrelationRatioRun(t, values, codes, groups)
	})
}

// BenchmarkCorrelationRatioRun is η² of one 8 000-row column (1 %
// missing) against four categoricals of 4 to 16 levels, the dependence
// class's work on explore_exact's shape: /pair one CorrelationRatio a
// categorical, /run one CorrelationRatios.
func BenchmarkCorrelationRatioRun(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	const rows = 8000
	values := make([]float64, rows)
	for i := range values {
		if values[i] = rng.NormFloat64(); rng.Intn(100) == 0 {
			values[i] = math.NaN()
		}
	}
	groups := []int{4, 16, 8, 12}
	codes := make([][]int32, len(groups))
	for k, g := range groups {
		codes[k] = make([]int32, rows)
		for i := range codes[k] {
			codes[k][i] = int32(rng.Intn(g))
		}
	}
	eta2 := make([]float64, len(codes))
	b.Run("pair", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for k := range codes {
				eta2[k] = CorrelationRatio(codes[k], values, groups[k])
			}
		}
	})
	b.Run("run", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			CorrelationRatios(values, codes, groups, eta2)
		}
	})
}

// TestRunKernelsOnColumns runs both kernels over every partner of
// columns shaped like the repository benchmark's explore_exact input
// (1 % missing, a few outliers), where the pair kernels' rounding is
// that of real data.
func TestRunKernelsOnColumns(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const rows, cols = 3000, 9
	xs := make([][]float64, cols)
	codes := make([][]int32, cols)
	groups := make([]int, cols)
	for j := range xs {
		xs[j] = make([]float64, rows)
		codes[j] = make([]int32, rows)
		groups[j] = 2 + j%6
		for i := range xs[j] {
			xs[j][i] = 10*float64(j) + rng.NormFloat64()
			switch u := rng.Float64(); {
			case u < 0.01:
				xs[j][i] = math.NaN()
			case u < 0.013:
				xs[j][i] += 30
			}
			codes[j][i] = int32(rng.Intn(groups[j]+1)) - 1
		}
	}
	for j := range xs {
		checkPearsonRun(t, xs[j], xs[j+1:])
		checkCorrelationRatioRun(t, xs[j], codes, groups)
	}
}

// BenchmarkPearsonPairs fits all 496 pairs of an 8 000 × 32 frame with
// 1 % of its cells missing, the exact linear class's work on
// explore_exact's shape: /pair one PearsonFit (the test oracle) a pair, /run each column
// against its later partners through PearsonFits. Both
// report ns per pair.
func BenchmarkPearsonPairs(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	const rows, cols = 8000, 32
	xs := make([][]float64, cols)
	for j := range xs {
		xs[j] = make([]float64, rows)
		for i := range xs[j] {
			if xs[j][i] = rng.NormFloat64(); rng.Intn(100) == 0 {
				xs[j][i] = math.NaN()
			}
		}
	}
	const pairs = cols * (cols - 1) / 2
	rho, fits := make([]float64, cols), make([]LinearFit, cols)
	for _, run := range []bool{false, true} {
		name := "pair"
		if run {
			name = "run"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j, x := range xs {
					if !run {
						for k, y := range xs[j+1:] {
							rho[k], fits[k] = PearsonFit(x, y)
						}
						continue
					}
					PearsonFits(x, xs[j+1:], rho, fits)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*pairs), "ns/pair")
		})
	}
}
