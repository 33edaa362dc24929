package sketch

import (
	"fmt"
	"math"
	"testing"
)

// projectRangeScalar is projectRange as it was before the tiled kernel
// and is still its definition: per column, per row in ascending order,
// per direction, one multiply and one add into the dot.
func projectRangeScalar(cols [][]float64, means []float64, start, end int, cfg ProjectConfig) []*Projection {
	cfg.fill()
	d := len(cols)
	out := make([]*Projection, d)
	for j := range out {
		out[j] = &Projection{Dots: make([]float64, cfg.K), Rows: end - start, Seed: cfg.Seed}
	}
	if d == 0 || start >= end {
		return out
	}
	k := cfg.K
	first := start / directionGranule
	block := make([]float32, min(directionGranule, end-first*directionGranule)*k)
	for b := first; b*directionGranule < end; b++ {
		base := b * directionGranule
		lo, hi := max(start, base), min(end, base+directionGranule)
		fillDirections(cfg.Seed, b, block[:(hi-base)*k])
		for j := 0; j < d; j++ {
			col := cols[j]
			dots := out[j].Dots
			mean := means[j]
			for r := lo; r < hi && r < len(col); r++ {
				v := col[r]
				if math.IsNaN(v) {
					continue // mean-imputed: centered value is 0
				}
				v -= mean
				if v == 0 {
					continue
				}
				g := block[(r-base)*k : (r-base+1)*k]
				for q, gv := range g {
					dots[q] += v * float64(gv)
				}
			}
		}
	}
	return out
}

// TestProjectRangeMatchesScalar holds the tiled, chunked kernel to the
// scalar definition bit for bit: every tile width (d mod tileColumns),
// widths that chunk at 2, 3 and 7 workers, odd direction counts, ranges
// that are whole, ragged, inside one block or past a column's end, and
// columns that are all missing, constant at their centre, or infinite.
func TestProjectRangeMatchesScalar(t *testing.T) {
	const n = 5*directionGranule + 77
	g := directionGranule
	ranges := [][2]int{
		{0, n}, {0, 5 * g}, {g + 7, 4*g + 9}, {10, 40}, {g - 1, g + 1},
		{3 * g, n}, {n - 10, n}, {0, n + 300}, {n, n + 5}, {700, 700},
	}
	for _, d := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 17, 40, 59, 120} {
		cols, means := splitColumns(n, d, int64(d))
		cols[0] = cols[0][:n-g-3] // ends inside the ranges
		if d > 2 {
			for i := range cols[1] {
				cols[1][i] = math.NaN()
			}
			for i := range cols[2] {
				cols[2][i] = means[2] // centres to 0 everywhere
			}
		}
		if d > 4 {
			cols[3][2*g+5] = math.Inf(1)
			means[4] = math.NaN()
		}
		ks := []int{1, 5, 48}
		if d > 60 {
			ks = []int{7}
		}
		for _, k := range ks {
			for _, rg := range ranges {
				want := projectRangeScalar(cols, means, rg[0], rg[1], ProjectConfig{K: k, Seed: 31})
				for _, workers := range []int{1, 2, 3, 7} {
					got := projectRange(cols, means, rg[0], rg[1], ProjectConfig{K: k, Seed: 31, Workers: workers})
					if err := sameProjections(got, want); err != nil {
						t.Fatalf("d=%d k=%d rows [%d,%d) workers=%d: %v", d, k, rg[0], rg[1], workers, err)
					}
				}
			}
		}
	}
}

func sameProjections(got, want []*Projection) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d projections, want %d", len(got), len(want))
	}
	for j := range want {
		if got[j].Rows != want[j].Rows || got[j].Seed != want[j].Seed || len(got[j].Dots) != len(want[j].Dots) {
			return fmt.Errorf("column %d: shape (rows %d, seed %d, k %d), want (rows %d, seed %d, k %d)", j,
				got[j].Rows, got[j].Seed, len(got[j].Dots), want[j].Rows, want[j].Seed, len(want[j].Dots))
		}
		for q, w := range want[j].Dots {
			if math.Float64bits(got[j].Dots[q]) != math.Float64bits(w) {
				return fmt.Errorf("column %d dot %d: %v (%#x), scalar %v (%#x)", j, q,
					got[j].Dots[q], math.Float64bits(got[j].Dots[q]), w, math.Float64bits(w))
			}
		}
	}
	return nil
}
