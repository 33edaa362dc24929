package stats

import (
	"cmp"
	"math"
	"slices"
	"sort"
)

// pairwiseComplete returns the values of xs and ys at indexes where
// both are non-NaN. Slices of equal length are required; panics
// otherwise (programmer error).
func pairwiseComplete(xs, ys []float64) (px, py []float64) {
	if len(xs) != len(ys) {
		panic("stats: correlation inputs have different lengths")
	}
	clean := true
	for i := range xs {
		if math.IsNaN(xs[i]) || math.IsNaN(ys[i]) {
			clean = false
			break
		}
	}
	if clean {
		return xs, ys
	}
	px = make([]float64, 0, len(xs))
	py = make([]float64, 0, len(ys))
	for i := range xs {
		if !math.IsNaN(xs[i]) && !math.IsNaN(ys[i]) {
			px = append(px, xs[i])
			py = append(py, ys[i])
		}
	}
	return px, py
}

// pairSums holds the centred second-order sums of the pairwise-complete
// observations of two samples: everything Covariance, Pearson and
// FitLine need, from two passes that skip incomplete rows in place (no
// copies). The additions run in row order, exactly as they would over
// extracted complete copies.
type pairSums struct {
	n             int
	mx, my        float64
	sxx, sxy, syy float64
}

// newPairSums panics on slices of different lengths (programmer
// error).
func newPairSums(xs, ys []float64) pairSums {
	if len(xs) != len(ys) {
		panic("stats: correlation inputs have different lengths")
	}
	var s pairSums
	var sumX, sumY float64
	for i, x := range xs {
		y := ys[i]
		if x != x || y != y {
			continue
		}
		sumX += x
		sumY += y
		s.n++
	}
	if s.n < 2 {
		return s
	}
	s.mx, s.my = sumX/float64(s.n), sumY/float64(s.n)
	for i, x := range xs {
		y := ys[i]
		if x != x || y != y {
			continue
		}
		dx, dy := x-s.mx, y-s.my
		s.sxy += dx * dy
		s.sxx += dx * dx
		s.syy += dy * dy
	}
	return s
}

// pearson returns ρ = sxy/√(sxx·syy), NaN when either side is constant
// or fewer than two pairs exist.
func (s pairSums) pearson() float64 {
	if s.n < 2 || s.sxx == 0 || s.syy == 0 {
		return math.NaN()
	}
	r := s.sxy / math.Sqrt(s.sxx*s.syy)
	// Clamp rounding excursions outside [-1, 1].
	if r > 1 {
		r = 1
	} else if r < -1 {
		r = -1
	}
	return r
}

// Covariance returns the population covariance of the
// pairwise-complete observations of xs and ys.
func Covariance(xs, ys []float64) float64 {
	s := newPairSums(xs, ys)
	if s.n < 2 {
		return math.NaN()
	}
	return s.sxy / float64(s.n)
}

// Pearson returns the Pearson correlation coefficient
// ρ(x,y) = Σ(xᵢ−µx)(yᵢ−µy)/(n·σx·σy) over pairwise-complete
// observations — the paper's linear-relationship metric. It returns
// NaN when either side is constant or fewer than two pairs exist.
func Pearson(xs, ys []float64) float64 { return newPairSums(xs, ys).pearson() }

// PearsonFit returns Pearson(xs, ys) and FitLine(xs, ys) from one scan
// of the pairs: both are functions of the same five sums.
func PearsonFit(xs, ys []float64) (float64, LinearFit) {
	s := newPairSums(xs, ys)
	return s.pearson(), s.fit()
}

// KendallTauB returns Kendall's τ-b rank correlation over
// pairwise-complete observations, computed in O(n log n) with Knight's
// algorithm (sort by x, count discordant pairs via merge sort, correct
// for ties).
func KendallTauB(xs, ys []float64) float64 {
	px, py := pairwiseComplete(xs, ys)
	n := len(px)
	if n < 2 {
		return math.NaN()
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(ia, ib int) int {
		if px[ia] != px[ib] {
			return cmp.Compare(px[ia], px[ib])
		}
		return cmp.Compare(py[ia], py[ib])
	})
	ySorted := make([]float64, n)
	xSorted := make([]float64, n)
	for i, id := range idx {
		xSorted[i] = px[id]
		ySorted[i] = py[id]
	}

	// Tie counts. n0 = C(n,2); n1 = Σ C(tx,2) over x tie groups;
	// n2 = Σ C(ty,2) over y tie groups; n3 = Σ C(txy,2) over joint ties.
	pairs := func(t float64) float64 { return t * (t - 1) / 2 }
	var n1, n3 float64
	for i := 0; i < n; {
		j := i
		for j < n && xSorted[j] == xSorted[i] {
			j++
		}
		n1 += pairs(float64(j - i))
		// Joint ties inside this x group (ys are sorted within group).
		for a := i; a < j; {
			b := a
			for b < j && ySorted[b] == ySorted[a] {
				b++
			}
			n3 += pairs(float64(b - a))
			a = b
		}
		i = j
	}
	var n2 float64
	yOnly := make([]float64, n)
	copy(yOnly, ySorted)
	sort.Float64s(yOnly)
	for i := 0; i < n; {
		j := i
		for j < n && yOnly[j] == yOnly[i] {
			j++
		}
		n2 += pairs(float64(j - i))
		i = j
	}

	swaps := mergeCountSwaps(ySorted)
	n0 := pairs(float64(n))
	// Number of discordant pairs = swaps; concordant = n0-n1-n2+n3-swaps.
	num := n0 - n1 - n2 + n3 - 2*float64(swaps)
	den := math.Sqrt((n0 - n1) * (n0 - n2))
	if den == 0 {
		return math.NaN()
	}
	tau := num / den
	if tau > 1 {
		tau = 1
	} else if tau < -1 {
		tau = -1
	}
	return tau
}

// mergeCountSwaps sorts ys in place by merge sort and returns the
// number of exchanges (inversions) required, counting ties as
// non-inversions.
func mergeCountSwaps(ys []float64) int64 {
	n := len(ys)
	if n < 2 {
		return 0
	}
	buf := make([]float64, n)
	var rec func(lo, hi int) int64
	rec = func(lo, hi int) int64 {
		if hi-lo < 2 {
			return 0
		}
		mid := (lo + hi) / 2
		swaps := rec(lo, mid) + rec(mid, hi)
		i, j, k := lo, mid, lo
		for i < mid && j < hi {
			if ys[j] < ys[i] {
				buf[k] = ys[j]
				swaps += int64(mid - i)
				j++
			} else {
				buf[k] = ys[i]
				i++
			}
			k++
		}
		for i < mid {
			buf[k] = ys[i]
			i++
			k++
		}
		for j < hi {
			buf[k] = ys[j]
			j++
			k++
		}
		copy(ys[lo:hi], buf[lo:hi])
		return swaps
	}
	return rec(0, n)
}
