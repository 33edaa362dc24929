package stats

import (
	"math"
	"slices"
	"sort"
)

// The kernels as they were before the ordered-view rewrite, kept
// verbatim as test-only references: every rewritten kernel must return
// the same bits.

func ranksOracle(xs []float64) []float64 {
	type iv struct {
		idx int
		v   float64
	}
	clean := make([]iv, 0, len(xs))
	for i, v := range xs {
		if !math.IsNaN(v) {
			clean = append(clean, iv{i, v})
		}
	}
	sort.Slice(clean, func(a, b int) bool { return clean[a].v < clean[b].v })

	ranks := make([]float64, len(xs))
	for i := range ranks {
		ranks[i] = math.NaN()
	}
	for i := 0; i < len(clean); {
		j := i
		for j < len(clean) && clean[j].v == clean[i].v {
			j++
		}
		avg := float64(i+j+1) / 2
		for k := i; k < j; k++ {
			ranks[clean[k].idx] = avg
		}
		i = j
	}
	return ranks
}

// orderFromOracle is orderFrom as it was before the radix sort: one
// comparison sort of (value, row) pairs, whatever the length.
func orderFromOracle(xs []float64, from int) (order []int32, sorted []float64) {
	type keyed struct {
		v   float64
		row int32
	}
	keys := make([]keyed, 0, len(xs)-from)
	for i := from; i < len(xs); i++ {
		if v := xs[i]; v == v {
			keys = append(keys, keyed{v, int32(i)})
		}
	}
	slices.SortFunc(keys, func(a, b keyed) int {
		switch {
		case a.v < b.v:
			return -1
		case a.v > b.v:
			return 1
		}
		return int(a.row) - int(b.row)
	})
	order, sorted = make([]int32, len(keys)), make([]float64, len(keys))
	for k, e := range keys {
		order[k], sorted[k] = e.row, e.v
	}
	return order, sorted
}

func pearsonOracle(xs, ys []float64) float64 {
	px, py := pairwiseComplete(xs, ys)
	n := len(px)
	if n < 2 {
		return math.NaN()
	}
	mx, my := Mean(px), Mean(py)
	var sxy, sxx, syy float64
	for i := range px {
		dx, dy := px[i]-mx, py[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	r := sxy / math.Sqrt(sxx*syy)
	if r > 1 {
		r = 1
	} else if r < -1 {
		r = -1
	}
	return r
}

func covarianceOracle(xs, ys []float64) float64 {
	px, py := pairwiseComplete(xs, ys)
	n := len(px)
	if n < 2 {
		return math.NaN()
	}
	mx, my := Mean(px), Mean(py)
	sum := 0.0
	for i := range px {
		sum += (px[i] - mx) * (py[i] - my)
	}
	return sum / float64(n)
}

func fitLineOracle(xs, ys []float64) LinearFit {
	px, py := pairwiseComplete(xs, ys)
	n := len(px)
	if n < 2 {
		return LinearFit{Slope: math.NaN(), Intercept: math.NaN(), R2: math.NaN(), N: n}
	}
	mx, my := Mean(px), Mean(py)
	var sxx, sxy, syy float64
	for i := range px {
		dx, dy := px[i]-mx, py[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return LinearFit{Slope: math.NaN(), Intercept: math.NaN(), R2: math.NaN(), N: n}
	}
	slope := sxy / sxx
	fit := LinearFit{
		Slope:     slope,
		Intercept: my - slope*mx,
		N:         n,
	}
	if syy > 0 {
		fit.R2 = (sxy * sxy) / (sxx * syy)
	} else {
		fit.R2 = math.NaN()
	}
	return fit
}

func spearmanOracle(xs, ys []float64) float64 {
	px, py := pairwiseComplete(xs, ys)
	if len(px) < 2 {
		return math.NaN()
	}
	return pearsonOracle(ranksOracle(px), ranksOracle(py))
}

// Point2 is a point in the plane: the oracles' input form, which the
// kernel reads as two columns.
type Point2 struct{ X, Y float64 }

func sqrtDist(p, q Point2) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Sqrt(dx*dx + dy*dy)
}

// hypotDist is the distance the kernel used before it took sqrtDist:
// kept to bound how far the change of definition moves a score.
func hypotDist(p, q Point2) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }

// silhouetteOracle is the definition GroupSilhouette implements, for any
// cluster ids (negative = not scored): points whose largest finite
// |coordinate| is outside 1e±150 are divided by it, then every point
// scans every cluster's members with sqrtDist.
func silhouetteOracle(pts []Point2, assign []int) float64 {
	big := 0.0
	for i, p := range pts {
		if assign[i] >= 0 && !math.IsNaN(p.X) && !math.IsNaN(p.Y) {
			big = math.Max(big, math.Max(math.Abs(p.X), math.Abs(p.Y)))
		}
	}
	if big > 0 && !math.IsInf(big, 1) && (big > 1e150 || big < 1e-150) {
		scaled := make([]Point2, len(pts))
		for i, p := range pts {
			scaled[i] = Point2{p.X / big, p.Y / big}
		}
		pts = scaled
	}
	return silhouetteOracleWith(sqrtDist, pts, assign)
}

func silhouetteOracleWith(dist func(p, q Point2) float64, pts []Point2, assign []int) float64 {
	n := len(pts)
	if n != len(assign) || n < 2 {
		return math.NaN()
	}
	members := map[int][]int{}
	for i, c := range assign {
		if c >= 0 && !math.IsNaN(pts[i].X) && !math.IsNaN(pts[i].Y) {
			members[c] = append(members[c], i)
		}
	}
	if len(members) < 2 {
		return math.NaN()
	}
	clusters := make([]int, 0, len(members))
	for c := range members {
		clusters = append(clusters, c)
	}
	sort.Ints(clusters)
	total, count := 0.0, 0
	for _, c := range clusters {
		idxs := members[c]
		for _, i := range idxs {
			a := 0.0
			if len(idxs) > 1 {
				for _, j := range idxs {
					if j != i {
						a += dist(pts[i], pts[j])
					}
				}
				a /= float64(len(idxs) - 1)
			}
			b := math.Inf(1)
			for _, oc := range clusters {
				oidxs := members[oc]
				if oc == c || len(oidxs) == 0 {
					continue
				}
				sum := 0.0
				for _, j := range oidxs {
					sum += dist(pts[i], pts[j])
				}
				avg := sum / float64(len(oidxs))
				if avg < b {
					b = avg
				}
			}
			den := math.Max(a, b)
			if den > 0 {
				total += (b - a) / den
				count++
			}
		}
	}
	if count == 0 {
		return math.NaN()
	}
	return total / float64(count)
}

// groupAssign reads dictionary codes as cluster ids: a point with no
// code, or one outside [0, levels), is not scored.
func groupAssign(n int, codes []int32, levels int) []int {
	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
		if i < len(codes) && codes[i] >= 0 && int(codes[i]) < levels {
			assign[i] = int(codes[i])
		}
	}
	return assign
}

func groupSilhouetteOracle(pts []Point2, codes []int32, levels int) float64 {
	return silhouetteOracle(pts, groupAssign(len(pts), codes, levels))
}

func groupSilhouetteHypotOracle(pts []Point2, codes []int32, levels int) float64 {
	return silhouetteOracleWith(hypotDist, pts, groupAssign(len(pts), codes, levels))
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
