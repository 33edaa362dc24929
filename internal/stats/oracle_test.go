package stats

import (
	"math"
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

func silhouetteOracle(pts []Point2, assign []int) float64 {
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
	dist := func(p, q Point2) float64 { return math.Hypot(p.X-q.X, p.Y-q.Y) }
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

func groupSilhouetteOracle(pts []Point2, codes []int32) float64 {
	assign := make([]int, len(pts))
	for i := range pts {
		if i < len(codes) {
			assign[i] = int(codes[i])
		} else {
			assign[i] = -1
		}
	}
	return silhouetteOracle(pts, assign)
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
