package stats

import (
	"math"
	"sort"
)

// KMeans1D clusters the values xs into k groups with Lloyd's algorithm
// seeded deterministically by quantile spacing (no randomness needed
// in one dimension). It returns per-point assignments and the final
// centers, sorted ascending. NaN values are assigned cluster 0 but do
// not influence the centers. maxIter caps Lloyd iterations.
func KMeans1D(xs []float64, k, maxIter int) (assign []int, centers []float64) {
	assign = make([]int, len(xs))
	if k < 1 {
		k = 1
	}
	clean := sortedCopy(xs)
	if len(clean) == 0 {
		return assign, make([]float64, k)
	}
	if k > len(clean) {
		k = len(clean)
	}
	centers = make([]float64, k)
	for i := range centers {
		q := (float64(i) + 0.5) / float64(k)
		centers[i] = QuantileSorted(clean, q)
	}
	if maxIter <= 0 {
		maxIter = 100
	}
	sums := make([]float64, k)
	counts := make([]float64, k)
	for iter := 0; iter < maxIter; iter++ {
		for i := range sums {
			sums[i], counts[i] = 0, 0
		}
		for _, v := range clean {
			c := nearestCenter(centers, v)
			sums[c] += v
			counts[c]++
		}
		moved := false
		for i := range centers {
			if counts[i] == 0 {
				continue
			}
			next := sums[i] / counts[i]
			if next != centers[i] {
				centers[i] = next
				moved = true
			}
		}
		if !moved {
			break
		}
	}
	sort.Float64s(centers)
	for i, v := range xs {
		if math.IsNaN(v) {
			assign[i] = 0
			continue
		}
		assign[i] = nearestCenter(centers, v)
	}
	return assign, centers
}

func nearestCenter(centers []float64, v float64) int {
	best, bestD := 0, math.Inf(1)
	for i, c := range centers {
		d := math.Abs(v - c)
		if d < bestD {
			best, bestD = i, d
		}
	}
	return best
}

// GroupSilhouette measures how well a categorical attribute segments a
// 2-D numeric scatter: the mean silhouette coefficient,
// ((b−a)/max(a,b)) averaged over points, of the grouping codes induce,
// where a is a point's mean distance to its own group and b to the
// nearest other group. Values near 1 indicate strong segmentation. It
// is Foresight's segmentation metric.
//
// Every stride-th row (stride < 1 reads as 1) of the common prefix of
// x.Values, y.Values and codes is a point, x and y each standardised by
// its own Mean and StdDev (a σ of 0 or NaN reads as 1). codes are
// dictionary codes: a row whose code is outside [0, levels), or whose
// standardised coordinates include a NaN, is not scored. O(m²) time and
// O(m·levels) pooled scratch for m scored points, no allocation;
// callers choose stride to bound m.
//
// The scored points are laid out group by group (ascending code), rows
// ascending within a group — the order the result averages them in.
// Each of the m(m−1)/2 distances is computed once — (p−q)² and (q−p)²
// are the same bits — and added to the (point, group) sum of both
// endpoints. A sum over one group's members receives them in layout
// order, that is by ascending row: the members laid out before the
// point add theirs while they are the outer index, in turn, and the
// ones after it are walked left to right once the point is. So every
// sum sees the additions a per-point scan of each group's members
// would make, in the same order, from half the distances and with the
// running sum of the inner loop in a register.
//
// A distance is √(dx²+dy²), one instruction. Coordinates standardised
// by the sample's own σ lie within ±√n, so the squares neither overflow
// nor underflow; when σ was unusable and the largest finite |coordinate|
// is beyond 1e±150 the points are divided by it first, which a
// silhouette — a ratio of distances — does not see.
func GroupSilhouette(x, y *Ordered, codes []int32, levels, stride int) float64 {
	s, _ := silhouette(x, y, codes, levels, stride, false)
	return s
}

// CertifiedSilhouette is GroupSilhouette, same bits, and its certificate
// in O(m·levels) more: nil when a group has one point, a mean distance
// is not positive and finite, the points were rescaled, or S is NaN.
func CertifiedSilhouette(x, y *Ordered, codes []int32, levels, stride int) (float64, SilhouetteCert) {
	return silhouette(x, y, codes, levels, stride, true)
}

func silhouette(x, y *Ordered, codes []int32, levels, stride int, certify bool) (float64, SilhouetteCert) {
	n := min(len(x.Values), len(y.Values), len(codes))
	stride = max(stride, 1)
	if n < 2 || levels < 2 {
		return math.NaN(), nil
	}
	sx, sy := unitIfUnusable(x.StdDev), unitIfUnusable(y.StdDev)
	// point is row i standardised, and whether it is scored.
	point := func(i int) (px, py float64, scored bool) {
		px, py = (x.Values[i]-x.Mean)/sx, (y.Values[i]-y.Mean)/sy
		return px, py, uint32(codes[i]) < uint32(levels) && px == px && py == py
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)

	// Counting sort into the layout: group k occupies positions
	// [start[k], start[k+1]); next[k] is where its next row goes.
	sc.slots = grow(sc.slots, 2*levels+1)
	start, next := sc.slots[:levels+1], sc.slots[levels+1:]
	clear(start)
	for i := 0; i < n; i += stride {
		if _, _, scored := point(i); scored {
			start[codes[i]+1]++
		}
	}
	K := 0 // non-empty groups
	for k := 0; k < levels; k++ {
		if start[k+1] > 0 {
			K++
		}
		start[k+1] += start[k]
	}
	if K < 2 {
		return math.NaN(), nil
	}
	copy(next, start)
	m := int(start[levels])
	// xs, ys by layout position; sums[k*m+p] is the distance from the
	// point at p to group k.
	sc.floats = grow(sc.floats, 2*m+m*levels)
	xs, ys, sums := sc.floats[:m], sc.floats[m:2*m], sc.floats[2*m:]
	big := 0.0
	for i := 0; i < n; i += stride {
		if px, py, scored := point(i); scored {
			p := next[codes[i]]
			next[codes[i]]++
			xs[p], ys[p] = px, py
			big = max(big, math.Abs(px), math.Abs(py))
		}
	}
	rescale := big > 0 && !math.IsInf(big, 1) && (big > 1e150 || big < 1e-150)
	if rescale {
		for p := range xs {
			xs[p] /= big
			ys[p] /= big
		}
	}
	clear(sums)

	for k := 0; k < levels; k++ {
		toK := sums[k*m : k*m+m]
		for a := int(start[k]); a < int(start[k+1]); a++ {
			ax, ay := xs[a], ys[a]
			lo := a + 1
			for o := k; o < levels; o++ {
				hi := int(start[o+1])
				sum := sums[o*m+a]
				for b := lo; b < hi; b++ {
					dx, dy := ax-xs[b], ay-ys[b]
					d := math.Sqrt(dx*dx + dy*dy)
					sum += d
					toK[b] += d
				}
				sums[o*m+a] = sum
				lo = hi
			}
		}
	}

	total, count := 0.0, 0
	for k := 0; k < levels; k++ {
		size := start[k+1] - start[k]
		for a := int(start[k]); a < int(start[k+1]); a++ {
			intra := 0.0
			if size > 1 {
				intra = sums[k*m+a] / float64(size-1)
			}
			nearest := math.Inf(1)
			for o := 0; o < levels; o++ {
				if others := start[o+1] - start[o]; o != k && others > 0 {
					if avg := sums[o*m+a] / float64(others); avg < nearest {
						nearest = avg
					}
				}
			}
			if den := math.Max(intra, nearest); den > 0 {
				total += (nearest - intra) / den
				count++
			}
		}
	}
	if count == 0 {
		return math.NaN(), nil
	}
	s := total / float64(count)
	if !certify || rescale || s != s {
		return s, nil
	}
	return s, newSilhouetteCert(s, x, y, n, levels, stride, start, xs, ys, sums)
}

// SilhouetteCert is what CertifiedSilhouette leaves behind for Bound, in
// one allocation: a header, then per level n_g, T_g = Σᵢ 1/μ_g(i) over
// every point, M_g = minᵢ μ_g(i), and the mean and M2 of the members' x
// and y as the points were standardised. μ_g(i) is point i's mean
// distance to the members of g other than itself.
type SilhouetteCert []float64

// The header: S, the rows and stride the points were drawn at, the
// levels, m, and per axis the σ and mean the points were standardised by.
const (
	certScore, certRows, certStride, certLevels, certPoints = 0, 1, 2, 3, 4
	certSX, certMX, certSY, certMY, certFields              = 5, 6, 7, 8, 9
)

// A group's fields.
const (
	groupN, groupInv, groupMin, groupMeanX      = 0, 1, 2, 3
	groupM2X, groupMeanY, groupM2Y, groupFields = 4, 5, 6, 7
)

// newSilhouetteCert fills the certificate of the silhouette s from the
// kernel's layout, points and sums, or returns nil where none exists.
func newSilhouetteCert(s float64, x, y *Ordered, n, levels, stride int, start []int32, xs, ys, sums []float64) SilhouetteCert {
	m := int(start[levels])
	c := make(SilhouetteCert, certFields+levels*groupFields)
	copy(c, []float64{s, float64(n), float64(stride), float64(levels), float64(m), unitIfUnusable(x.StdDev), x.Mean, unitIfUnusable(y.StdDev), y.Mean})
	for k := 0; k < levels; k++ {
		lo, hi := int(start[k]), int(start[k+1])
		if hi-lo == 1 {
			return nil
		}
		g := c[certFields+k*groupFields:][:groupFields]
		g[groupMin] = math.Inf(1)
		for p := 0; p < m && hi > lo; p++ {
			mu := sums[k*m+p] / float64(hi-lo)
			if lo <= p && p < hi {
				mu = sums[k*m+p] / float64(hi-lo-1)
			}
			if !(mu > 0 && mu < math.Inf(1)) {
				return nil
			}
			g[groupInv] += 1 / mu
			g[groupMin] = min(g[groupMin], mu)
		}
		for p := lo; p < hi; p++ {
			addMember(g, xs[p], ys[p])
		}
	}
	return c
}

// addMember folds a member at (x, y) into group g's count and moments
// (Welford).
func addMember(g []float64, x, y float64) {
	g[groupN]++
	dx, dy := x-g[groupMeanX], y-g[groupMeanY]
	g[groupMeanX] += dx / g[groupN]
	g[groupMeanY] += dy / g[groupN]
	g[groupM2X] += dx * (x - g[groupMeanX])
	g[groupM2Y] += dy * (y - g[groupMeanY])
}

// Bound returns an upper bound on GroupSilhouette(x, y, codes, levels,
// stride) for columns whose first rows, codes included, are the ones the
// certificate was made on: S + (m·λ + ΣE + J·(1 − S))/(m + J) for m
// points at silhouette S and J appended points (DESIGN §6j), in rounded
// arithmetic that callers inflate. It is +Inf where the certificate
// says nothing: the stride or the levels differ, or an appended point
// joins a group of fewer than two, or too close to bound.
func (c SilhouetteCert) Bound(x, y *Ordered, codes []int32, levels, stride int) float64 {
	lambda, sumE, added, ok := c.terms(x, y, codes, levels, stride)
	if !ok {
		return math.Inf(1)
	}
	s, m := c[certScore], c[certPoints]
	return s + (m*lambda+sumE+added*(1-s))/(m+added)
}

// terms returns Bound's λ, ΣE and J, or false where the bound is +Inf.
func (c SilhouetteCert) terms(x, y *Ordered, codes []int32, levels, stride int) (lambda, sumE, added float64, ok bool) {
	n := min(len(x.Values), len(y.Values), len(codes))
	stride, from := max(stride, 1), int(c[certRows])
	sx, sy := unitIfUnusable(x.StdDev), unitIfUnusable(y.StdDev)
	rx, ry := c[certSX]/sx, c[certSY]/sy
	if stride != int(c[certStride]) || levels != int(c[certLevels]) || n < from ||
		!(rx > 0 && ry > 0 && rx < math.Inf(1) && ry < math.Inf(1)) {
		return 0, 0, 0, false
	}
	// A silhouette is 1-Lipschitz in ln a/b, and σ changes every distance
	// by a factor within [ρlo, ρhi].
	lambda = math.Abs(math.Log(rx) - math.Log(ry))
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.floats = grow(sc.floats, levels*groupFields)
	groups := sc.floats
	copy(groups, c[certFields:])
	// Today's distances are at least ρlo times the certificate's: T, M
	// and δ stay in the certificate's units over ρlo, where E is the same
	// and no scale under- or overflows.
	lo := min(rx, ry)
	rx, ry = rx/lo, ry/lo
	for j := (from + stride - 1) / stride * stride; j < n; j += stride {
		vx, vy := x.Values[j], y.Values[j]
		if px, py := (vx-x.Mean)/sx, (vy-y.Mean)/sy; uint32(codes[j]) >= uint32(levels) || px != px || py != py {
			continue // not scored today
		}
		g := groups[int(codes[j])*groupFields:][:groupFields]
		size := g[groupN]
		// j moves μ_g(i) by δ ≤ √(‖p_j − c_g‖² + tr Σ_g)/(n_g − 1), ln μ_g(i)
		// by δ/(μ_g(i) − δ); a coordinate today is ρ times q's, up to a shift.
		qx, qy := (vx-c[certMX])/c[certSX], (vy-c[certMY])/c[certSY]
		dx, dy := qx-g[groupMeanX], qy-g[groupMeanY]
		delta := math.Sqrt(rx*rx*(dx*dx+g[groupM2X]/size)+ry*ry*(dy*dy+g[groupM2Y]/size)) / (size - 1)
		if size < 2 || !(delta < g[groupMin]) {
			return 0, 0, 0, false
		}
		keep := 1 - delta/g[groupMin]
		sumE += delta * g[groupInv] / keep
		g[groupInv] /= keep
		g[groupMin] -= delta
		addMember(g, qx, qy)
		added++
	}
	return lambda, sumE, added, true
}

func unitIfUnusable(sd float64) float64 {
	if sd == 0 || sd != sd {
		return 1
	}
	return sd
}
