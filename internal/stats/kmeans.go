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
	n := min(len(x.Values), len(y.Values), len(codes))
	stride = max(stride, 1)
	if n < 2 || levels < 2 {
		return math.NaN()
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
		return math.NaN()
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
	if big > 0 && !math.IsInf(big, 1) && (big > 1e150 || big < 1e-150) {
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
		return math.NaN()
	}
	return total / float64(count)
}

func unitIfUnusable(sd float64) float64 {
	if sd == 0 || sd != sd {
		return 1
	}
	return sd
}
