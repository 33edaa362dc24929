package stats

import (
	"math"
	"math/rand"
	"slices"
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

// Point2 is a point in the plane, used by 2-D segmentation insights.
type Point2 struct{ X, Y float64 }

// KMeans2D clusters 2-D points with Lloyd's algorithm and k-means++
// seeding driven by rng (deterministic given a seeded source). Points
// with NaN coordinates are skipped in fitting and assigned -1.
func KMeans2D(pts []Point2, k, maxIter int, rng *rand.Rand) (assign []int, centers []Point2) {
	assign = make([]int, len(pts))
	var clean []Point2
	var cleanIdx []int
	for i, p := range pts {
		if math.IsNaN(p.X) || math.IsNaN(p.Y) {
			assign[i] = -1
			continue
		}
		clean = append(clean, p)
		cleanIdx = append(cleanIdx, i)
	}
	if len(clean) == 0 || k < 1 {
		return assign, nil
	}
	if k > len(clean) {
		k = len(clean)
	}
	if rng == nil {
		rng = rand.New(rand.NewSource(1))
	}
	// k-means++ seeding.
	centers = make([]Point2, 0, k)
	centers = append(centers, clean[rng.Intn(len(clean))])
	dist2 := make([]float64, len(clean))
	for len(centers) < k {
		total := 0.0
		for i, p := range clean {
			d := math.Inf(1)
			for _, c := range centers {
				dd := sq(p.X-c.X) + sq(p.Y-c.Y)
				if dd < d {
					d = dd
				}
			}
			dist2[i] = d
			total += d
		}
		if total == 0 {
			// All remaining points coincide with a center.
			centers = append(centers, clean[rng.Intn(len(clean))])
			continue
		}
		r := rng.Float64() * total
		acc := 0.0
		pick := len(clean) - 1
		for i, d := range dist2 {
			acc += d
			if acc >= r {
				pick = i
				break
			}
		}
		centers = append(centers, clean[pick])
	}
	if maxIter <= 0 {
		maxIter = 100
	}
	cluster := make([]int, len(clean))
	for iter := 0; iter < maxIter; iter++ {
		moved := false
		for i, p := range clean {
			best, bestD := 0, math.Inf(1)
			for c, ctr := range centers {
				d := sq(p.X-ctr.X) + sq(p.Y-ctr.Y)
				if d < bestD {
					best, bestD = c, d
				}
			}
			if cluster[i] != best {
				cluster[i] = best
				moved = true
			}
		}
		sums := make([]Point2, k)
		counts := make([]float64, k)
		for i, p := range clean {
			sums[cluster[i]].X += p.X
			sums[cluster[i]].Y += p.Y
			counts[cluster[i]]++
		}
		for c := range centers {
			if counts[c] > 0 {
				centers[c] = Point2{sums[c].X / counts[c], sums[c].Y / counts[c]}
			}
		}
		if !moved {
			break
		}
	}
	for i, ci := range cleanIdx {
		assign[ci] = cluster[i]
	}
	return assign, centers
}

func sq(x float64) float64 { return x * x }

// Silhouette returns the mean silhouette coefficient of a 2-D
// clustering: ((b−a)/max(a,b)) averaged over points, where a is the
// mean intra-cluster distance and b the mean distance to the nearest
// other cluster. Values near 1 indicate strong segmentation. Points
// assigned a negative cluster are skipped. O(m²) time and O(m·K)
// scratch for m scored points in K clusters; callers should sample
// large inputs first.
func Silhouette(pts []Point2, assign []int) float64 {
	if len(pts) != len(assign) {
		return math.NaN()
	}
	return silhouette(pts, func(i int) int { return assign[i] })
}

// GroupSilhouette measures how well a categorical attribute segments a
// set of 2-D points: the silhouette of the grouping induced by codes
// (negative codes, and points beyond len(codes), skipped). It is
// Foresight's segmentation metric.
func GroupSilhouette(pts []Point2, codes []int32) float64 {
	return silhouette(pts, func(i int) int {
		if i < len(codes) {
			return int(codes[i])
		}
		return -1
	})
}

// silhouette scores pts under the clustering cluster(i). The scored
// points are laid out cluster by cluster (ascending id), rows ascending
// within a cluster — the order the result averages them in. Each of
// the m(m−1)/2 distances is computed once — Hypot(p−q) and Hypot(q−p)
// are the same bits — and added to the (point, cluster) sum of both
// endpoints. A sum over one cluster's members receives them in layout
// order, that is by ascending row: the members laid out before the
// point add theirs while they are the outer index, in turn, and the
// ones after it are walked left to right once the point is. So every
// sum sees the additions a per-point scan of each cluster's members
// would make, in the same order, from half the distances and with the
// running sum of the inner loop in a register.
func silhouette(pts []Point2, cluster func(i int) int) float64 {
	if len(pts) < 2 {
		return math.NaN()
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)

	// Scored points: their rows and cluster ids.
	sc.ids = grow(sc.ids, 2*len(pts))
	sc.slots = grow(sc.slots, 3*len(pts)+1)
	m := 0
	for i, p := range pts {
		if c := cluster(i); c >= 0 && !math.IsNaN(p.X) && !math.IsNaN(p.Y) {
			sc.slots[m] = int32(i)
			sc.ids[m] = c
			m++
		}
	}
	rows, ids := sc.slots[:m], sc.ids[:m]
	distinct := sc.ids[m : 2*m]
	copy(distinct, ids)
	slices.Sort(distinct)
	distinct = slices.Compact(distinct)
	K := len(distinct)
	if K < 2 {
		return math.NaN()
	}
	// Counting sort into the layout: cluster k occupies positions
	// [start[k], start[k+1]).
	dense, start := sc.slots[m:2*m], sc.slots[2*m:2*m+K+1]
	clear(start)
	for a, c := range ids {
		k, _ := slices.BinarySearch(distinct, c)
		dense[a] = int32(k)
		start[k+1]++
	}
	for k := 0; k < K; k++ {
		start[k+1] += start[k]
	}
	// x, y by layout position; sums[k*m+p] is the distance from the
	// point at p to cluster k.
	sc.floats = grow(sc.floats, 2*m+m*K)
	x, y, sums := sc.floats[:m], sc.floats[m:2*m], sc.floats[2*m:]
	for a, row := range rows {
		p := start[dense[a]]
		start[dense[a]]++
		x[p], y[p] = pts[row].X, pts[row].Y
	}
	copy(start[1:], start[:K]) // undo the cursor advance
	start[0] = 0
	clear(sums)

	for k := 0; k < K; k++ {
		toK := sums[k*m : k*m+m]
		for a := int(start[k]); a < int(start[k+1]); a++ {
			ax, ay := x[a], y[a]
			lo := a + 1
			for o := k; o < K; o++ {
				hi := int(start[o+1])
				sum := sums[o*m+a]
				for b := lo; b < hi; b++ {
					d := math.Hypot(ax-x[b], ay-y[b])
					sum += d
					toK[b] += d
				}
				sums[o*m+a] = sum
				lo = hi
			}
		}
	}

	total, count := 0.0, 0
	for k := 0; k < K; k++ {
		size := start[k+1] - start[k]
		for a := int(start[k]); a < int(start[k+1]); a++ {
			intra := 0.0
			if size > 1 {
				intra = sums[k*m+a] / float64(size-1)
			}
			nearest := math.Inf(1)
			for o := 0; o < K; o++ {
				if o == k {
					continue
				}
				if avg := sums[o*m+a] / float64(start[o+1]-start[o]); avg < nearest {
					nearest = avg
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
