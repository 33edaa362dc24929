package sketch

import (
	"math"
	"slices"
	"sort"
	"sync"
)

// KLL is the Karnin–Lang–Liberty quantile sketch: a single-pass,
// mergeable summary supporting rank and quantile queries with uniform
// additive rank error O(1/k). Foresight uses it for approximate
// box-plot statistics (outlier insight), approximate ECDFs
// (multimodality insight), and rank-grid Spearman estimates. The
// parity a compaction of level h keeps is coin(seed, h, n) at the
// sketch's current count n.
type KLL struct {
	k          int
	compactors [][]float64
	size       int
	maxSize    int
	n          uint64
	seed       int64
}

// NewKLL returns a KLL sketch with base compactor capacity k (error
// ~O(1/k); 200 is a common default and is used when k < 8) and the
// given deterministic seed for compaction coin flips.
func NewKLL(k int, seed int64) *KLL {
	if k < 8 {
		k = 200
	}
	s := &KLL{k: k, seed: seed}
	s.grow()
	return s
}

func (s *KLL) grow() {
	s.compactors = append(s.compactors, nil)
	s.maxSize = 0
	for h := range s.compactors {
		s.maxSize += s.capacity(h)
	}
}

// capacity returns the capacity of the compactor at height h; lower
// levels shrink geometrically (ratio 2/3) as in the reference
// implementation.
func (s *KLL) capacity(h int) int {
	depth := len(s.compactors) - h - 1
	c := int(math.Ceil(math.Pow(2.0/3.0, float64(depth))*float64(s.k))) + 1
	if c < 2 {
		c = 2
	}
	return c
}

// Update folds one observation into the sketch. NaN values are
// ignored so missing cells never pollute quantiles.
func (s *KLL) Update(x float64) {
	if math.IsNaN(x) {
		return
	}
	s.compactors[0] = append(s.compactors[0], x)
	s.size++
	s.n++
	if s.size >= s.maxSize {
		s.compress()
	}
}

// UpdateAll folds every non-NaN value of xs.
func (s *KLL) UpdateAll(xs []float64) {
	for _, x := range xs {
		s.Update(x)
	}
}

// kllScratch pools the transient buffers that hold a compaction's
// promoted half before it is copied into the next level. Compactions
// are frequent and short-lived, and a build on workers runs many
// sketches' compactions concurrently, so pooling keeps the
// allocator out of the hot path. Buffers are only ever held within a
// single compress call, so the pool is safe at any concurrency.
var kllScratch = sync.Pool{New: func() any { return new([]float64) }}

func (s *KLL) compress() {
	for h := 0; h < len(s.compactors); h++ {
		if len(s.compactors[h]) >= s.capacity(h) {
			if h+1 >= len(s.compactors) {
				s.grow()
			}
			bufp := kllScratch.Get().(*[]float64)
			promoted := s.compactLevel(h, (*bufp)[:0])
			s.compactors[h+1] = append(s.compactors[h+1], promoted...)
			*bufp = promoted[:0]
			kllScratch.Put(bufp)
			s.recount()
			if s.size < s.maxSize {
				return
			}
		}
	}
}

// compactLevel sorts level h, appends a random half to buf (the
// survivors double their implicit weight), and clears the level. The
// returned slice is valid until buf's next reuse; callers copy it out
// before returning the buffer to the pool.
func (s *KLL) compactLevel(h int, buf []float64) []float64 {
	items := s.compactors[h]
	sort.Float64s(items)
	offset := int(coin(s.seed, uint64(h), s.n) & 1)
	for i := offset; i < len(items); i += 2 {
		buf = append(buf, items[i])
	}
	s.compactors[h] = s.compactors[h][:0]
	return buf
}

func (s *KLL) recount() {
	s.size = 0
	for _, c := range s.compactors {
		s.size += len(c)
	}
}

// Count returns the number of observations folded in.
func (s *KLL) Count() uint64 { return s.n }

// K returns the base compactor capacity (the accuracy parameter).
func (s *KLL) K() int { return s.k }

// RankErrorBound returns a conservative additive rank-error bound ε
// for this sketch: for any value x the estimated rank differs from the
// true rank by at most ε·n with high probability. The classic KLL
// analysis gives ε = O(1/k) with a small constant; 4/k comfortably
// covers the constant for this implementation's 2/3-geometric capacity
// schedule (the uniform-stream test observes ≲1.5% error at k=200,
// where this bound is 2%). Telemetry consumers use it to report how
// much a score quantile can be trusted.
func (s *KLL) RankErrorBound() float64 { return 4.0 / float64(s.k) }

// Clone returns a deep copy of the sketch. The copy answers the same
// queries as the original, can be merged or updated independently, and
// given the same updates stays equal to it.
func (s *KLL) Clone() *KLL {
	c := &KLL{
		k:       s.k,
		size:    s.size,
		maxSize: s.maxSize,
		n:       s.n,
		seed:    s.seed,
	}
	// One array for every level, each level's capacity clipped to its
	// length: an append to a level moves it out instead of running into
	// the next one.
	c.compactors = make([][]float64, len(s.compactors))
	buf := make([]float64, 0, s.size)
	for h, items := range s.compactors {
		buf = append(buf, items...)
		c.compactors[h] = buf[len(buf)-len(items) : len(buf) : len(buf)]
	}
	return c
}

// StoredItems returns the number of retained items (space usage).
func (s *KLL) StoredItems() int { return s.size }

// Merge folds other into s. Both sketches keep answering queries for
// the union stream. The sketches may have different k; the result
// keeps the *smaller* k, so RankErrorBound() stays honest — items
// folded in from a coarser sketch carry that sketch's rank error, and
// keeping the finer k would advertise a 4/k bound the merged data
// cannot support (found by FuzzKLLMerge).
func (s *KLL) Merge(other *KLL) error {
	s.mergeRaised(other, 0)
	return nil
}

// MergeWeighted folds w copies of other's stream into s, in one merge
// per set bit of w. An item at level h stands for 2^h observations, so
// 2^j copies of other merged and compacted level by level are exactly
// other with every level raised by j: a level that holds each item
// twice compacts to one copy of it whichever half the coin keeps, so
// the raise adds no rank error to other's own. Merging those raised
// copies is an ordinary merge, with its usual bound. other is only
// read.
func (s *KLL) MergeWeighted(other *KLL, w uint64) {
	for j := 0; w>>j != 0; j++ {
		if w>>j&1 == 1 {
			s.mergeRaised(other, j)
		}
	}
}

// mergeRaised merges other into s with its level h folded into level
// h+j: 2^j copies of other's stream.
func (s *KLL) mergeRaised(other *KLL, j int) {
	if other == nil {
		return
	}
	if other.k < s.k {
		s.k = other.k
		s.maxSize = 0
		for h := range s.compactors {
			s.maxSize += s.capacity(h)
		}
	}
	for len(s.compactors) < len(other.compactors)+j {
		s.grow()
	}
	for h, items := range other.compactors {
		s.compactors[h+j] = append(s.compactors[h+j], items...)
	}
	s.n += other.n << uint(j)
	s.recount()
	for s.size >= s.maxSize {
		before := s.size
		s.compress()
		if s.size >= s.maxSize && s.size == before {
			// A pass can stall when the total is over budget but no
			// single level is over its own capacity (merging many small
			// sketches piles items across levels). Growing adds a level,
			// which shrinks the lower levels' capacities so the next
			// pass can compact; maxSize strictly increases with each
			// grow, so the loop terminates.
			s.grow()
		}
	}
}

// weightedItem is one retained value and the number of observations
// it stands for.
type weightedItem struct {
	v float64
	w uint64
}

// weighted returns all retained items sorted by value, and their total
// weight. The comparison is the value alone, so equal values may come
// in any order: the value at which a cumulative weight is first reached
// is the same whatever it is, up to the sign of a zero.
func (s *KLL) weighted() (items []weightedItem, total uint64) {
	items = make([]weightedItem, 0, s.size)
	for h, level := range s.compactors {
		w := uint64(1) << uint(h)
		for _, v := range level {
			items = append(items, weightedItem{v, w})
		}
		total += w * uint64(len(level))
	}
	slices.SortFunc(items, func(a, b weightedItem) int {
		switch {
		case a.v < b.v:
			return -1
		case a.v > b.v:
			return 1
		}
		return 0
	})
	return items, total
}

// Rank returns the estimated number of observations ≤ x.
func (s *KLL) Rank(x float64) uint64 {
	var rank uint64
	for h, items := range s.compactors {
		w := uint64(1) << uint(h)
		for _, v := range items {
			if v <= x {
				rank += w
			}
		}
	}
	return rank
}

// CDF returns the estimated P(X ≤ x).
func (s *KLL) CDF(x float64) float64 {
	if s.n == 0 {
		return math.NaN()
	}
	return float64(s.Rank(x)) / float64(s.n)
}

// Quantile returns the estimated q-th quantile (0 ≤ q ≤ 1); NaN when
// the sketch is empty or q is out of range.
func (s *KLL) Quantile(q float64) float64 { return s.Quantiles([]float64{q})[0] }

// Quantiles evaluates several quantiles with one weighted pass: each is
// the first value at which the cumulative weight reaches q of the
// total, or the largest value.
func (s *KLL) Quantiles(qs []float64) []float64 {
	out := make([]float64, len(qs))
	if s.n == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out
	}
	items, total := s.weighted()
	for i, q := range qs {
		if q < 0 || q > 1 || math.IsNaN(q) || len(items) == 0 {
			out[i] = math.NaN()
			continue
		}
		target := q * float64(total)
		var cum uint64
		out[i] = items[len(items)-1].v
		for _, it := range items {
			cum += it.w
			if float64(cum) >= target {
				out[i] = it.v
				break
			}
		}
	}
	return out
}

// Median is Quantile(0.5).
func (s *KLL) Median() float64 { return s.Quantile(0.5) }

// IQR returns the estimated interquartile range.
func (s *KLL) IQR() float64 {
	qs := s.Quantiles([]float64{0.25, 0.75})
	return qs[1] - qs[0]
}
