package sketch

import (
	"math/rand"
)

// Reservoir maintains a uniform random sample of a float64 stream
// using Vitter's algorithm R. Foresight samples columns it cannot
// sketch analytically (e.g. to estimate η² and silhouettes).
type Reservoir struct {
	capacity int
	items    []float64
	n        uint64
	rng      *rand.Rand
	seed     int64
}

// NewReservoir returns a reservoir holding up to capacity values,
// with deterministic sampling under seed. capacity ≤ 0 defaults to
// 1024.
func NewReservoir(capacity int, seed int64) *Reservoir {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Reservoir{
		capacity: capacity,
		items:    make([]float64, 0, capacity),
		rng:      rand.New(rand.NewSource(seed)),
		seed:     seed,
	}
}

// Update offers one value to the reservoir.
func (s *Reservoir) Update(x float64) {
	s.n++
	if len(s.items) < s.capacity {
		s.items = append(s.items, x)
		return
	}
	if j := s.rng.Int63n(int64(s.n)); j < int64(s.capacity) {
		s.items[j] = x
	}
}

// Sample returns the current sample. Read-only; order is arbitrary.
func (s *Reservoir) Sample() []float64 { return s.items }

// Count returns the number of values offered.
func (s *Reservoir) Count() uint64 { return s.n }

// RowSample is a shared uniform sample of row indexes. Sampling rows
// once and reusing the same index set across columns preserves joint
// distributions, which lets bivariate metrics (η², Cramér's V,
// silhouettes, Spearman) be estimated from per-column value lookups —
// a form of sketch composition across attributes.
type RowSample struct {
	Indexes []int
}

// NewRowSample draws a uniform sample of min(capacity, n) distinct
// row indexes from [0, n) using a partial Fisher–Yates shuffle with
// the given seed. The shuffle runs over a sparse map of the displaced
// slots of the identity permutation, so the cost is O(capacity)
// whatever n is. The indexes are returned in ascending order for
// cache-friendly column access.
func NewRowSample(n, capacity int, seed int64) *RowSample {
	if capacity <= 0 {
		capacity = 1024
	}
	if capacity >= n {
		idx := make([]int, n)
		for i := range idx {
			idx[i] = i
		}
		return &RowSample{Indexes: idx}
	}
	rng := rand.New(rand.NewSource(seed))
	// moved[s] is the value at slot s where it is no longer s. Step i
	// swaps slots i and j ≥ i; slot i is never read again, so only the
	// value landing in slot j is recorded.
	moved := make(map[int]int, capacity)
	at := func(s int) int {
		if v, ok := moved[s]; ok {
			return v
		}
		return s
	}
	idx := make([]int, capacity)
	for i := range idx {
		j := i + rng.Intn(n-i)
		idx[i] = at(j)
		moved[j] = at(i)
	}
	// Ascending order for sequential column reads.
	sortInts(idx)
	return &RowSample{Indexes: idx}
}

// Len returns the sample size.
func (s *RowSample) Len() int { return len(s.Indexes) }

// GatherFloats returns values[i] for each sampled index i.
func (s *RowSample) GatherFloats(values []float64) []float64 {
	out := make([]float64, 0, len(s.Indexes))
	for _, i := range s.Indexes {
		if i < len(values) {
			out = append(out, values[i])
		}
	}
	return out
}

// GatherCodes returns codes[i] for each sampled index i.
func (s *RowSample) GatherCodes(codes []int32) []int32 {
	out := make([]int32, 0, len(s.Indexes))
	for _, i := range s.Indexes {
		if i < len(codes) {
			out = append(out, codes[i])
		}
	}
	return out
}

// sortInts is insertion-free sort.Ints without pulling sort into this
// file's hot path signature; kept trivial.
func sortInts(xs []int) {
	// Simple shell sort: sample sizes are ≤ a few thousand.
	for gap := len(xs) / 2; gap > 0; gap /= 2 {
		for i := gap; i < len(xs); i++ {
			for j := i; j >= gap && xs[j] < xs[j-gap]; j -= gap {
				xs[j], xs[j-gap] = xs[j-gap], xs[j]
			}
		}
	}
}
