package sketch

// Reservoir maintains a uniform random sample of a float64 stream
// using Vitter's algorithm R. Foresight samples columns it cannot
// sketch analytically (e.g. to estimate η² and silhouettes). The
// replacement slot of the n-th value is coin(seed, 0, n): a copy, or a
// reservoir rebuilt from (seed, count, items), continues the stream
// exactly as the original would.
type Reservoir struct {
	capacity int
	items    []float64
	n        uint64
	seed     int64
}

// NewReservoir returns a reservoir holding up to capacity values,
// with deterministic sampling under seed. capacity ≤ 0 defaults to
// 1024.
func NewReservoir(capacity int, seed int64) *Reservoir {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Reservoir{capacity: capacity, seed: seed}
}

// reservoirSeed is the seed of column name's value reservoir in a
// profile configured with seed. It is derived from what a built and a
// loaded profile both hold (the reservoir's own seed is not on the
// wire), so both extend alike.
func reservoirSeed(seed int64, name string) int64 {
	return seed + int64(hash64(name))
}

// Update offers one value to the reservoir.
func (s *Reservoir) Update(x float64) {
	s.n++
	if len(s.items) < s.capacity {
		s.items = append(s.items, x)
		return
	}
	if j := below(coin(s.seed, 0, s.n), s.n); j < uint64(s.capacity) {
		s.items[j] = x
	}
}

// whole reports whether the reservoir still holds every value it was
// offered, in stream order.
func (s *Reservoir) whole() bool { return s.n == uint64(len(s.items)) }

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
	// Indexes holds the sampled rows in slot order (algorithm R's, not
	// ascending).
	Indexes []int
}

// rowSampleSlot is algorithm R over row indexes: the slot of a
// capacity-slot sample that row r takes when it is offered, or -1 when
// the sample passes it over. A pure function of its arguments, so the
// sample of n rows is the sample of m < n rows offered rows [m, n).
func rowSampleSlot(seed int64, r, capacity int) int {
	if r < capacity {
		return r
	}
	n := uint64(r) + 1
	if j := below(coin(seed, 0, n), n); j < uint64(capacity) {
		return int(j)
	}
	return -1
}

// NewRowSample draws a uniform sample of min(capacity, n) distinct
// row indexes from [0, n): rows 0..n-1 offered in order to algorithm R
// (see rowSampleSlot). capacity ≤ 0 defaults to 1024.
func NewRowSample(n, capacity int, seed int64) *RowSample {
	if capacity <= 0 {
		capacity = 1024
	}
	s, _ := (&RowSample{}).extended(0, n, capacity, seed)
	return s
}

// extended returns the sample after rows [from, to) are offered to s,
// which must be the sample of rows [0, from) under the same capacity
// and seed, and the slots that were written (a slot written twice is
// listed twice). s is not modified; it is the result when no row took
// a slot.
func (s *RowSample) extended(from, to, capacity int, seed int64) (*RowSample, []int) {
	var idx, slots []int
	for r := from; r < to; r++ {
		j := rowSampleSlot(seed, r, capacity)
		if j < 0 {
			continue
		}
		if idx == nil {
			idx = make([]int, min(to, capacity))
			copy(idx, s.Indexes)
		}
		idx[j] = r
		slots = append(slots, j)
	}
	if idx == nil {
		return s, nil
	}
	return &RowSample{Indexes: idx}, slots
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
