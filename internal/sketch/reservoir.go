package sketch

// Reservoir maintains a uniform random sample of a float64 stream
// using Vitter's algorithm R. Foresight samples columns it cannot
// sketch analytically (e.g. to estimate η² and silhouettes). The
// replacement slot of the n-th value is coin(seed, 0, n): a copy, or a
// reservoir rebuilt from (seed, count, items), continues the stream
// exactly as the original would. A merge records the slots it writes
// into a full reservoir (slotted), built by the first reader.
type Reservoir struct {
	capacity int
	items    *slotted[float64]
	n        uint64
	seed     int64
}

// NewReservoir returns a reservoir holding up to capacity values,
// with deterministic sampling under seed. capacity ≤ 0 defaults to
// 1024.
func NewReservoir(capacity int, seed int64) *Reservoir {
	return newReservoir(capacity, seed, 0)
}

// newReservoir is NewReservoir with room reserved for the first
// reserve values, at most capacity.
func newReservoir(capacity int, seed int64, reserve int) *Reservoir {
	if capacity <= 0 {
		capacity = 1024
	}
	return &Reservoir{capacity: capacity, items: builtSlots(make([]float64, 0, min(reserve, capacity))), seed: seed}
}

// reservoirSeed is the seed of column name's value reservoir in a
// profile configured with seed. It is derived from what a built and a
// loaded profile both hold (the reservoir's own seed is not on the
// wire), so both extend alike.
func reservoirSeed(seed int64, name string) int64 {
	return seed + int64(hash64(name))
}

// Update offers one value to the reservoir. It writes the sample in
// place, so it must not be called on a reservoir a merge has read: the
// merge's result may share its sample.
func (s *Reservoir) Update(x float64) {
	s.n++
	items := s.items.get()
	if len(items) < s.capacity {
		s.items.built = append(items, x)
		return
	}
	if j := below(coin(s.seed, 0, s.n), s.n); j < uint64(s.capacity) {
		items[j] = x
	}
}

// whole reports whether the reservoir still holds every value it was
// offered, in stream order.
func (s *Reservoir) whole() bool { return s.n == uint64(s.items.len()) }

// Sample returns the current sample. Read-only; order is arbitrary.
func (s *Reservoir) Sample() []float64 { return s.items.get() }

// Count returns the number of values offered.
func (s *Reservoir) Count() uint64 { return s.n }

// RowSample is a shared uniform sample of row indexes. Sampling rows
// once and reusing the same index set across columns preserves joint
// distributions, which lets bivariate metrics (η², Cramér's V,
// silhouettes, Spearman) be estimated from per-column value lookups —
// a form of sketch composition across attributes.
type RowSample struct {
	// indexes holds the sampled rows in slot order (algorithm R's, not
	// ascending).
	indexes *slotted[int]
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
	idx := make([]int, min(n, capacity))
	for r := range n {
		if j := rowSampleSlot(seed, r, capacity); j >= 0 {
			idx[j] = r
		}
	}
	return &RowSample{indexes: builtSlots(idx)}
}

// rowSampleWrites offers rows [from, to) to a capacity-slot row sample
// and returns, in order, the (slot, row) of each row that took a slot
// (a slot written twice is listed twice).
func rowSampleWrites(from, to, capacity int, seed int64) []slotWrite[int] {
	var ws []slotWrite[int]
	for r := from; r < to; r++ {
		if j := rowSampleSlot(seed, r, capacity); j >= 0 {
			ws = append(ws, slotWrite[int]{j, r})
		}
	}
	return ws
}

// Indexes returns the sampled rows in slot order (algorithm R's, not
// ascending). Read-only.
func (s *RowSample) Indexes() []int { return s.indexes.get() }

// Len returns the sample size.
func (s *RowSample) Len() int { return s.indexes.len() }

// GatherFloats returns values[i] for each sampled index i.
func (s *RowSample) GatherFloats(values []float64) []float64 {
	return gather(s.Indexes(), values)
}

// GatherCodes returns codes[i] for each sampled index i.
func (s *RowSample) GatherCodes(codes []int32) []int32 {
	return gather(s.Indexes(), codes)
}

func gather[T any](idx []int, col []T) []T {
	out := make([]T, 0, len(idx))
	for _, i := range idx {
		if i < len(col) {
			out = append(out, col[i])
		}
	}
	return out
}
