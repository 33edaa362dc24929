package sketch

// RowSample is the profile's one uniform sample, of row indexes.
// Sampling rows once and reusing the same index set across columns
// preserves joint distributions, so bivariate metrics (η², Cramér's V,
// silhouettes, Spearman) are estimated on the sampled rows
// (DatasetProfile.Sample) — a form of sketch composition across
// attributes — and so are the one-column statistics no sketch answers
// (the dip, the outliers beyond the KLL fences).
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
