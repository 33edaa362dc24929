package sketch

import (
	"hash/fnv"
	"math"
	"sort"
)

// KMV is the k-minimum-values distinct-count sketch (Bar-Yossef et
// al.): keep the k smallest hash values seen; the (k−1)/max estimator
// gives an unbiased distinct-count estimate with relative error
// ~1/√k. Foresight composes KMV with SpaceSaving to estimate the
// entropy of high-cardinality categorical columns.
type KMV struct {
	k      int
	hashes []uint64 // max-heap-free: kept sorted ascending, len ≤ k
	seen   map[uint64]struct{}
	n      uint64
}

// NewKMV returns a KMV sketch keeping the k smallest hashes (minimum
// 16; 1024 when k ≤ 0).
func NewKMV(k int) *KMV {
	s := &KMV{}
	s.reuse(k)
	return s
}

// reuse makes s the empty sketch NewKMV(k) returns, keeping its hash
// array and set.
func (s *KMV) reuse(k int) {
	if k <= 0 {
		k = 1024
	}
	if k < 16 {
		k = 16
	}
	seen := s.seen
	if seen == nil {
		seen = make(map[uint64]struct{})
	}
	clear(seen)
	*s = KMV{k: k, hashes: s.hashes[:0], seen: seen}
}

func hash64(item string) uint64 {
	h := fnv.New64a()
	_, _ = h.Write([]byte(item))
	// FNV alone distributes short sequential keys poorly in the low
	// bits; a splitmix64 finalizer restores uniformity, which the
	// (k−1)/max estimator depends on.
	return mix64(h.Sum64())
}

// mix64 is the splitmix64 finalizer: a bijective avalanche mix.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// Update folds one occurrence of item.
func (s *KMV) Update(item string) {
	s.n++
	h := hash64(item)
	if _, dup := s.seen[h]; dup {
		return
	}
	if len(s.hashes) < s.k {
		s.seen[h] = struct{}{}
		s.hashes = append(s.hashes, h)
		sort.Slice(s.hashes, func(a, b int) bool { return s.hashes[a] < s.hashes[b] })
		return
	}
	if h >= s.hashes[len(s.hashes)-1] {
		return
	}
	// Replace the current maximum.
	delete(s.seen, s.hashes[len(s.hashes)-1])
	s.seen[h] = struct{}{}
	idx := sort.Search(len(s.hashes), func(i int) bool { return s.hashes[i] >= h })
	copy(s.hashes[idx+1:], s.hashes[idx:len(s.hashes)-1])
	s.hashes[idx] = h
}

// Count returns the number of stream items observed (with
// multiplicity).
func (s *KMV) Count() uint64 { return s.n }

// K returns the number of minimum hash values retained.
func (s *KMV) K() int { return s.k }

// Distinct returns the estimated number of distinct items.
func (s *KMV) Distinct() float64 {
	m := len(s.hashes)
	if m == 0 {
		return 0
	}
	if m < s.k {
		// Fewer than k distinct hashes seen: the sketch is exact.
		return float64(m)
	}
	maxHash := float64(s.hashes[m-1])
	if maxHash == 0 {
		return float64(m)
	}
	// (k−1) / normalized k-th minimum.
	return float64(s.k-1) / (maxHash / math.MaxUint64)
}

// Clone returns a deep copy of the sketch; the copy can be updated or
// merged independently of the original.
func (s *KMV) Clone() *KMV {
	c := &KMV{
		k:      s.k,
		hashes: append([]uint64(nil), s.hashes...),
		seen:   make(map[uint64]struct{}, len(s.seen)),
		n:      s.n,
	}
	for h := range s.seen {
		c.seen[h] = struct{}{}
	}
	return c
}

// Merge folds other into s: union the hash sets, keep the k smallest.
// When the sketches disagree on k the result keeps the *smaller* k:
// the side with smaller k has already discarded hashes above its k-th
// minimum, so the union only faithfully represents the k_min smallest
// hashes of the combined stream. Keeping the larger k would feed the
// (k−1)/max estimator hashes that are not the k smallest of the union
// and bias Distinct() low (found by FuzzKMVMerge).
func (s *KMV) Merge(other *KMV) error {
	if other == nil {
		return nil
	}
	if other.k < s.k {
		s.k = other.k
	}
	for _, h := range other.hashes {
		if _, dup := s.seen[h]; dup {
			continue
		}
		s.seen[h] = struct{}{}
		s.hashes = append(s.hashes, h)
	}
	sort.Slice(s.hashes, func(a, b int) bool { return s.hashes[a] < s.hashes[b] })
	if len(s.hashes) > s.k {
		for _, h := range s.hashes[s.k:] {
			delete(s.seen, h)
		}
		s.hashes = s.hashes[:s.k]
	}
	s.n += other.n
	return nil
}
