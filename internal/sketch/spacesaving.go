package sketch

import (
	"sort"
)

// SpaceSaving is the Metwally–Agrawal–El Abbadi frequent-items sketch:
// it tracks at most Capacity counters and guarantees that any item
// with true frequency > N/Capacity is retained, with count
// overestimated by at most the minimum counter value. Foresight uses
// it to rank heterogeneous-frequency (heavy hitter) insights and, by
// composition with KMV, to estimate entropy.
type SpaceSaving struct {
	capacity int
	counters map[string]*ssCounter
	n        uint64
	// evictBound is an upper bound on the true count of any item NOT
	// currently tracked. For a pure update stream it never exceeds the
	// minimum tracked count at capacity (the classical floor), but
	// after merging it can exceed the current floor: merging a
	// small-capacity sketch that evicted items into a large
	// under-capacity receiver leaves counters below capacity while
	// untracked items may still have occurred up to the donor's floor
	// (found by FuzzSpaceSavingMerge).
	evictBound uint64
}

type ssCounter struct {
	item  string
	count uint64
	// err is the possible overestimation (count of the evicted
	// counter this one replaced).
	err uint64
}

// HeavyHitter is one reported item with its estimated count bounds.
type HeavyHitter struct {
	Item string
	// Count is the estimated frequency (upper bound).
	Count uint64
	// Err bounds the overestimation: true count ∈ [Count−Err, Count].
	Err uint64
}

// defaultSpaceSavingCapacity is the capacity of a sketch asked for
// none.
const defaultSpaceSavingCapacity = 64

// NewSpaceSaving returns a sketch tracking up to capacity items
// (defaultSpaceSavingCapacity when capacity ≤ 0).
func NewSpaceSaving(capacity int) *SpaceSaving {
	if capacity <= 0 {
		capacity = defaultSpaceSavingCapacity
	}
	return &SpaceSaving{
		capacity: capacity,
		counters: make(map[string]*ssCounter, capacity),
	}
}

// Update folds one occurrence of item (with weight 1).
func (s *SpaceSaving) Update(item string) { s.UpdateWeighted(item, 1) }

// UpdateBytes folds one occurrence of the item spelled out in b. On
// the hit path — the item is already tracked — no string is
// materialised: the counters lookup on string(b) compiles to a
// zero-copy probe. Only a first sighting or an eviction allocates.
// Callers that assemble composite keys into a scratch buffer use this
// to keep steady-state updates allocation-free.
func (s *SpaceSaving) UpdateBytes(b []byte) {
	s.n++
	if c, ok := s.counters[string(b)]; ok {
		c.count++
		return
	}
	s.admit(string(b), 1)
}

// UpdateWeighted folds weight occurrences of item.
func (s *SpaceSaving) UpdateWeighted(item string, weight uint64) {
	if weight == 0 {
		return
	}
	s.n += weight
	if c, ok := s.counters[item]; ok {
		c.count += weight
		return
	}
	s.admit(item, weight)
}

// admit inserts an untracked item, evicting the minimum counter (and
// inheriting its count as the error bound) when at capacity. Among
// counters tied at the minimum the smallest item goes, so the sketch
// is a function of its update sequence and not of map iteration order.
func (s *SpaceSaving) admit(item string, weight uint64) {
	if len(s.counters) < s.capacity {
		s.counters[item] = &ssCounter{item: item, count: weight}
		return
	}
	var min *ssCounter
	for _, c := range s.counters {
		if min == nil || c.count < min.count || (c.count == min.count && c.item < min.item) {
			min = c
		}
	}
	delete(s.counters, min.item)
	if min.count > s.evictBound {
		s.evictBound = min.count
	}
	s.counters[item] = &ssCounter{item: item, count: min.count + weight, err: min.count}
}

// Count returns the total stream weight observed.
func (s *SpaceSaving) Count() uint64 { return s.n }

// Estimate returns the estimated count of item (0 if untracked) and
// whether the item is currently tracked.
func (s *SpaceSaving) Estimate(item string) (uint64, bool) {
	if c, ok := s.counters[item]; ok {
		return c.count, true
	}
	return 0, false
}

// Top returns the k highest-count tracked items, sorted by descending
// estimated count (ties broken by item for determinism).
func (s *SpaceSaving) Top(k int) []HeavyHitter {
	all := make([]HeavyHitter, 0, len(s.counters))
	for _, c := range s.counters {
		all = append(all, HeavyHitter{Item: c.item, Count: c.count, Err: c.err})
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].Count != all[b].Count {
			return all[a].Count > all[b].Count
		}
		return all[a].Item < all[b].Item
	})
	if k > 0 && k < len(all) {
		all = all[:k]
	}
	return all
}

// RelFreqTopK returns the paper's heterogeneous-frequency metric
// RelFreq(k,c): the total relative frequency of the k most frequent
// items, estimated from the sketch. Returns 0 for an empty stream.
func (s *SpaceSaving) RelFreqTopK(k int) float64 {
	if s.n == 0 {
		return 0
	}
	var sum uint64
	for _, h := range s.Top(k) {
		sum += h.Count
	}
	f := float64(sum) / float64(s.n)
	if f > 1 {
		f = 1
	}
	return f
}

// floor returns the smallest tracked count when the sketch is at
// capacity, else 0.
func (s *SpaceSaving) floor() uint64 {
	if len(s.counters) < s.capacity {
		return 0
	}
	var min uint64
	first := true
	for _, c := range s.counters {
		if first || c.count < min {
			min = c.count
			first = false
		}
	}
	return min
}

// UntrackedBound returns an upper bound on the true count of any item
// the sketch does not currently track: the larger of the classical
// floor (the minimum tracked count when at capacity) and the carried
// eviction/merge bound. Consumers that reason about absent items —
// and the merge itself — must use this rather than the floor alone,
// because after heterogeneous merges the sketch can sit below
// capacity while untracked items have nonzero true counts.
func (s *SpaceSaving) UntrackedBound() uint64 {
	if f := s.floor(); f > s.evictBound {
		return f
	}
	return s.evictBound
}

// Merge folds other into s: the conservative SpaceSaving merge.
// Counters tracked on both sides sum their counts and error bounds.
// A counter tracked on only one side may still have occurred up to
// the other side's UntrackedBound without being tracked there, so
// that bound is added to BOTH its count and its error bound — raising
// the estimate keeps `est ≥ true` and raising err by the same amount
// keeps `est ≤ true + err`. Then the top `capacity` counters by count
// survive. An item untracked in the result either was untracked on
// both sides (true ≤ boundS + boundO) or was trimmed here (true ≤ its
// merged count), so the carried bound becomes the max of those — NOT
// the result's floor, which reads zero whenever the merge lands below
// capacity (found by FuzzSpaceSavingMerge).
func (s *SpaceSaving) Merge(other *SpaceSaving) error {
	s.MergeWeighted(other, 1)
	return nil
}

// MergeWeighted folds w copies of other's stream into s. Repeating a
// stream w times multiplies every true count by w, so other with its
// counts, error bounds and untracked bound multiplied by w keeps
// est ≥ true ≥ est − err for that stream; the merge is then Merge's.
// other is only read.
func (s *SpaceSaving) MergeWeighted(other *SpaceSaving, w uint64) {
	if other == nil || w == 0 {
		return
	}
	boundS, boundO := s.UntrackedBound(), other.UntrackedBound()*w
	merged := make(map[string]*ssCounter, len(s.counters)+len(other.counters))
	for item, c := range s.counters {
		merged[item] = &ssCounter{item: item, count: c.count, err: c.err}
	}
	for item, c := range other.counters {
		if m, ok := merged[item]; ok {
			m.count += c.count * w
			m.err += c.err * w
		} else {
			merged[item] = &ssCounter{item: item, count: c.count*w + boundS, err: c.err*w + boundS}
		}
	}
	for item, m := range merged {
		if _, both := other.counters[item]; !both {
			m.count += boundO
			m.err += boundO
		}
	}
	bound := boundS + boundO
	if len(merged) > s.capacity {
		all := make([]*ssCounter, 0, len(merged))
		for _, c := range merged {
			all = append(all, c)
		}
		sort.Slice(all, func(a, b int) bool {
			if all[a].count != all[b].count {
				return all[a].count > all[b].count
			}
			return all[a].item < all[b].item
		})
		for _, c := range all[s.capacity:] {
			if c.count > bound {
				bound = c.count
			}
		}
		merged = make(map[string]*ssCounter, s.capacity)
		for _, c := range all[:s.capacity] {
			merged[c.item] = c
		}
	}
	s.counters = merged
	s.n += other.n * w
	s.evictBound = bound
}

// TrackedItems returns the number of counters currently held.
func (s *SpaceSaving) TrackedItems() int { return len(s.counters) }

// Capacity returns the counter budget. Together with Top(0) it lets
// callers recover the sketch's floor (the minimum tracked count when
// at capacity), which bounds the true count of any untracked item.
func (s *SpaceSaving) Capacity() int { return s.capacity }

// Clone returns a deep copy of the sketch; the copy can be updated or
// merged independently of the original.
func (s *SpaceSaving) Clone() *SpaceSaving {
	c := &SpaceSaving{
		capacity:   s.capacity,
		counters:   make(map[string]*ssCounter, len(s.counters)),
		n:          s.n,
		evictBound: s.evictBound,
	}
	for item, ctr := range s.counters {
		cp := *ctr
		c.counters[item] = &cp
	}
	return c
}
