package core

import (
	"math"
	"sort"
)

// KBest keeps the k items that come first under a strict total order
// out of any number offered one at a time, in O(log k) per offer. It
// is the one bounded heap behind TopKExcluded and the engine's
// running kth-best threshold. k ≤ 0 keeps nothing.
type KBest[T any] struct {
	k      int
	before func(a, b T) bool
	// h is a heap whose root is the last kept item under before, i.e.
	// the next to lose its place.
	h []T
}

// NewKBest returns an empty selection of the k first items under
// before, which must be a strict total order for the selection to be
// deterministic.
func NewKBest[T any](k int, before func(a, b T) bool) *KBest[T] {
	return &KBest[T]{k: k, before: before}
}

// Offer considers x and reports the item that lost its place for good
// — x itself or the previous last — or false while all offered items
// still fit.
func (b *KBest[T]) Offer(x T) (lost T, ok bool) {
	if len(b.h) < b.k {
		b.h = append(b.h, x)
		for i := len(b.h) - 1; i > 0; {
			parent := (i - 1) / 2
			if !b.before(b.h[parent], b.h[i]) {
				break
			}
			b.h[parent], b.h[i] = b.h[i], b.h[parent]
			i = parent
		}
		return lost, false
	}
	if b.k <= 0 || !b.before(x, b.h[0]) {
		return x, true
	}
	lost, b.h[0] = b.h[0], x
	for i, n := 0, len(b.h); ; {
		last := i
		if l := 2*i + 1; l < n && b.before(b.h[last], b.h[l]) {
			last = l
		}
		if r := 2*i + 2; r < n && b.before(b.h[last], b.h[r]) {
			last = r
		}
		if last == i {
			return lost, true
		}
		b.h[i], b.h[last] = b.h[last], b.h[i]
		i = last
	}
}

// Kth returns the last kept item once k are held; until then nothing
// offered has been turned away and it reports false.
func (b *KBest[T]) Kth() (kth T, ok bool) {
	if b.k <= 0 || len(b.h) < b.k {
		return kth, false
	}
	return b.h[0], true
}

// Sorted returns the kept items in order. The selection must not be
// offered to afterwards.
func (b *KBest[T]) Sorted() []T {
	sort.Slice(b.h, func(i, j int) bool { return b.before(b.h[i], b.h[j]) })
	return b.h
}

// TopKExcluded returns the k strongest insights in SortInsights order
// (descending score, ties broken by key) and the highest score among
// the insights the cut excluded, tracked for free during the selection
// pass (so callers computing a top-k margin avoid a
// second scan over the candidates). The score is NaN when nothing was
// excluded.
func TopKExcluded(ins []Insight, k int) ([]Insight, float64) {
	if k <= 0 || k >= len(ins) {
		SortInsights(ins)
		return ins, math.NaN()
	}
	// k < len(ins), so at least one insight loses a round; whoever does
	// is excluded for good, because the kth item only ever gets stronger.
	excluded := math.Inf(-1)
	best := NewKBest(k, outranks)
	for _, in := range ins {
		if lost, ok := best.Offer(in); ok && lost.Score > excluded {
			excluded = lost.Score
		}
	}
	return best.Sorted(), excluded
}
