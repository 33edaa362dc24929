package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// randomInsights builds n insights with colliding scores (quantized)
// so tie-breaking paths are exercised.
func randomInsights(n int, seed int64) []Insight {
	rng := rand.New(rand.NewSource(seed))
	ins := make([]Insight, n)
	for i := range ins {
		ins[i] = Insight{
			Class:  "c",
			Metric: "m",
			Attrs:  []string{fmt.Sprintf("attr%05d", i)}, // unique keys → total order
			Score:  float64(rng.Intn(50)) / 50,           // many exact ties
			Raw:    rng.NormFloat64(),
		}
	}
	return ins
}

// TestTopKHeapMatchesSort asserts the bounded-heap selection is
// bit-identical to sort-then-truncate for every k, including the ties
// the key order must break deterministically.
func TestTopKHeapMatchesSort(t *testing.T) {
	for _, n := range []int{1, 2, 7, 100, 1000} {
		ins := randomInsights(n, int64(n))
		for _, k := range []int{1, 2, 3, 5, n / 2, n - 1, n, n + 5, 0, -1} {
			want := append([]Insight(nil), ins...)
			SortInsights(want)
			if k > 0 && k < len(want) {
				want = want[:k]
			}
			got := TopK(append([]Insight(nil), ins...), k)
			if len(got) != len(want) {
				t.Fatalf("n=%d k=%d: len %d, want %d", n, k, len(got), len(want))
			}
			for i := range want {
				if got[i].Key() != want[i].Key() || got[i].Score != want[i].Score ||
					got[i].Raw != want[i].Raw {
					t.Fatalf("n=%d k=%d: item %d = %v, want %v", n, k, i, got[i], want[i])
				}
			}
		}
	}
}

// TestTopKLeavesInputIntact documents the new aliasing contract: the
// heap path returns a fresh slice and does not reorder its input.
func TestTopKLeavesInputIntact(t *testing.T) {
	ins := randomInsights(64, 9)
	orig := append([]Insight(nil), ins...)
	_ = TopK(ins, 5)
	for i := range ins {
		if ins[i].Key() != orig[i].Key() || ins[i].Score != orig[i].Score {
			t.Fatalf("TopK(k<len) reordered its input at %d", i)
		}
	}
}

// TestTopKFuncMatchesSortThenTruncate drives the generalised selection
// with a comparator of its own (value desc, id asc) through table
// cases, ties at the cut included, against sort-then-truncate.
func TestTopKFuncMatchesSortThenTruncate(t *testing.T) {
	type item struct{ v, id int }
	before := func(a, b item) bool {
		if a.v != b.v {
			return a.v > b.v
		}
		return a.id < b.id
	}
	mk := func(vs ...int) []item {
		out := make([]item, len(vs))
		for i, v := range vs {
			out[i] = item{v, i}
		}
		return out
	}
	for _, tc := range []struct {
		name  string
		items []item
		ks    []int
	}{
		{"empty", nil, []int{-1, 0, 1, 3}},
		{"single", mk(4), []int{0, 1, 2}},
		{"distinct", mk(3, 9, 1, 7, 5), []int{-1, 0, 1, 2, 4, 5, 6}},
		{"tie at the cut", mk(5, 7, 7, 7, 2, 7), []int{1, 2, 3, 4, 5}},
		{"all tied", mk(1, 1, 1, 1), []int{1, 2, 3, 4}},
		{"ascending input", mk(1, 2, 3, 4, 5, 6, 7, 8), []int{3, 7}},
		{"descending input", mk(8, 7, 6, 5, 4, 3, 2, 1), []int{3, 7}},
	} {
		for _, k := range tc.ks {
			want := append([]item(nil), tc.items...)
			sort.SliceStable(want, func(i, j int) bool { return before(want[i], want[j]) })
			if k > 0 && k < len(want) {
				want = want[:k]
			}
			in := append([]item(nil), tc.items...)
			got := TopKFunc(in, k, before)
			if len(got) != len(want) {
				t.Fatalf("%s k=%d: len %d, want %d", tc.name, k, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Errorf("%s k=%d: item %d = %v, want %v", tc.name, k, i, got[i], want[i])
				}
			}
			if k > 0 && k < len(in) && !reflect.DeepEqual(in, tc.items) {
				t.Errorf("%s k=%d: selection reordered its input", tc.name, k)
			}
		}
	}
	// k ≤ 0 keeps nothing when offered one at a time.
	none := NewKBest(0, before)
	if lost, ok := none.Offer(item{1, 1}); !ok || lost != (item{1, 1}) {
		t.Errorf("KBest(0).Offer = %v, %v; want the offer turned away", lost, ok)
	}
	if _, ok := none.Kth(); ok {
		t.Error("KBest(0) reports a kth item")
	}
}

// TopKFunc returns the k first items under the strict total order
// before; k ≤ 0 or k ≥ len(items) sorts items in place and returns
// them. Otherwise the winners are selected in O(n log k) into a fresh
// slice and items is left unmodified; because the order is total the
// result equals sort-then-truncate exactly.
func TopKFunc[T any](items []T, k int, before func(a, b T) bool) []T {
	if k <= 0 || k >= len(items) {
		sort.Slice(items, func(i, j int) bool { return before(items[i], items[j]) })
		return items
	}
	best := NewKBest(k, before)
	for _, x := range items {
		best.Offer(x)
	}
	return best.Sorted()
}

// TopK returns the k strongest insights in SortInsights order
// (descending score, ties broken by key), selected as TopKFunc does.
// Inputs should be NaN-free (the engine filters NaN scores before
// ranking), as NaN has no defined rank.
func TopK(ins []Insight, k int) []Insight {
	return TopKFunc(ins, k, outranks)
}
