package stats

import (
	"math"
	"slices"
	"sort"
	"sync"
)

// Ordered is a numeric sample together with the state every
// order-based kernel needs, derived once: the ascending order of its
// non-NaN rows, the values in that order, and mean/σ. It is immutable
// after construction, so one Ordered per immutable column can be
// shared by every candidate (and every goroutine) that scores it —
// ranking a pair then costs one linear walk per column instead of two
// sorts.
type Ordered struct {
	// Values is the sample in row order (NaN = missing). Retained, not
	// copied.
	Values []float64
	// Order lists the non-NaN rows of Values by ascending value, equal
	// values by ascending row.
	Order []int32
	// Sorted is Values[Order[k]]: the non-NaN values ascending.
	Sorted []float64
	// Mean and StdDev are Mean(Values) and StdDev(Values).
	Mean, StdDev float64
}

// NewOrdered sorts values once and derives the rest.
func NewOrdered(values []float64) *Ordered {
	order, sorted := orderFrom(values, 0)
	return newOrdered(values, order, sorted)
}

// OrderedFrom builds the view over values from their order, which the
// caller already has (ExtendOrder of a prefix's order).
func OrderedFrom(values []float64, order []int32) *Ordered {
	sorted := make([]float64, len(order))
	for k, row := range order {
		sorted[k] = values[row]
	}
	return newOrdered(values, order, sorted)
}

func newOrdered(values []float64, order []int32, sorted []float64) *Ordered {
	return &Ordered{
		Values: values,
		Order:  order,
		Sorted: sorted,
		Mean:   Mean(values),
		StdDev: StdDev(values),
	}
}

// orderFrom returns the non-NaN rows of xs from row from on by
// ascending value, equal values (including −0 and +0) by ascending row,
// so the order is a function of xs alone; sorted holds the values in
// that order.
func orderFrom(xs []float64, from int) (order []int32, sorted []float64) {
	if len(xs) > math.MaxInt32 {
		panic("stats: sample too long for an int32 order")
	}
	type keyed struct {
		v   float64
		row int32
	}
	keys := make([]keyed, 0, len(xs)-from)
	for i := from; i < len(xs); i++ {
		if v := xs[i]; v == v {
			keys = append(keys, keyed{v, int32(i)})
		}
	}
	slices.SortFunc(keys, func(a, b keyed) int {
		switch {
		case a.v < b.v:
			return -1
		case a.v > b.v:
			return 1
		}
		return int(a.row) - int(b.row)
	})
	order, sorted = make([]int32, len(keys)), make([]float64, len(keys))
	for k, e := range keys {
		order[k], sorted[k] = e.row, e.v
	}
	return order, sorted
}

// ExtendOrder returns the order of xs given the order of xs[:from]:
// only the appended rows are sorted, then spliced into a copy of order at
// their upper bounds (appended rows have the larger row numbers, so
// they follow equal older values). O(n + b·log n) for b appended rows.
func ExtendOrder(order []int32, xs []float64, from int) []int32 {
	tail, sorted := orderFrom(xs, from)
	out := make([]int32, 0, len(order)+len(tail))
	for k, row := range tail {
		v := sorted[k]
		cut := sort.Search(len(order), func(k int) bool { return xs[order[k]] > v })
		out = append(out, order[:cut]...)
		out = append(out, row)
		order = order[cut:]
	}
	return append(out, order...)
}

// scratch is the pooled working memory of the pair kernels
// (SpearmanOrdered, silhouette); nothing in it outlives a call.
type scratch struct {
	floats []float64
	slots  []int32
	ids    []int
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// ranksOrdered writes 1-based average-tie ranks into dst by walking
// order once; sorted[k] is the value of row order[k]. slot maps a row
// to its index in dst, or −1 to leave the row out of the ranking
// altogether (it consumes no rank position); nil means every row is its
// own slot. Ranks depend only on the multiset of ranked values, so
// walking a whole-column order while skipping rows gives exactly the
// ranks of sorting the kept rows alone.
func ranksOrdered(dst, sorted []float64, order, slot []int32) {
	ranked := 0 // rows ranked so far
	for a := 0; a < len(order); {
		b := a + 1
		for b < len(order) && sorted[b] == sorted[a] {
			b++
		}
		if b == a+1 { // an untied value: the whole walk, on continuous data
			s := order[a]
			if slot != nil {
				s = slot[s]
			}
			if s >= 0 {
				ranked++
				dst[s] = float64(ranked)
			}
			a = b
			continue
		}
		kept := b - a
		if slot != nil {
			kept = 0
			for _, row := range order[a:b] {
				if slot[row] >= 0 {
					kept++
				}
			}
		}
		// The tie group holds ranks ranked+1 … ranked+kept.
		avg := float64(2*ranked+kept+1) / 2
		for _, row := range order[a:b] {
			if slot == nil {
				dst[row] = avg
			} else if s := slot[row]; s >= 0 {
				dst[s] = avg
			}
		}
		ranked += kept
		a = b
	}
}

// Ranks assigns 1-based fractional ranks to xs with ties receiving the
// average of their covered ranks (the standard convention for Spearman
// correlation). NaN inputs receive NaN ranks and do not consume rank
// positions.
func Ranks(xs []float64) []float64 {
	order, sorted := orderFrom(xs, 0)
	ranks := make([]float64, len(xs))
	if len(order) < len(xs) {
		for i := range ranks {
			ranks[i] = math.NaN()
		}
	}
	ranksOrdered(ranks, sorted, order, nil)
	return ranks
}

// SpearmanOrdered is Spearman over two samples whose orders are
// already known: one pass indexes the pairwise-complete rows, one walk
// per side ranks them, then Pearson — no sort and, with the pooled
// scratch, no allocation.
func SpearmanOrdered(x, y *Ordered) float64 {
	n := len(x.Values)
	if n != len(y.Values) {
		panic("stats: correlation inputs have different lengths")
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	var slot []int32
	m := n
	if len(x.Order) < n || len(y.Order) < n {
		sc.slots = grow(sc.slots, n)
		slot = sc.slots
		m = 0
		for i, xv := range x.Values {
			if yv := y.Values[i]; xv != xv || yv != yv {
				slot[i] = -1
				continue
			}
			slot[i] = int32(m)
			m++
		}
	}
	if m < 2 {
		return math.NaN()
	}
	sc.floats = grow(sc.floats, 2*m)
	rx, ry := sc.floats[:m], sc.floats[m:]
	ranksOrdered(rx, x.Sorted, x.Order, slot)
	ranksOrdered(ry, y.Sorted, y.Order, slot)
	return Pearson(rx, ry)
}

// Spearman returns the Spearman rank correlation coefficient over
// pairwise-complete observations: the Pearson correlation of the
// fractional ranks (average-tie convention). It is the paper's metric
// for nonlinear monotonic relationships. It sorts both samples to rank
// them; callers that score one column against many partners keep its
// Ordered and call SpearmanOrdered.
func Spearman(xs, ys []float64) float64 {
	return SpearmanOrdered(NewOrdered(xs), NewOrdered(ys))
}
