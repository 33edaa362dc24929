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

// radixMin is the sample length from which orderFrom sorts by radix:
// below it eight counting passes cost more than a comparison sort of
// the whole sample.
const radixMin = 192

// orderFrom returns the non-NaN rows of xs from row from on by
// ascending value, equal values (including −0 and +0) by ascending row,
// so the order is a function of xs alone; sorted holds the values in
// that order. From radixMin values up the sort is a stable LSD radix
// over the values' order-preserving bit patterns, one byte a pass (a
// byte every key shares costs no pass), in pooled scratch; shorter
// samples — the batch tail ExtendOrder sorts — take the comparison
// sort. Both produce the one order the definition allows.
func orderFrom(xs []float64, from int) (order []int32, sorted []float64) {
	if len(xs) > math.MaxInt32 {
		panic("stats: sample too long for an int32 order")
	}
	order = make([]int32, 0, len(xs)-from)
	for i := from; i < len(xs); i++ {
		if v := xs[i]; v == v {
			order = append(order, int32(i))
		}
	}
	if len(order) < radixMin {
		slices.SortFunc(order, func(a, b int32) int {
			switch va, vb := xs[a], xs[b]; {
			case va < vb:
				return -1
			case va > vb:
				return 1
			}
			return int(a) - int(b)
		})
	} else {
		radixOrder(order, xs)
	}
	sorted = make([]float64, len(order))
	for k, row := range order {
		sorted[k] = xs[row]
	}
	return order, sorted
}

// radixOrder sorts order — rows of xs, none NaN, ascending on entry —
// as orderFrom defines it. A value's key is its IEEE bits with the sign
// bit flipped (positives) or every bit flipped (negatives), which
// orders as the values do; −0 takes +0's key, so the two tie and, the
// passes being stable over rows that start ascending, stay in row
// order like every other tie.
func radixOrder(order []int32, xs []float64) {
	n := len(order)
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.keys = grow(sc.keys, 2*n)
	sc.slots = grow(sc.slots, n)
	keys, keysTo := sc.keys[:n], sc.keys[n:]
	rows, rowsTo := order, sc.slots

	var counts [8][256]int32
	for k, row := range rows {
		v := xs[row]
		b := math.Float64bits(v)
		if v == 0 {
			b = 0
		}
		b ^= uint64(int64(b)>>63) | 1<<63
		keys[k] = b
		for d := range counts {
			counts[d][byte(b>>(8*d))]++
		}
	}
	for d := range counts {
		count, shift := &counts[d], 8*d
		if count[byte(keys[0]>>shift)] == int32(n) {
			continue // every key has this byte: the pass would move nothing
		}
		at := int32(0)
		for b, c := range count {
			count[b], at = at, at+c
		}
		for i, key := range keys {
			to := count[byte(key>>shift)]
			count[byte(key>>shift)] = to + 1
			keysTo[to], rowsTo[to] = key, rows[i]
		}
		keys, keysTo = keysTo, keys
		rows, rowsTo = rowsTo, rows
	}
	if &rows[0] != &order[0] {
		copy(order, rows)
	}
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
// (SpearmanOrdered, silhouette) and of the radix sort; nothing in it
// outlives a call.
type scratch struct {
	floats []float64
	slots  []int32
	keys   []uint64
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
