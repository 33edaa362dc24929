package stats

import (
	"math"
	"math/bits"
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
	// Moments is NewMoments(Values); Mean and StdDev are Mean(Values)
	// and StdDev(Values).
	Moments      Moments
	Mean, StdDev float64

	sum      float64 // Mean's sum of the non-NaN values
	rankOnce sync.Once
	ranks    *rankIndex // built by the first SpearmanOrdered over the view
}

// rankIndex is where each row of an Ordered view sits in its Order, so
// a rank correlation reads ranks instead of re-deriving them per pair.
type rankIndex struct {
	// at holds one entry per row: the row's position in Order when its
	// value is untied, missingRow when it is NaN, and tiedRow−g when it
	// is a member of tie group g.
	at []int32
	// ties[g] is the span of Order that tie group g covers.
	ties []tieSpan
	// missing lists the NaN rows, ascending.
	missing []int32
}

// tieSpan is the half-open range [start, end) of Order positions that
// one tie group covers.
type tieSpan struct{ start, end int32 }

const (
	missingRow = -1
	tiedRow    = -2
)

// rankIndex returns the view's rank index, built on first use; every
// later call, from any goroutine, returns the same one.
func (v *Ordered) rankIndex() *rankIndex {
	v.rankOnce.Do(func() { v.ranks = newRankIndex(v.Values, v.Order, v.Sorted) })
	return v.ranks
}

// newRankIndex walks order once, grouping equal values as ranksOrdered
// does, then lists the rows it never reached.
func newRankIndex(values []float64, order []int32, sorted []float64) *rankIndex {
	r := &rankIndex{at: make([]int32, len(values))}
	if len(order) < len(values) {
		for i := range r.at {
			r.at[i] = missingRow
		}
	}
	for a := 0; a < len(order); {
		b := a + 1
		for b < len(order) && sorted[b] == sorted[a] {
			b++
		}
		if b == a+1 {
			r.at[order[a]] = int32(a)
		} else {
			g := tiedRow - int32(len(r.ties))
			for _, row := range order[a:b] {
				r.at[row] = g
			}
			r.ties = append(r.ties, tieSpan{int32(a), int32(b)})
		}
		a = b
	}
	if len(order) < len(values) {
		r.missing = make([]int32, 0, len(values)-len(order))
		for row, at := range r.at {
			if at == missingRow {
				r.missing = append(r.missing, int32(row))
			}
		}
	}
	return r
}

// dropTable fills table, of length len(Order)+1, with the prefix counts
// of the rows this view orders but the partner misses: table[p] is D(p),
// how many of them sit at Order positions below p, a dropped member of a
// tie group counting at the group's start. It returns the table and how
// many rows drop, or nil and 0 when none do.
func (r *rankIndex) dropTable(partnerMissing []int32, table []int32) ([]int32, int) {
	dropped := 0
	for _, row := range partnerMissing {
		at := r.at[row]
		if at == missingRow {
			continue
		}
		if dropped == 0 {
			clear(table)
		}
		if at < 0 {
			at = r.ties[tiedRow-at].start
		}
		table[at+1]++
		dropped++
	}
	if dropped == 0 {
		return nil, 0
	}
	below := int32(0)
	for p, c := range table {
		below += c
		table[p] = below
	}
	return table, dropped
}

// NewOrdered sorts values once and derives the rest.
func NewOrdered(values []float64) *Ordered {
	order, sorted := orderFrom(values, 0)
	return newOrdered(values, order, sorted, Fold{})
}

// OrderedFrom builds the view over values from what the caller already
// has: their order (ExtendOrder of a prefix's order) and the fold of a
// prefix of them, which only the rows after it are folded into.
func OrderedFrom(values []float64, order []int32, prefix Fold) *Ordered {
	sorted := make([]float64, len(order))
	for k, row := range order {
		sorted[k] = values[row]
	}
	return newOrdered(values, order, sorted, prefix)
}

func newOrdered(values []float64, order []int32, sorted []float64, prefix Fold) *Ordered {
	f := prefix.Extend(values)
	mean := math.NaN()
	if f.Moments.N > 0 {
		mean = f.Sum / float64(f.Moments.N)
	}
	return &Ordered{
		Values:  values,
		Order:   order,
		Sorted:  sorted,
		Moments: f.Moments,
		Mean:    mean,
		StdDev:  f.Moments.StdDev(),
		sum:     f.Sum,
	}
}

// Fold is the state an Ordered view's Moments and Mean are read from:
// Welford's moments and Mean's plain sum of the non-NaN values among the
// first Rows of a sample. Both are left folds — each value enters the
// running state in row order — so folding an appended tail into a
// prefix's Fold gives the bits folding the whole sample from empty
// does.
type Fold struct {
	Moments Moments
	Sum     float64
	Rows    int
}

// Fold returns the view's fold over all of Values.
func (v *Ordered) Fold() Fold { return Fold{Moments: v.Moments, Sum: v.sum, Rows: len(v.Values)} }

// Extend folds values[f.Rows:] into f: values extends the sample f was
// folded from.
func (f Fold) Extend(values []float64) Fold {
	for _, x := range values[f.Rows:] {
		if x == x {
			f.Sum += x
		}
		f.Moments.Add(x)
	}
	f.Rows = len(values)
	return f
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
// (SpearmanOrdered's drop tables, silhouette), of the radix sort and of
// the dip; nothing in it outlives a call.
type scratch struct {
	floats []float64
	slots  []int32
	keys   []uint64
	ints   []int
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// ranksOrdered writes 1-based average-tie ranks into dst, indexed by
// row, by walking order once; sorted[k] is the value of row order[k].
func ranksOrdered(dst, sorted []float64, order []int32) {
	for a := 0; a < len(order); {
		b := a + 1
		for b < len(order) && sorted[b] == sorted[a] {
			b++
		}
		// Positions a … b−1 hold ranks a+1 … b.
		avg := float64(a+b+1) / 2
		for _, row := range order[a:b] {
			dst[row] = avg
		}
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
	ranksOrdered(ranks, sorted, order)
	return ranks
}

// SpearmanOrdered is Spearman over two samples whose orders are already
// known, in one pass over the two views' rank indexes and in exact
// integer arithmetic.
//
// Among the m pairwise-complete rows, a row whose tie group covers
// Order positions [s, e) has the doubled average rank s + e + 1 − D(s) −
// D(e), where D(p) counts the rows at positions below p that the partner
// misses (a pooled prefix table, filled from just those rows; none on
// complete data). Centred on m + 1 that is an integer a with |a| < m,
// and Σa², Σb² and Σab are summed in int64 over blocks short enough
// that no block can overflow, the block sums into 128 bits.
//
// Those integers are four times the centred sums Pearson forms over the
// ranks; Pearson's own float64 sums are exact — every term and partial
// sum a multiple of ¼ below 2⁵³ — up to about 300 000 complete rows,
// and there the kernel returns the bits Pearson(ranks) returns. Beyond
// that, to the 2³¹ − 1 rows an Ordered allows, the sums stay exact and
// each is rounded once, where Pearson's would drift. No sort and, with
// the pooled scratch, no allocation once both indexes exist.
func SpearmanOrdered(x, y *Ordered) float64 { return SpearmanSums(x, y).Rho() }

// RankSums are what SpearmanOrdered forms ρ from: the m pairwise-complete
// rows and, over them, Σa², Σb² and Σab for a and b the average ranks
// less (m + 1)/2, each exact and rounded once. Below two complete rows
// the sums are zero.
type RankSums struct {
	M          int
	XX, YY, XY float64
}

// Rho is the Spearman correlation the sums give: NaN below two complete
// rows or when a side is constant.
func (s RankSums) Rho() float64 {
	return pairSums{n: s.M, sxx: s.XX, syy: s.YY, sxy: s.XY}.pearson()
}

// Bound returns an upper bound on |ρ| over the same two columns once up
// to b rows are appended, in rounded arithmetic that callers inflate, or
// +Inf. With m' = m + b (DESIGN §6j): an old row's average rank rises by
// s ∈ [0, b] and the mean rank by b/2, so its centred rank moves by at
// most b/2; a new row's centred rank is below m'/2 in magnitude. Hence
// |Σa'b'| ≤ |S_xy| + E with E = (b/2)·√m·(√S_xx + √S_yy) + m·b²/4 +
// b·m'²/4, and Σa'² ≥ L_xx = S_xx − b·√m·√S_xx (Cauchy–Schwarz).
func (s RankSums) Bound(b int) float64 {
	m, nb := float64(s.M), float64(b)
	grown := m + nb
	rm, rx, ry := math.Sqrt(m), math.Sqrt(s.XX), math.Sqrt(s.YY)
	e := nb/2*rm*(rx+ry) + m*nb*nb/4 + nb*grown*grown/4
	lx, ly := s.XX-nb*rm*rx, s.YY-nb*rm*ry
	if !(lx > 0 && ly > 0) {
		return math.Inf(1)
	}
	return (math.Abs(s.XY) + e) / math.Sqrt(lx*ly)
}

// SpearmanSums is SpearmanOrdered's kernel, which returns the sums.
func SpearmanSums(x, y *Ordered) RankSums {
	n := len(x.Values)
	if n != len(y.Values) {
		panic("stats: correlation inputs have different lengths")
	}
	rx, ry := x.rankIndex(), y.rankIndex()
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sc.slots = grow(sc.slots, len(x.Order)+len(y.Order)+2)
	dx, droppedX := rx.dropTable(ry.missing, sc.slots[:len(x.Order)+1])
	dy, _ := ry.dropTable(rx.missing, sc.slots[len(x.Order)+1:])
	m := len(x.Order) - droppedX
	if m < 2 {
		return RankSums{M: m}
	}
	var aa, bb, ab int128
	atX, atY := rx.at[:n], ry.at[:n]
	block := rowsPerBlock(m)
	for lo := 0; lo < n; {
		hi := lo + min(block, n-lo)
		var saa, sbb, sab int64
		for i := lo; i < hi; i++ {
			ax, ay := atX[i], atY[i]
			if ax == missingRow || ay == missingRow {
				continue
			}
			a, b := rx.centred(ax, dx, m), ry.centred(ay, dy, m)
			saa += a * a
			sbb += b * b
			sab += a * b
		}
		aa.add(saa)
		bb.add(sbb)
		ab.add(sab)
		lo = hi
	}
	return RankSums{M: m, XX: aa.float64() / 4, YY: bb.float64() / 4, XY: ab.float64() / 4}
}

// centred returns twice the pairwise-complete rank of a row whose entry
// is at, less m + 1; drop is the view's drop table (nil: none drop).
func (r *rankIndex) centred(at int32, drop []int32, m int) int64 {
	if at >= 0 { // untied: s = at, e = at+1, and D(e) = D(s)
		c := 2*int64(at) + 1 - int64(m)
		if drop != nil {
			c -= 2 * int64(drop[at])
		}
		return c
	}
	t := r.ties[tiedRow-at]
	c := int64(t.start) + int64(t.end) - int64(m)
	if drop != nil {
		c -= int64(drop[t.start]) + int64(drop[t.end])
	}
	return c
}

// rowsPerBlock is how many rows one int64 block of SpearmanOrdered may
// sum: each term is at most (m−1)² in magnitude.
func rowsPerBlock(m int) int {
	worst := int64(m-1) * int64(m-1)
	if worst <= 1 {
		return math.MaxInt
	}
	return int(max(1, math.MaxInt64/worst))
}

// int128 is a two's-complement 128-bit integer, the exact total of
// int64 block sums.
type int128 struct{ hi, lo uint64 }

func (a *int128) add(v int64) {
	var carry uint64
	a.lo, carry = bits.Add64(a.lo, uint64(v), 0)
	a.hi += uint64(v>>63) + carry
}

// float64 returns a rounded once to the nearest float64 (ties to even).
func (a int128) float64() float64 {
	hi, lo := a.hi, a.lo
	neg := int64(hi) < 0
	if neg {
		var borrow uint64
		lo, borrow = bits.Sub64(0, lo, 0)
		hi, _ = bits.Sub64(0, hi, borrow)
	}
	var f float64
	if hi == 0 {
		f = float64(lo)
	} else {
		// Keep the top 64 bits, folding the rest into a sticky low bit:
		// the conversion then rounds as it would the whole value.
		shift := uint(64 - bits.LeadingZeros64(hi))
		top := hi<<(64-shift) | lo>>shift
		if lo<<(64-shift) != 0 {
			top |= 1
		}
		f = math.Ldexp(float64(top), int(shift))
	}
	if neg {
		return -f
	}
	return f
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
