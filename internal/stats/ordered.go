package stats

import (
	"math"
	"math/bits"
	"slices"
	"sync"
)

// Ordered is a numeric sample together with the state every
// order-based kernel needs, derived once: its non-NaN values in
// ascending order, where each row sits in that order, and mean/σ. It
// is immutable after construction, so one Ordered per immutable column
// can be shared by every candidate (and every goroutine) that scores
// it — ranking a pair then costs one linear walk per column instead of
// two sorts.
//
// The order is held as two sorted runs, as in a log-structured merge
// tree: a base run over the sample's first rows, shared by pointer
// with every view of a sample that extends those rows (ExtendOrdered),
// and a delta run over the rows after them, sorted for this view
// alone. The order the view stands for is the merge of the two, equal
// values base first — ascending value, equal values by ascending row,
// the order a sort of the whole sample gives. Readers go through
// methods (Len, Quantile, IQR, BoxStats, Walk, WithSorted,
// SpearmanSums), which read across the runs — an order statistic is a
// k-th selection across the two — and return, bit for bit, what they
// would over one merged array.
type Ordered struct {
	// Values is the sample in row order (NaN = missing). Retained, not
	// copied.
	Values []float64
	// Moments is NewMoments(Values); Mean and StdDev are Mean(Values)
	// and StdDev(Values).
	Moments      Moments
	Mean, StdDev float64

	sum   float64 // Mean's sum of the non-NaN values
	base  *Run    // rows [0, base.to)
	delta Run     // rows [base.to, len(Values))
}

// Run is one sorted run of a sample: the non-NaN rows among rows
// [from, to) by ascending value, equal values by ascending row, and
// their values in that order. Its rank index is built by its first
// Spearman reader, once, whichever goroutine that is.
type Run struct {
	from, to int
	order    []int32 // rows of the sample
	sorted   []float64
	rankOnce sync.Once
	ranks    *rankIndex
}

// compactShare bounds the delta run: once the rows after a base run
// number more than 1/compactShare of the base's, ExtendOrdered merges
// the two into a new base. Until then each view sorts its delta afresh,
// O(d log d) for d ≤ n/compactShare rows; a merge copies n rows only
// after more than n/(compactShare+1) of them arrived since the last,
// so the merges copy fewer than compactShare+1 rows per row appended.
const compactShare = 8

// sort makes r the run of xs's rows from from on.
func (r *Run) sort(xs []float64, from int) {
	r.from, r.to = from, len(xs)
	if from < len(xs) {
		r.order, r.sorted = orderFrom(xs, from)
	}
}

// rankIndex is where each row of a run sits in its order, so a rank
// correlation reads ranks instead of re-deriving them per pair.
type rankIndex struct {
	// at holds one entry per row of the run, from its first: the row's
	// position in the run's order when its value is untied there,
	// missingRow when it is NaN, and tiedRow−g when it is a member of
	// tie group g.
	at []int32
	// ties[g] is the span of the order that tie group g covers.
	ties []tieSpan
	// missing lists the NaN rows, ascending, as rows of the sample.
	missing []int32
}

// tieSpan is the half-open range [start, end) of order positions that
// one tie group covers.
type tieSpan struct{ start, end int32 }

const (
	missingRow = -1
	tiedRow    = -2
)

// noRows is the rank index of a run without rows.
var noRows = &rankIndex{}

// rankIndex returns the run's rank index, built on first use; every
// later call, from any goroutine, returns the same one.
func (r *Run) rankIndex() *rankIndex {
	if r.from == r.to {
		return noRows
	}
	r.rankOnce.Do(func() { r.ranks = newRankIndex(r) })
	return r.ranks
}

// newRankIndex walks the run's order once, grouping equal values as
// ranksOrdered does, then lists the rows it never reached.
func newRankIndex(r *Run) *rankIndex {
	order, sorted := r.order, r.sorted
	x := &rankIndex{at: make([]int32, r.to-r.from)}
	if len(order) < len(x.at) {
		for i := range x.at {
			x.at[i] = missingRow
		}
	}
	for a := 0; a < len(order); {
		b := a + 1
		for b < len(order) && sorted[b] == sorted[a] {
			b++
		}
		if b == a+1 {
			x.at[int(order[a])-r.from] = int32(a)
		} else {
			g := tiedRow - int32(len(x.ties))
			for _, row := range order[a:b] {
				x.at[int(row)-r.from] = g
			}
			x.ties = append(x.ties, tieSpan{int32(a), int32(b)})
		}
		a = b
	}
	if len(order) < len(x.at) {
		x.missing = make([]int32, 0, len(x.at)-len(order))
		for i, at := range x.at {
			if at == missingRow {
				x.missing = append(x.missing, int32(r.from+i))
			}
		}
	}
	return x
}

// NewOrdered sorts values once and derives the rest; the view's one
// run is its base.
func NewOrdered(values []float64) *Ordered {
	base := new(Run)
	base.sort(values, 0)
	return newOrdered(values, base, Fold{})
}

// ExtendOrdered builds the view over values from what the caller
// already has of a prefix of them: base, the sorted run of their first
// rows (Ordered.Base of a view of that prefix), and prefix, the fold of
// their first prefix.Rows rows (Ordered.Fold). Only the rows after
// base are sorted, into the view's delta run, and only those after
// prefix are folded. A delta of more than 1/compactShare of base's rows
// is merged with base into a new base, which the view holds instead.
func ExtendOrdered(values []float64, base *Run, prefix Fold) *Ordered {
	return extendOrdered(values, base, prefix, (len(values)-base.to)*compactShare > base.to)
}

// extendOrdered is ExtendOrdered with the merge decided by the caller.
func extendOrdered(values []float64, base *Run, prefix Fold, compact bool) *Ordered {
	v := newOrdered(values, base, prefix)
	v.delta.sort(values, base.to)
	if compact {
		merged := &Run{to: len(values), order: make([]int32, 0, v.Len()), sorted: make([]float64, 0, v.Len())}
		v.Walk(func(row int32, x float64) {
			merged.order, merged.sorted = append(merged.order, row), append(merged.sorted, x)
		})
		v.base = merged
		v.delta.from, v.delta.order, v.delta.sorted = len(values), nil, nil
	}
	return v
}

// newOrdered returns the view of values over base, with an empty delta
// after it, folding values into prefix.
func newOrdered(values []float64, base *Run, prefix Fold) *Ordered {
	f := prefix.Extend(values)
	mean := math.NaN()
	if f.Moments.N > 0 {
		mean = f.Sum / float64(f.Moments.N)
	}
	v := &Ordered{
		Values:  values,
		Moments: f.Moments,
		Mean:    mean,
		StdDev:  f.Moments.StdDev(),
		sum:     f.Sum,
		base:    base,
	}
	v.delta.from, v.delta.to = base.to, len(values)
	return v
}

// Base returns the view's base run, which a view of a sample extending
// Values builds on (ExtendOrdered).
func (v *Ordered) Base() *Run { return v.base }

// Len returns the number of non-NaN values.
func (v *Ordered) Len() int { return len(v.base.order) + len(v.delta.order) }

// runs returns the view's sorted values as the two runs they are.
func (v *Ordered) runs() sortedRuns { return sortedRuns{v.base.sorted, v.delta.sorted} }

// Quantile is QuantileSorted over the view's non-NaN values.
func (v *Ordered) Quantile(q float64) float64 { return quantile(v.runs(), q) }

// IQR is the interquartile range Q3−Q1 of the view's non-NaN values.
func (v *Ordered) IQR() float64 { return iqr(v.runs()) }

// BoxStats is NewBoxStatsSorted over the view's non-NaN values.
func (v *Ordered) BoxStats(k float64) *BoxStats { return boxStats(v.runs(), k) }

// Walk calls visit with every non-NaN row and its value, in the view's
// order.
func (v *Ordered) Walk(visit func(row int32, x float64)) {
	runs := [2]*Run{v.base, &v.delta}
	v.runs().each(func(x float64, run, p int) { visit(runs[run].order[p], x) })
}

// WithSorted calls f with the non-NaN values ascending in one array:
// the base run's own when the view has no delta, else a merged copy in
// pooled scratch. f must not keep the slice, nor write to it.
func (v *Ordered) WithSorted(f func(sorted []float64)) {
	if len(v.delta.sorted) == 0 {
		f(v.base.sorted)
		return
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	sorted := grow(sc.floats, v.Len())
	k := 0
	v.runs().each(func(x float64, _, _ int) { sorted[k], k = x, k+1 })
	sc.floats = sorted
	f(sorted)
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
// samples — the delta run of a view a few batches past its base —
// take the comparison sort. Both produce the one order the definition allows.
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

// scratch is the pooled working memory of the pair kernels
// (SpearmanOrdered's drop and rank tables, silhouette), of the radix
// sort, of the dip and of WithSorted's merged copy; nothing in it
// outlives a call.
type scratch struct {
	floats []float64
	slots  []int32
	sums   []uint32
	keys   []uint64
	ints   []int
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// grow returns buf resliced to n, or, when it is too short, a new
// buffer with room for a quarter more: a column that grows by a batch
// between calls then finds its pooled buffers long enough.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n, n+n/4)
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
//
// A view with a delta run ranks its rows in the merged order without
// building it: a base tie group [s, e) of value w sits at merged
// positions [s + #{δ < w}, e + #{δ ≤ w}), a delta tie group [a, b) of
// value v at [#{β < v} + a, #{β ≤ v} + b), β the base's values and δ
// the delta's. One merge walk of the two runs per pair (mergedBounds)
// writes each group's bounds, less the rows below them that drop, to
// pooled tables, so the integer sums are those of the merged order.
func SpearmanSums(x, y *Ordered) RankSums {
	n := len(x.Values)
	if n != len(y.Values) {
		panic("stats: correlation inputs have different lengths")
	}
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	lx, ly := x.Len(), y.Len()
	sc.slots = grow(sc.slots, lx+ly+4)
	sc.sums = grow(sc.sums, lx+ly)
	var px, py pairSide
	droppedX := px.fill(x, y, sc.slots[:lx+2], sc.sums[:lx])
	py.fill(y, x, sc.slots[lx+2:], sc.sums[lx:])
	m := lx - droppedX
	if m < 2 {
		return RankSums{M: m}
	}
	var aa, bb, ab int128
	block := rowsPerBlock(m)
	// Rows below both bases, below one, and in both deltas: in each
	// segment every row of a side is in one run.
	cuts := [4]int{0, min(x.base.to, y.base.to), max(x.base.to, y.base.to), n}
	for c := range 3 {
		lo, hi := cuts[c], cuts[c+1]
		if lo == hi {
			continue
		}
		kx, ky := px.runOf(lo), py.runOf(lo)
		rx, ry := px.index[kx], py.index[ky]
		dx, dy := px.drop[kx], py.drop[ky]
		tx, ty := px.twice[kx], py.twice[ky]
		fx, fy := px.runs[kx].from, py.runs[ky].from
		atX, atY := rx.at[lo-fx:hi-fx], ry.at[lo-fy:hi-fy]
		for blo := 0; blo < len(atX); {
			bhi := blo + min(block, len(atX)-blo)
			var saa, sbb, sab int64
			// Two views of one run each keep their own loop: the general
			// one reads 16–21 % slower on them (BenchmarkSpearmanPair's
			// base-only cases, 2 vCPUs).
			if tx == nil && ty == nil {
				for i := blo; i < bhi; i++ {
					ax, ay := atX[i], atY[i]
					if ax == missingRow || ay == missingRow {
						continue
					}
					a, b := rx.centred(ax, dx, m), ry.centred(ay, dy, m)
					saa += a * a
					sbb += b * b
					sab += a * b
				}
			} else {
				for i := blo; i < bhi; i++ {
					ax, ay := atX[i], atY[i]
					if ax == missingRow || ay == missingRow {
						continue
					}
					var a, b int64
					if tx == nil {
						a = rx.centred(ax, dx, m)
					} else {
						a = rx.centredAt(ax, tx, m)
					}
					if ty == nil {
						b = ry.centred(ay, dy, m)
					} else {
						b = ry.centredAt(ay, ty, m)
					}
					saa += a * a
					sbb += b * b
					sab += a * b
				}
			}
			aa.add(saa)
			bb.add(sbb)
			ab.add(sab)
			blo = bhi
		}
	}
	return RankSums{M: m, XX: aa.float64() / 4, YY: bb.float64() / 4, XY: ab.float64() / 4}
}

// pairSide is one view of a Spearman pair: its two runs' rank indexes
// and the tables its rows' ranks are read with. A view of one run, its
// base, reads D, the drop table over the base's positions (nil when
// none drop). A view with a delta reads twice: for each tie group of
// either run, s + e − D(s) − D(e) of its merged group, stored at the
// group's first position in its run (an untied row is a group of one).
type pairSide struct {
	runs  [2]*Run // the base, the delta
	index [2]*rankIndex
	drop  [2][]int32
	twice [2][]uint32
}

// runOf returns which run holds row i.
func (s *pairSide) runOf(i int) int {
	if i < s.runs[0].to {
		return 0
	}
	return 1
}

// fill sets s up for v against partner, with drops (len v.Len()+2) and
// twice (len v.Len()) as its tables, and returns how many of v's rows
// the partner misses.
//
// D(p) counts those rows at merged positions below p, a dropped member
// of a tie group counting at the group's start. At a merged group's
// bounds it is the sum of each run's own D at the run positions the
// bounds cut, so each run gets a prefix table over its own positions,
// filled from just the rows that drop out: the partner's NaN rows that
// v has, none on complete data.
func (s *pairSide) fill(v, partner *Ordered, drops []int32, twice []uint32) int {
	s.runs = [2]*Run{v.base, &v.delta}
	for k, r := range s.runs {
		s.index[k] = r.rankIndex()
	}
	nb := len(v.base.order)
	tables := [2][]int32{drops[:nb+1], drops[nb+1:]}
	dropped := 0
	for _, p := range [2]*Run{partner.base, &partner.delta} {
		for _, row := range p.rankIndex().missing {
			k := s.runOf(int(row))
			at := s.index[k].at[int(row)-s.runs[k].from]
			if at == missingRow {
				continue
			}
			if dropped == 0 {
				clear(drops)
			}
			if at < 0 {
				at = s.index[k].ties[tiedRow-at].start
			}
			tables[k][at+1]++
			dropped++
		}
	}
	if dropped == 0 {
		tables = [2][]int32{}
	}
	for _, t := range tables {
		below := int32(0)
		for p, c := range t {
			below += c
			t[p] = below
		}
	}
	if len(v.delta.order) > 0 {
		s.twice = [2][]uint32{twice[:nb], twice[nb:]}
		mergedBounds(v.base.sorted, v.delta.sorted, s.index[0].ties, tables, s.twice)
	} else {
		s.drop[0] = tables[0]
	}
	return dropped
}

// mergedBounds walks the merge of the base run's values b, whose tie
// groups are ties, and the delta's d (equal values b's first), writing
// for each merged group s + e − D(s) − D(e) of its merged bounds to
// twice[0] at its first base position, if it has b's values, and to
// twice[1] at its first delta position, if it has d's. A group covering
// b's positions [i, i2) and d's [j, j2) has merged bounds [i+j, i2+j2)
// and D(i+j) = drop[0][i] + drop[1][j] (nil tables: none drop). Between
// two delta values the base is walked by its tie groups alone: the j
// delta values below it add 2j − 2·drop[1][j] to each group's bounds.
func mergedBounds(b, d []float64, ties []tieSpan, drop [2][]int32, twice [2][]uint32) {
	db, tb, td := drop[0], twice[0], twice[1]
	dropped := func(k, p int) int {
		if drop[k] == nil {
			return 0
		}
		return int(drop[k][p])
	}
	i, j, g := 0, 0, 0
	for {
		shift := 2*j - 2*dropped(1, j)
		for i < len(b) && (j == len(d) || b[i] < d[j]) {
			e := i + 1
			if g < len(ties) && int(ties[g].start) == i {
				e = int(ties[g].end)
				g++
			}
			bounds := i + e + shift
			if db != nil {
				bounds -= int(db[i]) + int(db[e])
			}
			tb[i] = uint32(bounds)
			i = e
		}
		if j == len(d) {
			return
		}
		j2, i2 := j+1, i
		for j2 < len(d) && d[j2] == d[j] {
			j2++
		}
		if i < len(b) && b[i] == d[j] {
			i2 = i + 1
			if g < len(ties) && int(ties[g].start) == i {
				i2 = int(ties[g].end)
				g++
			}
			tb[i] = uint32(i + j + i2 + j2 - dropped(0, i) - dropped(1, j) - dropped(0, i2) - dropped(1, j2))
		}
		td[j] = uint32(i + j + i2 + j2 - dropped(0, i) - dropped(1, j) - dropped(0, i2) - dropped(1, j2))
		i, j = i2, j2
	}
}

// centred returns twice the pairwise-complete rank of a row of a view
// of one run whose entry is at, less m + 1; drop is the run's drop
// table (nil: none drop).
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

// centredAt is centred for a row of a view with a delta run, read from
// its run's twice table.
func (r *rankIndex) centredAt(at int32, twice []uint32, m int) int64 {
	if at < 0 {
		at = r.ties[tiedRow-at].start
	}
	return int64(twice[at]) - int64(m)
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
