package frame

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"testing"

	"foresight/internal/stats"
)

func orderedTestFrame(n int) *Frame {
	rng := rand.New(rand.NewSource(5))
	ties, gaps := make([]float64, n), make([]float64, n)
	for i := range ties {
		ties[i] = float64(rng.Intn(9))
		gaps[i] = rng.NormFloat64()
		if rng.Intn(10) == 0 {
			gaps[i] = math.NaN()
		}
	}
	return MustNew("t", NewNumericColumn("ties", ties), NewNumericColumn("gaps", gaps))
}

// orderedTestBatch appends values tied with old rows and with each
// other, beyond both ends of the old range, and missing.
func orderedTestBatch(n, from int) RowBatch {
	b := RowBatch{Columns: []string{"ties", "gaps"}}
	for i := 0; i < n; i++ {
		gap := fmt.Sprint(float64((from+i)%5-2) * 1.5)
		if i%4 == 3 {
			gap = "NA"
		}
		b.Records = append(b.Records, []string{fmt.Sprint((from+i)%11 - 1), gap})
	}
	return b
}

func requireFreshView(t *testing.T, f *Frame) {
	t.Helper()
	for _, c := range f.NumericColumns() {
		got, want := c.Ordered(), stats.NewOrdered(c.Values())
		if !slices.Equal(walk(got), walk(want)) {
			t.Fatalf("%s: carried order differs from a fresh sort at %d rows", c.Name(), c.Len())
		}
		if got.Mean != want.Mean || got.StdDev != want.StdDev {
			t.Fatalf("%s: view differs from a fresh one at %d rows", c.Name(), c.Len())
		}
		if c.Ordered() != got {
			t.Fatalf("%s: second Ordered call built another view", c.Name())
		}
	}
}

// walk returns a view's order as (row, value bits) pairs.
func walk(v *stats.Ordered) [][2]uint64 {
	var out [][2]uint64
	v.Walk(func(row int32, x float64) { out = append(out, [2]uint64{uint64(row), math.Float64bits(x)}) })
	return out
}

// ascending reports whether a view's walk never steps down in value.
func ascending(v *stats.Ordered) bool {
	ok, last := true, math.Inf(-1)
	v.Walk(func(_ int32, x float64) { ok, last = ok && x >= last, x })
	return ok
}

// TestAppendRowsCarriesOrder chains appends with and without touching
// the views in between: whatever was carried, the view a column
// finally serves is the one a fresh sort of its cells gives.
func TestAppendRowsCarriesOrder(t *testing.T) {
	f := orderedTestFrame(200)
	untouched, err := f.AppendRows(orderedTestBatch(9, 0), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range untouched.NumericColumns() {
		if c.carried != nil {
			t.Fatalf("%s: an order was carried though none had been built", c.Name())
		}
	}
	requireFreshView(t, f)
	for step := 0; step < 6; step++ {
		if f, err = f.AppendRows(orderedTestBatch(1+step*3, step*7), nil); err != nil {
			t.Fatal(err)
		}
		for _, c := range f.NumericColumns() {
			if c.carried == nil {
				t.Fatalf("step %d %s: the built order was not carried forward", step, c.Name())
			}
		}
		if step%2 == 0 { // odd steps hand on an order nobody asked for
			requireFreshView(t, f)
		}
	}
	requireFreshView(t, f)
}

// TestAppendRowsCarriesMoments chains appends over columns holding NaN,
// −0 and ±Inf, one constant until its last batch and one all-missing
// until its third, touching the views at some steps and not at others:
// the moments, mean and σ a column's view serves are a fresh view's,
// bit for bit, and an append folds nothing itself — the successor holds
// the moments its predecessor knew, over the predecessor's rows.
func TestAppendRowsCarriesMoments(t *testing.T) {
	inf := math.Inf(1)
	f := MustNew("m",
		NewNumericColumn("odd", []float64{math.Copysign(0, -1), 2.5, math.NaN(), 0, -1}),
		NewNumericColumn("flat", []float64{5, 5, 5, math.NaN(), 5}),
		NewNumericColumn("gone", []float64{math.NaN(), math.NaN(), math.NaN(), math.NaN(), math.NaN()}),
		NewNumericColumn("inf", []float64{inf, 1, -inf, 3, 4}),
		NewNumericColumn("big", []float64{1e300, -1e300, 3, math.NaN(), 9e299}),
	)
	batches := [][][]string{
		{{"-0", "5", "NA", "7", "1e300"}, {"inf", "5", "", "8", "-0"}},
		{{"1e300", "5", "NA", "9", "2"}},
		{{"-3.5", "5", "2", "NA", "-8e299"}, {"0", "5", "4.25", "1", "NA"}, {"-0", "NA", "NA", "2", "1e-300"}},
		{{"12", "5", "-1", "3", "7"}},
		{{"4", "6", "8", "4", "-1e300"}, {"1e-300", "5", "1", "5", "3"}},
	}
	for step, records := range batches {
		prev := f
		touched := step%2 == 1
		if touched {
			for _, c := range prev.NumericColumns() {
				c.Ordered()
			}
		}
		var err error
		if f, err = prev.AppendRows(RowBatch{Columns: []string{"odd", "flat", "gone", "inf", "big"}, Records: records}, nil); err != nil {
			t.Fatal(err)
		}
		for ci, c := range f.NumericColumns() {
			p := prev.NumericColumns()[ci]
			if c.carried == nil {
				continue
			}
			if want := p.Len(); c.carried.fold.Rows > want || (touched && c.carried.fold.Rows != want) {
				t.Fatalf("step %d %s: the append folded %d rows, its predecessor had %d", step, c.Name(), c.carried.fold.Rows, want)
			}
		}
		if step%3 != 1 {
			requireFreshMoments(t, f)
		}
	}
	requireFreshMoments(t, f)
}

func requireFreshMoments(t *testing.T, f *Frame) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, c := range f.NumericColumns() {
		got, want := c.Ordered(), stats.NewOrdered(c.Values())
		g, w := got.Moments, want.Moments
		if g.N != w.N || !same(g.Mean, w.Mean) || !same(g.M2, w.M2) || !same(g.M3, w.M3) || !same(g.M4, w.M4) ||
			!same(g.MinVal, w.MinVal) || !same(g.MaxVal, w.MaxVal) {
			t.Fatalf("%s at %d rows: moments %+v, a fresh view's %+v", c.Name(), c.Len(), g, w)
		}
		if !same(got.Mean, want.Mean) || !same(got.StdDev, want.StdDev) {
			t.Fatalf("%s at %d rows: mean %v σ %v, a fresh view's %v %v", c.Name(), c.Len(), got.Mean, got.StdDev, want.Mean, want.StdDev)
		}
	}
}

// TestOrderedConcurrentFirstTouch: many goroutines asking at once get
// the one view. Run with -race.
func TestOrderedConcurrentFirstTouch(t *testing.T) {
	c := orderedTestFrame(500).NumericColumns()[1]
	views := make([]*stats.Ordered, 8)
	var wg sync.WaitGroup
	for g := range views {
		wg.Add(1)
		go func() {
			defer wg.Done()
			views[g] = c.Ordered()
		}()
	}
	wg.Wait()
	for _, v := range views {
		if v != views[0] {
			t.Fatal("concurrent first calls built more than one view")
		}
	}
}

// BenchmarkAppendRowsOrdered is one 10-row ingest into an 8 000 × 32
// frame whose views are built: the append plus the carried orders.
func BenchmarkAppendRowsOrdered(b *testing.B) {
	const rows, cols = 8000, 32
	rng := rand.New(rand.NewSource(9))
	columns := make([]Column, cols)
	names := make([]string, cols)
	for ci := range columns {
		vals := make([]float64, rows)
		for i := range vals {
			vals[i] = rng.NormFloat64()
		}
		names[ci] = fmt.Sprintf("c%d", ci)
		columns[ci] = NewNumericColumn(names[ci], vals)
	}
	f := MustNew("bench", columns...)
	for _, c := range f.NumericColumns() {
		c.Ordered()
	}
	batch := RowBatch{Columns: names}
	for r := 0; r < 10; r++ {
		rec := make([]string, cols)
		for ci := range rec {
			rec[ci] = fmt.Sprint(rng.NormFloat64())
		}
		batch.Records = append(batch.Records, rec)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := f.AppendRows(batch, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// chainAlphabet is what one value byte of FuzzOrderedChain decodes to:
// NaN, both zeros, both infinities and a few small numbers, so ties are
// heavy. An appended cell passes through the CSV rules — ±Inf is
// missing, −0 reads +0 — so a batch's +0 ties a base's −0.
var chainAlphabet = []float64{
	math.NaN(), math.Copysign(0, -1), 0, math.Inf(-1), math.Inf(1),
	1, 1, 2, -1, 0.5, 3, 1e300, -1e300, 5e-324, 7, 1.5,
}

// appended is the value a cell formatted from v reads as once appended.
func appended(v float64) float64 {
	if math.IsInf(v, 0) {
		return math.NaN()
	}
	return v + 0
}

// FuzzOrderedChain grows a forest of frames from one root of two
// numeric columns, as the fuzz bytes say: appends from any node made so
// far — a first or a later child, empty batches, NaN and ±0 cells,
// values that tie rows already there, batches long enough to merge a
// delta run into its base — and first Ordered calls on any node's
// columns, in any order. Every node's view must then read as a fresh
// stats.NewOrdered over its own cells: the rows and value bits of the
// whole walk, the quantiles, the bits of the moments, mean and σ, and
// the rank sums against its sibling column.
func FuzzOrderedChain(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{8, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 0})
	// Views touched, then one-row appends that each tie a base value.
	f.Add([]byte{24, 0, 1, 1, 2, 2, 3, 5, 5, 6, 7, 8, 9, 9, 9, 1, 2, 0, 0, 6, 5, 15, 0, 7, 5,
		1, 0, 1, 1, 3, 0, 130, 131, 1, 0, 4, 0, 1, 1, 3, 1, 140, 2, 5, 1, 3, 2, 0, 1})
	// A long batch that merges the delta, then appends on either side of it.
	f.Add([]byte{16, 2, 2, 1, 1, 6, 6, 0, 0, 9, 9, 5, 5, 7, 7, 8, 8, 1, 0,
		45, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 128, 129, 130, 131, 132, 133, 134, 135, 136, 137, 138, 139,
		1, 1, 3, 1, 2, 1, 1, 2, 9, 9, 4, 0, 0, 1, 0, 1, 2, 3, 0})
	// Views built, then a 4-row batch of ties onto 16 rows: merged.
	f.Add([]byte{16, 2, 9, 8, 1, 0, 9, 3, 9, 6, 9, 5, 3, 7, 8, 2, 2, 3, 8, 8, 3, 4, 1, 2, 1, 8, 4, 5, 6, 1, 9, 5, 7, 3, 0, 16, 0, 10, 6, 6, 6, 142, 2, 1, 143, 3, 1})
	// Deltas of 2 and 5 rows on a base of 40, a 60-row batch that merges,
	// and a second child of the root.
	f.Add([]byte{40, 2, 7, 4, 7, 4, 8, 4, 9, 0, 8, 9, 4, 9, 2, 0, 5, 7, 9, 1, 0, 8, 9, 9, 6, 2, 9, 7, 7, 6, 6, 3, 3, 6, 0, 6, 4, 1, 5, 7, 4, 4, 6, 5, 9, 9, 5, 4, 9, 0, 8, 7, 8, 2, 5, 7, 5, 6, 6, 9, 8, 5, 2, 4, 7, 9, 7, 1, 5, 0, 0, 0, 1, 4, 4, 3, 8, 4, 9, 8, 6, 3, 0, 8, 0, 10, 6, 0, 147, 3, 1, 12, 1, 144, 7, 154, 5, 167, 2, 3, 2, 60, 2, 168, 150, 5, 5, 1, 0, 151, 157, 166, 151, 151, 5, 152, 129, 0, 5, 0, 2, 171, 172, 166, 149, 2, 138, 169, 164, 142, 1, 2, 164, 145, 169, 167, 136, 161, 5, 168, 154, 1, 2, 158, 7, 6, 0, 157, 0, 5, 2, 10, 5, 143, 172, 2, 6, 1, 135, 147, 129, 6, 167, 136, 162, 131, 140, 135, 145, 10, 128, 164, 1, 2, 161, 1, 128, 10, 135, 158, 10, 7, 5, 132, 169, 147, 140, 6, 163, 152, 7, 151, 169, 6, 1, 6, 168, 172, 172, 129, 162, 165, 155, 136, 5, 163, 5, 172, 170, 7, 0, 148, 1, 0, 137, 152, 133, 0, 2, 5, 1, 135, 10, 3, 3, 16, 0, 5, 10, 164, 0, 163, 7, 148, 2, 3, 4})
	// Two children of one node, each read before and after the other.
	f.Add([]byte{10, 0, 0, 2, 2, 5, 5, 1, 1, 0, 0, 1, 0, 1, 0, 3, 0, 6, 7, 8, 3, 0, 129, 130, 131,
		1, 1, 4, 2, 1, 2, 2, 3, 1, 1, 3, 2, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		cols := [2][]float64{}
		for range int(next()) % 48 {
			for c := range cols {
				cols[c] = append(cols[c], chainAlphabet[next()%16])
			}
		}
		nodes := []*Frame{MustNew("chain", NewNumericColumn("x", cols[0]), NewNumericColumn("y", cols[1]))}
		want := [][2][]float64{cols}
		for len(data) > 0 {
			op, at := next(), int(next())%len(nodes)
			node := nodes[at]
			switch op % 4 {
			case 0, 1: // append a batch: 0–14 rows, or 60
				k := int(op/4) % 16
				if k == 15 {
					k = 60
				}
				b := RowBatch{Columns: []string{"x", "y"}}
				grown := [2][]float64{slices.Clone(want[at][0]), slices.Clone(want[at][1])}
				for range k {
					rec := make([]string, 2)
					for c := range rec {
						cell := next()
						v := chainAlphabet[cell%16]
						if cell >= 128 && node.Rows() > 0 {
							v = want[at][c][int(cell-128)%node.Rows()] // a row already there
						}
						rec[c] = strconv.FormatFloat(v, 'g', -1, 64)
						grown[c] = append(grown[c], appended(v))
					}
					b.Records = append(b.Records, rec)
				}
				child, err := node.AppendRows(b, nil)
				if err != nil {
					t.Fatal(err)
				}
				nodes, want = append(nodes, child), append(want, grown)
			case 2: // a first (or later) Ordered call
				node.NumericColumns()[int(op/4)%2].Ordered()
			case 3:
				requireChainNode(t, node, want[at])
			}
		}
		for i, node := range nodes {
			requireChainNode(t, node, want[i])
		}
	})
}

// requireChainNode holds node's cells to want and both its columns'
// views to fresh ones over those cells.
func requireChainNode(t *testing.T, node *Frame, want [2][]float64) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b }
	var views, fresh [2]*stats.Ordered
	for c, col := range node.NumericColumns() {
		vals := col.Values()
		if len(vals) != len(want[c]) {
			t.Fatalf("%s: %d cells, want %d", col.Name(), len(vals), len(want[c]))
		}
		for i := range vals {
			if !same(vals[i], want[c][i]) {
				t.Fatalf("%s[%d] = %v, want %v", col.Name(), i, vals[i], want[c][i])
			}
		}
		got, w := col.Ordered(), stats.NewOrdered(vals)
		views[c], fresh[c] = got, w
		at := fmt.Sprintf("%s at %d rows", col.Name(), len(vals))
		if !slices.Equal(walk(got), walk(w)) {
			t.Fatalf("%s: walk %v, fresh %v", at, walk(got), walk(w))
		}
		for _, q := range []float64{0, 0.1, 0.25, 1.0 / 3, 0.5, 0.75, 0.9, 1} {
			if !same(got.Quantile(q), w.Quantile(q)) {
				t.Fatalf("%s: quantile %v is %v, fresh %v", at, q, got.Quantile(q), w.Quantile(q))
			}
		}
		g, m := got.Moments, w.Moments
		if g.N != m.N || !same(g.Mean, m.Mean) || !same(g.M2, m.M2) || !same(g.M3, m.M3) || !same(g.M4, m.M4) ||
			!same(g.MinVal, m.MinVal) || !same(g.MaxVal, m.MaxVal) || !same(got.Mean, w.Mean) || !same(got.StdDev, w.StdDev) {
			t.Fatalf("%s: moments %+v mean %v σ %v, fresh %+v %v %v", at, g, got.Mean, got.StdDev, m, w.Mean, w.StdDev)
		}
	}
	if got, w := stats.SpearmanSums(views[0], views[1]), stats.SpearmanSums(fresh[0], fresh[1]); got.M != w.M ||
		!same(got.XX, w.XX) || !same(got.YY, w.YY) || !same(got.XY, w.XY) {
		t.Fatalf("at %d rows: rank sums %+v, fresh %+v", node.Rows(), got, w)
	}
}

// TestOrderedExtendAllocation: after a 10-row append to 8 000 rows
// whose views were built, the successor's first Ordered() on two
// columns and one SpearmanSums between them allocate in proportion to
// the rows since the base run, not to the column's: the delta run and
// its rank index, the view and its header. Splicing, gathering and
// re-ranking every row, as a view that copied its predecessor's order
// did, costs ≈ 128 KB a column here. The cells' fold is not the view's
// and is paid before counting; the fewest bytes of eight rounds count,
// since a round whose goroutine moved to a processor with a cold
// scratch pool (or, under the race detector, whose pooled scratch was
// dropped) pays for its tables once.
func TestOrderedExtendAllocation(t *testing.T) {
	const rows, batch = 8000, 10
	const perRow, fixed = 256, 4 << 10
	rng := rand.New(rand.NewSource(41))
	var cols [2][]float64
	for c := range cols {
		cols[c] = make([]float64, rows)
		for i := range cols[c] {
			cols[c][i] = math.Round(rng.NormFloat64() * 100)
			if rng.Intn(100) == 0 {
				cols[c][i] = math.NaN()
			}
		}
	}
	least := ^uint64(0)
	var before, after runtime.MemStats
	for range 8 {
		f := MustNew("alloc", NewNumericColumn("x", cols[0]), NewNumericColumn("y", cols[1]))
		var err error
		if f, err = f.AppendRows(orderedAllocBatch(rng, batch), nil); err != nil {
			t.Fatal(err)
		}
		x, y := f.NumericColumns()[0], f.NumericColumns()[1]
		stats.SpearmanSums(x.Ordered(), y.Ordered()) // the base runs' views and rank indexes
		if f, err = f.AppendRows(orderedAllocBatch(rng, batch), nil); err != nil {
			t.Fatal(err)
		}
		x, y = f.NumericColumns()[0], f.NumericColumns()[1]
		x.Values()
		y.Values()
		runtime.ReadMemStats(&before)
		stats.SpearmanSums(x.Ordered(), y.Ordered())
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("%d bytes", least)
	if bound := uint64(fixed + perRow*batch); least > bound {
		t.Fatalf("a first Ordered() of two columns %d rows past their base, and their rank sums, allocated %d bytes; bound %d", batch, least, bound)
	}
}

// orderedAllocBatch is k rows of two columns, one cell of each row
// missing now and then.
func orderedAllocBatch(rng *rand.Rand, k int) RowBatch {
	b := RowBatch{Columns: []string{"x", "y"}}
	for range k {
		rec := []string{fmt.Sprint(math.Round(rng.NormFloat64() * 100)), fmt.Sprint(math.Round(rng.NormFloat64() * 100))}
		if rng.Intn(4) == 0 {
			rec[rng.Intn(2)] = "NA"
		}
		b.Records = append(b.Records, rec)
	}
	return b
}
