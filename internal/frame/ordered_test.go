package frame

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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
		if !slices.Equal(got.Order, want.Order) {
			t.Fatalf("%s: carried order differs from a fresh sort at %d rows", c.Name(), c.Len())
		}
		if !slices.Equal(got.Sorted, want.Sorted) || got.Mean != want.Mean || got.StdDev != want.StdDev {
			t.Fatalf("%s: view differs from a fresh one at %d rows", c.Name(), c.Len())
		}
		if c.Ordered() != got {
			t.Fatalf("%s: second Ordered call built another view", c.Name())
		}
	}
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
			if want := p.Len(); c.fold.Rows > want || (touched && c.fold.Rows != want) {
				t.Fatalf("step %d %s: the append folded %d rows, its predecessor had %d", step, c.Name(), c.fold.Rows, want)
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
