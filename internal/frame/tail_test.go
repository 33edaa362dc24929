package frame

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"testing"
)

// tailFrame is an n-row frame (numeric x = row number with every 7th
// cell missing, categorical g cycling three labels with every 11th
// missing) and tailBatch(k, from) the k rows that continue it from row
// `from`.
func tailFrame(n int) *Frame {
	xs, gs := make([]float64, n), make([]string, n)
	for i := range xs {
		xs[i], gs[i] = tailCell(i)
	}
	return MustNew("tail", NewNumericColumn("x", xs), NewCategoricalColumn("g", gs))
}

func tailCell(i int) (float64, string) {
	x := float64(i)
	if i%7 == 3 {
		x = math.NaN()
	}
	if i%11 == 5 {
		return x, ""
	}
	return x, "g" + strconv.Itoa(i%3)
}

func tailBatch(k, from int) RowBatch {
	b := RowBatch{Records: make([][]string, k)}
	for r := range b.Records {
		x, g := tailCell(from + r)
		cell := strconv.FormatFloat(x, 'g', -1, 64)
		if math.IsNaN(x) {
			cell = []string{"", "NA", "not-a-number"}[(from+r)%3] // missing, missing token, unparseable
		}
		b.Records[r] = []string{cell, g}
	}
	return b
}

// checkTailFrame verifies every cell, length and count of f against
// tailCell, through every accessor that hands out the backing arrays.
func checkTailFrame(f *Frame, rows int) error {
	x, g := f.NumericColumns()[0], f.CategoricalColumns()[0]
	if f.Rows() != rows || x.Len() != rows || g.Len() != rows || len(x.Values()) != rows || len(g.Codes()) != rows {
		return fmt.Errorf("rows %d, x %d, g %d, want %d", f.Rows(), x.Len(), g.Len(), rows)
	}
	if cap(x.Values()) != rows || cap(g.Codes()) != rows || cap(x.ValuesRange(0, rows/2)) != rows/2 || cap(g.CodesRange(0, rows/2)) != rows/2 {
		return fmt.Errorf("an accessor exposes capacity past its length")
	}
	vals, tail, codes := x.Values(), x.ValuesRange(rows/2, rows), g.CodesRange(rows/2, rows)
	missing, blank := 0, 0
	for i := 0; i < rows; i++ {
		want, label := tailCell(i)
		if math.IsNaN(want) {
			missing++
		}
		if label == "" {
			blank++
		}
		if got := vals[i]; got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			return fmt.Errorf("x[%d] = %v, want %v", i, got, want)
		}
		if g.StringAt(i) != label {
			return fmt.Errorf("g[%d] = %q, want %q", i, g.StringAt(i), label)
		}
		if i >= rows/2 {
			if got := tail[i-rows/2]; got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				return fmt.Errorf("ValuesRange x[%d] = %v, want %v", i, got, want)
			}
			if code := codes[i-rows/2]; (code < 0) != (label == "") || (code >= 0 && g.Dict()[code] != label) {
				return fmt.Errorf("CodesRange g[%d] = code %d, want %q", i, code, label)
			}
		}
	}
	if x.Missing() != missing || g.Missing() != blank {
		return fmt.Errorf("Missing() = %d/%d, recount %d/%d", x.Missing(), g.Missing(), missing, blank)
	}
	if o := x.Ordered(); len(o.Order) != rows-missing || len(o.Values) != rows || !slices.IsSorted(o.Sorted) {
		return fmt.Errorf("ordered view: %d of %d rows ordered over %d values", len(o.Order), rows-missing, len(o.Values))
	}
	return nil
}

// TestAppendChainUnderReaders: while 200 successive appends extend the
// chain — every one after the first writing into the array the readers'
// generation lives in — readers of generation g keep seeing g's cells,
// lengths and counts. Run under -race, this is also the proof that the
// writes never touch a cell a reader can reach.
func TestAppendChainUnderReaders(t *testing.T) {
	const base, batch, appends = 500, 25, 200
	f := tailFrame(base)
	// One append first, so the generation the readers hold has a tail
	// for its successors to write.
	g, err := f.AppendRows(tailBatch(batch, base), nil)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if err := checkTailFrame(g, base+batch); err != nil {
					t.Error(err)
					return
				}
				select {
				case <-stop:
					return
				default:
				}
			}
		}()
	}
	head := g
	for i := 1; i <= appends; i++ {
		if head, err = head.AppendRows(tailBatch(batch, head.Rows()), nil); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
	if err := checkTailFrame(head, base+batch*(appends+1)); err != nil {
		t.Errorf("head of the chain: %v", err)
	}
	if err := checkTailFrame(f, base); err != nil {
		t.Errorf("base frame: %v", err)
	}
}

// TestAppendTwiceFromOneFrame: the tail goes to one successor; the
// second append from the same frame must copy, and neither sees the
// other's rows — also when the two race for the claim.
func TestAppendTwiceFromOneFrame(t *testing.T) {
	f, err := tailFrame(100).AppendRows(tailBatch(10, 100), nil) // f has a tail to hand out
	if err != nil {
		t.Fatal(err)
	}
	other := RowBatch{Records: [][]string{{"-1", "zz"}, {"-2", "g0"}}}
	var a, b *Frame
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		a, _ = f.AppendRows(tailBatch(5, 110), nil)
	}()
	go func() {
		defer wg.Done()
		b, _ = f.AppendRows(other, nil)
	}()
	wg.Wait()
	if a == nil || b == nil {
		t.Fatal("an append failed")
	}
	if err := checkTailFrame(a, 115); err != nil {
		t.Errorf("first successor: %v", err)
	}
	bx, bg := b.NumericColumns()[0], b.CategoricalColumns()[0]
	if b.Rows() != 112 || bx.At(110) != -1 || bx.At(111) != -2 || bg.StringAt(110) != "zz" || bg.StringAt(111) != "g0" {
		t.Errorf("second successor: rows %d, x tail %v %v, g tail %q %q", b.Rows(), bx.At(110), bx.At(111), bg.StringAt(110), bg.StringAt(111))
	}
	if err := checkTailFrame(f, 110); err != nil {
		t.Errorf("their predecessor: %v", err)
	}
	ax := a.NumericColumns()[0]
	if &ax.Values()[0] == &bx.Values()[0] {
		t.Error("both successors write the same array")
	}
}

// TestAppendToValuesCopies: a caller that appends to what Values or
// Codes returned gets a copy, not the successor frame's cells.
func TestAppendToValuesCopies(t *testing.T) {
	f, err := tailFrame(40).AppendRows(tailBatch(4, 40), nil)
	if err != nil {
		t.Fatal(err)
	}
	next, err := f.AppendRows(tailBatch(4, 44), nil)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := f.Numeric("x")
	g, _ := f.Categorical("g")
	_ = append(x.Values(), 1e9)
	_ = append(x.Present(), 1e9)
	_ = append(x.ValuesRange(0, 44), 1e9)
	_ = append(g.Codes(), 99)
	_ = append(g.CodesRange(40, 44), 99)
	if err := checkTailFrame(next, 48); err != nil {
		t.Errorf("successor after appends to its predecessor's slices: %v", err)
	}
	// A constructor handed a slice with spare capacity leaves it alone.
	buf := make([]float64, 3, 16)
	c := NewNumericColumn("c", buf)
	if _, err := MustNew("c", c).AppendRows(RowBatch{Records: [][]string{{"7"}}}, nil); err != nil {
		t.Fatal(err)
	}
	if buf[:4][3] != 0 {
		t.Error("AppendRows wrote into the spare capacity of a caller's slice")
	}
}

// TestAppendChainAllocation: 40 batches of 250 rows onto 20 000 × 9
// must allocate about what they add — under three times the appended
// cells plus one regrowth of the columns — where copying every column
// on every batch allocates thirty times that. TotalAlloc is a count of
// bytes, not a timing.
func TestAppendChainAllocation(t *testing.T) {
	const base, batch, batches, numeric = 20000, 250, 40, 8
	cols := make([]Column, numeric+1)
	for c := 0; c < numeric; c++ {
		cols[c] = NewNumericColumn("x"+strconv.Itoa(c), make([]float64, base))
	}
	labels := make([]string, base)
	for i := range labels {
		labels[i] = "ab"[i%2 : i%2+1]
	}
	cols[numeric] = NewCategoricalColumn("g", labels)
	f := MustNew("wide", cols...)
	rec := make([]string, numeric+1)
	for c := range rec {
		rec[c] = "1.5"
	}
	rec[numeric] = "b"
	b := RowBatch{Records: make([][]string, batch)}
	for r := range b.Records {
		b.Records[r] = rec
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < batches; i++ {
		var err error
		if f, err = f.AppendRows(b, nil); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	const rowBytes = numeric*8 + 4
	appended := uint64(batch * batches * rowBytes)
	regrowth := uint64(cap(f.NumericColumns()[0].values)) * rowBytes
	if got := after.TotalAlloc - before.TotalAlloc; got > 3*appended+regrowth {
		t.Errorf("chain allocated %d bytes; %d appended cell bytes, one regrowth %d, bound %d",
			got, appended, regrowth, 3*appended+regrowth)
	}
	if x := f.NumericColumns()[numeric-1]; f.Rows() != base+batch*batches || x.At(base-1) != 0 || x.At(f.Rows()-1) != 1.5 {
		t.Errorf("chain of %d rows ends in %v", f.Rows(), x.At(f.Rows()-1))
	}
}
