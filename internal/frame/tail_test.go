package frame

import (
	"fmt"
	"math"
	"runtime"
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
// tailCell, through every accessor that hands out cells.
func checkTailFrame(f *Frame, rows int) error {
	x, g := f.NumericColumns()[0], f.CategoricalColumns()[0]
	if f.Rows() != rows || x.Len() != rows || g.Len() != rows || len(x.Values()) != rows || len(g.Codes()) != rows {
		return fmt.Errorf("rows %d, x %d, g %d, want %d", f.Rows(), x.Len(), g.Len(), rows)
	}
	if cap(x.Values()) != rows || cap(g.Codes()) != rows || cap(x.ValuesRange(0, rows/2)) != rows/2 || cap(g.CodesRange(0, rows/2)) != rows/2 {
		return fmt.Errorf("an accessor exposes capacity past its length")
	}
	// Cell by cell first, which never folds, then through the folds.
	for i := 0; i < rows; i++ {
		want, label := tailCell(i)
		if got := x.At(i); got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
			return fmt.Errorf("At x[%d] = %v, want %v", i, got, want)
		}
		if g.StringAt(i) != label {
			return fmt.Errorf("g[%d] = %q, want %q", i, g.StringAt(i), label)
		}
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
	if o := x.Ordered(); o.Len() != rows-missing || len(o.Values) != rows || !ascending(o) {
		return fmt.Errorf("ordered view: %d of %d rows ordered over %d values", o.Len(), rows-missing, len(o.Values))
	}
	return nil
}

// TestAppendChainUnderReaders: while 200 successive appends extend the
// chain — every one after the first writing into arrays the readers'
// generations live in — readers of the generations already made keep
// seeing each one's cells, lengths and counts, and fold them (Values,
// Codes, Ordered) as the chain goes on past them: the first a
// fold-free generation, then each reader the newest one it can see or
// an older one. Run under -race, this is also the proof that neither
// the writes nor the folds touch a cell a reader can reach.
func TestAppendChainUnderReaders(t *testing.T) {
	const base, batch, appends = 500, 25, 200
	f := tailFrame(base)
	// One append first, so the generation the readers start on has a
	// tail for its successors to write.
	g, err := f.AppendRows(tailBatch(batch, base), nil)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	gens := []*Frame{g}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				mu.Lock()
				gen := gens[len(gens)-1]
				if i%2 == 1 {
					gen = gens[(i*7+r)%len(gens)]
				}
				mu.Unlock()
				if err := checkTailFrame(gen, gen.Rows()); err != nil {
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
		mu.Lock()
		gens = append(gens, head)
		mu.Unlock()
	}
	close(stop)
	wg.Wait()
	for _, gen := range []*Frame{head, g} {
		if err := checkTailFrame(gen, gen.Rows()); err != nil {
			t.Errorf("generation of %d rows: %v", gen.Rows(), err)
		}
	}
	if head.Rows() != base+batch*(appends+1) {
		t.Errorf("head of the chain has %d rows", head.Rows())
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
// must allocate about what they add. A chain nobody reads whole writes
// its rows into tail chunks and copies no column: under three times
// the appended cells. A chain with an exact reader of every generation
// folds each column (Values, Codes) once a quarter of its rows have
// come in, as a regrowing array would: under three times the appended
// cells plus one regrowth of the columns. Its reader also asks every
// generation for the ordered views, whose own arrays are not counted:
// what is counted is that an append no longer sorts or splices.
// Copying every column on every batch allocates thirty times that.
// TotalAlloc is a count of bytes, not a timing.
func TestAppendChainAllocation(t *testing.T) {
	const base, batch, batches, numeric = 20000, 250, 40, 8
	const rowBytes = numeric*8 + 4
	appended := uint64(batch * batches * rowBytes)
	for _, exact := range []bool{false, true} {
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
		order := func(f *Frame) {
			for _, x := range f.NumericColumns() {
				x.Ordered()
			}
		}
		if exact {
			order(f)
		}
		var got uint64
		var before, after runtime.MemStats
		for i := 0; i < batches; i++ {
			runtime.ReadMemStats(&before)
			var err error
			if f, err = f.AppendRows(b, nil); err != nil {
				t.Fatal(err)
			}
			if exact {
				for _, x := range f.NumericColumns() {
					x.Values()
				}
				f.CategoricalColumns()[0].Codes()
			}
			runtime.ReadMemStats(&after)
			got += after.TotalAlloc - before.TotalAlloc
			if exact {
				order(f)
			}
		}
		bound := 3 * appended
		if exact {
			// The array the last fold made, or the one the column extends.
			x := f.NumericColumns()[0]
			arr := x.cells.prefix
			if w := x.cells.whole.Load(); w != nil {
				arr = *w
			}
			bound += uint64(cap(arr)) * rowBytes
		}
		if got > bound {
			t.Errorf("exact reader %v: chain allocated %d bytes; %d appended cell bytes, bound %d", exact, got, appended, bound)
		}
		if x := f.NumericColumns()[numeric-1]; f.Rows() != base+batch*batches || x.At(base-1) != 0 || x.At(f.Rows()-1) != 1.5 {
			t.Errorf("exact reader %v: chain of %d rows ends in %v", exact, f.Rows(), x.At(f.Rows()-1))
		}
	}
}

// TestAppendStreamAllocation: one round of a live ingest stream — six
// cycles of eight 250-row batches and a 10-row one, onto 20 000 rows of
// 48 numeric and 4 categorical columns, some batches bringing new
// labels — allocates at most half again its new cells: the tail chunks,
// which grow by half at a time, and each generation's column headers.
// Regrowing the columns instead allocated eight and a half times them.
func TestAppendStreamAllocation(t *testing.T) {
	const base, numeric, categorical = 20000, 48, 4
	cols := make([]Column, 0, numeric+categorical)
	for c := 0; c < numeric; c++ {
		vals := make([]float64, base)
		for i := range vals {
			vals[i] = float64(i % (c + 7))
		}
		cols = append(cols, NewNumericColumn("n"+strconv.Itoa(c), vals))
	}
	for c := 0; c < categorical; c++ {
		labels := make([]string, base)
		for i := range labels {
			labels[i] = "l" + strconv.Itoa(i%(10*c+3))
		}
		cols = append(cols, NewCategoricalColumn("c"+strconv.Itoa(c), labels))
	}
	f := MustNew("stream", cols...)
	var batches []RowBatch
	rows := 0
	for cycle := 0; cycle < 6; cycle++ {
		for _, k := range []int{250, 250, 250, 250, 250, 250, 250, 250, 10} {
			b := RowBatch{Records: make([][]string, k)}
			for r := range b.Records {
				rec := make([]string, numeric+categorical)
				for c := range rec {
					rec[c] = strconv.Itoa((rows + r) % (c + 11))
				}
				for c := numeric; c < len(rec); c++ {
					rec[c] = "l" + strconv.Itoa((rows+r)%(10*c+5))
				}
				b.Records[r] = rec
			}
			batches = append(batches, b)
			rows += k
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, b := range batches {
		var err error
		if f, err = f.AppendRows(b, nil); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	cells := uint64(rows * (numeric*8 + categorical*4))
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("%d rows: %d bytes allocated for %d bytes of new cells (%.2f×)", rows, got, cells, float64(got)/float64(cells))
	if 2*got > 3*cells {
		t.Errorf("a round of %d rows allocated %d bytes for %d bytes of new cells (%.2f×)", rows, got, cells, float64(got)/float64(cells))
	}
	if f.Rows() != base+rows || f.CategoricalColumns()[3].StringAt(f.Rows()-1) != "l"+strconv.Itoa((rows-1)%(10*51+5)) {
		t.Errorf("stream ends at %d rows", f.Rows())
	}
}

// TestBatchIsOneWindow: whatever a chain does — batches of one row, of
// a chunk's size and past it, an exact reader folding some generations,
// a second append from one frame — each batch lands whole in one
// segment, so the window of its rows, which a sketch extension reads,
// is zero-copy and folds nothing.
func TestBatchIsOneWindow(t *testing.T) {
	f := tailFrame(300)
	for i, k := range []int{1, 255, 2, 300, 4096, 7, 5000, 3, 900, 1} {
		next, err := f.AppendRows(tailBatch(k, f.Rows()), nil)
		if err != nil {
			t.Fatal(err)
		}
		if i == 4 {
			// A second successor of f, which cannot take f's tail.
			if _, err := f.AppendRows(tailBatch(k, f.Rows()), nil); err != nil {
				t.Fatal(err)
			}
		}
		x, g := next.NumericColumns()[0], next.CategoricalColumns()[0]
		vals, codes := x.ValuesRange(f.Rows(), next.Rows()), g.CodesRange(f.Rows(), next.Rows())
		if x.cells.whole.Load() != nil || g.cells.whole.Load() != nil {
			t.Fatalf("batch %d (%d rows): reading its window folded the column", i, k)
		}
		for r := range vals {
			want, label := tailCell(f.Rows() + r)
			if got := vals[r]; got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("batch %d: x[%d] = %v, want %v", i, f.Rows()+r, got, want)
			}
			if (codes[r] < 0) != (label == "") || (codes[r] >= 0 && g.Dict()[codes[r]] != label) {
				t.Fatalf("batch %d: g[%d] = code %d, want %q", i, f.Rows()+r, codes[r], label)
			}
		}
		if i%3 == 1 {
			next.NumericColumns()[0].Values()
			next.CategoricalColumns()[0].Codes()
		}
		f = next
	}
	if err := checkTailFrame(f, f.Rows()); err != nil {
		t.Error(err)
	}
}
