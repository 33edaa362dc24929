package frame

import (
	"bytes"
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"
)

// ReadCSV as it was before the typed one-pass reader, kept as the
// test-only reference: every cell's trimmed text in a [][]string, then
// one column typed at a time. It does not know the byte-order mark, and
// it has since learnt that a zero is stored as +0.

func isMissingOracle(o *ReadCSVOptions, cell string) bool {
	if cell == "" {
		return true
	}
	lower := strings.ToLower(strings.TrimSpace(cell))
	if lower == "" {
		return true
	}
	for _, tok := range o.MissingTokens {
		if lower == tok {
			return true
		}
	}
	return false
}

func readCSVOracle(r io.Reader, name string, opts *ReadCSVOptions) (*Frame, error) {
	if opts == nil {
		opts = &ReadCSVOptions{}
	}
	opts.fill()

	cr := csv.NewReader(r)
	cr.Comma = opts.Comma
	cr.TrimLeadingSpace = true

	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("frame: reading CSV header: %w", err)
	}
	if len(header) == 0 {
		return nil, fmt.Errorf("frame: empty CSV header")
	}
	for i := range header {
		header[i] = strings.TrimSpace(header[i])
		if header[i] == "" {
			header[i] = fmt.Sprintf("col%d", i)
		}
	}

	raw := make([][]string, len(header))
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("frame: reading CSV record: %w", err)
		}
		if len(rec) != len(header) {
			return nil, fmt.Errorf("frame: record has %d fields, header has %d", len(rec), len(header))
		}
		for i, cell := range rec {
			raw[i] = append(raw[i], strings.TrimSpace(cell))
		}
	}

	cols := make([]Column, 0, len(header))
	for i, cells := range raw {
		if c := inferColumnOracle(header[i], cells, opts); c != nil {
			cols = append(cols, c)
		}
	}
	if len(cols) == 0 {
		return nil, fmt.Errorf("frame: no usable columns (all %d over MaxCategories=%d)", len(header), opts.MaxCategories)
	}
	return New(name, cols...)
}

func inferColumnOracle(name string, cells []string, opts *ReadCSVOptions) Column {
	parsed := make([]float64, len(cells))
	numericOK, present := 0, 0
	for i, cell := range cells {
		if isMissingOracle(opts, cell) {
			parsed[i] = math.NaN()
			continue
		}
		present++
		v, err := strconv.ParseFloat(strings.ReplaceAll(cell, ",", ""), 64)
		if err != nil || math.IsInf(v, 0) {
			parsed[i] = math.NaN()
			continue
		}
		if v == 0 {
			v = 0 // a zero is stored as +0
		}
		parsed[i] = v
		numericOK++
	}
	if present > 0 && float64(numericOK)/float64(present) >= opts.NumericThreshold {
		return NewNumericColumn(name, parsed)
	}
	strs := make([]string, len(cells))
	distinct := make(map[string]struct{})
	for i, cell := range cells {
		if isMissingOracle(opts, cell) {
			strs[i] = ""
		} else {
			strs[i] = cell
			distinct[cell] = struct{}{}
		}
	}
	if opts.MaxCategories > 0 && len(distinct) > opts.MaxCategories {
		return nil
	}
	return NewCategoricalColumn(name, strs)
}

// sameFrame reports the first difference between two frames: names,
// kinds, the bits of every value, codes and dictionaries.
func sameFrame(got, want *Frame) error {
	if got.Rows() != want.Rows() || got.Cols() != want.Cols() {
		return fmt.Errorf("shape %d×%d, want %d×%d", got.Rows(), got.Cols(), want.Rows(), want.Cols())
	}
	for i, name := range want.Names() {
		g, w := got.Column(i), want.Column(i)
		if g.Name() != name || g.Kind() != w.Kind() || g.Missing() != w.Missing() {
			return fmt.Errorf("column %d: %q %v (%d missing), want %q %v (%d missing)",
				i, g.Name(), g.Kind(), g.Missing(), name, w.Kind(), w.Missing())
		}
		switch w := w.(type) {
		case *NumericColumn:
			gv := g.(*NumericColumn).Values()
			for r, v := range w.Values() {
				if math.Float64bits(gv[r]) != math.Float64bits(v) {
					return fmt.Errorf("column %q row %d: %v (%#x), want %v (%#x)",
						name, r, gv[r], math.Float64bits(gv[r]), v, math.Float64bits(v))
				}
			}
		case *CategoricalColumn:
			gc := g.(*CategoricalColumn)
			if fmt.Sprintf("%q", gc.Dict()) != fmt.Sprintf("%q", w.Dict()) {
				return fmt.Errorf("column %q: dictionary %q, want %q", name, gc.Dict(), w.Dict())
			}
			for r, code := range w.Codes() {
				if gc.Codes()[r] != code {
					return fmt.Errorf("column %q row %d: code %d, want %d", name, r, gc.Codes()[r], code)
				}
			}
		}
	}
	return nil
}

// checkReadCSV holds ReadCSV to the oracle on one input: both fail, or
// both return the same frame. The oracle is shown the bytes without
// their byte-order mark, which is the one difference intended.
func checkReadCSV(t *testing.T, data []byte, opts ReadCSVOptions) {
	t.Helper()
	gotOpts, wantOpts := opts, opts
	got, gotErr := ReadCSV(bytes.NewReader(data), "t", &gotOpts)
	want, wantErr := readCSVOracle(bytes.NewReader(bytes.TrimPrefix(data, utf8BOM)), "t", &wantOpts)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("ReadCSV(%q, %+v): error %v, oracle %v", data, opts, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if err := sameFrame(got, want); err != nil {
		t.Fatalf("ReadCSV(%q, %+v): %v", data, opts, err)
	}
}

// lateText is a column of n distinct numbers followed by enough text
// cells to fail numeric inference: past keptSpellings its texts have
// been let go by then, so it is typed by the second pass.
func lateText(n int) []byte {
	var b bytes.Buffer
	b.WriteString("id,late,flag\n")
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "%d,%d.5,%d\n", i, i, i%2)
	}
	for i := 0; i < n/4; i++ {
		fmt.Fprintf(&b, "%d,t%d,NA\n", n+i, i%3)
	}
	return b.Bytes()
}

var csvSeeds = []string{
	"name,score,views\nalpha,1.5,10\nbeta,NA,20\ngamma,2.5,-\n",
	"mixed\nabc\ndef\n12\nghi\n",
	"a,b\n1\n",
	"",
	"a;b\n1;miss\n2;3\n",
	"v\n\"1,234\"\n\"2,500\"\n",
	"x,g\n1.5,a\n,b\n3,\n",
	"t,\"q,c\"\n\"x,y\",1\n\"p\"\"q\",2\n",
	"a, b ,c\n NA , n/a ,-\nNaN,NULL,null\n 1 ,2 , 3\n",
	"n\n1\n2\n3\n4\n5\n6\n7\n8\n9\n10\n11\n12\n13\n14\n15\n16\n17\n18\n19\nx\n",
	"n\n1\n2\n3\noops\n",
	"\xef\xbb\xbfa,b\n1,2\n",
	"\xef\xbb\xbf\"a\",b\n1,2\n",
	"a,b\r\n1,x\r\n2,y\r\n",
	"a,b,c\n1,2,3\n4,5\n",
	",\n,\n",
	"a,a\n1,2\n",
	"v\ninf\n-Inf\n1e999\n0x1p-2\n1_0\n+.5\n-0\nnan\n",
	"K\nK\nİ\nk\n",
	"a\n\n\n1\n\n",
	"h\n\"multi\nline\"\nx\n",
}

func TestReadCSVMatchesOracle(t *testing.T) {
	for _, src := range csvSeeds {
		checkReadCSV(t, []byte(src), ReadCSVOptions{})
		checkReadCSV(t, []byte(src), ReadCSVOptions{Comma: ';', MissingTokens: []string{"miss", "k", "nan"}, NumericThreshold: 0.5, MaxCategories: 2})
	}
	for _, n := range []int{keptSpellings / 2, keptSpellings, keptSpellings + 1, 4 * keptSpellings} {
		checkReadCSV(t, lateText(n), ReadCSVOptions{})
		checkReadCSV(t, lateText(n), ReadCSVOptions{MaxCategories: 3})
		checkReadCSV(t, lateText(n), ReadCSVOptions{MaxCategories: 2})
		checkReadCSV(t, lateText(n), ReadCSVOptions{NumericThreshold: 0.75})
	}
}

// TestReadCSVLateTextColumn pins what the second pass is for: a column
// whose text cells arrive after its texts were dropped is categorical,
// dictionary in order of first appearance, its number cells included.
func TestReadCSVLateTextColumn(t *testing.T) {
	const n = 4 * keptSpellings
	f, err := ReadCSV(bytes.NewReader(lateText(n)), "t", nil)
	if err != nil {
		t.Fatal(err)
	}
	late, err := f.Categorical("late")
	if err != nil {
		t.Fatalf("late should be categorical: %v", err)
	}
	if late.Cardinality() != n+3 || late.StringAt(0) != "0.5" || late.StringAt(n) != "t0" {
		t.Errorf("late: %d labels, first %q, first text %q", late.Cardinality(), late.StringAt(0), late.StringAt(n))
	}
	if _, err := f.Numeric("id"); err != nil {
		t.Errorf("id should be numeric: %v", err)
	}
	if flag, err := f.Numeric("flag"); err != nil || flag.Missing() != n/4 {
		t.Errorf("flag should be numeric with %d missing: %v", n/4, err)
	}
}

// TestReadCSVByteOrderMark: one leading UTF-8 BOM, as Excel writes, is
// not part of the first column's name, quoted or not.
func TestReadCSVByteOrderMark(t *testing.T) {
	for _, src := range []string{"\xef\xbb\xbfa,b\n1,2\n", "\xef\xbb\xbf\"a\",b\n1,2\n"} {
		f, err := ReadCSV(strings.NewReader(src), "t", nil)
		if err != nil {
			t.Fatalf("ReadCSV(%q): %v", src, err)
		}
		if names := f.Names(); len(names) != 2 || names[0] != "a" || names[1] != "b" {
			t.Errorf("ReadCSV(%q): names %q, want [a b]", src, names)
		}
	}
	// Only one, and only at the start.
	f, err := ReadCSV(strings.NewReader("\xef\xbb\xbf\xef\xbb\xbfa,b\n\xef\xbb\xbfx,2\n"), "t", nil)
	if err != nil {
		t.Fatal(err)
	}
	if names := f.Names(); names[0] != "\ufeffa" {
		t.Errorf("second BOM stripped: names %q", names)
	}
	if a, err := f.Categorical("\ufeffa"); err != nil || a.StringAt(0) != "\ufeffx" {
		t.Errorf("BOM inside the data changed: %v", err)
	}
}

// FuzzReadCSV runs arbitrary bytes and fuzzed options through ReadCSV
// and the reader it replaced.
func FuzzReadCSV(f *testing.F) {
	for _, src := range csvSeeds {
		f.Add([]byte(src), byte(','), "", uint8(0), uint8(0))
	}
	f.Add([]byte("a;b\n1;miss\n2;3\n"), byte(';'), "miss", uint8(128), uint8(0))
	f.Add([]byte("a,b\nx,1\ny,2\nz,k\n"), byte(','), "k|K", uint8(0), uint8(2))
	f.Add(lateText(keptSpellings+8), byte(','), "", uint8(0), uint8(0))
	f.Add(lateText(keptSpellings+8), byte(','), "na|t1", uint8(200), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, comma byte, tokens string, threshold, maxCats uint8) {
		opts := ReadCSVOptions{
			Comma:            rune(comma),
			NumericThreshold: float64(threshold) / 255,
			MaxCategories:    int(maxCats),
		}
		if comma == '"' || comma == '\r' || comma == '\n' {
			opts.Comma = 0 // encoding/csv refuses these; 0 is the default
		}
		if tokens != "" {
			opts.MissingTokens = strings.Split(tokens, "|")
		}
		checkReadCSV(t, data, opts)
	})
}
