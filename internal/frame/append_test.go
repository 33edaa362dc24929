package frame

import (
	"math"
	"strings"
	"testing"
)

func appendTestFrame(t *testing.T) *Frame {
	t.Helper()
	f := MustNew("t",
		NewNumericColumn("x", []float64{1, 2, 3}),
		NewCategoricalColumn("g", []string{"a", "b", "a"}),
	)
	if err := f.SetMeta("x", Metadata{Unit: "kg"}); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestAppendRowsBasics(t *testing.T) {
	f := appendTestFrame(t)
	f2, err := f.AppendRows(RowBatch{Records: [][]string{
		{"4.5", "c"},
		{"NA", ""},
		{"1,234", "b"},
	}}, nil)
	if err != nil {
		t.Fatalf("AppendRows: %v", err)
	}
	if f2.Rows() != 6 || f2.Cols() != 2 {
		t.Fatalf("shape %d×%d, want 6×2", f2.Rows(), f2.Cols())
	}
	x, err := f2.Numeric("x")
	if err != nil {
		t.Fatalf("x stayed numeric: %v", err)
	}
	if x.At(3) != 4.5 {
		t.Errorf("x[3] = %v, want 4.5", x.At(3))
	}
	if !math.IsNaN(x.At(4)) {
		t.Errorf("missing token should append NaN, got %v", x.At(4))
	}
	if x.At(5) != 1234 {
		t.Errorf("thousands separator should parse: got %v", x.At(5))
	}
	g, err := f2.Categorical("g")
	if err != nil {
		t.Fatalf("g stayed categorical: %v", err)
	}
	if g.StringAt(3) != "c" {
		t.Errorf("g[3] = %q, want c (dict extended)", g.StringAt(3))
	}
	if g.CodeAt(4) >= 0 {
		t.Error("empty cell should append missing")
	}
	if g.Cardinality() != 3 {
		t.Errorf("cardinality = %d, want 3", g.Cardinality())
	}
	if f2.Meta("x").Unit != "kg" {
		t.Error("metadata lost across append")
	}
	// Unparseable numeric cells degrade to missing, like ReadCSV's
	// minority non-numeric cells.
	f3, err := f.AppendRows(RowBatch{Records: [][]string{{"not-a-number", "a"}}}, nil)
	if err != nil {
		t.Fatalf("AppendRows: %v", err)
	}
	x3, _ := f3.Numeric("x")
	if !math.IsNaN(x3.At(3)) {
		t.Errorf("unparseable cell = %v, want NaN", x3.At(3))
	}
}

// TestAppendRowsDoesNotMutateOriginal is the immutability contract:
// the source frame's columns (including the shared categorical dict)
// must be untouched, since concurrent readers may hold the old frame.
func TestAppendRowsDoesNotMutateOriginal(t *testing.T) {
	f := appendTestFrame(t)
	g0, _ := f.Categorical("g")
	dictBefore := len(g0.Dict())
	_, err := f.AppendRows(RowBatch{Records: [][]string{{"9", "zzz"}}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if f.Rows() != 3 {
		t.Errorf("original rows = %d, want 3", f.Rows())
	}
	if len(g0.Dict()) != dictBefore {
		t.Errorf("original dict grew to %d entries", len(g0.Dict()))
	}
	x0, _ := f.Numeric("x")
	if len(x0.Values()) != 3 {
		t.Errorf("original numeric backing grew to %d", len(x0.Values()))
	}
}

func TestAppendRowsNamedColumns(t *testing.T) {
	f := appendTestFrame(t)
	// Reordered subset: absent frame columns fill with missing.
	f2, err := f.AppendRows(RowBatch{
		Columns: []string{"g"},
		Records: [][]string{{"b"}},
	}, nil)
	if err != nil {
		t.Fatalf("AppendRows: %v", err)
	}
	x, _ := f2.Numeric("x")
	if !math.IsNaN(x.At(3)) {
		t.Errorf("absent column should append missing, got %v", x.At(3))
	}
	g, _ := f2.Categorical("g")
	if g.StringAt(3) != "b" {
		t.Errorf("g[3] = %q, want b", g.StringAt(3))
	}
	// Reordered full set.
	f3, err := f.AppendRows(RowBatch{
		Columns: []string{"g", "x"},
		Records: [][]string{{"a", "7"}},
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	x3, _ := f3.Numeric("x")
	if x3.At(3) != 7 {
		t.Errorf("reordered columns mis-mapped: x[3] = %v", x3.At(3))
	}
}

func TestAppendRowsErrors(t *testing.T) {
	f := appendTestFrame(t)
	if _, err := f.AppendRows(RowBatch{
		Columns: []string{"nope"},
		Records: [][]string{{"1"}},
	}, nil); err == nil {
		t.Error("unknown column should fail")
	}
	if _, err := f.AppendRows(RowBatch{
		Columns: []string{"x", "x"},
		Records: [][]string{{"1", "2"}},
	}, nil); err == nil {
		t.Error("duplicate column should fail")
	}
	if _, err := f.AppendRows(RowBatch{
		Records: [][]string{{"1"}},
	}, nil); err == nil {
		t.Error("ragged record should fail")
	}
	// Empty batch is a no-op returning the same frame.
	same, err := f.AppendRows(RowBatch{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if same != f {
		t.Error("empty batch should return the receiver")
	}
}

// TestReadCSVMaxCategories covers the enforced cap: categorical
// columns whose distinct-value count exceeds MaxCategories are dropped
// from the frame, and an all-dropped frame is an error.
func TestReadCSVMaxCategories(t *testing.T) {
	var sb strings.Builder
	sb.WriteString("id,grp\n")
	for i := 0; i < 20; i++ {
		sb.WriteString("user")
		sb.WriteByte(byte('a' + i))
		if i%2 == 0 {
			sb.WriteString(",low\n")
		} else {
			sb.WriteString(",high\n")
		}
	}
	f, err := ReadCSV(strings.NewReader(sb.String()), "t", &ReadCSVOptions{MaxCategories: 10})
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if f.Cols() != 1 {
		t.Fatalf("cols = %d (%v), want just grp", f.Cols(), f.Names())
	}
	if _, err := f.Categorical("grp"); err != nil {
		t.Errorf("grp should survive the cap: %v", err)
	}
	// All columns over the cap: no usable frame.
	if _, err := ReadCSV(strings.NewReader(sb.String()), "t", &ReadCSVOptions{MaxCategories: 1}); err == nil {
		t.Error("dropping every column should fail")
	}
	// Zero cap = unlimited.
	f0, err := ReadCSV(strings.NewReader(sb.String()), "t", &ReadCSVOptions{MaxCategories: 0})
	if err != nil {
		t.Fatal(err)
	}
	if f0.Cols() != 2 {
		t.Errorf("cap 0 should keep both columns, got %v", f0.Names())
	}
}

// TestAppendRowsKeepsCodes: a batch that adds a level, one that would
// sort first included, leaves every old row's dictionary code and
// label where it was, batch after batch. Certificates of exact scores
// rely on it: they hold across an append only while old rows keep
// their groups.
func TestAppendRowsKeepsCodes(t *testing.T) {
	f := appendTestFrame(t)
	for _, batch := range [][][]string{{{"1", "0first"}, {"2", "b"}}, {{"3", ""}, {"4", "zz"}, {"5", "a"}}} {
		g0, _ := f.Categorical("g")
		codes, dict := append([]int32(nil), g0.Codes()...), append([]string(nil), g0.Dict()...)
		next, err := f.AppendRows(RowBatch{Records: batch}, nil)
		if err != nil {
			t.Fatal(err)
		}
		g, _ := next.Categorical("g")
		for r, code := range codes {
			if g.Codes()[r] != code || g.StringAt(r) != g0.StringAt(r) {
				t.Fatalf("row %d: code %d (%q), was %d (%q)", r, g.Codes()[r], g.StringAt(r), code, g0.StringAt(r))
			}
		}
		if got := g.Dict()[:len(dict)]; strings.Join(got, "\x00") != strings.Join(dict, "\x00") {
			t.Fatalf("dictionary prefix %q, was %q", got, dict)
		}
		f = next
	}
}

// TestZeroIsPositive: a "-0" cell is stored as +0, read or appended.
func TestZeroIsPositive(t *testing.T) {
	f, err := ReadCSV(strings.NewReader("x\n-0\n-0.0e3\n0\n"), "t", nil)
	if err != nil {
		t.Fatal(err)
	}
	f, err = f.AppendRows(RowBatch{Records: [][]string{{"-0"}, {"-0.000"}}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	x, _ := f.Numeric("x")
	for r, v := range x.Values() {
		if v != 0 || math.Signbit(v) {
			t.Errorf("row %d: %v, sign bit %v", r, v, math.Signbit(v))
		}
	}
}
