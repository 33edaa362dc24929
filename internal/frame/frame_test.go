package frame

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNumericColumnBasics(t *testing.T) {
	c := NewNumericColumn("x", []float64{1, 2, math.NaN(), 4})
	if c.Name() != "x" {
		t.Errorf("Name = %q, want x", c.Name())
	}
	if c.Kind() != Numeric {
		t.Errorf("Kind = %v, want Numeric", c.Kind())
	}
	if c.Len() != 4 {
		t.Errorf("Len = %d, want 4", c.Len())
	}
	if c.Missing() != 1 {
		t.Errorf("Missing = %d, want 1", c.Missing())
	}
	if !c.IsMissing(2) || c.IsMissing(0) {
		t.Errorf("IsMissing wrong: got (%v,%v)", c.IsMissing(2), c.IsMissing(0))
	}
	if got := c.Present(); len(got) != 3 || got[0] != 1 || got[2] != 4 {
		t.Errorf("Present = %v, want [1 2 4]", got)
	}
	if s := c.StringAt(2); s != "" {
		t.Errorf("StringAt(missing) = %q, want empty", s)
	}
	if s := c.StringAt(3); s != "4" {
		t.Errorf("StringAt(3) = %q, want 4", s)
	}
}

func TestNumericPresentNoMissingSharesSlice(t *testing.T) {
	vals := []float64{1, 2, 3}
	c := NewNumericColumn("x", vals)
	got := c.Present()
	if &got[0] != &vals[0] {
		t.Error("Present should return backing slice when nothing is missing")
	}
}

func TestCategoricalColumnBasics(t *testing.T) {
	c := NewCategoricalColumn("g", []string{"a", "b", "a", "", "c", "b", "a"})
	if c.Kind() != Categorical {
		t.Errorf("Kind = %v, want Categorical", c.Kind())
	}
	if c.Cardinality() != 3 {
		t.Errorf("Cardinality = %d, want 3", c.Cardinality())
	}
	if c.Missing() != 1 {
		t.Errorf("Missing = %d, want 1", c.Missing())
	}
	if c.CodeAt(3) >= 0 {
		t.Error("row 3 should be missing")
	}
	counts := c.Counts()
	if counts[0] != 3 || counts[1] != 2 || counts[2] != 1 {
		t.Errorf("Counts = %v, want [3 2 1]", counts)
	}
	if got := c.StringAt(4); got != "c" {
		t.Errorf("StringAt(4) = %q, want c", got)
	}
	if got := c.StringAt(3); got != "" {
		t.Errorf("StringAt(missing) = %q, want empty", got)
	}
}

func TestNewCategoricalFromCodes(t *testing.T) {
	c, err := NewCategoricalFromCodes("g", []int32{0, 1, -1, 0}, []string{"x", "y"})
	if err != nil {
		t.Fatalf("unexpected error: %v", err)
	}
	if c.Missing() != 1 || c.Cardinality() != 2 {
		t.Errorf("missing=%d card=%d, want 1,2", c.Missing(), c.Cardinality())
	}
	if _, err := NewCategoricalFromCodes("g", []int32{5}, []string{"x"}); err == nil {
		t.Error("expected out-of-range code error")
	}
}

func TestFrameConstruction(t *testing.T) {
	a := NewNumericColumn("a", []float64{1, 2, 3})
	b := NewCategoricalColumn("b", []string{"x", "y", "x"})
	f, err := New("t", a, b)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if f.Rows() != 3 || f.Cols() != 2 {
		t.Errorf("shape = %d×%d, want 3×2", f.Rows(), f.Cols())
	}
	if got, _ := f.Lookup("a"); got != Column(a) {
		t.Error("Lookup(a) returned wrong column")
	}
	if f.ColumnIndex("b") != 1 || f.ColumnIndex("zzz") != -1 {
		t.Error("ColumnIndex wrong")
	}
	if len(f.NumericColumns()) != 1 || len(f.CategoricalColumns()) != 1 {
		t.Error("kind partition wrong")
	}
	if _, err := f.Numeric("b"); err == nil {
		t.Error("Numeric(categorical) should fail")
	}
	if _, err := f.Categorical("a"); err == nil {
		t.Error("Categorical(numeric) should fail")
	}
	if !strings.Contains(f.Summary(), "3 rows") {
		t.Errorf("Summary = %q", f.Summary())
	}
}

func TestFrameErrors(t *testing.T) {
	if _, err := New("t"); err != ErrEmptyFrame {
		t.Errorf("empty frame error = %v, want ErrEmptyFrame", err)
	}
	a := NewNumericColumn("a", []float64{1, 2})
	short := NewNumericColumn("b", []float64{1})
	if _, err := New("t", a, short); err == nil {
		t.Error("ragged frame should fail")
	}
	dup := NewNumericColumn("a", []float64{5, 6})
	if _, err := New("t", a, dup); err == nil {
		t.Error("duplicate column names should fail")
	}
}

func TestFrameMetadata(t *testing.T) {
	f := MustNew("t", NewNumericColumn("price", []float64{1}))
	if err := f.SetMeta("price", Metadata{Semantic: SemanticCurrency, Unit: "USD"}); err != nil {
		t.Fatalf("SetMeta: %v", err)
	}
	if f.Meta("price").Semantic != SemanticCurrency {
		t.Error("metadata not stored")
	}
	if err := f.SetMeta("nope", Metadata{}); err == nil {
		t.Error("SetMeta on missing column should fail")
	}
	if f.Meta("unset").Unit != "" {
		t.Error("unset metadata should be zero")
	}
}

func TestReadCSVInference(t *testing.T) {
	src := "name,score,views\nalpha,1.5,10\nbeta,NA,20\ngamma,2.5,-\n"
	f, err := ReadCSV(strings.NewReader(src), "test", nil)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if f.Rows() != 3 || f.Cols() != 3 {
		t.Fatalf("shape %d×%d, want 3×3", f.Rows(), f.Cols())
	}
	if _, err := f.Categorical("name"); err != nil {
		t.Errorf("name should be categorical: %v", err)
	}
	score, err := f.Numeric("score")
	if err != nil {
		t.Fatalf("score should be numeric: %v", err)
	}
	if score.Missing() != 1 {
		t.Errorf("score missing = %d, want 1 (NA token)", score.Missing())
	}
	views, err := f.Numeric("views")
	if err != nil {
		t.Fatalf("views should be numeric: %v", err)
	}
	if views.Missing() != 1 {
		t.Errorf("views missing = %d, want 1 ('-' token)", views.Missing())
	}
}

func TestReadCSVMostlyTextColumn(t *testing.T) {
	src := "mixed\nabc\ndef\n12\nghi\n"
	f, err := ReadCSV(strings.NewReader(src), "t", nil)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if _, err := f.Categorical("mixed"); err != nil {
		t.Errorf("mixed column should infer categorical: %v", err)
	}
}

func TestReadCSVErrors(t *testing.T) {
	if _, err := ReadCSV(strings.NewReader(""), "t", nil); err == nil {
		t.Error("empty input should fail")
	}
	// Ragged record.
	if _, err := ReadCSV(strings.NewReader("a,b\n1\n"), "t", nil); err == nil {
		t.Error("ragged record should fail")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	orig := MustNew("t",
		NewNumericColumn("x", []float64{1.5, math.NaN(), 3}),
		NewCategoricalColumn("g", []string{"a", "b", ""}),
	)
	var buf bytes.Buffer
	if err := orig.WriteCSV(&buf); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	back, err := ReadCSV(&buf, "t", nil)
	if err != nil {
		t.Fatalf("ReadCSV: %v", err)
	}
	if back.Rows() != orig.Rows() || back.Cols() != orig.Cols() {
		t.Fatalf("round trip shape mismatch")
	}
	x, err := back.Numeric("x")
	if err != nil {
		t.Fatalf("x not numeric after round trip: %v", err)
	}
	if x.At(0) != 1.5 || !math.IsNaN(x.At(1)) || x.At(2) != 3 {
		t.Errorf("x values corrupted: %v", x.Values())
	}
	g, err := back.Categorical("g")
	if err != nil {
		t.Fatalf("g not categorical after round trip: %v", err)
	}
	if g.StringAt(0) != "a" || g.CodeAt(2) >= 0 {
		t.Error("g values corrupted")
	}
}

// Property: CSV round trip preserves numeric values (within formatting
// fidelity of %g, which is exact for float64).
func TestQuickCSVNumericRoundTrip(t *testing.T) {
	prop := func(vals []float64) bool {
		if len(vals) == 0 {
			return true
		}
		for i, v := range vals {
			if math.IsInf(v, 0) {
				vals[i] = 0 // Inf is not representable as a CSV numeric cell
			}
		}
		orig := MustNew("t", NewNumericColumn("x", vals))
		var buf bytes.Buffer
		if err := orig.WriteCSV(&buf); err != nil {
			return false
		}
		back, err := ReadCSV(&buf, "t", nil)
		if err != nil {
			return false
		}
		x, err := back.Numeric("x")
		if err != nil {
			return false
		}
		for i, v := range vals {
			got := x.At(i)
			if math.IsNaN(v) != math.IsNaN(got) {
				return false
			}
			if !math.IsNaN(v) && got != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: categorical dictionary codes always point into the dict and
// counts sum to Len-Missing.
func TestQuickCategoricalInvariants(t *testing.T) {
	alphabet := []string{"", "a", "b", "c", "dd", "ee"}
	prop := func(picks []uint8) bool {
		vals := make([]string, len(picks))
		for i, p := range picks {
			vals[i] = alphabet[int(p)%len(alphabet)]
		}
		c := NewCategoricalColumn("g", vals)
		total := 0
		for _, n := range c.Counts() {
			total += n
		}
		if total != c.Len()-c.Missing() {
			return false
		}
		for i, code := range c.Codes() {
			if code >= 0 {
				if int(code) >= len(c.Dict()) {
					return false
				}
				if c.Dict()[code] != vals[i] {
					return false
				}
			} else if vals[i] != "" {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFilterRows(t *testing.T) {
	f := MustNew("t",
		NewNumericColumn("v", []float64{1, 2, 3, 4, math.NaN()}),
		NewCategoricalColumn("g", []string{"a", "b", "a", "b", "a"}),
	)
	_ = f.SetMeta("v", Metadata{Unit: "kg"})
	sub, err := f.FilterRows([]bool{false, true, true, true, false})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Rows() != 3 {
		t.Fatalf("filtered rows = %d, want 3 (NaN excluded)", sub.Rows())
	}
	v, _ := sub.Numeric("v")
	if v.At(0) != 2 || v.At(2) != 4 {
		t.Errorf("filtered values = %v", v.Values())
	}
	g, _ := sub.Categorical("g")
	if g.StringAt(0) != "b" || g.StringAt(1) != "a" {
		t.Errorf("filtered categories wrong")
	}
	if sub.Meta("v").Unit != "kg" {
		t.Error("metadata lost in filter")
	}
	if _, err := f.FilterRows([]bool{true}); err == nil {
		t.Error("wrong mask length should fail")
	}
}

func TestFilterRowsAllOut(t *testing.T) {
	f := MustNew("t", NewNumericColumn("v", []float64{1, 2}))
	sub, err := f.FilterRows([]bool{false, false})
	if err != nil {
		t.Fatal(err)
	}
	if sub.Rows() != 0 {
		t.Errorf("empty filter rows = %d", sub.Rows())
	}
}

// TestReadCSVArbitraryBytes feeds pseudo-random byte soup to the CSV
// reader: it must never panic — errors are fine, crashes are not.
func TestReadCSVArbitraryBytes(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	alphabet := []byte("ab,\"\n\r\x00é1.5-")
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(200)
		buf := make([]byte, n)
		for i := range buf {
			buf[i] = alphabet[rng.Intn(len(alphabet))]
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("ReadCSV panicked on %q: %v", buf, r)
				}
			}()
			_, _ = ReadCSV(bytes.NewReader(buf), "fuzz", nil)
		}()
	}
}

func TestReadCSVOptionsCustom(t *testing.T) {
	src := "a;b\n1;miss\n2;3\n"
	f, err := ReadCSV(strings.NewReader(src), "t", &ReadCSVOptions{
		Comma:            ';',
		MissingTokens:    []string{"miss"},
		NumericThreshold: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := f.Numeric("b")
	if err != nil {
		t.Fatalf("b should be numeric at 0.5 threshold: %v", err)
	}
	if b.Missing() != 1 {
		t.Errorf("custom missing token not honored: %d", b.Missing())
	}
}

func TestReadCSVThousandsSeparators(t *testing.T) {
	src := "v\n\"1,234\"\n\"2,500\"\n"
	f, err := ReadCSV(strings.NewReader(src), "t", nil)
	if err != nil {
		t.Fatal(err)
	}
	v, err := f.Numeric("v")
	if err != nil {
		t.Fatalf("comma-grouped numbers should parse: %v", err)
	}
	if v.At(0) != 1234 || v.At(1) != 2500 {
		t.Errorf("values = %v", v.Values())
	}
}

// Present returns the non-missing values in order. It allocates a new
// slice only when the column contains missing values.
func (c *NumericColumn) Present() []float64 {
	if c.missing == 0 {
		return c.Values()
	}
	out := make([]float64, 0, c.Len()-c.missing)
	for _, v := range c.Values() {
		if !math.IsNaN(v) {
			out = append(out, v)
		}
	}
	return out
}
