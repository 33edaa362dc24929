package frame

import (
	"math"
	"testing"
)

func viewTestFrame(t *testing.T) *Frame {
	t.Helper()
	return MustNew("v",
		NewNumericColumn("a", []float64{0, 1, 2, math.NaN(), 4, 5}),
		NewCategoricalColumn("c", []string{"x", "y", "", "x", "z", "y"}),
	)
}

// TestRowViewZeroCopy checks that a row window [1,4) read through the
// column range accessors aliases each column's backing array.
func TestRowViewZeroCopy(t *testing.T) {
	f := viewTestFrame(t)
	nc := f.NumericColumns()[0]
	vals := nc.ValuesRange(1, 4)
	if len(vals) != 3 || vals[0] != 1 || vals[1] != 2 || !math.IsNaN(vals[2]) {
		t.Fatalf("numeric window = %v", vals)
	}
	// Zero-copy: the window must alias the column's backing array.
	if &vals[0] != &nc.Values()[1] {
		t.Error("ValuesRange copied the backing array")
	}
	cc := f.CategoricalColumns()[0]
	codes := cc.CodesRange(1, 4)
	if len(codes) != 3 || codes[1] != -1 {
		t.Fatalf("code window = %v", codes)
	}
	if &codes[0] != &cc.Codes()[1] {
		t.Error("CodesRange copied the backing array")
	}
}

func TestColumnRangeAccessors(t *testing.T) {
	f := viewTestFrame(t)
	nc := f.NumericColumns()[0]
	if got := nc.ValuesRange(4, 6); len(got) != 2 || got[0] != 4 || got[1] != 5 {
		t.Errorf("ValuesRange = %v", got)
	}
	cc := f.CategoricalColumns()[0]
	if got := cc.CodesRange(0, 2); len(got) != 2 || got[0] == got[1] {
		t.Errorf("CodesRange = %v", got)
	}
	if got := nc.ValuesRange(2, 2); len(got) != 0 {
		t.Errorf("empty window = %v", got)
	}
}
