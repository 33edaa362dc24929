package core

import (
	"strings"
	"testing"
)

// outranksByKey is the body outranks had before it stopped building
// keys, kept as the oracle: descending score, ties by the Key()
// strings.
func outranksByKey(a, b Insight) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Key() < b.Key()
}

func checkOutranks(t *testing.T, a, b Insight) {
	t.Helper()
	if got, want := outranks(a, b), outranksByKey(a, b); got != want {
		t.Errorf("outranks(%q, %q) = %v, want %v", a.Key(), b.Key(), got, want)
	}
	if got, want := outranks(b, a), outranksByKey(b, a); got != want {
		t.Errorf("outranks(%q, %q) = %v, want %v", b.Key(), a.Key(), got, want)
	}
}

// TestOutranksMatchesKey pairs up insights whose names hold bytes
// around the separators (' ' + , - sort below or beside '/' and ','),
// where comparing field by field and comparing keys disagree.
func TestOutranksMatchesKey(t *testing.T) {
	names := []string{"", "a", "a b", "a+b", "a,b", "a/b", "a-b", "a,", "a/", "b"}
	var all []Insight
	for _, class := range []string{"", "c", "c/m"} {
		for _, metric := range []string{"m", "m/"} {
			all = append(all, Insight{Class: class, Metric: metric})
			for _, x := range names {
				all = append(all, Insight{Class: class, Metric: metric, Attrs: []string{x}})
				for _, y := range names {
					all = append(all, Insight{Class: class, Metric: metric, Attrs: []string{x, y}})
				}
			}
		}
	}
	all = append(all,
		Insight{Class: "c", Metric: "m", Attrs: []string{"a", "b", "c"}},
		Insight{Class: "c", Metric: "m", Attrs: []string{"a,b", "c"}},
		Insight{Class: "c", Metric: "m", Attrs: []string{"a", "b,c"}},
		Insight{Class: "c", Metric: "m", Attrs: []string{"a", "", ""}},
	)
	for _, a := range all {
		for _, b := range all {
			checkOutranks(t, a, b)
		}
	}
	// The score decides before any key is looked at.
	checkOutranks(t, Insight{Class: "z", Score: 2}, Insight{Class: "a", Score: 1})
}

func FuzzOutranksMatchesKey(f *testing.F) {
	f.Add("linear", "pearson", "a b|c+d", "linear", "pearson", "a b,c|d", 0.5, 0.5)
	f.Add("c/m", "", "x", "c", "m/", "x", 1.0, 1.0)
	f.Add("", "", "", "", "", "|", 0.0, 0.0)
	f.Fuzz(func(t *testing.T, ca, ma, xa, cb, mb, xb string, sa, sb float64) {
		attrs := func(s string) []string {
			if s == "" {
				return nil
			}
			return strings.Split(s, "|")
		}
		checkOutranks(t,
			Insight{Class: ca, Metric: ma, Attrs: attrs(xa), Score: sa},
			Insight{Class: cb, Metric: mb, Attrs: attrs(xb), Score: sb})
	})
}

func TestOutranksDoesNotAllocate(t *testing.T) {
	a := Insight{Class: "linear", Metric: "pearson", Attrs: []string{"col_001", "col_002"}, Score: 0.5}
	b := Insight{Class: "linear", Metric: "pearson", Attrs: []string{"col_001", "col_003"}, Score: 0.5}
	if n := testing.AllocsPerRun(100, func() { outranks(a, b) }); n != 0 {
		t.Errorf("outranks allocates %v times per call", n)
	}
}
