package query

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

// plainOverview has Overview's fields and tags but not its MarshalJSON,
// so encoding/json encodes it with the standard float64 encoder.
type plainOverview Overview

// TestOverviewJSONMatchesEncodingJSON: with every cell finite, the
// overview's encoding is byte for byte what encoding/json writes for
// its fields, labels with HTML and invalid UTF-8 included.
func TestOverviewJSONMatchesEncodingJSON(t *testing.T) {
	edges := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.1, 1.0 / 3, 2.5e-7, 1e-6, 9.999999e-7, 1e-7, -1e-7,
		1e20, 1e21, -1e21, 123456789.125, 1e-10, 1.5e300, 5e-324, math.MaxFloat64,
		-math.SmallestNonzeroFloat64, 1e-100, 4.9e-305,
	}
	rng := rand.New(rand.NewSource(3))
	random := make([]float64, 2000)
	for i := range random {
		random[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(80)-40))
	}
	cases := []Overview{
		{Class: "linear", Metric: "pearson", RowAttrs: []string{"a", "b"}, ColAttrs: []string{"a", "b"},
			Values: [][]float64{{1, -0.25}, {-0.25, 1}}, Symmetric: true},
		{Class: "skew", Metric: "skewness", RowAttrs: []string{"skewness"}, ColAttrs: []string{"<x&y>", "\xff\u2028é"},
			Values: [][]float64{edges[:2]}},
		{Class: "skew", Metric: "skewness", RowAttrs: []string{"skewness"}, Values: [][]float64{nil}},
		{Class: "dependence", Metric: "eta2"},
		{Class: "edges", Metric: "m", RowAttrs: []string{"r"}, ColAttrs: make([]string, len(edges)), Values: [][]float64{edges}},
		{Class: "random", Metric: "m", Values: [][]float64{random[:1000], random[1000:], {}}},
	}
	for _, ov := range cases {
		got, err := ov.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		want, err := json.Marshal(plainOverview(ov))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s:\n got %s\nwant %s", ov.Class, got, want)
		}
	}
}

// TestOverviewJSONNullsUndefinedCells: a NaN or infinite cell encodes
// as null and every other cell as its value.
func TestOverviewJSONNullsUndefinedCells(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	ov := Overview{Class: "linear", Metric: "pearson", RowAttrs: []string{"x", "y", "k"}, ColAttrs: []string{"x", "y", "k"},
		Values: [][]float64{{1, 0.5, nan}, {0.5, 1, math.Inf(-1)}, {nan, inf, 1}}, Symmetric: true}
	body, err := json.Marshal(ov)
	if err != nil {
		t.Fatal(err)
	}
	var back struct {
		Values [][]*float64 `json:"values"`
	}
	if err := json.Unmarshal(body, &back); err != nil {
		t.Fatalf("%s: %v", body, err)
	}
	for i, row := range ov.Values {
		for j, v := range row {
			finite := !math.IsNaN(v) && !math.IsInf(v, 0)
			if got := back.Values[i][j]; finite != (got != nil) || finite && *got != v {
				t.Errorf("cell (%d, %d) = %v encodes as %s", i, j, v, body)
			}
		}
	}
}
