package main

import (
	"slices"
	"strings"
	"testing"

	"foresight/internal/bench"
)

func TestParseExperiments(t *testing.T) {
	for _, tc := range []struct {
		spec string
		want []string
	}{
		{"all", []string{"e1", "e2", "e3", "e7", "e8", "ablations"}},
		{"e8,E1", []string{"e1", "e8"}},
		{" e3 , e3", []string{"e3"}},
		{"ablations,all", []string{"e1", "e2", "e3", "e7", "e8", "ablations"}},
	} {
		run, err := parseExperiments(tc.spec, bench.Experiments(false))
		if err != nil {
			t.Fatalf("%q: %v", tc.spec, err)
		}
		var got []string
		for _, e := range run {
			got = append(got, e.Name)
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%q runs %v, want %v", tc.spec, got, tc.want)
		}
	}
	for _, spec := range []string{"e9,bogus", "e4", "e1,", ""} {
		_, err := parseExperiments(spec, bench.Experiments(false))
		if err == nil || !strings.Contains(err.Error(), "valid: all, e1, e2, e3, e7, e8, ablations") {
			t.Errorf("%q: err = %v, want an unknown-experiment error listing the valid names", spec, err)
		}
	}
}
