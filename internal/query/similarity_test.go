package query

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"

	"foresight/internal/core"
)

// randInsight builds a pseudo-random insight from a seed byte slice.
func randInsight(rng *rand.Rand) core.Insight {
	classes := []string{"linear", "skew", "dispersion"}
	metrics := []string{"pearson", "skewness", "variance"}
	attrs := []string{"a", "b", "c", "d", "e"}
	k := 1 + rng.Intn(2)
	chosen := make([]string, 0, k)
	for len(chosen) < k {
		cand := attrs[rng.Intn(len(attrs))]
		dup := false
		for _, c := range chosen {
			if c == cand {
				dup = true
			}
		}
		if !dup {
			chosen = append(chosen, cand)
		}
	}
	ci := rng.Intn(len(classes))
	return core.Insight{
		Class:  classes[ci],
		Metric: metrics[ci],
		Attrs:  chosen,
		Score:  rng.Float64(),
	}
}

// Property: Similarity is symmetric, bounded in [0,1], and maximal on
// identical insights.
func TestQuickSimilarityProperties(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		a := randInsight(rng)
		b := randInsight(rng)
		sab := Similarity(a, b)
		sba := Similarity(b, a)
		if sab != sba {
			return false
		}
		if sab < 0 || sab > 1 {
			return false
		}
		return Similarity(a, a) == 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: adding a shared attribute never decreases similarity for
// same-class insights with equal scores.
func TestSimilaritySharedAttributeMonotone(t *testing.T) {
	base := core.Insight{Class: "linear", Metric: "pearson", Attrs: []string{"x", "y"}, Score: 0.5}
	disjoint := core.Insight{Class: "linear", Metric: "pearson", Attrs: []string{"p", "q"}, Score: 0.5}
	oneShared := core.Insight{Class: "linear", Metric: "pearson", Attrs: []string{"x", "q"}, Score: 0.5}
	twoShared := core.Insight{Class: "linear", Metric: "pearson", Attrs: []string{"x", "y"}, Score: 0.5}
	s0 := Similarity(base, disjoint)
	s1 := Similarity(base, oneShared)
	s2 := Similarity(base, twoShared)
	if !(s0 < s1 && s1 < s2) {
		t.Errorf("similarity not monotone in shared attrs: %v %v %v", s0, s1, s2)
	}
}

// Property: zero-score pairs behave sensibly (no division blowups).
func TestSimilarityZeroScores(t *testing.T) {
	a := core.Insight{Class: "c", Metric: "m", Attrs: []string{"x"}, Score: 0}
	b := core.Insight{Class: "c", Metric: "m", Attrs: []string{"x"}, Score: 0}
	if s := Similarity(a, b); s != 1 {
		t.Errorf("zero-score identical = %v, want 1", s)
	}
	c := core.Insight{Class: "c", Metric: "m", Attrs: []string{"y"}, Score: 0}
	if s := Similarity(a, c); s < 0 || s > 1 {
		t.Errorf("zero-score disjoint = %v", s)
	}
}

// Recommendations with every insight filtered out stays well-formed.
func TestSessionEmptyFrameClasses(t *testing.T) {
	e := newTestEngine(t, 60, 24)
	s := NewSession(e, 3, false)
	s.Blend = 2 // out of range: coerced internally
	recs, err := s.RecommendationsKContext(context.Background(), s.K)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if len(r.Insights) > 3 {
			t.Errorf("carousel %s over K", r.Class)
		}
	}
}
