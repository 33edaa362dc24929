package telemetry

import (
	"fmt"
	"testing"

	"foresight/internal/obs"
)

// steadySample mimics the warm carousel path: 12 classes, top-5
// emitted each, stable attribute tuples across requests.
func steadySample() QuerySample {
	var classes []ClassSample
	for c := 0; c < 12; c++ {
		scores := make([]float64, 5)
		attrs := make([][]string, 5)
		for i := range scores {
			scores[i] = 0.1 * float64(i+c)
			attrs[i] = []string{fmt.Sprintf("col%d", c), fmt.Sprintf("col%d", i+10)}
		}
		classes = append(classes, ClassSample{
			Class: fmt.Sprintf("class%d", c), Scores: scores, Attrs: attrs,
			Candidates: 56, Pruned: 1, Emitted: 5, Margin: 0.1,
		})
	}
	return QuerySample{Op: "carousels", Classes: classes, DurationMS: 0.5}
}

func BenchmarkRecordSteady(b *testing.B) {
	t := New()
	s := steadySample()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Record(s)
	}
}

func BenchmarkRecordSteadyInstrumented(b *testing.B) {
	t := New()
	t.Instrument(obs.NewRegistry())
	s := steadySample()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Record(s)
	}
}
