package telemetry

import (
	"fmt"
	"testing"

	"foresight/internal/core"
	"foresight/internal/obs"
)

// steadySample mimics the warm carousel path: 12 classes, top-5
// emitted each, stable attribute tuples across requests.
func steadySample() QuerySample {
	var classes []ClassSample
	for c := 0; c < 12; c++ {
		class := fmt.Sprintf("class%d", c)
		ins := make([]core.Insight, 5)
		for i := range ins {
			ins[i] = core.Insight{
				Class: class,
				Attrs: []string{fmt.Sprintf("col%d", c), fmt.Sprintf("col%d", i+10)},
				Score: 0.1 * float64(i+c),
			}
		}
		classes = append(classes, ClassSample{
			Class: class, Insights: ins,
			Candidates: 56, Pruned: 1, Margin: 0.1,
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
