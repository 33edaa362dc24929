package query

import (
	"context"
	"testing"

	"foresight/internal/core"
	"foresight/internal/datagen"
	"foresight/internal/obs/telemetry"
)

func benchEngine(b *testing.B) *Engine {
	f := datagen.Scalable(datagen.ScalableConfig{Rows: 20000, NumericCols: 32, CatCols: 3, Seed: 42})
	e, err := NewEngine(f, core.NewRegistry(), nil)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := e.CarouselsContext(context.Background(), 5, false); err != nil {
		b.Fatal(err)
	}
	return e
}

func BenchmarkCachedCarouselNoTelemetry(b *testing.B) {
	e := benchEngine(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.CarouselsContext(context.Background(), 5, false); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCachedCarouselTelemetry(b *testing.B) {
	e := benchEngine(b)
	e.SetInsightTelemetry(telemetry.New(telemetry.Config{}))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.CarouselsContext(context.Background(), 5, false); err != nil {
			b.Fatal(err)
		}
	}
}
