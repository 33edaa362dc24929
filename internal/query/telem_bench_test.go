package query

import (
	"context"
	"testing"

	"foresight/internal/core"
	"foresight/internal/datagen"
	"foresight/internal/obs/telemetry"
)

// benchEngine is a warm engine over 20000 rows of 35 columns, every
// class's view built by a first 12-class carousel.
func benchEngine(b testing.TB) *Engine {
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
	e.SetInsightTelemetry(telemetry.New())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.CarouselsContext(context.Background(), 5, false); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRecordingAllocatesPerRequest: recording a cached 12-class
// carousel costs the request its sample slice and nothing per class —
// at most 2 allocations more than the same carousel with no store, once
// the store's per-class windows have filled.
func TestRecordingAllocatesPerRequest(t *testing.T) {
	e := benchEngine(t)
	carousel := func() {
		if _, err := e.CarouselsContext(context.Background(), 5, false); err != nil {
			t.Fatal(err)
		}
	}
	without := testing.AllocsPerRun(50, carousel)
	e.SetInsightTelemetry(telemetry.New())
	for range 200 {
		carousel()
	}
	with := testing.AllocsPerRun(50, carousel)
	t.Logf("%v allocations a carousel without telemetry, %v with", without, with)
	if with > without+2 {
		t.Errorf("recording a carousel costs %v allocations, want at most 2", with-without)
	}
}
