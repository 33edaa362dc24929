package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	// Idempotent re-registration returns the same collector.
	if r.Counter("test_total", "a counter") != c {
		t.Error("re-registration returned a new counter")
	}
	g := r.Gauge("test_gauge", "a gauge")
	g.Set(10)
	g.Add(-3)
	if g.Value() != 7 {
		t.Errorf("gauge = %d, want 7", g.Value())
	}
}

func TestRegisterKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("metric_x", "")
	defer func() {
		if recover() == nil {
			t.Error("kind mismatch did not panic")
		}
	}()
	r.Gauge("metric_x", "")
}

func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("concurrent_total", "")
	h := r.Histogram("concurrent_seconds", "", []float64{0.01, 0.1, 1})
	v := r.CounterVec("concurrent_vec_total", "", "route")
	const workers, per = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				c.Inc()
				h.Observe(0.05)
				v.With("r" + string(rune('0'+w%2))).Inc()
			}
		}(w)
	}
	wg.Wait()
	if c.Value() != workers*per {
		t.Errorf("counter = %d, want %d", c.Value(), workers*per)
	}
	if h.count.Load() != workers*per {
		t.Errorf("histogram count = %d, want %d", h.count.Load(), workers*per)
	}
	if got := h.Sum(); math.Abs(got-0.05*workers*per) > 1e-6 {
		t.Errorf("histogram sum = %v", got)
	}
	if v.Total() != workers*per {
		t.Errorf("vec total = %d, want %d", v.Total(), workers*per)
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "", []float64{0.1, 0.2, 0.4, 0.8})
	// An observation lands in the first bucket whose bound it does not
	// exceed; beyond the last bound it lands in +Inf. The rendered
	// buckets are cumulative, which is what a scraper's quantile
	// estimate reads.
	for v, n := range map[float64]int{0.05: 10, 0.1: 5, 0.15: 15, 0.3: 30, 0.6: 15, 5: 5} {
		for i := 0; i < n; i++ {
			h.Observe(v)
		}
	}
	var b strings.Builder
	r.WritePrometheus(&b)
	for _, want := range []string{
		`lat_seconds_bucket{le="0.1"} 15`,
		`lat_seconds_bucket{le="0.2"} 30`,
		`lat_seconds_bucket{le="0.4"} 60`,
		`lat_seconds_bucket{le="0.8"} 75`,
		`lat_seconds_bucket{le="+Inf"} 80`,
		`lat_seconds_count 80`,
	} {
		if !strings.Contains(b.String(), want+"\n") {
			t.Errorf("missing %q in:\n%s", want, b.String())
		}
	}
	if h.count.Load() != 80 || math.Abs(h.Sum()-(0.5+0.5+2.25+9+9+25)) > 1e-9 {
		t.Errorf("count %d, sum %v", h.count.Load(), h.Sum())
	}
}

func TestPrometheusEncoding(t *testing.T) {
	r := NewRegistry()
	r.Counter("app_events_total", "Events.").Add(3)
	r.Gauge("app_depth", "Depth.").Set(2)
	r.GaugeFunc("app_dynamic", "Dynamic.", func() float64 { return 1.5 })
	r.CounterFunc("app_external_total", "External.", func() uint64 { return 9 })
	v := r.CounterVec("app_requests_total", "Requests.", "route", "code")
	v.With("/api/query", "200").Add(7)
	v.With(`/weird"route\x`+"\n", "500").Inc()
	h := r.Histogram("app_seconds", "Latency.", []float64{0.5, 1})
	h.Observe(0.25)
	h.Observe(0.75)
	h.Observe(2)

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# HELP app_events_total Events.",
		"# TYPE app_events_total counter",
		"app_events_total 3",
		"app_depth 2",
		"app_dynamic 1.5",
		"app_external_total 9",
		`app_requests_total{route="/api/query",code="200"} 7`,
		`app_requests_total{route="/weird\"route\\x\n",code="500"} 1`,
		"# TYPE app_seconds histogram",
		`app_seconds_bucket{le="0.5"} 1`,
		`app_seconds_bucket{le="1"} 2`,
		`app_seconds_bucket{le="+Inf"} 3`,
		"app_seconds_sum 3",
		"app_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
	// Output is sorted by metric name.
	if strings.Index(out, "app_depth") > strings.Index(out, "app_events_total") {
		t.Error("metrics not sorted by name")
	}
}

func TestHistogramVecEncoding(t *testing.T) {
	r := NewRegistry()
	v := r.HistogramVec("route_seconds", "Per-route.", []float64{1}, "route")
	v.With("/a").Observe(0.5)
	v.With("/b").Observe(2)
	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		`route_seconds_bucket{route="/a",le="1"} 1`,
		`route_seconds_bucket{route="/a",le="+Inf"} 1`,
		`route_seconds_bucket{route="/b",le="1"} 0`,
		`route_seconds_bucket{route="/b",le="+Inf"} 1`,
		`route_seconds_sum{route="/a"} 0.5`,
		`route_seconds_count{route="/b"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}
}

func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench_total", "")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			c.Inc()
		}
	})
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewRegistry().Histogram("bench_seconds", "", nil)
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(0.003)
		}
	})
}

func BenchmarkCounterVecWith(b *testing.B) {
	v := NewRegistry().CounterVec("bench_vec_total", "", "route", "code")
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			v.With("/api/query", "200").Inc()
		}
	})
}
