// Package obs is the service's observability layer: a dependency-free
// metrics registry (atomic counters, gauges and fixed-bucket latency
// histograms rendered in Prometheus text format), lightweight request
// tracing with named spans and a ring buffer of recent traces, and a
// structured JSON request logger. The serving path (engine, sketch
// store, HTTP handlers) records into it; /metrics and
// /api/debug/traces expose it.
//
// Everything here is safe for concurrent use and designed to be cheap
// enough to leave on in production: counters and histogram buckets
// are single atomic adds, and tracing degrades to a nil check when no
// trace rides the context.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds named metrics and renders them in Prometheus text
// exposition format. Metric constructors are idempotent: asking for a
// name that already exists returns the existing collector (and panics
// only if the kind differs — that is a programming error).
type Registry struct {
	mu      sync.RWMutex
	byName  map[string]collector
	ordered []collector
}

// collector is one named metric family that can render itself.
type collector interface {
	name() string
	kind() string
	render(w io.Writer)
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]collector)}
}

// register returns the collector already stored under c.name() or
// stores c. Mismatched kinds panic: two call sites disagree about
// what a metric is.
func (r *Registry) register(c collector) collector {
	r.mu.Lock()
	defer r.mu.Unlock()
	if have, ok := r.byName[c.name()]; ok {
		if have.kind() != c.kind() {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", c.name(), c.kind(), have.kind()))
		}
		return have
	}
	r.byName[c.name()] = c
	r.ordered = append(r.ordered, c)
	return c
}

// WritePrometheus renders every registered metric, sorted by name.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.RLock()
	cs := append([]collector(nil), r.ordered...)
	r.mu.RUnlock()
	sort.Slice(cs, func(i, j int) bool { return cs[i].name() < cs[j].name() })
	for _, c := range cs {
		c.render(w)
	}
}

// Handler returns an http.Handler serving the registry in Prometheus
// text format (the /metrics endpoint).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}

func writeHeader(w io.Writer, name, help, typ string) {
	if help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", name, escapeHelp(help))
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", name, typ)
}

// escapeHelp escapes a HELP string per the Prometheus text exposition
// format: backslash and line feed only (double quotes stay literal in
// HELP text).
func escapeHelp(s string) string {
	if !strings.ContainsAny(s, "\\\n") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// escapeLabelValue escapes a label value per the Prometheus text
// exposition format: exactly backslash, double quote and line feed.
// Everything else — including tabs, control bytes and non-ASCII UTF-8
// — passes through verbatim, which is what conformant parsers expect
// (strconv-style \xNN escapes are NOT part of the format and would be
// misread as a literal backslash sequence).
func escapeLabelValue(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// formatLabels renders {k="v",...} for parallel name/value slices,
// escaping values per the exposition format.
func formatLabels(names, values []string) string {
	if len(names) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, n := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(n)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(values[i]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// formatFloat renders a sample value the way Prometheus expects.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return fmt.Sprintf("%d", int64(v))
	default:
		return fmt.Sprintf("%g", v)
	}
}

// ---------------------------------------------------------------- counter

// Counter is a monotonically increasing count.
type Counter struct {
	nameStr, help string
	v             atomic.Uint64
}

// Counter returns the counter registered under name, creating it if
// needed.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(&Counter{nameStr: name, help: help}).(*Counter)
}

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) name() string { return c.nameStr }
func (c *Counter) kind() string { return "counter" }
func (c *Counter) render(w io.Writer) {
	writeHeader(w, c.nameStr, c.help, "counter")
	fmt.Fprintf(w, "%s %d\n", c.nameStr, c.Value())
}

// CounterFunc is a counter whose value is read from a callback at
// scrape time — the bridge for counts that already live elsewhere
// (e.g. the engine's scoring-cache hit/miss totals).
type CounterFunc struct {
	nameStr, help string
	fn            func() uint64
}

// CounterFunc registers a callback-valued counter.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.register(&CounterFunc{nameStr: name, help: help, fn: fn})
}

func (c *CounterFunc) name() string { return c.nameStr }
func (c *CounterFunc) kind() string { return "counter" }
func (c *CounterFunc) render(w io.Writer) {
	writeHeader(w, c.nameStr, c.help, "counter")
	fmt.Fprintf(w, "%s %d\n", c.nameStr, c.fn())
}

// ---------------------------------------------------------------- gauge

// Gauge is an integer value that can go up and down.
type Gauge struct {
	nameStr, help string
	v             atomic.Int64
}

// Gauge returns the gauge registered under name, creating it if
// needed.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(&Gauge{nameStr: name, help: help}).(*Gauge)
}

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d (negative to decrement).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) name() string { return g.nameStr }
func (g *Gauge) kind() string { return "gauge" }
func (g *Gauge) render(w io.Writer) {
	writeHeader(w, g.nameStr, g.help, "gauge")
	fmt.Fprintf(w, "%s %d\n", g.nameStr, g.Value())
}

// GaugeFunc is a gauge whose value is read from a callback at scrape
// time (goroutine counts, heap bytes, cache entries, queue depth).
type GaugeFunc struct {
	nameStr, help string
	fn            func() float64
}

// GaugeFunc registers a callback-valued gauge.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&GaugeFunc{nameStr: name, help: help, fn: fn})
}

func (g *GaugeFunc) name() string { return g.nameStr }
func (g *GaugeFunc) kind() string { return "gauge" }
func (g *GaugeFunc) render(w io.Writer) {
	writeHeader(w, g.nameStr, g.help, "gauge")
	fmt.Fprintf(w, "%s %s\n", g.nameStr, formatFloat(g.fn()))
}

// ---------------------------------------------------------------- histogram

// DefBuckets are the default latency buckets in seconds: 100µs to 10s,
// roughly logarithmic — wide enough for sketch builds, fine enough for
// cached sub-millisecond queries.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket histogram with atomic bucket counts. An
// implicit +Inf bucket catches everything beyond the last bound.
type Histogram struct {
	nameStr, help string
	bounds        []float64 // ascending upper bounds, +Inf implicit
	counts        []atomic.Uint64
	sumBits       atomic.Uint64 // float64 bits, CAS-updated
	count         atomic.Uint64
}

func newHistogram(name, help string, buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	bounds := append([]float64(nil), buckets...)
	sort.Float64s(bounds)
	h := &Histogram{nameStr: name, help: help, bounds: bounds}
	h.counts = make([]atomic.Uint64, len(bounds)+1)
	return h
}

// Histogram returns the histogram registered under name, creating it
// with the given bucket upper bounds (nil → DefBuckets).
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.register(newHistogram(name, help, buckets)).(*Histogram)
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveAll records a batch of samples in one pass: bucket counts
// are still bumped per value, but the observation count and the sum
// each fold in with a single atomic update instead of one per value.
func (h *Histogram) ObserveAll(vs []float64) {
	if len(vs) == 0 {
		return
	}
	var sum float64
	for _, v := range vs {
		h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
		sum += v
	}
	h.count.Add(uint64(len(vs)))
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + sum)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

func (h *Histogram) name() string { return h.nameStr }
func (h *Histogram) kind() string { return "histogram" }
func (h *Histogram) render(w io.Writer) {
	writeHeader(w, h.nameStr, h.help, "histogram")
	h.renderSamples(w, nil, nil)
}

// renderSamples writes the _bucket/_sum/_count series with optional
// labels (used by both the plain histogram and HistogramVec children).
func (h *Histogram) renderSamples(w io.Writer, labelNames, labelValues []string) {
	bucketNames := append(append([]string(nil), labelNames...), "le")
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", h.nameStr,
			formatLabels(bucketNames, append(append([]string(nil), labelValues...), formatFloat(b))), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket%s %d\n", h.nameStr,
		formatLabels(bucketNames, append(append([]string(nil), labelValues...), "+Inf")), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", h.nameStr, formatLabels(labelNames, labelValues), formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", h.nameStr, formatLabels(labelNames, labelValues), cum)
}

// ---------------------------------------------------------------- vectors

// labelSep joins label values into child-map keys; it cannot appear in
// well-formed label values.
const labelSep = "\x1f"

// CounterVec is a family of counters partitioned by label values
// (e.g. one request counter per route and status code).
type CounterVec struct {
	nameStr, help string
	labels        []string
	mu            sync.RWMutex
	children      map[string]*Counter
}

// CounterVec returns the labeled counter family registered under
// name, creating it if needed.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return r.register(&CounterVec{
		nameStr: name, help: help, labels: labels,
		children: make(map[string]*Counter),
	}).(*CounterVec)
}

// With returns the child counter for the given label values (one per
// label name, in order), creating it on first use.
func (v *CounterVec) With(values ...string) *Counter {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: %s wants %d label values, got %d", v.nameStr, len(v.labels), len(values)))
	}
	key := strings.Join(values, labelSep)
	v.mu.RLock()
	c, ok := v.children[key]
	v.mu.RUnlock()
	if ok {
		return c
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if c, ok = v.children[key]; ok {
		return c
	}
	c = &Counter{nameStr: v.nameStr}
	v.children[key] = c
	return c
}

// Total sums every child counter.
func (v *CounterVec) Total() uint64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	var sum uint64
	for _, c := range v.children {
		sum += c.Value()
	}
	return sum
}

func (v *CounterVec) name() string { return v.nameStr }
func (v *CounterVec) kind() string { return "counter" }
func (v *CounterVec) render(w io.Writer) {
	writeHeader(w, v.nameStr, v.help, "counter")
	v.mu.RLock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		var values []string
		if k != "" || len(v.labels) > 0 {
			values = strings.Split(k, labelSep)
		}
		fmt.Fprintf(w, "%s%s %d\n", v.nameStr, formatLabels(v.labels, values), v.children[k].Value())
	}
	v.mu.RUnlock()
}

// GaugeVec is a family of gauges partitioned by label values (e.g.
// the build-info gauge, whose labels carry the interesting data and
// whose value is a constant 1).
type GaugeVec struct {
	nameStr, help string
	labels        []string
	mu            sync.RWMutex
	children      map[string]*Gauge
}

// GaugeVec returns the labeled gauge family registered under name,
// creating it if needed.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return r.register(&GaugeVec{
		nameStr: name, help: help, labels: labels,
		children: make(map[string]*Gauge),
	}).(*GaugeVec)
}

// With returns the child gauge for the given label values (one per
// label name, in order), creating it on first use.
func (v *GaugeVec) With(values ...string) *Gauge {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: %s wants %d label values, got %d", v.nameStr, len(v.labels), len(values)))
	}
	key := strings.Join(values, labelSep)
	v.mu.RLock()
	g, ok := v.children[key]
	v.mu.RUnlock()
	if ok {
		return g
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if g, ok = v.children[key]; ok {
		return g
	}
	g = &Gauge{nameStr: v.nameStr}
	v.children[key] = g
	return g
}

func (v *GaugeVec) name() string { return v.nameStr }
func (v *GaugeVec) kind() string { return "gauge" }
func (v *GaugeVec) render(w io.Writer) {
	writeHeader(w, v.nameStr, v.help, "gauge")
	v.mu.RLock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		var values []string
		if k != "" || len(v.labels) > 0 {
			values = strings.Split(k, labelSep)
		}
		fmt.Fprintf(w, "%s%s %d\n", v.nameStr, formatLabels(v.labels, values), v.children[k].Value())
	}
	v.mu.RUnlock()
}

// HistogramVec is a family of histograms partitioned by label values
// (e.g. one latency histogram per route). All children share bucket
// bounds.
type HistogramVec struct {
	nameStr, help string
	labels        []string
	buckets       []float64
	mu            sync.RWMutex
	children      map[string]*Histogram
}

// HistogramVec returns the labeled histogram family registered under
// name, creating it if needed (nil buckets → DefBuckets).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	return r.register(&HistogramVec{
		nameStr: name, help: help, labels: labels, buckets: buckets,
		children: make(map[string]*Histogram),
	}).(*HistogramVec)
}

// With returns the child histogram for the given label values,
// creating it on first use.
func (v *HistogramVec) With(values ...string) *Histogram {
	if len(values) != len(v.labels) {
		panic(fmt.Sprintf("obs: %s wants %d label values, got %d", v.nameStr, len(v.labels), len(values)))
	}
	key := strings.Join(values, labelSep)
	v.mu.RLock()
	h, ok := v.children[key]
	v.mu.RUnlock()
	if ok {
		return h
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if h, ok = v.children[key]; ok {
		return h
	}
	h = newHistogram(v.nameStr, "", v.buckets)
	v.children[key] = h
	return h
}

func (v *HistogramVec) name() string { return v.nameStr }
func (v *HistogramVec) kind() string { return "histogram" }
func (v *HistogramVec) render(w io.Writer) {
	writeHeader(w, v.nameStr, v.help, "histogram")
	v.mu.RLock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		var values []string
		if k != "" || len(v.labels) > 0 {
			values = strings.Split(k, labelSep)
		}
		v.children[k].renderSamples(w, v.labels, values)
	}
	v.mu.RUnlock()
}
