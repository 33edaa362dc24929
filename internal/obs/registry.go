// Package obs is the service's observability layer: a dependency-free
// metrics registry (atomic counters, gauges and fixed-bucket latency
// histograms, each the child of one generic labelled family, and
// callback-valued counters and gauges, rendered in Prometheus text
// format), lightweight request tracing with named spans and a ring
// buffer of recent traces, and a structured JSON logger. The engine, the sketch store and the
// server's one request path (internal/server's Server.handle) record
// into it; /metrics and /api/debug/traces expose it. It holds no HTTP
// middleware.
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
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry holds named metrics and renders them in Prometheus text
// exposition format. Metric constructors are idempotent: asking for a
// name that already exists returns the existing collector (and panics
// only if the kind differs — that is a programming error).
type Registry struct {
	mu     sync.RWMutex
	byName map[string]collector
}

// collector is one named metric family that can render itself: a
// labelled family (vec) or a callback (funcCollector).
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
	return c
}

// WritePrometheus renders every registered metric, sorted by name.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.RLock()
	cs := make([]collector, 0, len(r.byName))
	for _, c := range r.byName {
		cs = append(cs, c)
	}
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

// desc is what a metric family states about itself: its name, its
// HELP text and its TYPE.
type desc struct {
	nameStr, help, typ string
}

func (d *desc) name() string { return d.nameStr }
func (d *desc) kind() string { return d.typ }
func (d *desc) writeHeader(w io.Writer) {
	if d.help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", d.nameStr, escapeHelp(d.help))
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", d.nameStr, d.typ)
}

var (
	// escapeHelp escapes a HELP string per the Prometheus text
	// exposition format: backslash and line feed only (double quotes
	// stay literal in HELP text).
	escapeHelp = strings.NewReplacer(`\`, `\\`, "\n", `\n`).Replace
	// escapeLabelValue escapes a label value per the Prometheus text
	// exposition format: exactly backslash, double quote and line feed.
	// Everything else — including tabs, control bytes and non-ASCII
	// UTF-8 — passes through verbatim, which is what conformant parsers
	// expect (strconv-style \xNN escapes are NOT part of the format and
	// would be misread as a literal backslash sequence).
	escapeLabelValue = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace
)

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
	name string
	v    atomic.Uint64
}

// Counter returns the counter registered under name, creating it if
// needed: the one child of an unlabelled family.
func (r *Registry) Counter(name, help string) *Counter { return r.CounterVec(name, help).With() }

// Inc adds 1.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

func (c *Counter) renderSamples(w io.Writer, labelNames, labelValues []string) {
	fmt.Fprintf(w, "%s%s %d\n", c.name, formatLabels(labelNames, labelValues), c.Value())
}

// ---------------------------------------------------------------- gauge

// Gauge is an integer value that can go up and down.
type Gauge struct {
	name string
	v    atomic.Int64
}

// Gauge returns the gauge registered under name, creating it if
// needed: the one child of an unlabelled family.
func (r *Registry) Gauge(name, help string) *Gauge { return r.GaugeVec(name, help).With() }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d (negative to decrement).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

func (g *Gauge) renderSamples(w io.Writer, labelNames, labelValues []string) {
	fmt.Fprintf(w, "%s%s %d\n", g.name, formatLabels(labelNames, labelValues), g.Value())
}

// ---------------------------------------------------------------- callbacks

// funcCollector is a counter or gauge whose value is read from a
// callback at scrape time — the bridge for values that already live
// elsewhere (the engine's scoring-cache totals, goroutine counts, heap
// bytes, queue depth). value reads the callback and formats it.
type funcCollector struct {
	desc
	value func() string
}

// CounterFunc registers a callback-valued counter.
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.register(&funcCollector{desc{name, help, "counter"},
		func() string { return strconv.FormatUint(fn(), 10) }})
}

// GaugeFunc registers a callback-valued gauge.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&funcCollector{desc{name, help, "gauge"},
		func() string { return formatFloat(fn()) }})
}

func (c *funcCollector) render(w io.Writer) {
	c.writeHeader(w)
	fmt.Fprintf(w, "%s %s\n", c.nameStr, c.value())
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
	name    string
	bounds  []float64 // ascending upper bounds, +Inf implicit
	counts  []atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-updated
	count   atomic.Uint64
}

// sortedBounds returns a sorted copy of buckets (nil → DefBuckets).
func sortedBounds(buckets []float64) []float64 {
	if len(buckets) == 0 {
		buckets = DefBuckets
	}
	bounds := append([]float64(nil), buckets...)
	sort.Float64s(bounds)
	return bounds
}

// Histogram returns the histogram registered under name, creating it
// with the given bucket upper bounds (nil → DefBuckets): the one child
// of an unlabelled family.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	return r.HistogramVec(name, help, buckets).With()
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
	h.count.Add(1)
	h.addSum(v)
}

// addSum adds v to the sum with a compare-and-swap loop over its bits.
func (h *Histogram) addSum(v float64) {
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// renderSamples writes the _bucket/_sum/_count series with optional
// labels, le last.
func (h *Histogram) renderSamples(w io.Writer, labelNames, labelValues []string) {
	bucketNames := append(append([]string(nil), labelNames...), "le")
	var cum uint64
	for i, b := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(w, "%s_bucket%s %d\n", h.name,
			formatLabels(bucketNames, append(append([]string(nil), labelValues...), formatFloat(b))), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(w, "%s_bucket%s %d\n", h.name,
		formatLabels(bucketNames, append(append([]string(nil), labelValues...), "+Inf")), cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", h.name, formatLabels(labelNames, labelValues), formatFloat(h.Sum()))
	fmt.Fprintf(w, "%s_count%s %d\n", h.name, formatLabels(labelNames, labelValues), cum)
}

// ---------------------------------------------------------------- families

// labelSep joins label values into child-map keys; it cannot appear in
// well-formed label values.
const labelSep = "\x1f"

// vec is a family of one kind of metric partitioned by label values:
// a child per label set, created on first use and rendered in sorted
// label-key order. A plain Counter, Gauge or Histogram is the one
// child of a family with no labels. Only the child constructor and
// the child's sample writer differ by kind.
type vec[T any] struct {
	desc
	labels        []string
	newChild      func() *T
	renderSamples func(c *T, w io.Writer, labelNames, labelValues []string)
	mu            sync.RWMutex
	children      map[string]*T
}

// CounterVec is a family of counters partitioned by label values
// (e.g. one request counter per route and status code).
type CounterVec = vec[Counter]

// GaugeVec is a family of gauges partitioned by label values (e.g.
// the build-info gauge, whose labels carry the interesting data and
// whose value is a constant 1).
type GaugeVec = vec[Gauge]

// HistogramVec is a family of histograms partitioned by label values
// (e.g. one latency histogram per route). All children share bucket
// bounds.
type HistogramVec = vec[Histogram]

func registerVec[T any](r *Registry, d desc, labels []string, newChild func() *T,
	renderSamples func(*T, io.Writer, []string, []string)) *vec[T] {
	return r.register(&vec[T]{desc: d, labels: labels, newChild: newChild,
		renderSamples: renderSamples, children: make(map[string]*T)}).(*vec[T])
}

// CounterVec returns the labeled counter family registered under
// name, creating it if needed.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return registerVec(r, desc{name, help, "counter"}, labels,
		func() *Counter { return &Counter{name: name} }, (*Counter).renderSamples)
}

// GaugeVec returns the labeled gauge family registered under name,
// creating it if needed.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return registerVec(r, desc{name, help, "gauge"}, labels,
		func() *Gauge { return &Gauge{name: name} }, (*Gauge).renderSamples)
}

// HistogramVec returns the labeled histogram family registered under
// name, creating it if needed (nil buckets → DefBuckets).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	bounds := sortedBounds(buckets)
	return registerVec(r, desc{name, help, "histogram"}, labels, func() *Histogram {
		return &Histogram{name: name, bounds: bounds, counts: make([]atomic.Uint64, len(bounds)+1)}
	}, (*Histogram).renderSamples)
}

// With returns the child for the given label values (one per label
// name, in order), creating it on first use.
func (v *vec[T]) With(values ...string) *T {
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
	c = v.newChild()
	v.children[key] = c
	return c
}

// Total sums the children of a counter family; a gauge or histogram
// family has no total and reports 0.
func (v *vec[T]) Total() uint64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	var sum uint64
	for _, c := range v.children {
		if c, ok := any(c).(*Counter); ok {
			sum += c.Value()
		}
	}
	return sum
}

func (v *vec[T]) render(w io.Writer) {
	v.writeHeader(w)
	v.mu.RLock()
	defer v.mu.RUnlock()
	keys := make([]string, 0, len(v.children))
	for k := range v.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		var values []string
		if len(v.labels) > 0 {
			values = strings.Split(k, labelSep)
		}
		v.renderSamples(v.children[k], w, v.labels, values)
	}
}
