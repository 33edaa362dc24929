// Package server implements the Foresight demo web UI (paper Figure
// 1): a JSON API over the query engine plus a self-contained HTML
// page that renders insight carousels, supports focusing insights to
// update recommendations, and shows per-class overview heat maps.
//
// Every route, /metrics included, is registered through one request
// path, Server.handle (DESIGN.md §7.7). It gives each request an
// X-Request-ID and a trace whose spans (parse → enumerate → score →
// rank → render) land in a ring buffer served at /api/debug/traces;
// runs API requests under an optional deadline whose expiry surfaces
// as 504 (the engine honors the context, so the workers stop) and
// behind a bounded-concurrency gate that sheds excess load with 503;
// recovers handler panics into 500s with the stack in the structured
// log; and records per-route request counts, latency and response
// bytes into the internal/obs registry that /metrics exposes. POST
// bodies are capped.
package server

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"foresight/internal/core"
	"foresight/internal/durable"
	"foresight/internal/obs"
	"foresight/internal/obs/telemetry"
	"foresight/internal/query"
	"foresight/internal/sketch"
	"foresight/internal/viz"
)

// maxRequestBody caps POST bodies (/api/focus, /api/state); larger
// requests are rejected with 413 before decoding.
const maxRequestBody = 1 << 20

// statusClientClosedRequest is the nginx-convention status recorded
// when the client disconnected before the response was written; it
// never reaches a live client but keeps abandoned requests visible in
// the per-status metrics.
const statusClientClosedRequest = 499

// traceCapacity bounds the /api/debug/traces ring buffer.
const traceCapacity = 64

// Options configures the server's observability stack. The zero value
// is fully functional: a private registry, a 64-trace ring buffer
// keeping every trace, and no request logging.
type Options struct {
	// Registry receives the server's and engine's metrics; nil creates
	// a private registry (still served at /metrics).
	Registry *obs.Registry
	// LogWriter receives one structured JSON line per request; nil
	// disables request logging.
	LogWriter io.Writer
	// SlowTraceThreshold keeps only traces at least this long (0 keeps
	// every trace).
	SlowTraceThreshold time.Duration
	// Version is reported by /api/stats ("" → "dev").
	Version string
	// RequestTimeout bounds each API request's context; the engine
	// returns promptly on expiry and the response is a 504 JSON error.
	// 0 disables the deadline.
	RequestTimeout time.Duration
	// MaxInflight bounds concurrently served API requests; excess
	// requests are shed immediately with a 503 JSON error instead of
	// queueing without bound. 0 disables the gate. The index page and
	// /metrics are never gated, so the UI loads and observability
	// survives saturation.
	MaxInflight int
	// IngestQueue is ignored: /api/ingest admits at most
	// maxPendingIngests unanswered batches (ingest.go).
	//
	// Deprecated: IngestQueue remains for benchmark/layers, which sets
	// it.
	IngestQueue int
	// QueryLogSample is the fraction of engine queries logged as
	// structured JSON lines through LogWriter (0 disables, 1 logs every
	// query, 0.01 logs every 100th). Independent of the per-request
	// HTTP log: a query line carries scoring telemetry (candidates,
	// pruned, filtered, emitted, top-k margin), not HTTP fields.
	QueryLogSample float64
	// Durable, when set, contributes the "durable" section of
	// /api/stats (WAL/checkpoint/recovery counters).
	Durable DurableStats
}

// DurableStats is the slice of the durability manager
// (internal/durable.Manager) the server reads for /api/stats.
type DurableStats interface{ Stats() durable.Stats }

// Server wires one dataset, one engine and one exploration session
// into an http.Handler. A demo server holds a single shared session,
// like the paper's single-analyst demo.
//
// The engine is safe for concurrent use on its own; mu guards only
// the session value and is held across no body read and no engine
// call: a carousel scores a copy of the session, and focus and restore
// decode their body before they change the session. So a client that
// stalls its body, or a slow carousel, holds no other request.
type Server struct {
	engine  *query.Engine
	session *query.Session
	mu      sync.RWMutex
	mux     *http.ServeMux

	registry *obs.Registry
	log      *obs.Logger
	traces   *obs.TraceLog
	telem    *telemetry.Insights
	start    time.Time
	version  string

	// durable is the optional stats source; a latched WAL failure in
	// it turns /readyz to 503.
	durable DurableStats

	// Serving-path safety rails (§6e): the per-request deadline, the
	// bounded-concurrency gate, and their visibility counters.
	requestTimeout time.Duration
	gate           chan struct{} // nil = unlimited
	panics         *obs.Counter
	timeouts       *obs.Counter
	sheds          *obs.Counter

	// The request path's families (handle): completed requests by
	// route and code, latency and response bytes by route, in-flight.
	httpRequests *obs.CounterVec
	httpSeconds  *obs.HistogramVec
	httpInflight *obs.Gauge
	httpBytes    *obs.CounterVec

	// Live ingest (ingest.go): the admitted-and-unanswered count, and
	// closed, which Close sets to refuse further ingest.
	ingestPending  atomic.Int64
	closed         atomic.Bool
	ingestRequests *obs.Counter
	ingestRejected *obs.Counter
	ingestRows     *obs.Counter
	ingestBatches  *obs.Counter
	ingestSeconds  *obs.Histogram
}

// New returns a Server over the engine with carousel length k. o
// configures the observability stack and the serving rails (the zero
// Options is a plain server); the engine is instrumented into the
// server's registry either way.
func New(engine *query.Engine, k int, approx bool, o Options) *Server {
	reg := o.Registry
	if reg == nil {
		reg = obs.NewRegistry()
	}
	version := o.Version
	if version == "" {
		version = "dev"
	}
	s := &Server{
		engine:         engine,
		session:        query.NewSession(engine, k, approx),
		mux:            http.NewServeMux(),
		registry:       reg,
		log:            obs.NewLogger(o.LogWriter),
		traces:         obs.NewTraceLog(traceCapacity, o.SlowTraceThreshold),
		start:          time.Now(),
		version:        version,
		requestTimeout: o.RequestTimeout,
		durable:        o.Durable,
	}
	if o.MaxInflight > 0 {
		s.gate = make(chan struct{}, o.MaxInflight)
	}
	s.panics = reg.Counter("foresight_http_panics_total",
		"Handler panics recovered by the middleware (returned as 500).")
	s.timeouts = reg.Counter("foresight_http_timeouts_total",
		"Requests that exceeded the per-request deadline (returned as 504).")
	s.sheds = reg.Counter("foresight_http_sheds_total",
		"Requests shed by the max-inflight gate (returned as 503).")
	engine.Instrument(reg)
	observeBuildTimings(reg)
	reg.GaugeFunc("foresight_uptime_seconds", "Seconds since the server started.",
		func() float64 { return time.Since(s.start).Seconds() })
	reg.GaugeFunc("go_goroutines", "Number of goroutines.",
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.GaugeFunc("go_heap_alloc_bytes", "Bytes of allocated heap objects.",
		func() float64 { return float64(readRuntimeStats().HeapAlloc) })
	s.httpRequests = reg.CounterVec("foresight_http_requests_total",
		"Completed HTTP requests by route and status code.", "route", "code")
	s.httpSeconds = reg.HistogramVec("foresight_http_request_seconds",
		"HTTP request latency by route.", obs.DefBuckets, "route")
	s.httpInflight = reg.Gauge("foresight_http_inflight_requests", "HTTP requests currently being served.")
	s.httpBytes = reg.CounterVec("foresight_http_response_bytes_total",
		"HTTP response body bytes by route.", "route")
	// Insight telemetry: Foresight observing itself with its own
	// sketches (obs/telemetry). The store is bounded and always on —
	// recording costs one store lock after scoring — and is served at
	// /api/debug/insights plus the foresight_insight_* metric families.
	// The sampled query log shares the request logger's writer and
	// mutex, so the two JSON streams interleave cleanly.
	s.telem = telemetry.New()
	s.telem.Instrument(reg)
	s.telem.SetQueryLog(s.log, o.QueryLogSample)
	engine.SetInsightTelemetry(s.telem)
	obs.SetBuildInfo(reg, version)

	s.handle("/", s.handleIndex, http.MethodGet)
	// Liveness and readiness are never gated or deadlined (non-/api/
	// paths): an orchestrator must be able to probe a saturated server.
	s.handle("/healthz", s.handleHealthz, http.MethodGet)
	s.handle("/readyz", s.handleReadyz, http.MethodGet)
	s.handle("/api/dataset", s.handleDataset, http.MethodGet)
	s.handle("/api/classes", s.handleClasses, http.MethodGet)
	s.handle("/api/carousels", s.handleCarousels, http.MethodGet)
	s.handle("/api/query", s.handleQuery, http.MethodGet)
	s.handle("/api/overview", s.handleOverview, http.MethodGet)
	s.handle("/api/render", s.handleRender, http.MethodGet)
	s.handle("/api/neighborhood", s.handleNeighborhood, http.MethodGet)
	s.instrumentIngest()
	s.handle("/api/ingest", s.handleIngest, http.MethodPost)
	s.handle("/api/focus", s.handleFocus, http.MethodPost)
	s.handle("/api/unfocus", s.handleUnfocus, http.MethodPost)
	s.handle("/api/state", s.handleState, http.MethodGet, http.MethodPost)
	s.handle("/api/stats", s.handleStats, http.MethodGet)
	s.handle("/api/debug/traces", s.handleDebugTraces, http.MethodGet)
	s.handle("/api/debug/insights", s.handleDebugInsights, http.MethodGet)
	// /metrics is not under /api/, so no gate or deadline: observability
	// survives saturation.
	s.handle("/metrics", reg.Handler().ServeHTTP)
	return s
}

// observeBuildTimings routes the sketch layer's process-wide
// build/merge phase timings into reg, so startup preprocessing and
// every ingest's extension show their phase breakdown at /metrics.
// The registry dedupes by name, so Run (before the startup
// build) and New install observers over one collector, which is
// returned for the one phase the sketch layer does not see: Run's load.
func observeBuildTimings(reg *obs.Registry) *obs.HistogramVec {
	buildSeconds := reg.HistogramVec("foresight_profile_build_seconds",
		"Dataset load and profile build/merge phase latency in seconds, by phase.", nil, "phase")
	sketch.SetTimingObserver(func(op string, d time.Duration) {
		buildSeconds.With(op).Observe(d.Seconds())
	})
	return buildSeconds
}

// handle registers h for pattern behind the server's one request
// path. In: assign or honour the X-Request-ID and start the trace; on
// /api/ routes bound the context by the per-request deadline (the
// engine stops when it fires, and so does a body read blocked then;
// jsonError maps either to 504) and take a max-inflight slot, shedding
// with 503 when none is free; reject a method outside allowed with
// 405. Out, in one deferred block: recover a panic into a 500 with its
// stack in the log (re-raising http.ErrAbortHandler, net/http's
// sanctioned abort, once recorded), record foresight_http_*, file the
// trace and log the request. The pattern, never the raw URL, is the
// route label and the trace name.
func (s *Server) handle(pattern string, h http.HandlerFunc, allowed ...string) {
	api := strings.HasPrefix(pattern, "/api/")
	allow := strings.Join(allowed, ", ")
	requests := &routeRequests{vec: s.httpRequests, route: pattern, byCode: make(map[int]*obs.Counter)}
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(requestIDHeader)
		if !validRequestID(id) {
			id = newRequestID()
		}
		w.Header().Set(requestIDHeader, id)
		tr := obs.NewTrace(pattern, id)
		rw := &responseWriter{ResponseWriter: w}
		ctx, cancel := obs.WithTrace(r.Context(), tr), func() {}
		if api && s.requestTimeout > 0 {
			ctx, cancel = context.WithTimeout(ctx, s.requestTimeout)
			if r.ContentLength != 0 {
				stop, cancelTimeout := rw.interruptBodyReadWhenDone(ctx), cancel
				cancel = func() { stop(); cancelTimeout() }
			}
		}
		r = r.WithContext(ctx)
		held := false
		s.httpInflight.Add(1)
		start := time.Now()
		defer func() {
			if held {
				<-s.gate
			}
			cancel()
			rec := recover()
			err, _ := rec.(error)
			abort := errors.Is(err, http.ErrAbortHandler)
			if rec != nil && !abort {
				s.panics.Inc()
				s.log.Log("panic", map[string]interface{}{
					"request_id": id,
					"route":      pattern,
					"method":     r.Method,
					"panic":      fmt.Sprint(rec),
					"stack":      string(debug.Stack()),
				})
				if rw.status == 0 {
					s.jsonError(rw, http.StatusInternalServerError,
						fmt.Errorf("internal error serving %s (panic recovered; see server log)", pattern))
				}
			}
			dur := time.Since(start)
			if rw.status == 0 {
				rw.status = http.StatusOK
			}
			s.httpInflight.Add(-1)
			requests.inc(rw.status)
			s.httpSeconds.With(pattern).Observe(dur.Seconds())
			s.httpBytes.With(pattern).Add(uint64(rw.bytes))
			s.traces.Record(tr.Finish())
			s.log.Log("request", map[string]interface{}{
				"request_id":  id,
				"method":      r.Method,
				"route":       pattern,
				"path":        r.URL.Path,
				"status":      rw.status,
				"duration_ms": float64(dur) / float64(time.Millisecond),
				"bytes":       rw.bytes,
				"remote":      r.RemoteAddr,
			})
			if abort {
				panic(rec)
			}
		}()
		if api && s.gate != nil {
			select {
			case s.gate <- struct{}{}:
				held = true
			default:
				s.sheds.Inc()
				rw.Header().Set("Retry-After", "1")
				s.jsonError(rw, http.StatusServiceUnavailable,
					fmt.Errorf("server saturated (%d requests in flight); retry shortly", cap(s.gate)))
				return
			}
		}
		if len(allowed) > 0 && !slices.Contains(allowed, r.Method) &&
			!(r.Method == http.MethodHead && slices.Contains(allowed, http.MethodGet)) {
			rw.Header().Set("Allow", allow)
			s.jsonError(rw, http.StatusMethodNotAllowed,
				fmt.Errorf("method %s not allowed (allow: %s)", r.Method, allow))
			return
		}
		h(rw, r)
	})
}

// routeRequests counts one route's requests into
// foresight_http_requests_total, resolving the child of each status
// code once: the family's With formats the code and joins the label
// values into a new key on every call.
type routeRequests struct {
	vec    *obs.CounterVec
	route  string
	mu     sync.Mutex
	byCode map[int]*obs.Counter
}

// inc counts one request answered with code.
func (rr *routeRequests) inc(code int) {
	rr.mu.Lock()
	c, ok := rr.byCode[code]
	if !ok {
		c = rr.vec.With(rr.route, strconv.Itoa(code))
		rr.byCode[code] = c
	}
	rr.mu.Unlock()
	c.Inc()
}

// responseWriter records the status and body bytes a handler wrote,
// for the request's metrics and log line, and so a recovered panic
// writes its 500 only while nothing was written. mu orders the start
// of the response against interruptBodyReadWhenDone.
type responseWriter struct {
	http.ResponseWriter
	status      int
	bytes       int
	mu          sync.Mutex
	interrupted bool
}

func (w *responseWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.start(code)
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *responseWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.start(http.StatusOK)
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += n
	return n, err
}

// start records the status the response begins with. One whose body
// read was interrupted closes its connection: net/http would reuse it
// with its context cancelled, for its background read failed at the
// expired deadline.
func (w *responseWriter) start(code int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.status = code
	if w.interrupted {
		w.Header().Set("Connection", "close")
	}
}

// interruptBodyReadWhenDone expires the connection's read deadline once
// ctx ends, unless the response has begun, so that a blocked body read
// fails with os.ErrDeadlineExceeded (a 504) instead of holding its
// max-inflight slot until the client sends more. Set at the start of
// the request, the deadline would let net/http's background read
// cancel the request and turn its 504 into a 499. A writer that cannot
// take deadlines is left alone. The returned stop must run before the
// handler returns; it waits out a call under way.
func (w *responseWriter) interruptBodyReadWhenDone(ctx context.Context) (stop func()) {
	done := make(chan struct{})
	stopAfter := context.AfterFunc(ctx, func() {
		defer close(done)
		w.mu.Lock()
		defer w.mu.Unlock()
		if w.status == 0 {
			w.interrupted = true
			_ = http.NewResponseController(w.ResponseWriter).SetReadDeadline(time.Now())
		}
	})
	return func() {
		if !stopAfter() {
			<-done
		}
	}
}

// requestIDHeader is set on every response handle serves, so clients,
// log lines, traces and JSON error bodies correlate.
const requestIDHeader = "X-Request-ID"

var requestSeq atomic.Uint64

// newRequestID returns a fresh request ID: 8 random bytes hex, with a
// process-local sequence fallback if the system RNG fails.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return fmt.Sprintf("req-%d", requestSeq.Add(1))
	}
	return hex.EncodeToString(b[:])
}

// validRequestID reports whether a caller's X-Request-ID is honoured:
// 1–64 bytes of [A-Za-z0-9._:-]. It is echoed, logged and kept in the
// trace ring, so an unbounded one would pin caller bytes there.
func validRequestID(id string) bool {
	const chars = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789._:-"
	return id != "" && len(id) <= 64 && strings.Trim(id, chars) == ""
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// handleHealthz is the liveness probe: the process is up and serving
// HTTP.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, map[string]interface{}{"status": "ok", "uptime_s": time.Since(s.start).Seconds()})
}

// handleReadyz is the readiness probe: 200, or 503 naming the cause
// once the WAL has latched failed: every ingest fails until a restart,
// though reads keep serving. A foresightd listens only after startup
// recovery, so there is no recovering state to report.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.durable != nil {
		if failed := s.durable.Stats().Failed; failed != "" {
			s.writeJSONStatus(w, http.StatusServiceUnavailable,
				map[string]interface{}{"ready": false, "reason": "WAL failed: " + failed})
			return
		}
	}
	s.writeJSON(w, map[string]interface{}{"ready": true})
}

// errorStatus refines a handler's fallback status from the error's
// identity: an expired per-request deadline, or a body read it
// interrupted, is a 504 (and counts toward the timeout counter at the
// write site), a client that went away is recorded as 499, and an
// oversized POST body is a 413.
func errorStatus(code int, err error) int {
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, os.ErrDeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	}
	return code
}

// jsonError writes a JSON error body carrying the X-Request-ID handle
// set on the response, so it correlates with log lines and traces. Context errors
// override the caller's status (504 deadline / 499 client gone) so
// every handler maps cancellation consistently.
func (s *Server) jsonError(w http.ResponseWriter, code int, err error) {
	code = errorStatus(code, err)
	if code == http.StatusGatewayTimeout {
		s.timeouts.Inc()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	body := map[string]string{"error": err.Error()}
	if id := w.Header().Get(requestIDHeader); id != "" {
		body["request_id"] = id
	}
	_ = json.NewEncoder(w).Encode(body)
}

// writeJSON encodes v fully before touching the ResponseWriter, so an
// encoding failure can still produce a clean 500 instead of an error
// line appended to a half-written 200 body, and successful responses
// go out in one write with an accurate Content-Length.
func (s *Server) writeJSON(w http.ResponseWriter, v interface{}) {
	s.writeJSONStatus(w, http.StatusOK, v)
}

// writeJSONStatus is writeJSON with an explicit success status code
// (e.g. ingest's 202 Accepted).
func (s *Server) writeJSONStatus(w http.ResponseWriter, code int, v interface{}) {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(code)
	_, _ = w.Write(buf.Bytes())
}

func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		http.NotFound(w, r)
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	_, _ = fmt.Fprint(w, indexHTML)
}

func (s *Server) handleDataset(w http.ResponseWriter, r *http.Request) {
	f := s.engine.Frame()
	type colInfo struct {
		Name    string `json:"name"`
		Kind    string `json:"kind"`
		Missing int    `json:"missing"`
		Unit    string `json:"unit,omitempty"`
	}
	cols := make([]colInfo, 0, f.Cols())
	for _, name := range f.Names() {
		c, _ := f.Lookup(name)
		cols = append(cols, colInfo{
			Name: name, Kind: c.Kind().String(), Missing: c.Missing(),
			Unit: f.Meta(name).Unit,
		})
	}
	s.writeJSON(w, map[string]interface{}{
		"name":    f.Name(),
		"rows":    f.Rows(),
		"cols":    f.Cols(),
		"columns": cols,
		"classes": s.engine.Registry().Names(),
	})
}

// handleClasses describes the registered insight classes (name,
// description, arity, metrics, visualization) so UIs can build class
// pickers without hard-coding the class set.
func (s *Server) handleClasses(w http.ResponseWriter, r *http.Request) {
	type classInfo struct {
		Name        string   `json:"name"`
		Description string   `json:"description"`
		Arity       int      `json:"arity"`
		Metrics     []string `json:"metrics"`
		Vis         string   `json:"vis"`
	}
	var out []classInfo
	for _, c := range s.engine.Registry().Classes() {
		out = append(out, classInfo{
			Name:        c.Name(),
			Description: c.Description(),
			Arity:       c.Arity(),
			Metrics:     c.Metrics(),
			Vis:         string(c.VisKind()),
		})
	}
	s.writeJSON(w, map[string]interface{}{"classes": out})
}

func (s *Server) handleCarousels(w http.ResponseWriter, r *http.Request) {
	// The per-request k (the session's K when absent) is passed
	// explicitly instead of being written into the shared session, and
	// a copy of the session is scored outside the lock, so carousels
	// rank beside each other and beside focus changes (scores come from
	// the engine's memo after the first request).
	s.mu.RLock()
	session := *s.session
	session.Focus = append([]core.Insight(nil), s.session.Focus...)
	s.mu.RUnlock()
	k := intParam(r, "k", session.K)
	res, err := session.RecommendationsKContext(r.Context(), k)
	if err != nil {
		s.jsonError(w, http.StatusInternalServerError, err)
		return
	}
	s.writeJSON(w, map[string]interface{}{"carousels": res, "focus": session.Focus})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	q := query.Query{
		Metric:   r.URL.Query().Get("metric"),
		MinScore: floatParam(r, "min", 0),
		MaxScore: floatParam(r, "max", 0),
		K:        intParam(r, "k", 10),
		Approx:   boolParam(r, "approx"),
	}
	if class := r.URL.Query().Get("class"); class != "" {
		q.Classes = strings.Split(class, ",")
	}
	if fix := r.URL.Query().Get("fix"); fix != "" {
		q.Fixed = strings.Split(fix, ",")
	}
	res, err := s.engine.ExecuteContext(r.Context(), q)
	if err != nil {
		s.jsonError(w, http.StatusBadRequest, err)
		return
	}
	s.writeJSON(w, map[string]interface{}{"results": res})
}

// handleOverview serves a class's global view. The JSON reply — the
// largest body of the API at hundreds of attributes — is a
// pure function of (generation, class, metric, backend): the engine
// keeps it encoded for the generation, and it carries a strong ETag so
// a client that still holds it revalidates with If-None-Match and gets
// a bodyless 304.
func (s *Server) handleOverview(w http.ResponseWriter, r *http.Request) {
	class := r.URL.Query().Get("class")
	if class == "" {
		class = "linear"
	}
	metric, approx := r.URL.Query().Get("metric"), boolParam(r, "approx")
	if r.URL.Query().Get("format") == "svg" {
		ov, err := s.engine.OverviewContext(r.Context(), class, metric, approx)
		if err != nil {
			s.jsonError(w, http.StatusBadRequest, err)
			return
		}
		defer obs.StartSpan(r.Context(), "render")()
		w.Header().Set("Content-Type", "image/svg+xml")
		title := fmt.Sprintf("%s overview (%s)", ov.Class, ov.Metric)
		if len(ov.RowAttrs) == 1 && len(ov.Values) == 1 {
			// Unary class: one metric value per attribute → bar chart.
			_, _ = fmt.Fprint(w, viz.BarSVG(ov.ColAttrs, ov.Values[0], title, len(ov.ColAttrs)))
			return
		}
		_, _ = fmt.Fprint(w, viz.CorrelogramSVG(ov.RowAttrs, ov.Values, title))
		return
	}
	body, gen, err := s.engine.OverviewJSON(r.Context(), class, metric, approx)
	if err != nil {
		s.jsonError(w, http.StatusBadRequest, err)
		return
	}
	// The process start time keeps a tag from outliving a restart,
	// where generations count from zero again.
	h := fnv.New64a()
	fmt.Fprintf(h, "%d\x00%d\x00%s\x00%s\x00%t", s.start.UnixNano(), gen, class, metric, approx)
	etag := `"` + strconv.FormatUint(h.Sum64(), 16) + `"`
	w.Header().Set("ETag", etag)
	w.Header().Set("Cache-Control", "no-cache")
	if etagMatches(r.Header.Get("If-None-Match"), etag) {
		w.WriteHeader(http.StatusNotModified)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(body)))
	_, _ = w.Write(body)
}

// etagMatches reports whether an If-None-Match header value names
// etag: "*", or a comma-separated list of entity tags compared weakly
// (RFC 9110 §13.1.2), so a W/ prefix is ignored.
func etagMatches(header, etag string) bool {
	for _, tag := range strings.Split(header, ",") {
		tag = strings.TrimSpace(tag)
		if tag == "*" || strings.TrimPrefix(tag, "W/") == etag {
			return true
		}
	}
	return false
}

func (s *Server) handleRender(w http.ResponseWriter, r *http.Request) {
	class := r.URL.Query().Get("class")
	attrs := r.URL.Query().Get("attrs")
	if class == "" || attrs == "" {
		s.jsonError(w, http.StatusBadRequest, fmt.Errorf("render needs class and attrs"))
		return
	}
	c, ok := s.engine.Registry().Lookup(class)
	if !ok {
		s.jsonError(w, http.StatusBadRequest, fmt.Errorf("unknown class %q", class))
		return
	}
	// Exact: scored over the frame and drawn from it. Sketch-only: both
	// the score and the pixels come from the preprocessed store.
	f := s.engine.Frame()
	score := func(attrs []string, metric string) (core.Insight, error) { return s.engine.Score(c, attrs, metric) }
	draw := func(in core.Insight) (string, error) { return viz.RenderSVG(f, in) }
	if boolParam(r, "approx") {
		p := s.engine.Profile()
		if p == nil {
			s.jsonError(w, http.StatusBadRequest, fmt.Errorf("approx render requires a preprocessed profile"))
			return
		}
		score = func(attrs []string, metric string) (core.Insight, error) { return c.ScoreApprox(p, attrs, metric) }
		draw = func(in core.Insight) (string, error) { return viz.RenderSVGFromProfile(p, in) }
	}
	endScore := obs.StartSpan(r.Context(), "score:"+class)
	in, err := score(strings.Split(attrs, ","), r.URL.Query().Get("metric"))
	endScore()
	if err != nil {
		s.jsonError(w, http.StatusBadRequest, err)
		return
	}
	endRender := obs.StartSpan(r.Context(), "render")
	svg, err := draw(in)
	endRender()
	if err != nil {
		s.jsonError(w, http.StatusBadRequest, err)
		return
	}
	w.Header().Set("Content-Type", "image/svg+xml")
	w.Header().Set("Content-Length", strconv.Itoa(len(svg)))
	_, _ = io.WriteString(w, svg)
}

// handleNeighborhood returns the k insights most similar to the given
// focus insight (§2.1's "nearby insights"), optionally restricted to
// certain classes.
func (s *Server) handleNeighborhood(w http.ResponseWriter, r *http.Request) {
	class := r.URL.Query().Get("class")
	attrs := r.URL.Query().Get("attrs")
	if class == "" || attrs == "" {
		s.jsonError(w, http.StatusBadRequest, fmt.Errorf("neighborhood needs class and attrs"))
		return
	}
	c, ok := s.engine.Registry().Lookup(class)
	if !ok {
		s.jsonError(w, http.StatusBadRequest, fmt.Errorf("unknown class %q", class))
		return
	}
	focus, err := s.engine.Score(c, strings.Split(attrs, ","), r.URL.Query().Get("metric"))
	if err != nil {
		s.jsonError(w, http.StatusBadRequest, err)
		return
	}
	var within []string
	if scope := r.URL.Query().Get("within"); scope != "" {
		within = strings.Split(scope, ",")
	}
	nbrs, err := s.engine.NeighborhoodContext(r.Context(), focus, within, intParam(r, "k", 10), boolParam(r, "approx"))
	if err != nil {
		s.jsonError(w, http.StatusBadRequest, err)
		return
	}
	s.writeJSON(w, map[string]interface{}{"focus": focus, "neighbors": nbrs})
}

// focusRequest identifies an insight to (un)focus.
type focusRequest struct {
	Class  string   `json:"class"`
	Metric string   `json:"metric"`
	Attrs  []string `json:"attrs"`
}

func (s *Server) handleFocus(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
	var req focusRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.jsonError(w, http.StatusBadRequest, err)
		return
	}
	c, ok := s.engine.Registry().Lookup(req.Class)
	if !ok {
		s.jsonError(w, http.StatusBadRequest, fmt.Errorf("unknown class %q", req.Class))
		return
	}
	in, err := s.engine.Score(c, req.Attrs, req.Metric)
	if err != nil {
		s.jsonError(w, http.StatusBadRequest, err)
		return
	}
	s.mu.Lock()
	s.session.FocusOn(in)
	n := len(s.session.Focus)
	s.mu.Unlock()
	s.writeJSON(w, map[string]interface{}{"focused": in, "focus_count": n})
}

func (s *Server) handleUnfocus(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	s.mu.Lock()
	removed := s.session.Unfocus(key)
	if key == "" {
		s.session.Focus = nil
		removed = true
	}
	n := len(s.session.Focus)
	s.mu.Unlock()
	s.writeJSON(w, map[string]interface{}{"removed": removed, "focus_count": n})
}

// handleStats reports a JSON view over the same state /metrics
// exposes: cache counters, concurrency configuration, uptime, Go
// runtime stats, build info, and request totals.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.RLock()
	focusCount := len(s.session.Focus)
	s.mu.RUnlock()
	m := readRuntimeStats()
	f := s.engine.Frame()
	stats := map[string]interface{}{
		"cache":       s.engine.CacheStats(),
		"prune":       s.engine.PruneStats(),
		"workers":     s.engine.Workers(),
		"dataset":     f.Name(),
		"rows":        f.Rows(),
		"generation":  s.engine.CacheStats().Generation,
		"focus_count": focusCount,
		"uptime_s":    time.Since(s.start).Seconds(),
		"runtime": map[string]interface{}{
			"goroutines":     runtime.NumGoroutine(),
			"gomaxprocs":     runtime.GOMAXPROCS(0),
			"heap_alloc":     m.HeapAlloc,
			"heap_sys":       m.HeapSys,
			"total_alloc":    m.TotalAlloc,
			"num_gc":         m.NumGC,
			"gc_pause_total": m.GCPauseTotal.String(),
		},
		"build": map[string]interface{}{
			"version": s.version,
			"go":      runtime.Version(),
			"os_arch": runtime.GOOS + "/" + runtime.GOARCH,
		},
		"http": map[string]interface{}{
			"requests_total":  s.httpRequests.Total(),
			"traces_recorded": s.traces.Total(),
			"panics":          s.panics.Value(),
			"timeouts":        s.timeouts.Value(),
			"sheds":           s.sheds.Value(),
		},
		"lifecycle": map[string]interface{}{
			"request_timeout_ms":   float64(s.requestTimeout) / float64(time.Millisecond),
			"max_inflight":         cap(s.gate),
			"engine_cancellations": s.engine.Cancellations(),
		},
		"ingest": map[string]interface{}{
			"queue_depth": s.ingestPending.Load(),
			"queue_cap":   maxPendingIngests,
			"requests":    s.ingestRequests.Value(),
			"rejected":    s.ingestRejected.Value(),
			"rows":        s.ingestRows.Value(),
			"batches":     s.ingestBatches.Value(),
		},
	}
	if s.durable != nil {
		stats["durable"] = s.durable.Stats()
	}
	s.writeJSON(w, stats)
}

// maxDebugTraces caps how many traces one /api/debug/traces response
// returns regardless of the requested limit, so a bad query parameter
// cannot turn the debug endpoint into an unbounded serialization.
const maxDebugTraces = 1000

// handleDebugTraces serves the recent-trace ring buffer, most recent
// first, filtered server-side: min_ms keeps only traces at least that
// slow, limit (alias n) bounds the count. Both are clamped — negative
// or NaN values fall back to the defaults, and limit never exceeds
// maxDebugTraces.
func (s *Server) handleDebugTraces(w http.ResponseWriter, r *http.Request) {
	minMS := floatParam(r, "min_ms", 0)
	if math.IsNaN(minMS) || minMS < 0 {
		minMS = 0
	}
	limit := intParam(r, "limit", intParam(r, "n", 0))
	if limit <= 0 || limit > maxDebugTraces {
		limit = maxDebugTraces
	}
	all := s.traces.Snapshot()
	out := make([]obs.TraceSnapshot, 0, len(all))
	for _, t := range all {
		if t.DurMS < minMS {
			continue
		}
		out = append(out, t)
		if len(out) >= limit {
			break
		}
	}
	s.writeJSON(w, map[string]interface{}{
		"traces":         out,
		"count":          len(out),
		"total_recorded": s.traces.Total(),
	})
}

// handleDebugInsights serves the insight-telemetry snapshot: per-class
// score quantiles (p50/p90/p99 within the KLL rank-error bound), hot
// columns and column tuples, candidate/pruned/filtered/emitted
// counters ("pruned" = skipped unscored by bound pruning; "filtered" =
// scored but dropped by NaN/strength filters — the meaning "pruned"
// carried before the split), top-k margin trends, the recent-query
// ring, and staleness against the engine's live cache generation.
// ?top= bounds the hot-item lists.
func (s *Server) handleDebugInsights(w http.ResponseWriter, r *http.Request) {
	top := intParam(r, "top", 10)
	snap := s.telem.Snapshot(s.engine.CacheStats().Generation, top)
	s.writeJSON(w, snap)
}

func (s *Server) handleState(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet, http.MethodHead:
		// Serialize to a buffer first so a failing Save can still turn
		// into a clean 500 (same single-write discipline as writeJSON).
		s.mu.RLock()
		var buf bytes.Buffer
		err := s.session.Save(&buf)
		s.mu.RUnlock()
		if err != nil {
			s.jsonError(w, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
		_, _ = w.Write(buf.Bytes())
	case http.MethodPost:
		r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
		restored, err := query.LoadSession(r.Body, s.engine)
		if err != nil {
			s.jsonError(w, http.StatusBadRequest, err)
			return
		}
		s.mu.Lock()
		s.session = restored
		s.mu.Unlock()
		s.writeJSON(w, map[string]interface{}{"restored": true, "focus_count": len(restored.Focus)})
	}
}

func intParam(r *http.Request, name string, def int) int {
	if v := r.URL.Query().Get(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil {
			return n
		}
	}
	return def
}

func floatParam(r *http.Request, name string, def float64) float64 {
	if v := r.URL.Query().Get(name); v != "" {
		if x, err := strconv.ParseFloat(v, 64); err == nil {
			return x
		}
	}
	return def
}

func boolParam(r *http.Request, name string) bool {
	v := r.URL.Query().Get(name)
	return v == "1" || v == "true"
}
