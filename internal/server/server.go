// Package server implements the Foresight demo web UI (paper Figure
// 1): a JSON API over the query engine plus a self-contained HTML
// page that renders insight carousels, supports focusing insights to
// update recommendations, and shows per-class overview heat maps.
//
// The server is fully instrumented (internal/obs): every route
// records per-route request counts, latency histograms and response
// bytes; every request carries an X-Request-ID and a trace whose
// spans (parse → enumerate → score → rank → render) land in a ring
// buffer served at /api/debug/traces; /metrics exposes the whole
// registry in Prometheus text format.
//
// The serving path is bounded end to end (DESIGN.md §6e): every API
// request runs under an optional deadline whose expiry surfaces as
// 504 (the engine honors the context, so the workers actually stop),
// a bounded-concurrency gate sheds excess load with 503 instead of
// queueing without limit, handler panics are recovered into 500s with
// the stack in the structured log, and POST bodies are capped. The
// cancellation/timeout/shed/panic counters land in /metrics next to
// everything else.
package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
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
	// StartUnready starts the server not ready: /readyz answers 503 and
	// ingest is rejected with 503 + Retry-After until SetReady is
	// called. Used while WAL recovery replays into the engine — queries
	// already serve (against the pre-replay snapshot), but accepting
	// writes before the log is open would break the durability
	// contract.
	StartUnready bool
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
	httpObs  *obs.HTTP
	traces   *obs.TraceLog
	telem    *telemetry.Insights
	start    time.Time
	version  string

	// ready gates ingest and /readyz; it starts false under
	// Options.StartUnready and flips once via SetReady when recovery
	// replay completes. durable is the optional stats source.
	ready   atomic.Bool
	durable DurableStats

	// Serving-path safety rails (§6e): the per-request deadline, the
	// bounded-concurrency gate, and their visibility counters.
	requestTimeout time.Duration
	gate           chan struct{} // nil = unlimited
	panics         *obs.Counter
	timeouts       *obs.Counter
	sheds          *obs.Counter

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
		traces:         obs.NewTraceLog(traceCapacity, o.SlowTraceThreshold),
		start:          time.Now(),
		version:        version,
		requestTimeout: o.RequestTimeout,
		durable:        o.Durable,
	}
	s.ready.Store(!o.StartUnready)
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
	s.httpObs = &obs.HTTP{
		Metrics: obs.NewHTTPMetrics(reg, "foresight_http"),
		Log:     obs.NewLogger(o.LogWriter),
		Traces:  s.traces,
	}
	// Insight telemetry: Foresight observing itself with its own
	// sketches (obs/telemetry). The store is bounded and always on —
	// recording costs one stripe lock after scoring — and is served at
	// /api/debug/insights plus the foresight_insight_* metric families.
	// The sampled query log shares the request logger's writer and
	// mutex, so the two JSON streams interleave cleanly.
	s.telem = telemetry.New(telemetry.Config{})
	s.telem.Instrument(reg)
	s.telem.SetQueryLog(s.httpObs.Log, o.QueryLogSample)
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
	s.mux.Handle("/metrics", s.httpObs.Wrap("/metrics", s.recoverPanics("/metrics", reg.Handler())))
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

// handle registers an instrumented handler for pattern: the obs
// middleware assigns the request ID, trace, per-route metrics and log
// line; inside it, panic recovery converts a crashing handler into a
// 500; API routes additionally pass the load-shedding gate and run
// under the per-request deadline; innermost, the guard rejects
// methods outside allowed with a consistent 405 JSON error naming the
// allowed set.
func (s *Server) handle(pattern string, h http.HandlerFunc, allowed ...string) {
	var next http.Handler = h
	if len(allowed) > 0 {
		next = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			for _, m := range allowed {
				if r.Method == m || (m == http.MethodGet && r.Method == http.MethodHead) {
					h(w, r)
					return
				}
			}
			w.Header().Set("Allow", strings.Join(allowed, ", "))
			s.jsonError(w, r, http.StatusMethodNotAllowed,
				fmt.Errorf("method %s not allowed (allow: %s)", r.Method, strings.Join(allowed, ", ")))
		})
	}
	if strings.HasPrefix(pattern, "/api/") {
		next = s.withDeadline(next)
		next = s.withGate(next)
	}
	s.mux.Handle(pattern, s.httpObs.Wrap(pattern, s.recoverPanics(pattern, next)))
}

// trackingWriter remembers whether anything was written so the panic
// recovery knows if a 500 body can still be sent.
type trackingWriter struct {
	http.ResponseWriter
	wrote bool
}

func (w *trackingWriter) WriteHeader(code int) {
	w.wrote = true
	w.ResponseWriter.WriteHeader(code)
}

func (w *trackingWriter) Write(b []byte) (int, error) {
	w.wrote = true
	return w.ResponseWriter.Write(b)
}

// Flush forwards to the underlying writer when it supports streaming.
func (w *trackingWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// recoverPanics isolates handler panics: the process keeps serving,
// the client gets a 500 JSON error (when nothing was written yet), the
// stack lands in the structured log, and foresight_http_panics_total
// increments. http.ErrAbortHandler is re-raised — it is net/http's
// sanctioned way to abort a response, not a crash.
func (s *Server) recoverPanics(route string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		tw := &trackingWriter{ResponseWriter: w}
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if err, ok := rec.(error); ok && errors.Is(err, http.ErrAbortHandler) {
				panic(rec)
			}
			s.panics.Inc()
			s.httpObs.Log.Log("panic", map[string]interface{}{
				"request_id": obs.RequestIDFrom(r.Context()),
				"route":      route,
				"method":     r.Method,
				"panic":      fmt.Sprint(rec),
				"stack":      string(debug.Stack()),
			})
			if !tw.wrote {
				s.jsonError(tw, r, http.StatusInternalServerError,
					fmt.Errorf("internal error serving %s (panic recovered; see server log)", route))
			}
		}()
		next.ServeHTTP(tw, r)
	})
}

// withGate sheds load once MaxInflight API requests are already being
// served: the request is rejected immediately with 503 rather than
// queueing behind work the server cannot keep up with.
func (s *Server) withGate(next http.Handler) http.Handler {
	if s.gate == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case s.gate <- struct{}{}:
			defer func() { <-s.gate }()
			next.ServeHTTP(w, r)
		default:
			s.sheds.Inc()
			w.Header().Set("Retry-After", "1")
			s.jsonError(w, r, http.StatusServiceUnavailable,
				fmt.Errorf("server saturated (%d requests in flight); retry shortly", cap(s.gate)))
		}
	})
}

// withDeadline bounds the request context. The handlers pass this
// context into the engine, which stops scoring when it fires; the
// resulting context.DeadlineExceeded is mapped to 504 by jsonError.
func (s *Server) withDeadline(next http.Handler) http.Handler {
	if s.requestTimeout <= 0 {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), s.requestTimeout)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// SetReady flips the server to ready: /readyz answers 200 and ingest
// is accepted. Called once by the startup path after WAL recovery
// replay completes (or immediately when there is no WAL).
func (s *Server) SetReady() { s.ready.Store(true) }

// Ready reports whether the server has completed startup recovery.
func (s *Server) Ready() bool { return s.ready.Load() }

// handleHealthz is the liveness probe: the process is up and serving
// HTTP. It says nothing about recovery — a replaying server is alive.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.writeJSON(w, map[string]interface{}{"status": "ok", "uptime_s": time.Since(s.start).Seconds()})
}

// handleReadyz is the readiness probe: 503 until startup recovery
// (snapshot load + WAL replay) has completed, 200 after. Orchestrators
// keep traffic away until this flips. It is 503 again, naming the
// cause, once the WAL has latched failed: every ingest fails until a
// restart, though reads keep serving.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		w.Header().Set("Retry-After", "1")
		s.writeJSONStatus(w, http.StatusServiceUnavailable,
			map[string]interface{}{"ready": false, "reason": "startup recovery in progress"})
		return
	}
	if s.durable != nil {
		if failed := s.durable.Stats().Failed; failed != "" {
			s.writeJSONStatus(w, http.StatusServiceUnavailable,
				map[string]interface{}{"ready": false, "reason": "WAL failed: " + failed})
			return
		}
	}
	s.writeJSON(w, map[string]interface{}{"ready": true})
}

// Registry returns the server's metrics registry (for mounting
// /metrics on a separate debug listener).
func (s *Server) Registry() *obs.Registry { return s.registry }

// errorStatus refines a handler's fallback status from the error's
// identity: an expired per-request deadline is a 504 (and counts
// toward the timeout counter at the write site), a client that went
// away is recorded as 499, and an oversized POST body is a 413.
func errorStatus(code int, err error) int {
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return statusClientClosedRequest
	}
	return code
}

// jsonError writes a JSON error body carrying the request ID so the
// response correlates with log lines and traces. Context errors
// override the caller's status (504 deadline / 499 client gone) so
// every handler maps cancellation consistently.
func (s *Server) jsonError(w http.ResponseWriter, r *http.Request, code int, err error) {
	code = errorStatus(code, err)
	if code == http.StatusGatewayTimeout {
		s.timeouts.Inc()
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	body := map[string]string{"error": err.Error()}
	if id := obs.RequestIDFrom(r.Context()); id != "" {
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
	k := intParam(r, "k", 5)
	// The per-request k is passed explicitly instead of being written
	// into the shared session, and a copy of the session is scored
	// outside the lock, so carousels rank beside each other and beside
	// focus changes (scores come from the engine's memo after the first
	// request).
	s.mu.RLock()
	session := *s.session
	session.Focus = append([]core.Insight(nil), s.session.Focus...)
	s.mu.RUnlock()
	res, err := session.RecommendationsKContext(r.Context(), k)
	if err != nil {
		s.jsonError(w, r, http.StatusInternalServerError, err)
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
		s.jsonError(w, r, http.StatusBadRequest, err)
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
			s.jsonError(w, r, http.StatusBadRequest, err)
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
		s.jsonError(w, r, http.StatusBadRequest, err)
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
		s.jsonError(w, r, http.StatusBadRequest, fmt.Errorf("render needs class and attrs"))
		return
	}
	c, ok := s.engine.Registry().Lookup(class)
	if !ok {
		s.jsonError(w, r, http.StatusBadRequest, fmt.Errorf("unknown class %q", class))
		return
	}
	var svg string
	endScore := obs.StartSpan(r.Context(), "score:"+class)
	if boolParam(r, "approx") {
		// Sketch-only panel: both the score and the pixels come from
		// the preprocessed store.
		p := s.engine.Profile()
		if p == nil {
			endScore()
			s.jsonError(w, r, http.StatusBadRequest, fmt.Errorf("approx render requires a preprocessed profile"))
			return
		}
		in, err := c.ScoreApprox(p, strings.Split(attrs, ","), r.URL.Query().Get("metric"))
		endScore()
		if err != nil {
			s.jsonError(w, r, http.StatusBadRequest, err)
			return
		}
		endRender := obs.StartSpan(r.Context(), "render")
		svg, err = viz.RenderSVGFromProfile(p, in)
		endRender()
		if err != nil {
			s.jsonError(w, r, http.StatusBadRequest, err)
			return
		}
	} else {
		in, err := c.Score(s.engine.Frame(), strings.Split(attrs, ","), r.URL.Query().Get("metric"))
		endScore()
		if err != nil {
			s.jsonError(w, r, http.StatusBadRequest, err)
			return
		}
		endRender := obs.StartSpan(r.Context(), "render")
		svg, err = viz.RenderSVG(s.engine.Frame(), in)
		endRender()
		if err != nil {
			s.jsonError(w, r, http.StatusBadRequest, err)
			return
		}
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
		s.jsonError(w, r, http.StatusBadRequest, fmt.Errorf("neighborhood needs class and attrs"))
		return
	}
	c, ok := s.engine.Registry().Lookup(class)
	if !ok {
		s.jsonError(w, r, http.StatusBadRequest, fmt.Errorf("unknown class %q", class))
		return
	}
	focus, err := c.Score(s.engine.Frame(), strings.Split(attrs, ","), r.URL.Query().Get("metric"))
	if err != nil {
		s.jsonError(w, r, http.StatusBadRequest, err)
		return
	}
	var within []string
	if scope := r.URL.Query().Get("within"); scope != "" {
		within = strings.Split(scope, ",")
	}
	nbrs, err := s.engine.NeighborhoodContext(r.Context(), focus, within, intParam(r, "k", 10), boolParam(r, "approx"))
	if err != nil {
		s.jsonError(w, r, http.StatusBadRequest, err)
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
		s.jsonError(w, r, http.StatusBadRequest, err)
		return
	}
	c, ok := s.engine.Registry().Lookup(req.Class)
	if !ok {
		s.jsonError(w, r, http.StatusBadRequest, fmt.Errorf("unknown class %q", req.Class))
		return
	}
	in, err := c.Score(s.engine.Frame(), req.Attrs, req.Metric)
	if err != nil {
		s.jsonError(w, r, http.StatusBadRequest, err)
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
			"requests_total":  s.httpObs.Metrics.Requests.Total(),
			"traces_recorded": s.traces.Total(),
			"panics":          s.panics.Value(),
			"timeouts":        s.timeouts.Value(),
			"sheds":           s.sheds.Value(),
		},
		"lifecycle": map[string]interface{}{
			"request_timeout_ms":   float64(s.requestTimeout) / float64(time.Millisecond),
			"max_inflight":         cap(s.gate),
			"engine_cancellations": s.engine.Cancellations(),
			"ready":                s.ready.Load(),
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
// Snapshotting drains the write stripes without blocking scoring.
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
			s.jsonError(w, r, http.StatusInternalServerError, err)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
		_, _ = w.Write(buf.Bytes())
	case http.MethodPost:
		r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
		restored, err := query.LoadSession(r.Body, s.engine)
		if err != nil {
			s.jsonError(w, r, http.StatusBadRequest, err)
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
