//go:build benchlayers

// Command layers is the benchmark's traced run. It regenerates a
// workload's inputs in-process, stands the same stack up that
// cmd/foresightd does (frame, profile, engine, server, WAL), and times
// each kind of request of the workload's script from the outside in:
// over loopback HTTP, then the handler alone, then the engine call the
// handler makes, then the class and kernel calls under that — each on
// the same engine state. The differences between successive depths are
// the layers' self times.
//
// It is the only part of the benchmark that calls the repository's Go
// API, hence the build tag: `go build ./...` never compiles it, and
// when an API change breaks it the end-to-end run still stands.
//
//	go run -tags benchlayers ./layers -workload explore_wide -seed 1
//
// The last line of standard output is a JSON object of the per-layer
// metrics; the spans go to -out.
package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"foresight/benchmark/workload"
	"foresight/internal/core"
	"foresight/internal/durable"
	"foresight/internal/frame"
	"foresight/internal/query"
	"foresight/internal/server"
	"foresight/internal/sketch"
	"foresight/internal/stats"
	"foresight/internal/viz"
)

// span is one timed call. Parent is the span one depth further out
// whose work this call repeats a part of (-1 for a loopback round
// trip or a stand-alone measurement); Request names the kind of
// request the chain belongs to.
type span struct {
	ID      int     `json:"id"`
	Name    string  `json:"name"`
	StartMS float64 `json:"start_ms"`
	EndMS   float64 `json:"end_ms"`
	Parent  int     `json:"parent"`
	Request string  `json:"request"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

// time runs fn as a span and returns its id and duration in ms.
func (t *tracer) time(name, request string, parent int, fn func()) (int, float64) {
	start := time.Since(t.t0)
	fn()
	end := time.Since(t.t0)
	id := len(t.spans)
	t.spans = append(t.spans, span{
		ID: id, Name: name, Parent: parent, Request: request,
		StartMS: ms(start), EndMS: ms(end),
	})
	return id, ms(end - start)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// depth is one level of an outside-in chain.
type depth struct {
	name string
	run  func()
}

// chainBudgetMS is how much time of its outermost depth one request
// kind may repeat for: a 5 ms request is timed twenty times at each
// depth, a 65 ms one nine times, a 250 ms one three times, and one
// that takes over the whole budget (the second-long cold carousel of
// explore_exact) once.
const chainBudgetMS = 600

// outsideIn times the depths of one request kind, outermost first,
// several times each, running prepare before every call (for a cold
// request: invalidate the memo). It returns each depth's floor. A
// depth's spans name the previous depth's span of the same repeat as
// parent. maxReps caps the repeats where each consumes an input.
func (t *tracer) outsideIn(request string, maxReps int, prepare func(), depths ...depth) []float64 {
	floors := make([]float64, len(depths))
	reps := 1
	for rep := 0; rep < reps; rep++ {
		parent := -1
		for i, d := range depths {
			if prepare != nil {
				prepare()
			}
			id, dur := t.time(d.name, request, parent, d.run)
			parent = id
			if rep == 0 || dur < floors[i] {
				floors[i] = dur
			}
		}
		if rep == 0 && floors[0] < chainBudgetMS {
			reps = max(3, min(maxReps, int(chainBudgetMS/floors[0])))
		}
	}
	return floors
}

// stack is what cmd/foresightd wires together.
type stack struct {
	spec   workload.Spec
	engine *query.Engine
	srv    *server.Server
	wal    *durable.Manager
	base   string // loopback URL
	client *http.Client
}

// newStack mirrors cmd/foresightd's main with every flag at its
// default except the ones the workload sets.
func newStack(spec workload.Spec, f *frame.Frame, p *sketch.DatasetProfile, walDir string) (*stack, error) {
	engine, err := query.NewEngine(f, core.NewRegistry(), p)
	if err != nil {
		return nil, err
	}
	engine.SetWorkers(0)
	s := &stack{spec: spec, engine: engine}
	opts := server.Options{RequestTimeout: 5 * time.Second, MaxInflight: 256, IngestQueue: 64}
	if spec.CheckpointRows > 0 {
		s.wal, err = durable.Open(durable.Options{Dir: walDir, CheckpointRows: spec.CheckpointRows})
		if err != nil {
			return nil, err
		}
		if _, err := s.wal.Recover(engine); err != nil {
			return nil, err
		}
		opts.Durable = s.wal
	}
	s.srv = server.New(engine, workload.CarouselK, spec.Approx, opts)
	return s, nil
}

// listen serves the stack on a loopback port until the returned
// function is called.
func (s *stack) listen() (func(), error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: s.srv}
	done := make(chan struct{})
	go func() {
		_ = hs.Serve(l) // returns ErrServerClosed on Close
		close(done)
	}()
	s.base = "http://" + l.Addr().String()
	s.client = &http.Client{Transport: &http.Transport{DisableCompression: true}}
	return func() { _ = hs.Close(); <-done }, nil
}

// request describes one HTTP request of the script.
type request struct {
	method, path, ctype string
	body                []byte
	want                int
}

func get(path string) request { return request{method: http.MethodGet, path: path, want: 200} }

// loopback sends r over the loopback listener and returns the size of
// the reply.
func (s *stack) loopback(r request) int {
	req, err := http.NewRequest(r.method, s.base+r.path, bytes.NewReader(r.body))
	must(err)
	if r.ctype != "" {
		req.Header.Set("Content-Type", r.ctype)
	}
	resp, err := s.client.Do(req)
	must(err)
	n, err := io.Copy(io.Discard, resp.Body)
	must(err)
	resp.Body.Close()
	if resp.StatusCode != r.want {
		fatalf("%s %s: status %d, want %d", r.method, r.path, resp.StatusCode, r.want)
	}
	return int(n)
}

// handler serves r by calling Server.ServeHTTP with a recorder: the
// whole middleware chain and the handler, no socket.
func (s *stack) handler(r request) int {
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(r.method, r.path, bytes.NewReader(r.body))
	if r.ctype != "" {
		req.Header.Set("Content-Type", r.ctype)
	}
	s.srv.ServeHTTP(rec, req)
	if rec.Code != r.want {
		fatalf("%s %s: handler status %d, want %d: %.200s", r.method, r.path, rec.Code, r.want, rec.Body.Bytes())
	}
	return rec.Body.Len()
}

func must(err error) {
	if err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "layers: "+format+"\n", args...)
	os.Exit(1)
}

// metrics collects the per-layer numbers by name.
type metrics map[string]float64

func main() {
	name := flag.String("workload", "explore_wide", "workload whose inputs and requests to trace")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	out := flag.String("out", "", "trace file (default out/trace_<workload>.json beside this module)")
	flag.Parse()
	spec, err := workload.Lookup(*name)
	must(err)
	if *out == "" {
		*out = filepath.Join("out", "trace_"+spec.Name+".json")
	}
	must(os.MkdirAll(filepath.Dir(*out), 0o755))
	walDir := filepath.Join(filepath.Dir(*out), "wal_layers_"+spec.Name)
	must(os.RemoveAll(walDir))
	defer os.RemoveAll(walDir)

	t := &tracer{t0: time.Now()}
	// What a workload's script lacks reads 0: the write path on
	// explore_wide, the WAL everywhere but on ingest_stream.
	m := metrics{}
	for _, name := range []string{
		"query.carousels_fresh_ms", "query.self_fresh_ms", "query.ingest_ms", "query.ingest_self_ms",
		"frame.append_first_ms", "frame.append_last_ms", "frame.append_growth", "sketch.extend_ms",
		"server.ingest_handler_ms", "server.ingest_self_ms", "server.ingest_resp_kb",
		"layers.ingest.transport_ms", "layers.ingest.server_ms", "layers.ingest.query_ms",
		"layers.ingest.frame_ms", "layers.ingest.sketch_ms", "layers.ingest.durable_ms", "layers.ingest.sum_ms",
		"durable.wal_append_ms", "durable.checkpoint_ms", "durable.recover_s", "durable.snapshot_mb",
	} {
		m[name] = 0
	}
	in := workload.MakeInputs(spec, *seed)
	ctx := context.Background()
	workers := runtime.GOMAXPROCS(0)

	// frame and sketch: what set-up pays.
	var f *frame.Frame
	_, d := t.time("frame.ReadCSV", "setup", -1, func() {
		f, err = frame.ReadCSV(bytes.NewReader(in.Data), spec.Name, nil)
	})
	must(err)
	in.Data = nil // 40 MB on explore_wide that nothing reads again
	m["frame.read_csv_s"] = d / 1e3
	var p *sketch.DatasetProfile
	_, d = t.time("sketch.BuildProfileSharded", "setup", -1, func() {
		p = sketch.BuildProfileSharded(f, sketch.ProfileConfig{Seed: 42, Spearman: true}, 0)
	})
	m["sketch.build_s"] = d / 1e3

	s, err := newStack(spec, f, p, walDir)
	must(err)
	stop, err := s.listen()
	must(err)
	defer stop()

	pair := in.Pairs[0]
	attrs := []string{pair.A, pair.B}
	approxQ := ""
	if spec.Approx {
		approxQ = "&approx=1"
	}
	carousels := get(fmt.Sprintf("/api/carousels?k=%d", workload.CarouselK))
	session := query.NewSession(s.engine, workload.CarouselK, spec.Approx)
	linear, _ := s.engine.Registry().Lookup("linear")

	// Cold carousels: every depth starts from an empty memo. Under the
	// engine call sit the class calls for every candidate, run on as
	// many workers as the engine uses so the wall times compare, and
	// under the two correlation classes their kernels.
	// The chain starts at the handler: what the socket adds is in the
	// warm chain below and does not depend on the memo.
	cold := t.outsideIn("carousels_cold", 3, s.engine.InvalidateCache,
		depth{"server.ServeHTTP", func() { s.handler(carousels) }},
		depth{"query.CarouselsContext", func() {
			_, err := s.engine.CarouselsContext(ctx, workload.CarouselK, spec.Approx)
			must(err)
		}},
		depth{"core.Score*", func() { scoreAll(t, f, p, spec.Approx, workers, false) }},
		depth{"kernels", func() { scoreAll(t, f, p, spec.Approx, workers, true) }},
	)
	m["query.carousels_cold_ms"] = cold[1]
	m["query.self_cold_ms"] = cold[1] - cold[2]
	s.loopback(carousels) // leave the memo warm

	// Warm requests: the explore cycle.
	const reps = 20
	chain := func(name string, r request, engine func()) []float64 {
		fl := t.outsideIn(name, reps, nil,
			depth{"loopback", func() { s.loopback(r) }},
			depth{"server.ServeHTTP", func() { m["server."+name+"_resp_kb"] = float64(s.handler(r)) / 1024 }},
			depth{"engine", engine},
		)
		m["server."+name+"_handler_ms"] = fl[1]
		m["server."+name+"_self_ms"] = fl[1] - fl[2]
		return fl
	}
	warm := chain("carousels", carousels, func() {
		_, err := session.RecommendationsKContext(ctx, workload.CarouselK)
		must(err)
	})
	m["query.carousels_warm_ms"] = warm[2]
	selfTimes(m, "carousels", warm)

	focusBody, _ := json.Marshal(map[string]any{"class": "linear", "attrs": attrs})
	focus := request{method: http.MethodPost, path: "/api/focus", ctype: "application/json", body: focusBody, want: 200}
	unfocus := request{method: http.MethodPost, path: "/api/unfocus", want: 200}
	focusMS := t.outsideIn("focus", reps, func() { s.handler(unfocus) }, depth{"loopback", func() { s.loopback(focus) }})
	focusIn, err := linear.Score(f, attrs, "")
	must(err)
	session.FocusOn(focusIn)
	focused := t.outsideIn("focused_carousels", reps, nil,
		depth{"loopback", func() { s.loopback(carousels) }},
		depth{"server.ServeHTTP", func() { s.handler(carousels) }},
		depth{"query.Session.RecommendationsKContext", func() {
			_, err := session.RecommendationsKContext(ctx, workload.CarouselK)
			must(err)
		}},
	)
	m["query.recommend_focused_ms"] = focused[2]
	unfocusMS := t.outsideIn("unfocus", reps, func() { s.handler(focus) }, depth{"loopback", func() { s.loopback(unfocus) }})
	s.handler(unfocus)

	nbr := chain("neighborhood", get("/api/neighborhood?class=linear&attrs="+pair.A+","+pair.B+"&k=10"+approxQ), func() {
		in, err := linear.Score(s.engine.Frame(), attrs, "")
		must(err)
		_, err = s.engine.NeighborhoodContext(ctx, in, nil, 10, spec.Approx)
		must(err)
	})
	m["query.neighborhood_ms"] = nbr[2]
	ov := chain("overview", get("/api/overview?class=linear"+approxQ), func() {
		_, err := s.engine.OverviewContext(ctx, "linear", "", spec.Approx)
		must(err)
	})
	m["query.overview_ms"] = ov[2]
	m["server.overview_transport_ms"] = ov[0] - ov[1]
	fixed := query.Query{Fixed: []string{pair.A}, K: 10, Approx: spec.Approx}
	qr := chain("query", get("/api/query?fix="+pair.A+"&k=10"+approxQ), func() {
		_, err := s.engine.ExecuteContext(ctx, fixed)
		must(err)
	})
	m["query.execute_fixed_ms"] = qr[2]

	// Render, both ways: from raw rows and from the sketch store.
	var insight core.Insight
	render := func(suffix string, score func() (core.Insight, error), draw func() (string, error)) []float64 {
		return t.outsideIn("render"+suffix, reps, nil,
			depth{"loopback", func() { s.loopback(get("/api/render?class=linear&attrs=" + pair.A + "," + pair.B + suffix)) }},
			depth{"server.ServeHTTP", func() {
				m["server.render_resp_kb"] = float64(s.handler(get("/api/render?class=linear&attrs="+pair.A+","+pair.B+suffix))) / 1024
			}},
			depth{"core+viz", func() {
				insight, err = score()
				must(err)
				_, err = draw()
				must(err)
			}},
			depth{"viz", func() { _, err = draw(); must(err) }},
		)
	}
	exact := render("", func() (core.Insight, error) { return linear.Score(f, attrs, "") },
		func() (string, error) { return viz.RenderSVG(f, insight) })
	m["viz.render_exact_ms"] = exact[3]
	approx := render("&approx=1", func() (core.Insight, error) { return linear.ScoreApprox(p, attrs, "") },
		func() (string, error) { return viz.RenderSVGFromProfile(p, insight) })
	m["viz.render_approx_ms"] = approx[3]
	rd := exact
	if spec.Approx {
		rd = approx
	}
	m["server.render_handler_ms"] = rd[1]
	m["server.render_self_ms"] = rd[1] - rd[2]
	m["loopback.cycle_ms"] = warm[0] + focusMS[0] + focused[0] + nbr[0] + ov[0] + qr[0] + rd[0] + unfocusMS[0]

	scrape := t.outsideIn("metrics", reps, nil, depth{"server.ServeHTTP", func() { s.handler(get("/metrics")) }})
	m["obs.metrics_scrape_ms"] = scrape[0]
	st := t.outsideIn("stats", reps, nil, depth{"server.ServeHTTP", func() { s.handler(get("/api/stats")) }})
	m["obs.stats_ms"] = st[0]

	kernels(t, m, f, p)
	classes(t, m, f, p)
	if spec.Loop != workload.LoopExplore {
		ingest(t, m, s, in, f)
		// The carousel behind a write: the memo is empty and the profile
		// is an extended one.
		fresh := t.outsideIn("carousels_fresh", 3, s.engine.InvalidateCache,
			depth{"server.ServeHTTP", func() { s.handler(carousels) }},
			depth{"query.CarouselsContext", func() {
				_, err := s.engine.CarouselsContext(ctx, workload.CarouselK, spec.Approx)
				must(err)
			}},
			depth{"core.Score*", func() { scoreAll(t, s.engine.Frame(), s.engine.Profile(), spec.Approx, workers, false) }},
		)
		m["query.carousels_fresh_ms"] = fresh[1]
		m["query.self_fresh_ms"] = fresh[1] - fresh[2]
	}
	if s.wal != nil {
		durableLayer(t, m, s, f, p, walDir)
	}

	s.srv.Close()
	data, err := json.Marshal(map[string]any{"workload": spec.Name, "seed": *seed, "spans": t.spans})
	must(err)
	must(os.WriteFile(*out, data, 0o644))
	line, err := json.Marshal(m)
	must(err)
	fmt.Printf("layers: %d spans in %s\n%s\n", len(t.spans), *out, line)
}

// selfTimes files the self times of a loopback ⊃ handler ⊃ engine
// chain (each depth's floor minus the next depth's) under
// layers.<request>.<layer>_ms; they sum to the loopback floor by
// construction, which is what the end-to-end run measured from another
// process.
func selfTimes(m metrics, request string, floors []float64) {
	names := []string{"transport", "server", "query"}
	for i, fl := range floors {
		self := fl
		if i+1 < len(floors) {
			self -= floors[i+1]
		}
		m["layers."+request+"."+names[i]+"_ms"] = self
	}
	m["layers."+request+".sum_ms"] = floors[0]
}

// sampleCandidates draws up to n of a class's candidates, seeded.
func sampleCandidates(c core.Class, f *frame.Frame, n int) [][]string {
	cands := c.Candidates(f)
	rng := rand.New(rand.NewSource(7))
	rng.Shuffle(len(cands), func(i, j int) { cands[i], cands[j] = cands[j], cands[i] })
	if len(cands) > n {
		cands = cands[:n]
	}
	return cands
}

// classes measures the core layer class by class: enumeration, and the
// mean cost of one exact score, one sketch score and one bound over up
// to 100 seeded candidates.
func classes(t *tracer, m metrics, f *frame.Frame, p *sketch.DatasetProfile) {
	total, enumMS, boundMS, bounds := 0, 0.0, 0.0, 0
	for _, c := range core.NewRegistry().Classes() {
		_, d := t.time("core.Candidates:"+c.Name(), "classes", -1, func() { total += len(c.Candidates(f)) })
		enumMS += d
		cands := sampleCandidates(c, f, 100)
		m["core.score_exact_us."+c.Name()] = 0
		m["core.score_approx_us."+c.Name()] = 0
		if len(cands) == 0 {
			continue
		}
		per := 1e3 / float64(len(cands))
		_, d = t.time("core.Score:"+c.Name(), "classes", -1, func() {
			for _, a := range cands {
				_, _ = c.Score(f, a, "") // an undefined score is still the cost of one
			}
		})
		m["core.score_exact_us."+c.Name()] = d * per
		_, d = t.time("core.ScoreApprox:"+c.Name(), "classes", -1, func() {
			for _, a := range cands {
				_, _ = c.ScoreApprox(p, a, "")
			}
		})
		m["core.score_approx_us."+c.Name()] = d * per
		_, d = t.time("core.ScoreBoundFor:"+c.Name(), "classes", -1, func() {
			for _, a := range cands {
				core.ScoreBoundFor(c, p, a, c.Metrics()[0])
			}
		})
		boundMS += d
		bounds += len(cands)
	}
	m["core.enumerate_ms"] = enumMS
	m["core.candidates"] = float64(total)
	m["core.bound_us"] = 1e3 * boundMS / float64(bounds)
}

// scoreAll is what a cold carousel asks of the core layer: a score for
// every candidate of every class, spread over the engine's worker
// count. With kernelsOnly it runs just the correlation kernels the two
// largest classes spend their time in.
func scoreAll(t *tracer, f *frame.Frame, p *sketch.DatasetProfile, approx bool, workers int, kernelsOnly bool) {
	for _, c := range core.NewRegistry().Classes() {
		c := c
		score := func(a []string) {
			if approx {
				_, _ = c.ScoreApprox(p, a, "")
			} else {
				_, _ = c.Score(f, a, "")
			}
		}
		name := "core.Score:" + c.Name()
		if kernelsOnly {
			name = "kernel:" + c.Name()
			switch {
			case c.Name() == "linear" && approx:
				score = func(a []string) { _, _ = p.EstimatePearson(a[0], a[1]) }
			case c.Name() == "linear":
				score = func(a []string) { stats.Pearson(values(f, a[0]), values(f, a[1])) }
			case c.Name() == "monotonic" && approx:
				score = func(a []string) { _, _ = p.EstimateSpearman(a[0], a[1]) }
			case c.Name() == "monotonic":
				score = func(a []string) { stats.Spearman(values(f, a[0]), values(f, a[1])) }
			default:
				continue
			}
		}
		cands := c.Candidates(f)
		t.time(name, "carousels_cold", -1, func() {
			var wg sync.WaitGroup
			next := make(chan []string)
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for a := range next {
						score(a)
					}
				}()
			}
			for _, a := range cands {
				next <- a
			}
			close(next)
			wg.Wait()
		})
	}
}

func values(f *frame.Frame, name string) []float64 {
	c, err := f.Numeric(name)
	must(err)
	return c.Values()
}

// kernels times the stats and sketch kernels on their own: the stats
// ones on the first 8000 rows of two columns (explore_exact's size, so
// the numbers compare across workloads), the sketch ones on the
// profile.
func kernels(t *tracer, m metrics, f *frame.Frame, p *sketch.DatasetProfile) {
	num := f.NumericColumns()
	n := min(f.Rows(), 8000)
	xs, ys := num[0].ValuesRange(0, n), num[1].ValuesRange(0, n)
	const calls = 20
	each := func(name string, fn func()) float64 {
		_, d := t.time(name, "kernels", -1, func() {
			for i := 0; i < calls; i++ {
				fn()
			}
		})
		return 1e3 * d / calls
	}
	m["stats.ranks_us"] = each("stats.Ranks", func() { stats.Ranks(xs) })
	m["stats.spearman_pair_us"] = each("stats.Spearman", func() { stats.Spearman(xs, ys) })
	m["stats.pearson_pair_us"] = each("stats.Pearson", func() { stats.Pearson(xs, ys) })
	m["stats.dip_us"] = each("stats.Dip", func() { stats.Dip(xs) })
	m["stats.binned_mi_pair_us"] = each("stats.BinnedMutualInformation", func() { stats.BinnedMutualInformation(xs, ys, 0) })

	names := make([]string, len(num))
	for i, c := range num {
		names[i] = c.Name()
	}
	pairs := 0
	_, d := t.time("sketch.EstimatePearson", "kernels", -1, func() {
		for i := range names {
			for j := i + 1; j < len(names) && pairs < 2000; j++ {
				_, _ = p.EstimatePearson(names[i], names[j])
				pairs++
			}
		}
	})
	m["sketch.estimate_pearson_us"] = 1e3 * d / float64(pairs)
	pairs = 0
	_, d = t.time("sketch.EstimateSpearman", "kernels", -1, func() {
		for i := range names {
			for j := i + 1; j < len(names) && pairs < 2000; j++ {
				_, _ = p.EstimateSpearman(names[i], names[j])
				pairs++
			}
		}
	})
	m["sketch.estimate_spearman_us"] = 1e3 * d / float64(pairs)

	var wire bytes.Buffer
	_, d = t.time("sketch.Save", "kernels", -1, func() { must(p.Save(&wire)) })
	m["sketch.save_ms"] = d
	m["sketch.wire_mb"] = float64(wire.Len()) / 1e6
	_, d = t.time("sketch.LoadProfile", "kernels", -1, func() {
		_, err := sketch.LoadProfile(bytes.NewReader(wire.Bytes()))
		must(err)
	})
	m["sketch.load_ms"] = d
}

// rowBatch parses a CSV ingest body into the batch the engine takes.
func rowBatch(body []byte) frame.RowBatch {
	recs, err := csv.NewReader(bytes.NewReader(body)).ReadAll()
	must(err)
	return frame.RowBatch{Columns: recs[0], Records: recs[1:]}
}

// ingest times the write path where the end-to-end run measures it:
// the round's ingests are applied up to the last one of the kind the
// script times (250 rows on ingest_stream, 10 rows on explore_exact),
// and every depth of every repeat posts that last one onto the same
// restored (frame, profile) pair, the frame at its largest.
func ingest(t *tracer, m metrics, s *stack, in *workload.Inputs, base *frame.Frame) {
	ctx := context.Background()
	timed, rest := in.Timed, in.Small
	if len(timed) == 0 {
		timed, rest = in.Small, nil
	}
	first := rowBatch(timed[0])
	m["frame.append_first_ms"] = t.outsideIn("ingest_first", 5, nil, depth{"frame.AppendRows", func() {
		_, err := base.AppendRows(first, nil)
		must(err)
	}})[0]

	last := len(timed) - 1
	for _, body := range append(timed[:last:last], rest...) {
		_, err := s.engine.Ingest(ctx, rowBatch(body), nil)
		must(err)
	}
	f, prof := s.engine.Frame(), s.engine.Profile()
	restore := func() { must(s.engine.RestoreSnapshot(f, prof)) }
	body, batch := timed[last], rowBatch(timed[last])
	post := request{method: http.MethodPost, path: "/api/ingest", ctype: "text/csv", body: body, want: 202}
	// The parts are kept from the repeat whose total was smallest.
	var appendMS, extendMS, walMS float64
	best := 0.0
	fl := t.outsideIn("ingest", 8, restore,
		depth{"loopback", func() { s.loopback(post) }},
		depth{"server.ServeHTTP", func() { m["server.ingest_resp_kb"] = float64(s.handler(post)) / 1024 }},
		depth{"query.Engine.Ingest", func() {
			_, err := s.engine.Ingest(ctx, batch, nil)
			must(err)
		}},
		depth{"frame+sketch+durable", func() {
			// The three calls Engine.Ingest makes; the results are
			// dropped, so the engine does not advance.
			var f2 *frame.Frame
			var err error
			var a, e, w float64
			_, a = t.time("frame.AppendRows", "ingest", -1, func() { f2, err = f.AppendRows(batch, nil) })
			must(err)
			_, e = t.time("sketch.Extend", "ingest", -1, func() { _, err = prof.Extend(f2) })
			must(err)
			if s.wal != nil {
				res := query.IngestResult{RowsAppended: len(batch.Records), TotalRows: f2.Rows()}
				_, w = t.time("durable.AppendBatch", "ingest", -1, func() { err = s.wal.AppendBatch(batch, res) })
				must(err)
			}
			if best == 0 || a+e+w < best {
				best, appendMS, extendMS, walMS = a+e+w, a, e, w
			}
		}},
	)
	m["server.ingest_handler_ms"] = fl[1]
	m["server.ingest_self_ms"] = fl[1] - fl[2]
	m["query.ingest_ms"] = fl[2]
	m["query.ingest_self_ms"] = fl[2] - fl[3]
	m["frame.append_last_ms"] = appendMS
	m["frame.append_growth"] = appendMS / m["frame.append_first_ms"]
	m["sketch.extend_ms"] = extendMS
	m["durable.wal_append_ms"] = walMS
	selfTimes(m, "ingest", fl[:3])
	m["layers.ingest.query_ms"] = fl[2] - fl[3]
	m["layers.ingest.frame_ms"] = appendMS
	m["layers.ingest.sketch_ms"] = extendMS
	m["layers.ingest.durable_ms"] = walMS
}

// durableLayer times a forced checkpoint and a recovery of what the
// run logged into a fresh engine over the base dataset.
func durableLayer(t *tracer, m metrics, s *stack, f *frame.Frame, p *sketch.DatasetProfile, walDir string) {
	// The row trigger may have started a checkpoint of its own during
	// the ingests; Checkpoint refuses to run beside it.
	var err error
	for try := 0; try < 50; try++ {
		if err = s.wal.Checkpoint(); err == nil {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	must(err)
	_, d := t.time("durable.Checkpoint", "durable", -1, func() { must(s.wal.Checkpoint()) })
	m["durable.checkpoint_ms"] = d
	var snaps []string
	snaps, err = filepath.Glob(filepath.Join(walDir, "*.snap"))
	must(err)
	for _, snap := range snaps {
		if info, err := os.Stat(snap); err == nil && float64(info.Size())/1e6 > m["durable.snapshot_mb"] {
			m["durable.snapshot_mb"] = float64(info.Size()) / 1e6
		}
	}
	must(s.wal.Close())
	engine, err := query.NewEngine(f, core.NewRegistry(), p)
	must(err)
	wal, err := durable.Open(durable.Options{Dir: walDir, CheckpointRows: s.spec.CheckpointRows})
	must(err)
	_, d = t.time("durable.Recover", "durable", -1, func() { _, err = wal.Recover(engine) })
	must(err)
	m["durable.recover_s"] = d / 1e3
	must(wal.Close())
}
