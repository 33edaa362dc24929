package main

import (
	"bytes"
	"encoding/json"
	"os"
	"slices"
	"strconv"
	"sync"
	"time"

	"foresight/benchmark/workload"
)

// run is the state shared by the rounds of one workload run.
type run struct {
	spec     workload.Spec
	in       *workload.Inputs
	bin      string
	dataPath string
	walDir   string
	logPath  string
	rec      *recorder
	// counts carries exact counters read from /api/stats, one value per
	// round, keyed by the per-layer metric they feed.
	counts map[string][]float64
}

func (r *run) flags() []string {
	f := []string{"-data", r.dataPath}
	if r.spec.Approx {
		f = append(f, "-approx")
	}
	if r.spec.CheckpointRows > 0 {
		f = append(f, "-wal-dir", r.walDir, "-checkpoint-rows", strconv.Itoa(r.spec.CheckpointRows))
	}
	return f
}

func (r *run) count(name string, v float64) { r.counts[name] = append(r.counts[name], v) }

// serverStats is the part of /api/stats the benchmark reads.
type serverStats struct {
	Rows  int `json:"rows"`
	Cache struct {
		Hits, Misses uint64
	} `json:"cache"`
	Prune struct {
		Considered, Pruned uint64
	} `json:"prune"`
	Runtime struct {
		TotalAlloc uint64 `json:"total_alloc"`
		NumGC      uint32 `json:"num_gc"`
	} `json:"runtime"`
	Durable *struct {
		AppendedBytes uint64 `json:"appended_bytes"`
		Fsyncs        uint64 `json:"fsyncs"`
		Checkpoints   uint64 `json:"checkpoints"`
		Recovery      struct {
			ReplayedBatches int `json:"replayed_batches"`
		} `json:"recovery"`
	} `json:"durable"`
}

func (r *run) stats(c *client) (serverStats, bool) {
	var st serverStats
	body, ok := c.get("stats", "/api/stats")
	if ok {
		if err := json.Unmarshal(body, &st); err != nil {
			r.rec.fail("/api/stats: %v", err)
			return st, false
		}
	}
	return st, ok
}

// insight and carouselReply are the fields of the JSON API the oracle
// inspects.
type insight struct {
	Attrs []string `json:"attrs"`
}

type carouselReply struct {
	Carousels []struct {
		Class    string    `json:"class"`
		Insights []insight `json:"insights"`
	} `json:"carousels"`
	Focus []insight `json:"focus"`
}

// carousels requests the carousel view, checks it against the class
// list and focus count the script expects, and returns the body.
func (r *run) carousels(c *client, op string, classes []string, focused int) []byte {
	body, ok := c.get(op, "/api/carousels?k="+strconv.Itoa(workload.CarouselK))
	if !ok {
		return nil
	}
	var reply carouselReply
	if err := json.Unmarshal(body, &reply); err != nil {
		r.rec.fail("carousels: %v", err)
		return body
	}
	if len(reply.Carousels) != len(classes) {
		r.rec.fail("carousels: %d classes, want %v", len(reply.Carousels), classes)
		return body
	}
	for i, car := range reply.Carousels {
		if car.Class != classes[i] || len(car.Insights) == 0 || len(car.Insights) > workload.CarouselK {
			r.rec.fail("carousels: slot %d is %q with %d insights, want %q with 1..%d",
				i, car.Class, len(car.Insights), classes[i], workload.CarouselK)
		}
	}
	if len(reply.Focus) != focused {
		r.rec.fail("carousels: %d focused insights, want %d", len(reply.Focus), focused)
	}
	return body
}

// readPaths are the four read operations of one exploration stop, in
// the order the read windows issue them after carousels.
type readPaths struct{ neighborhood, overview, query, render string }

func (r *run) paths(p workload.FocusPair) readPaths {
	approx := ""
	if r.spec.Approx {
		approx = "&approx=1"
	}
	attrs := p.A + "," + p.B
	return readPaths{
		neighborhood: "/api/neighborhood?class=linear&attrs=" + attrs + "&k=10" + approx,
		overview:     "/api/overview?class=linear" + approx,
		query:        "/api/query?fix=" + p.A + "&k=10" + approx,
		render:       "/api/render?class=linear&attrs=" + attrs + approx,
	}
}

// neighborhood, overview and query issue one read each and check the
// reply's shape.
func (r *run) neighborhood(c *client, p readPaths) []byte {
	body, ok := c.get("neighborhood", p.neighborhood)
	if !ok {
		return nil
	}
	var reply struct {
		Neighbors []insight `json:"neighbors"`
	}
	if err := json.Unmarshal(body, &reply); err != nil || len(reply.Neighbors) == 0 || len(reply.Neighbors) > 10 {
		r.rec.fail("neighborhood: %d neighbors (err %v), want 1..10", len(reply.Neighbors), err)
	}
	return body
}

func (r *run) overview(c *client, p readPaths, parse bool) []byte {
	body, ok := c.get("overview", p.overview)
	if !ok || !parse {
		return body
	}
	// Parsing a few megabytes costs the harness tens of milliseconds of
	// CPU the server's next request would share, so only one overview
	// per round is parsed; the rest are compared byte for byte.
	var reply struct {
		RowAttrs []string    `json:"row_attrs"`
		Values   [][]float64 `json:"values"`
	}
	if err := json.Unmarshal(body, &reply); err != nil ||
		len(reply.RowAttrs) != r.spec.Shape.Numeric || len(reply.Values) != r.spec.Shape.Numeric {
		r.rec.fail("overview: %d×%d matrix (err %v), want %d attributes",
			len(reply.RowAttrs), len(reply.Values), err, r.spec.Shape.Numeric)
	}
	return body
}

func (r *run) query(c *client, p readPaths, fix string) []byte {
	body, ok := c.get("query", p.query)
	if !ok {
		return nil
	}
	var reply struct {
		Results []struct {
			Insights []insight `json:"insights"`
		} `json:"results"`
	}
	if err := json.Unmarshal(body, &reply); err != nil || len(reply.Results) == 0 {
		r.rec.fail("query: %d results (err %v)", len(reply.Results), err)
		return body
	}
	for _, res := range reply.Results {
		if len(res.Insights) > 10 {
			r.rec.fail("query: %d insights in one class, want at most 10", len(res.Insights))
		}
		for _, in := range res.Insights {
			if !slices.Contains(in.Attrs, fix) {
				r.rec.fail("query: insight %v lacks the fixed attribute %s", in.Attrs, fix)
			}
		}
	}
	return body
}

// round is the state of one pass of the script against one process.
type round struct {
	*run
	srv     *server
	c       *client
	classes []string // what every carousel must carry
	// rows is the row count the script has reached, posted the CSV
	// bytes it has sent, timed the index of the next timed batch.
	rows, posted, timed int
	// lastCarousel is the carousel body behind the last write.
	lastCarousel []byte
	// peakRSS is the highest resident-set high-water mark, in MB, among
	// the round's processes (two with a WAL).
	peakRSS float64
}

// round runs the script once against a fresh process.
func (r *run) round() error {
	spec, rec := r.spec, r.rec
	spin(rec)
	srv, setup, err := startServer(r.bin, r.flags(), r.logPath)
	if err != nil {
		return err
	}
	rec.sample("setup", setup.Seconds())
	rd := &round{run: r, srv: srv, c: newClient(srv.base, rec), rows: spec.Shape.Rows}
	defer func() { rd.srv.kill() }() // rd.srv is replaced by the restarted process

	var listed struct {
		Classes []struct {
			Name string `json:"name"`
		} `json:"classes"`
	}
	if body, ok := rd.c.get("", "/api/classes"); ok {
		if err := json.Unmarshal(body, &listed); err != nil {
			rec.fail("/api/classes: %v", err)
		}
	}
	var names []string
	for _, cl := range listed.Classes {
		names = append(names, cl.Name)
	}
	rd.classes = spec.ExpectClasses(names)
	rec.sameBody("carousel", r.carousels(rd.c, "cold_carousel", rd.classes, 0))

	// alloc_mb_per_cycle is taken over the workload's main loop.
	before, _ := r.stats(rd.c)
	for cyc := 0; cyc < spec.Cycles; cyc++ {
		if cyc%4 == 0 {
			spin(rec)
		}
		switch spec.Loop {
		case workload.LoopExplore:
			rd.exploreCycle(cyc)
		case workload.LoopFresh:
			rd.freshReads(cyc, true)
		case workload.LoopStream:
			for b := 0; b < workload.BatchesPerCycle; b++ {
				rd.postBatch()
			}
			rd.freshReads(cyc, false)
		}
	}
	after, _ := r.stats(rd.c)
	rec.sample("alloc_mb_per_cycle", float64(after.Runtime.TotalAlloc-before.Runtime.TotalAlloc)/1e6/float64(spec.Cycles))
	r.count("bench.gc_per_100_cycles", 100*float64(after.Runtime.NumGC-before.Runtime.NumGC)/float64(spec.Cycles))
	if spec.Loop == workload.LoopExplore {
		rd.readWindow()
	}

	end, _ := r.stats(rd.c)
	if end.Rows != rd.rows {
		rec.fail("/api/stats reports %d rows, want %d", end.Rows, rd.rows)
	}
	// max(…, 1): a ratio of nothing reads 0.
	r.count("query.memo_hit_ratio", float64(end.Cache.Hits)/float64(max(end.Cache.Hits+end.Cache.Misses, 1)))
	r.count("query.prune_skip_ratio", float64(end.Prune.Pruned)/float64(max(end.Prune.Considered, 1)))
	if err := rd.notePeakRSS(); err != nil {
		return err
	}
	switch {
	case spec.CheckpointRows == 0:
	case end.Durable == nil:
		rec.fail("/api/stats has no durable section under -wal-dir")
	default:
		r.count("durable.write_amp", float64(end.Durable.AppendedBytes)/float64(rd.posted))
		r.count("durable.fsyncs", float64(end.Durable.Fsyncs))
		r.count("durable.checkpoints", float64(end.Durable.Checkpoints))
		if err := rd.crashAndRecover(); err != nil {
			return err
		}
	}
	rec.sample("peak_rss_mb", rd.peakRSS)
	return nil
}

// notePeakRSS raises the round's peak to the high-water mark of the
// process now running.
func (rd *round) notePeakRSS() error {
	rss, err := rd.srv.peakRSSMB()
	rd.peakRSS = max(rd.peakRSS, rss)
	return err
}

// exploreCycle is one stop of the analyst's loop over the seeded focus
// pairs. The memo is warm from the cold carousel on, so every body must
// repeat, also when a later cycle comes back to the same pair.
func (rd *round) exploreCycle(i int) {
	rec, c := rd.rec, rd.c
	k := i % len(rd.in.Pairs)
	pair, p, pos := rd.in.Pairs[k], rd.paths(rd.in.Pairs[k]), strconv.Itoa(k)
	rec.sameBody("carousel", rd.carousels(c, "carousel", rd.classes, 0))
	focus, _ := json.Marshal(map[string]any{"class": "linear", "attrs": []string{pair.A, pair.B}})
	c.postJSON("focus", "/api/focus", focus)
	rec.sameBody("focused/"+pos, rd.carousels(c, "focused_carousel", rd.classes, 1))
	rec.sameBody("neighborhood/"+pos, rd.neighborhood(c, p))
	rec.sameBody("overview", rd.overview(c, p, i == 0))
	rec.sameBody("query/"+pos, rd.query(c, p, pair.A))
	if body, ok := c.get("render", p.render); ok {
		rec.sameBody("render/"+pos, body)
		if !bytes.Contains(body, []byte("<svg")) {
			rec.fail("render: reply is not an SVG document")
		}
	}
	c.postJSON("unfocus", "/api/unfocus", nil)
}

// readWindow has two clients, each waiting for its own replies, repeat
// the four read operations; the sample is their combined rate.
func (rd *round) readWindow() {
	spin(rd.rec)
	p := rd.paths(rd.in.Pairs[0])
	var wg sync.WaitGroup
	start := time.Now()
	for cl := 0; cl < 2; cl++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := newClient(rd.srv.base, rd.rec)
			c.get("", "/api/carousels?k="+strconv.Itoa(workload.CarouselK))
			c.get("", p.query)
			c.get("", p.overview)
			c.get("", p.neighborhood)
		}()
	}
	wg.Wait()
	rd.rec.sample(workload.ReadOpsPerS, 2*4/time.Since(start).Seconds())
}

// freshReads posts the cycle's 10-row ingest and reads right behind it:
// the carousel, which finds the memo empty, and with explore the
// neighborhood, overview and query of the first focus pair.
func (rd *round) freshReads(cyc int, explore bool) {
	rec, c := rd.rec, rd.c
	body, pos := rd.in.Small[cyc], strconv.Itoa(cyc)
	if reply, ok := c.ingest("ingest_small", body); ok {
		rd.rows += workload.SmallBatchRows
		rd.posted += len(body)
		rd.checkAck(reply, rd.rows)
	}
	rd.lastCarousel = rd.carousels(c, "fresh_carousel", rd.classes, 0)
	rec.sameBody("fresh_carousel/"+pos, rd.lastCarousel)
	if explore {
		p := rd.paths(rd.in.Pairs[0])
		rec.sameBody("neighborhood/"+pos, rd.neighborhood(c, p))
		rd.overview(c, p, cyc == 0)
		rec.sameBody("query/"+pos, rd.query(c, p, rd.in.Pairs[0].A))
	}
}

// postBatch posts the next timed batch and files its acknowledgement
// latency: under ingest_ack from batch Spec.AckFrom on, and under
// ingest_ack_first for the first.
func (rd *round) postBatch() {
	i, body := rd.timed, rd.in.Timed[rd.timed]
	rd.timed++
	reply, ms, ok := rd.c.do("ingest_ack_all", "POST", "/api/ingest", "text/csv", body, 202)
	if !ok {
		return
	}
	rd.rows += workload.BatchRows
	rd.posted += len(body)
	rd.checkAck(reply, rd.rows)
	if i == 0 {
		rd.rec.sample("ingest_ack_first", ms)
	}
	if i >= rd.spec.AckFrom() {
		rd.rec.sample("ingest_ack", ms)
	}
}

// crashAndRecover kills the process, restarts it on the same WAL
// directory and checks that it comes back with every acknowledged row
// and the same answers. SIGKILL leaves the page cache intact, so this
// checks that an acknowledged row is recoverable, not that it was
// fsynced; the repository's ErrFS crash matrix is the oracle for that.
func (rd *round) crashAndRecover() error {
	rec := rd.rec
	rd.srv.kill()
	srv, recovery, err := startServer(rd.bin, rd.flags(), rd.logPath)
	if err != nil {
		return err
	}
	rd.srv, rd.c = srv, newClient(srv.base, rec)
	rec.sample(workload.RecoveryS, recovery.Seconds())
	if st, ok := rd.stats(rd.c); ok {
		if st.Rows != rd.rows {
			rec.fail("after recovery %d rows, want base %d + acknowledged %d", st.Rows, rd.spec.Shape.Rows, rd.rows-rd.spec.Shape.Rows)
		}
		if st.Durable != nil {
			rd.count("durable.replayed_batches", float64(st.Durable.Recovery.ReplayedBatches))
		}
	}
	if got := rd.carousels(rd.c, "", rd.classes, 0); !bytes.Equal(got, rd.lastCarousel) {
		rec.fail("carousel after recovery differs from the carousel before the kill")
	}
	if err := rd.notePeakRSS(); err != nil {
		return err
	}
	srv.kill()
	return os.RemoveAll(rd.walDir)
}

// checkAck verifies an ingest acknowledgement reports the row count
// the script has reached.
func (r *run) checkAck(reply []byte, rows int) {
	var ack struct {
		RowCount int `json:"row_count"`
	}
	if err := json.Unmarshal(reply, &ack); err != nil || ack.RowCount != rows {
		r.rec.fail("ingest acknowledged row_count %d (err %v), want %d", ack.RowCount, err, rows)
	}
}

// spinSink keeps the compiler from removing spin's loop.
var spinSink uint64

// spin times a fixed CPU-bound loop in the harness. The server is idle
// while it runs, so its spread (median ÷ minimum) says how much the
// machine itself, not the program, varied during the run.
func spin(rec *recorder) {
	start := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < 2_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink = x
	rec.sample("spin", float64(time.Since(start))/float64(time.Millisecond))
}
