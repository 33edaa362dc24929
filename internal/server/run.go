package server

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"foresight/internal/core"
	"foresight/internal/datagen"
	"foresight/internal/durable"
	"foresight/internal/frame"
	"foresight/internal/obs"
	"foresight/internal/query"
	"foresight/internal/sketch"
)

// Flags is the command line of a Foresight server process: foresightd
// and `foresight serve` both register it on their flag set and call
// Run, so the two binaries take the same options with the same
// defaults and run the same loop.
type Flags struct {
	data, addr, debugAddr, profilePath string
	k, workers                         int
	approx, quiet                      bool
	seed                               int64
	slowMS, maxInflight                int
	requestTimeout, shutdownGrace      time.Duration
	queryLogSample                     float64
	walDir, fsyncMode                  string
	fsyncInterval                      time.Duration
	checkpointRows                     int
	recoverPermissive                  bool
}

// RegisterFlags declares the server options on fs.
func RegisterFlags(fs *flag.FlagSet) *Flags {
	fl := &Flags{}
	fs.StringVar(&fl.data, "data", "oecd", "CSV path or demo dataset name (oecd|parkinson|imdb)")
	fs.StringVar(&fl.addr, "addr", ":8600", "listen address")
	fs.StringVar(&fl.debugAddr, "debug-addr", "", "optional second listen address for /debug/pprof/ and /metrics")
	fs.IntVar(&fl.k, "k", 5, "insights per carousel")
	fs.BoolVar(&fl.approx, "approx", false, "answer queries from sketches")
	fs.StringVar(&fl.profilePath, "profile", "", "load a saved sketch store instead of preprocessing (implies -approx)")
	fs.IntVar(&fl.workers, "workers", 0, "parallel workers for candidate scoring, the startup profile build and every ingest's sketch delta (0 = GOMAXPROCS)")
	fs.Int64Var(&fl.seed, "seed", 42, "seed for demo datasets / sketches")
	fs.IntVar(&fl.slowMS, "slow-ms", 0, "only record request traces at least this slow (0 = record all)")
	fs.BoolVar(&fl.quiet, "quiet", false, "suppress per-request JSON logs on stderr")
	fs.DurationVar(&fl.requestTimeout, "request-timeout", 5*time.Second, "per-request deadline for API requests; expired requests get 504 and release their workers (0 = no deadline)")
	fs.IntVar(&fl.maxInflight, "max-inflight", 256, "maximum concurrently served API requests; excess requests are shed with 503 (0 = unlimited)")
	fs.DurationVar(&fl.shutdownGrace, "shutdown-grace", 15*time.Second, "how long SIGINT/SIGTERM waits for in-flight requests to drain before forcing exit")
	fs.Float64Var(&fl.queryLogSample, "query-log-sample", 0, "fraction of engine queries logged as structured JSON telemetry lines (0 = off, 1 = every query, 0.01 = every 100th)")
	fs.StringVar(&fl.walDir, "wal-dir", "", "durability directory for the write-ahead log and snapshots; empty disables durable ingest (acked batches then live only in memory)")
	fs.StringVar(&fl.fsyncMode, "fsync", "interval", "WAL fsync policy: always (sync before every ack), interval (background timer), off (page cache only)")
	fs.DurationVar(&fl.fsyncInterval, "fsync-interval", 100*time.Millisecond, "background WAL flush period under -fsync interval")
	fs.IntVar(&fl.checkpointRows, "checkpoint-rows", 50000, "write a snapshot once this many rows accumulated in the WAL since the last one (<0 disables the row trigger)")
	fs.BoolVar(&fl.recoverPermissive, "recover-permissive", false, "on mid-log WAL corruption, keep the valid prefix and start instead of refusing (a torn final record is always repaired automatically)")
	return fl
}

// LoadData opens a -data argument: a CSV path or the name of a
// built-in demo dataset.
func LoadData(path string, seed int64) (*frame.Frame, error) {
	switch strings.ToLower(path) {
	case "":
		return nil, fmt.Errorf("missing -data (CSV path or oecd|parkinson|imdb)")
	case "oecd":
		return datagen.OECD(0, seed), nil
	case "parkinson":
		return datagen.Parkinson(0, seed), nil
	case "imdb":
		return datagen.IMDB(0, seed), nil
	default:
		return frame.ReadCSVFile(path, "", nil)
	}
}

// Preprocess returns f's sketch store: the one saved at path, or with
// no path a fresh build. Either way the store runs on the given number
// of workers (the -workers convention: 0 = GOMAXPROCS) — the build, and
// every ingest's Extend — and is the same bytes at any worker count.
func Preprocess(f *frame.Frame, path string, seed int64, workers int) (*sketch.DatasetProfile, error) {
	if workers == 0 {
		workers = -1 // the sketch layer's spelling of GOMAXPROCS
	}
	if path == "" {
		return sketch.BuildProfile(f, sketch.ProfileConfig{Seed: seed, Spearman: true, Workers: workers}), nil
	}
	file, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer file.Close()
	p, err := sketch.LoadProfile(file)
	if err != nil {
		return nil, err
	}
	p.Config.Workers = workers
	return p, nil
}

// load opens the -data argument and reports how long that took as the
// "load" phase of foresight_profile_build_seconds, beside the build
// phases the sketch layer reports: the two together are startup, so
// /metrics alone says where it went. The timing observer is installed
// here, before the profile is built, so that the startup build lands in
// the histogram too.
func (fl *Flags) load(reg *obs.Registry) (*frame.Frame, error) {
	phases := observeBuildTimings(reg)
	start := time.Now()
	f, err := LoadData(fl.data, fl.seed)
	if err != nil {
		return nil, err
	}
	phases.With("load").Observe(time.Since(start).Seconds())
	return f, nil
}

// Run serves the parsed flags until SIGINT/SIGTERM: load the dataset,
// preprocess it into the sketch store (exact queries read raw data,
// but any request may ask approx=1, so the store is always built),
// start the engine, open and recover the WAL when
// -wal-dir is set, and only then listen, with listener timeouts,
// draining in-flight requests on the way out. So a restarted server
// answers nothing it has not recovered. version is reported by
// /api/stats and the build-info metric.
func (fl *Flags) Run(version string) error {
	reg := obs.NewRegistry()
	f, err := fl.load(reg)
	if err != nil {
		return err
	}
	approx := fl.approx || fl.profilePath != ""
	log.Printf("preprocessing sketches for %s...", f.Summary())
	profile, err := Preprocess(f, fl.profilePath, fl.seed, fl.workers)
	if err != nil {
		return err
	}
	engine, err := query.NewEngine(f, core.NewRegistry(), profile)
	if err != nil {
		return err
	}
	engine.SetWorkers(fl.workers)

	opts := Options{
		Registry:           reg,
		LogWriter:          os.Stderr,
		SlowTraceThreshold: time.Duration(fl.slowMS) * time.Millisecond,
		Version:            version,
		RequestTimeout:     fl.requestTimeout,
		MaxInflight:        fl.maxInflight,
		QueryLogSample:     fl.queryLogSample,
	}
	if fl.quiet {
		opts.LogWriter = nil
	}

	// Durable ingest (DESIGN.md §8.6): with -wal-dir, the snapshot and
	// WAL tail are replayed into the engine before anything listens,
	// and every acked ingest batch is write-ahead logged and
	// periodically checkpointed. A recovery failure is fatal — starting
	// with silently missing acked rows is worse than not starting (use
	// -recover-permissive to accept a truncated log explicitly).
	var durMgr *durable.Manager
	if fl.walDir != "" {
		policy, err := durable.ParseFsyncPolicy(fl.fsyncMode)
		if err != nil {
			return err
		}
		durMgr, err = durable.Open(durable.Options{
			Dir:            fl.walDir,
			Fsync:          policy,
			FsyncInterval:  fl.fsyncInterval,
			CheckpointRows: fl.checkpointRows,
			Permissive:     fl.recoverPermissive,
			Logf:           log.Printf,
		})
		if err != nil {
			return err
		}
		rec, err := durMgr.Recover(engine)
		if err != nil {
			return fmt.Errorf("WAL recovery: %w", err)
		}
		log.Printf("recovered %s: snapshot seq %d (%d rows) + %d replayed batches (%d rows), last seq %d, torn tail %v (%.3fs)",
			fl.walDir, rec.SnapshotSeq, rec.SnapshotRows, rec.ReplayedBatches, rec.ReplayedRows, rec.LastSeq, rec.TornTailDetected, rec.DurationSeconds)
		durMgr.Instrument(reg)
		opts.Durable = durMgr
	}
	srv := New(engine, fl.k, approx, opts)
	if fl.debugAddr != "" {
		go serveDebug(fl.debugAddr, reg)
	}

	// The listener's own timeouts guard against slow or stalled
	// clients: ReadHeaderTimeout bounds header trickling, WriteTimeout
	// caps the whole response (kept above the request deadline so the
	// engine's 504 path always wins the race), IdleTimeout reaps
	// keep-alive connections.
	httpSrv := &http.Server{
		Addr:              fl.addr,
		Handler:           srv,
		ReadHeaderTimeout: 10 * time.Second,
		WriteTimeout:      max(30*time.Second, fl.requestTimeout+10*time.Second),
		IdleTimeout:       120 * time.Second,
	}
	log.Printf("foresight server %s: serving %s on %s (workers=%d timeout=%v max-inflight=%d; /metrics, /api/stats, /api/debug/traces, /api/debug/insights)",
		version, f.Summary(), listenURL(fl.addr), engine.Workers(), fl.requestTimeout, fl.maxInflight)
	err = runUntilSignalled(httpSrv, fl.shutdownGrace)
	srv.Close() // refuse ingest after the listener has drained
	if durMgr != nil {
		// A closed manager stays the engine's sink and refuses, so a
		// handler still running past the grace period cannot ack a
		// batch the log did not take.
		if cerr := durMgr.Close(); cerr != nil {
			log.Printf("closing WAL: %v", cerr)
		}
	}
	if err == nil {
		log.Printf("shut down cleanly")
	}
	return err
}

// runUntilSignalled serves on srv until SIGINT/SIGTERM, then drains
// in-flight requests via Shutdown for up to grace before returning.
// A listener error (port taken, etc.) is returned immediately; a drain
// that outlives the grace period returns the shutdown error so the
// exit status reflects the forced stop.
func runUntilSignalled(srv *http.Server, grace time.Duration) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	select {
	case err := <-errc:
		return fmt.Errorf("listen on %s: %w", srv.Addr, err)
	case <-ctx.Done():
	}
	stop() // restore default signal behavior: a second signal kills immediately
	log.Printf("signal received, draining in-flight requests (grace %v)...", grace)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	return nil
}

// listenURL is the base URL of a listener on addr: the host addr names,
// an IPv6 one in brackets, or localhost when it names none (":8600").
func listenURL(addr string) string {
	host, port, err := net.SplitHostPort(addr)
	if err != nil {
		return "http://" + addr
	}
	if host == "" {
		host = "localhost"
	}
	return "http://" + net.JoinHostPort(host, port)
}

// serveDebug runs the pprof + metrics sidecar listener. pprof's
// handlers are registered explicitly rather than via the package's
// DefaultServeMux side effect, so importing net/http/pprof never
// leaks profiling routes onto the main server. A sidecar listen
// failure (port already taken) is logged and absorbed — the main
// server keeps serving; profiling is an accessory, not a dependency.
func serveDebug(addr string, reg *obs.Registry) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.Handle("/metrics", reg.Handler())
	log.Printf("debug listener on %s (pprof at /debug/pprof/)", listenURL(addr))
	srv := &http.Server{Addr: addr, Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	if err := srv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		log.Printf("debug listener on %s failed: %v (continuing without pprof sidecar)", addr, err)
	}
}
