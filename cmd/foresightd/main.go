// Command foresightd serves the Foresight demo UI (paper Figure 1):
// insight carousels with click-to-focus exploration and per-class
// overview heat maps, backed by the query engine over a CSV file or a
// built-in demo dataset.
//
// Usage:
//
//	foresightd -data oecd              # built-in demo dataset
//	foresightd -data mydata.csv -addr :8080 -approx
//	foresightd -data oecd -debug-addr :8601   # pprof + /metrics sidecar
//
// The main listener exposes Prometheus metrics at /metrics, recent
// slow-request traces at /api/debug/traces, insight-telemetry sketch
// summaries at /api/debug/insights (score quantiles, hot columns,
// top-k margins per class; see also -query-log-sample and the
// `foresight top` dashboard), and operational stats at /api/stats.
// POST /api/ingest appends row batches live (CSV or JSON; each post is
// one engine ingest, and the sketch store extends incrementally).
// With -wal-dir, acked batches are durable: a CRC-framed write-ahead
// log (sync policy -fsync/-fsync-interval) plus checkpointed
// snapshots (-checkpoint-rows) let a restart recover every acked row
// and replay the tail before the listener opens; /healthz reports
// liveness, /readyz turns 503 once the WAL has latched failed, and
// -recover-permissive accepts a mid-log-corrupt WAL's valid prefix
// instead of refusing to start.
// With -debug-addr a second listener additionally serves
// net/http/pprof under /debug/pprof/ (kept off the main port so
// profiling endpoints are never exposed to UI traffic).
//
// The process is lifecycle-safe: every API request runs under
// -request-timeout (504 on expiry, with the engine's workers actually
// released), -max-inflight sheds excess load with 503, the listener
// carries read/write/idle timeouts so slow clients cannot pin
// connections forever, and SIGINT/SIGTERM drain in-flight requests
// (up to -shutdown-grace) before the process exits cleanly.
package main

import (
	"flag"
	"log"

	"foresight/internal/server"
)

// version is stamped via -ldflags "-X main.version=..." in release
// builds; "dev" otherwise.
var version = "dev"

// The flags and the run loop live in internal/server, shared with
// `foresight serve`.
func main() {
	flags := server.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if err := flags.Run(version); err != nil {
		log.Fatalf("foresightd: %v", err)
	}
}
