// Command ptaserve is the HTTP/JSON compression daemon: a network boundary
// around the pta Engine with a shared LRU matrix cache, so many clients can
// request many resolutions of hot series cheaply (internal/serve holds the
// handlers; docs/ARCHITECTURE.md the design).
//
// Endpoints:
//
//	POST /v1/compress       one series, one plan
//	POST /v1/compress/many  one series, several plans (amortized: plans of
//	                        one DP class share one cache entry)
//	GET  /v1/strategies     the strategy registry
//	GET  /v1/stats          the /metrics samples as one JSON object
//	GET  /metrics           Prometheus text-format exposition
//	GET  /healthz           liveness
//
// SIGINT/SIGTERM drain in-flight requests (bounded by -drain) and exit 0
// (graceful shutdown), so process managers can roll the daemon without
// dropping evaluations. With -spill-dir, warm DP matrices persist across
// restarts: a relaunched daemon answers previously-warm series as cache
// hits immediately.
//
// Example session:
//
//	ptaserve -addr :8080 -parallel 4 -spill-dir /var/cache/ptaserve &
//	curl -s localhost:8080/healthz
//	curl -s localhost:8080/metrics
//	curl -s localhost:8080/v1/compress -d @request.json
//
// With -workers the daemon additionally coordinates a fleet of other
// ptaserve processes: the "dist" strategy shards each series across the
// listed workers by rendezvous hashing and gathers an exact, bit-identical
// result (internal/dist; docs/ARCHITECTURE.md § Distribution):
//
//	ptaserve -addr :8081 -spill-dir /var/cache/w1 &
//	ptaserve -addr :8082 -spill-dir /var/cache/w2 &
//	ptaserve -addr :8080 -workers http://localhost:8081,http://localhost:8082 &
//
// With -peers the daemons form a shared warm tier: on a cache miss each
// worker asks its peers for the content-addressed matrix blob before paying
// the cold DP fill, so a restarted worker with an empty spill volume
// re-warms from the fleet instead of recomputing. A fetched blob is adopted
// into the spill directory and loaded from there, so -peers needs
// -spill-dir:
//
//	ptaserve -addr :8081 -spill-dir /var/cache/w1 -peers http://localhost:8082 &
//	ptaserve -addr :8082 -spill-dir /var/cache/w2 -peers http://localhost:8081 &
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/dist"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/pta"
)

// splitList parses a comma-separated URL list flag, dropping empties.
func splitList(s string) []string {
	var out []string
	for _, w := range strings.Split(s, ",") {
		if w = strings.TrimSpace(w); w != "" {
			out = append(out, w)
		}
	}
	return out
}

// options carries every flag so tests drive run() without a flag set.
type options struct {
	addr      string
	parallel  int
	cache     int
	timeout   time.Duration
	maxBody   int64
	inflight  int
	drain     time.Duration
	spillDir  string
	maxCells  int64
	admission string
	workers   string
	peers     string
}

func main() {
	var opts options
	flag.StringVar(&opts.addr, "addr", ":8080", "listen address (host:port, :0 picks a free port)")
	flag.IntVar(&opts.parallel, "parallel", 1, "engine worker goroutines for the run-decomposed exact DP (0 = all cores); changes speed, never results")
	flag.IntVar(&opts.cache, "cache", 64, "matrix cache capacity in entries")
	flag.DurationVar(&opts.timeout, "timeout", 30*time.Second, "per-request deadline (requests may tighten it with timeout_ms)")
	flag.Int64Var(&opts.maxBody, "max-body", 8<<20, "request body limit in bytes")
	flag.IntVar(&opts.inflight, "inflight", 0, "max concurrently evaluated compressions (0 = 2×GOMAXPROCS)")
	flag.DurationVar(&opts.drain, "drain", 10*time.Second, "graceful-shutdown drain window for in-flight requests")
	flag.StringVar(&opts.spillDir, "spill-dir", "", "directory for persistent matrix-cache spill (empty = disabled)")
	flag.Int64Var(&opts.maxCells, "max-cells", 0, "admission budget: max estimated DP cells per request (0 = unlimited)")
	flag.StringVar(&opts.admission, "admission", "reject", "over-budget policy: reject (429) or queue (serialize)")
	flag.StringVar(&opts.workers, "workers", "", "comma-separated ptaserve worker base URLs enabling the \"dist\" strategy (this daemon coordinates)")
	flag.StringVar(&opts.peers, "peers", "", "comma-separated peer ptaserve base URLs forming a shared warm tier (cache misses try peers before the cold DP fill; needs -spill-dir)")
	flag.Parse()

	logger := log.New(os.Stderr, "ptaserve: ", log.LstdFlags)
	if err := run(opts, logger); err != nil {
		logger.Fatal(err)
	}
}

// run wires the engine and server and serves until SIGINT/SIGTERM.
func run(opts options, logger *log.Logger) error {
	peers := splitList(opts.peers)
	if len(peers) > 0 && opts.spillDir == "" {
		return fmt.Errorf("-peers needs -spill-dir: a peer's blob is adopted into the spill directory")
	}
	// One long-lived engine per deployment: request handlers share its
	// worker parallelism.
	engine, err := pta.New(pta.WithParallelism(opts.parallel))
	if err != nil {
		return err
	}
	// With -workers this daemon also coordinates the distributed tier: the
	// "dist" strategy scatters to the fleet, and the coordinator's
	// ptadist_* families share this daemon's /metrics exposition.
	reg := obs.NewRegistry()
	if opts.workers != "" {
		co, err := dist.New(
			dist.WithWorkers(splitList(opts.workers)...),
			dist.WithRegistry(reg),
		)
		if err != nil {
			return err
		}
		dist.Activate(co)
		logger.Printf("dist strategy enabled over %d workers", len(co.Workers()))
	}
	srv, err := serve.New(serve.Config{
		Engine:            engine,
		CacheEntries:      opts.cache,
		Timeout:           opts.timeout,
		MaxBodyBytes:      opts.maxBody,
		MaxInflight:       opts.inflight,
		DrainTimeout:      opts.drain,
		SpillDir:          opts.spillDir,
		Peers:             peers,
		AdmissionMaxCells: opts.maxCells,
		AdmissionPolicy:   opts.admission,
		Logger:            logger,
		Metrics:           reg,
	})
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", opts.addr)
	if err != nil {
		return err
	}
	logger.Printf("listening on http://%s (parallel=%d cache=%d timeout=%v spill=%q max-cells=%d)",
		ln.Addr(), opts.parallel, opts.cache, opts.timeout, opts.spillDir, opts.maxCells)
	if err := srv.Serve(ctx, ln); err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	logger.Printf("shut down cleanly")
	return nil
}
