package serve

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/pta"
)

// Config parameterizes a Server. The zero value is usable: a serial private
// engine, 64 cache entries, a 30-second deadline, 8 MiB bodies and
// 2×GOMAXPROCS in-flight compressions.
type Config struct {
	// Engine is the compression session behind every request. nil builds a
	// private serial engine; cmd/ptaserve passes one configured with
	// WithParallelism.
	Engine *pta.Engine
	// CacheEntries bounds the LRU matrix cache (0 = 64 entries).
	CacheEntries int
	// Timeout is the per-request deadline; requests may tighten it with
	// timeout_ms but never extend it (0 = 30s).
	Timeout time.Duration
	// MaxBodyBytes bounds request bodies (0 = 8 MiB).
	MaxBodyBytes int64
	// MaxInflight bounds concurrently evaluated compressions; excess
	// requests wait for a slot until their deadline (0 = 2×GOMAXPROCS).
	MaxInflight int
	// DrainTimeout bounds how long a graceful shutdown waits for in-flight
	// requests before force-closing their connections (0 = 10s).
	DrainTimeout time.Duration
	// SpillDir enables the persistent matrix-cache tier: warm MatrixSet
	// snapshots are written to versioned binary files in this directory,
	// keyed by (fingerprint, DP class, weights), and reloaded on the first
	// miss after a restart ("" = disabled).
	SpillDir string
	// Peers lists the base URLs of sibling workers forming a shared warm
	// tier: on a local miss (memory and spill both cold) the server fetches
	// the content-addressed spill blob from peers in rendezvous order over
	// GET /v1/matrix/{hash} before paying the DP fill, adopts it into
	// SpillDir and loads it from there, so peers need a SpillDir. Empty =
	// no peer fetching. SetPeers changes the list at runtime.
	Peers []string
	// AdmissionMaxCells bounds the estimated worst-case DP cost, in matrix
	// cells (≈ n·c for a size budget, n² for an error budget), one request
	// may demand (0 = unlimited). Over-budget requests get 429 with
	// Retry-After under the default reject policy, or serialize through a
	// single oversized slot under the queue policy — either way before they
	// consume an in-flight slot.
	AdmissionMaxCells int64
	// AdmissionPolicy is AdmissionReject ("" = reject) or AdmissionQueue;
	// see AdmissionMaxCells.
	AdmissionPolicy string
	// Logger receives one line per failed request (nil = standard logger).
	Logger *log.Logger
	// Metrics, when non-nil, is the obs.Registry the server registers its
	// metric families on, so one /metrics exposition can carry several
	// tiers (cmd/ptaserve shares it with the dist coordinator). nil builds
	// a private registry. At most one Server may use a given registry —
	// family names collide otherwise.
	Metrics *obs.Registry
}

// Server is the HTTP serving layer: a handler tree over one pta.Engine and
// one shared matrix cache. Create it with New, mount Handler, or run
// Serve for the full listener + graceful-shutdown lifecycle.
type Server struct {
	cfg            Config
	engine         *pta.Engine
	defaultWeights []float64 // the engine's WithWeights vector, folded into cache keys
	cache          *matrixCache
	store          *cacheStore // nil unless SpillDir is set
	peers          *peerTier   // always non-nil; inert until peers configured
	metrics        *serverMetrics
	mux            *http.ServeMux
	log            *log.Logger

	started   time.Time
	inflight  chan struct{}
	oversized *fifoSlot // the single queue-policy slot; see admission.go

	compressions atomic.Int64 // answered plans: ptaserve_compressions_total

	// decodedRows counts series rows the fast decoder built and
	// fingerprints the series it hashed: the work a memo hit skips.
	decodedRows, fingerprints atomic.Int64

	// onSlot, when set, runs each time a request takes the oversized slot,
	// with the request's estimated cells. Tests set it before the slot is
	// first taken.
	onSlot func(cells int64)
}

// New validates the config and builds a ready-to-mount server.
func New(cfg Config) (*Server, error) {
	if cfg.Engine == nil {
		eng, err := pta.New()
		if err != nil {
			return nil, err
		}
		cfg.Engine = eng
	}
	if cfg.CacheEntries == 0 {
		cfg.CacheEntries = 64
	}
	if cfg.CacheEntries < 0 {
		return nil, fmt.Errorf("serve: CacheEntries %d, want >= 0 (0 = default 64)", cfg.CacheEntries)
	}
	if cfg.Timeout == 0 {
		cfg.Timeout = 30 * time.Second
	}
	if cfg.Timeout < 0 {
		return nil, fmt.Errorf("serve: Timeout %v, want >= 0 (0 = default 30s)", cfg.Timeout)
	}
	if cfg.MaxBodyBytes == 0 {
		cfg.MaxBodyBytes = 8 << 20
	}
	if cfg.MaxBodyBytes < 0 {
		return nil, fmt.Errorf("serve: MaxBodyBytes %d, want >= 0 (0 = default 8 MiB)", cfg.MaxBodyBytes)
	}
	if cfg.MaxInflight == 0 {
		cfg.MaxInflight = 2 * runtime.GOMAXPROCS(0)
	}
	if cfg.MaxInflight < 0 {
		return nil, fmt.Errorf("serve: MaxInflight %d, want >= 0 (0 = default 2×GOMAXPROCS)", cfg.MaxInflight)
	}
	if cfg.DrainTimeout == 0 {
		cfg.DrainTimeout = 10 * time.Second
	}
	if cfg.DrainTimeout < 0 {
		return nil, fmt.Errorf("serve: DrainTimeout %v, want >= 0 (0 = default 10s)", cfg.DrainTimeout)
	}
	if err := validatePeers(cfg.Peers, cfg.SpillDir != ""); err != nil {
		return nil, err
	}
	if cfg.AdmissionMaxCells < 0 {
		return nil, fmt.Errorf("serve: AdmissionMaxCells %d, want >= 0 (0 = unlimited)", cfg.AdmissionMaxCells)
	}
	switch cfg.AdmissionPolicy {
	case "", AdmissionReject, AdmissionQueue:
	default:
		return nil, fmt.Errorf("serve: AdmissionPolicy %q, want %q or %q", cfg.AdmissionPolicy, AdmissionReject, AdmissionQueue)
	}
	if cfg.Logger == nil {
		cfg.Logger = log.Default()
	}
	s := &Server{
		cfg:            cfg,
		engine:         cfg.Engine,
		defaultWeights: cfg.Engine.Weights(),
		cache:          newMatrixCache(cfg.CacheEntries),
		log:            cfg.Logger,
		started:        time.Now(),
		inflight:       make(chan struct{}, cfg.MaxInflight),
		oversized:      new(fifoSlot),
	}
	if cfg.SpillDir != "" {
		store, err := newCacheStore(cfg.SpillDir)
		if err != nil {
			return nil, err
		}
		s.store = store
	}
	s.peers = newPeerTier()
	s.peers.set(cfg.Peers)
	s.metrics = newServerMetrics(s)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.instrument("healthz", s.handleHealth))
	s.mux.HandleFunc("GET /metrics", s.instrument("metrics", s.metrics.reg.Handler().ServeHTTP))
	s.mux.HandleFunc("GET /v1/strategies", s.instrument("strategies", s.handleStrategies))
	s.mux.HandleFunc("GET /v1/stats", s.instrument("stats", s.handleStats))
	s.mux.HandleFunc("POST /v1/compress", s.instrument("compress", s.handleCompress))
	s.mux.HandleFunc(compressManyRoute, s.instrument("compress_many", s.handleCompress))
	s.mux.HandleFunc("GET /v1/matrix/{hash}", s.instrument("matrix", s.handleMatrix))
	return s, nil
}

// SetPeers replaces the peer list at runtime (validated like Config.Peers,
// so a server without a spill directory takes none). Safe for concurrent
// use with request serving; in-flight fetches finish against the old list.
func (s *Server) SetPeers(peers []string) error {
	if err := validatePeers(peers, s.store != nil); err != nil {
		return err
	}
	s.peers.set(peers)
	return nil
}

// Handler returns the route tree, for mounting under an outer mux or an
// httptest server.
func (s *Server) Handler() http.Handler { return s.mux }

// Serve serves on ln until ctx is canceled (callers bind the listener
// themselves, ":0" to learn the port). Canceling ctx triggers a
// graceful shutdown: the listener closes but in-flight evaluations keep
// their own request contexts and get up to Config.DrainTimeout to drain —
// ctx is deliberately NOT the BaseContext, which would abort them instead.
// When the drain window expires, remaining connections are force-closed
// and Serve still returns nil: an operator-bounded drain is a clean exit.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	srv := &http.Server{
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			if !errors.Is(err, context.DeadlineExceeded) {
				return err
			}
			s.log.Printf("serve: drain window %v expired, force-closing", s.cfg.DrainTimeout)
			_ = srv.Close()
		}
		if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
			return err
		}
		return nil
	}
}

// acquireSlot takes one in-flight token, waiting until the request deadline
// at most. It reports whether the slot was acquired.
func (s *Server) acquireSlot(ctx context.Context) bool {
	select {
	case s.inflight <- struct{}{}:
		return true
	default:
	}
	select {
	case s.inflight <- struct{}{}:
		return true
	case <-ctx.Done():
		return false
	}
}

func (s *Server) releaseSlot() { <-s.inflight }

// requestContext applies the per-request deadline: the server timeout,
// tightened (never extended) by the request's timeout_ms.
func (s *Server) requestContext(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.Timeout
	if timeoutMS > 0 {
		if req := time.Duration(timeoutMS) * time.Millisecond; req < d {
			d = req
		}
	}
	return context.WithTimeout(r.Context(), d)
}
