package serve

import (
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// serverMetrics is the observability tier of one Server: an obs.Registry
// exposed as GET /metrics plus the pre-resolved children the hot paths
// update. Everything on a request path is an atomic op on an
// already-resolved child — no map lookups, no locks, no allocations — so
// instrumentation does not disturb the allocation-free codec
// (BenchmarkCompressHit pins that).
type serverMetrics struct {
	reg *obs.Registry

	requests  *obs.CounterVec   // ptaserve_http_requests_total{endpoint,code}
	durations *obs.HistogramVec // ptaserve_http_request_duration_seconds{endpoint}
	endpoints map[string]*endpointMetrics

	admissionRejected *obs.Counter
	admissionQueued   *obs.Counter
	fillSeconds       *obs.Histogram

	// dpCells counts DP matrix cells this worker filled itself (cold fills
	// and deepens through the matrix cache). A worker serving entirely from
	// the warm tier — spill or peers — holds this at zero, which is what
	// the wipe-and-restart tests assert.
	dpCells *obs.Counter

	// ptafill_* family: which kernel row-fill path production traffic
	// takes. fillRequests children are pre-resolved per concrete algorithm
	// (the resolved choice, never "auto"); fillCoverage observes each cold
	// matrix-set build's certified monotone coverage.
	fillRequests map[string]*obs.Counter
	fillCoverage *obs.Histogram
}

// endpointMetrics carries one endpoint's pre-resolved children. codes is a
// by-status table of counter children filled lazily: the first response
// with a given status pays one vec lookup, every later one is a single
// atomic load + add.
type endpointMetrics struct {
	name  string
	dur   *obs.Histogram
	vec   *obs.CounterVec
	codes [600]atomic.Pointer[obs.Counter]
}

func (em *endpointMetrics) done(status int, d time.Duration) {
	em.dur.Observe(d.Seconds())
	if status < 0 || status >= len(em.codes) {
		em.vec.With(em.name, strconv.Itoa(status)).Inc()
		return
	}
	c := em.codes[status].Load()
	if c == nil {
		c = em.vec.With(em.name, strconv.Itoa(status))
		em.codes[status].Store(c)
	}
	c.Inc()
}

// endpointNames is the fixed catalog instrumented by New; the middleware
// only ever sees these, so the label set is bounded.
var endpointNames = []string{"compress", "compress_many", "strategies", "stats", "healthz", "metrics", "matrix"}

// newServerMetrics builds the registry and wires the scrape-time gauges to
// the server's live state (in-flight pool, cache footprint, uptime). It
// runs before the routes mount, so every endpoint's children exist by the
// first request.
func newServerMetrics(s *Server) *serverMetrics {
	reg := s.cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	m := &serverMetrics{
		reg: reg,
		requests: reg.NewCounterVec("ptaserve_http_requests_total",
			"HTTP requests served, by endpoint and status code.", "endpoint", "code"),
		durations: reg.NewHistogramVec("ptaserve_http_request_duration_seconds",
			"HTTP request latency in seconds, by endpoint.", nil, "endpoint"),
		endpoints: make(map[string]*endpointMetrics, len(endpointNames)),
		admissionRejected: reg.NewCounter("ptaserve_admission_rejected_total",
			"Requests rejected with 429 because their estimated DP cost exceeded AdmissionMaxCells."),
		admissionQueued: reg.NewCounter("ptaserve_admission_queued_total",
			"Over-budget requests serialized through the oversized slot (AdmissionPolicy queue)."),
		fillSeconds: reg.NewHistogram("ptaserve_cache_fill_seconds",
			"Latency of cold matrix-set builds (the first fill of a cache entry).", nil),
		dpCells: reg.NewCounter("ptaserve_dp_cells_filled_total",
			"DP matrix cells filled by this worker's own evaluations (cold fills and deepens); stays zero while serving entirely from the warm tier."),
		fillRequests: make(map[string]*obs.Counter),
		fillCoverage: reg.NewHistogram("ptafill_monotone_coverage",
			"Certified monotone dispatch coverage of each cold matrix-set build (0 = oscillating noise, 1 = counter-like).",
			[]float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1}),
	}
	fillVec := reg.NewCounterVec("ptafill_requests_total",
		"Compress requests answered by the exact DP, by resolved row-fill algorithm.", "algo")
	for _, name := range core.FillAlgoNames() {
		if name == "auto" {
			continue // auto always resolves to a concrete algorithm
		}
		m.fillRequests[name] = fillVec.With(name)
	}
	for _, name := range endpointNames {
		m.endpoints[name] = &endpointMetrics{
			name: name,
			dur:  m.durations.With(name),
			vec:  m.requests,
		}
	}

	reg.NewGaugeFunc("ptaserve_http_inflight",
		"Evaluation slots currently in use (MaxInflight bounds this).",
		func() float64 { return float64(len(s.inflight)) })
	reg.NewGaugeFunc("ptaserve_uptime_seconds",
		"Seconds since the server was constructed.",
		func() float64 { return time.Since(s.started).Seconds() })
	reg.NewCounterFunc("ptaserve_compressions_total",
		"Plan evaluations answered (cache and engine paths); same source as /v1/stats.",
		func() float64 { return float64(s.compressions.Load()) })

	reg.NewCounterFunc("ptaserve_cache_hits_total",
		"Matrix-cache lookups answered by a resident entry.",
		func() float64 { return float64(s.cache.hits.Load()) })
	reg.NewCounterFunc("ptaserve_cache_misses_total",
		"Matrix-cache lookups that created a new entry.",
		func() float64 { return float64(s.cache.misses.Load()) })
	reg.NewCounterFunc("ptaserve_cache_evictions_total",
		"Matrix-cache entries displaced by the LRU capacity bound.",
		func() float64 { return float64(s.cache.evictions.Load()) })
	reg.NewGaugeFunc("ptaserve_cache_entries",
		"Resident matrix-cache entries.",
		func() float64 { return float64(s.cache.stats().Entries) })
	reg.NewGaugeFunc("ptaserve_cache_rows",
		"DP matrix rows retained across resident cache entries.",
		func() float64 { return float64(s.cache.stats().Rows) })
	reg.NewGaugeFunc("ptaserve_cache_bytes",
		"Estimated bytes retained across resident cache entries, their series' request bytes included.",
		func() float64 { return float64(s.cache.stats().MemBytes) })
	reg.NewCounterFunc("ptaserve_series_memo_hits_total",
		"Fast-decoded compress bodies that resent a resident series byte for byte: its decode and fingerprint were skipped.",
		func() float64 { return float64(s.cache.memoHits.Load()) })
	reg.NewCounterFunc("ptaserve_series_memo_misses_total",
		"Fast-decoded compress bodies whose series matched no resident series and was decoded.",
		func() float64 { return float64(s.cache.memoMisses.Load()) })

	// Spill counters read the store's own atomics at scrape time (zero when
	// the persistent tier is disabled), so /metrics and /v1/stats can never
	// disagree.
	spill := func(f func(cs *cacheStore) int64) func() float64 {
		return func() float64 {
			if s.store == nil {
				return 0
			}
			return float64(f(s.store))
		}
	}
	reg.NewCounterFunc("ptaserve_spill_loads_total",
		"Warm matrix sets restored from the persistent spill tier.",
		spill(func(cs *cacheStore) int64 { return cs.loads.Load() }))
	reg.NewCounterFunc("ptaserve_spill_stores_total",
		"Matrix-set snapshots written to the persistent spill tier.",
		spill(func(cs *cacheStore) int64 { return cs.stores.Load() }))
	reg.NewCounterFunc("ptaserve_spill_errors_total",
		"Spill files rejected (corrupt, stale version, shape mismatch) or failed writes.",
		spill(func(cs *cacheStore) int64 { return cs.errors.Load() }))

	// Peer warm-tier counters read the tier's atomics at scrape time (all
	// zero until peers are configured), mirroring the /v1/stats peer block.
	reg.NewGaugeFunc("ptapeer_peers",
		"Sibling workers currently configured for peer matrix fetching.",
		func() float64 { return float64(s.peers.count()) })
	reg.NewCounterFunc("ptapeer_fetch_hits_total",
		"Warm matrix blobs fetched and fully validated from a peer on a local miss.",
		func() float64 { return float64(s.peers.fetchHits.Load()) })
	reg.NewCounterFunc("ptapeer_fetch_misses_total",
		"Local misses no configured peer could serve (the request fell through to a cold fill).",
		func() float64 { return float64(s.peers.fetchMisses.Load()) })
	reg.NewCounterFunc("ptapeer_fetch_errors_total",
		"Per-peer fetch failures: transport errors, non-200/404 statuses, oversized or invalid blobs.",
		func() float64 { return float64(s.peers.fetchErrors.Load()) })
	reg.NewCounterFunc("ptapeer_fetch_bytes_total",
		"Bytes of validated matrix blobs fetched from peers.",
		func() float64 { return float64(s.peers.fetchBytes.Load()) })
	reg.NewCounterFunc("ptapeer_serve_hits_total",
		"GET /v1/matrix requests answered with a blob (from the spill file or the resident set).",
		func() float64 { return float64(s.peers.serveHits.Load()) })
	reg.NewCounterFunc("ptapeer_serve_misses_total",
		"GET /v1/matrix requests for addresses this worker holds nothing for.",
		func() float64 { return float64(s.peers.serveMisses.Load()) })
	reg.NewCounterFunc("ptapeer_serve_bytes_total",
		"Bytes of matrix blobs served to peers.",
		func() float64 { return float64(s.peers.serveBytes.Load()) })

	reg.RegisterRuntimeMetrics()
	return m
}

// fillRequestCounts snapshots the ptafill_requests_total children for the
// /v1/stats fill block, by algorithm name.
func (s *Server) fillRequestCounts() map[string]uint64 {
	out := make(map[string]uint64, len(s.metrics.fillRequests))
	for name, c := range s.metrics.fillRequests {
		out[name] = c.Value()
	}
	return out
}

// fillServed records one exact-DP compression under the row fill its
// matrix set resolved to (a pre-resolved child; unknown names — never
// produced by the solver — are dropped rather than allocated).
func (m *serverMetrics) fillServed(name string) {
	if c := m.fillRequests[name]; c != nil {
		c.Inc()
	}
}

// statusWriter captures the response status for the middleware; pooled so
// instrumentation adds no per-request allocation.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

// Unwrap lets http.ResponseController reach the underlying writer.
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

var statusWriterPool = sync.Pool{New: func() any { return &statusWriter{} }}

// instrument wraps one endpoint handler with the request-count and latency
// middleware. endpoint must be one of endpointNames.
func (s *Server) instrument(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	em := s.metrics.endpoints[endpoint]
	return func(w http.ResponseWriter, r *http.Request) {
		sw := statusWriterPool.Get().(*statusWriter)
		sw.ResponseWriter, sw.status = w, http.StatusOK
		start := time.Now()
		h(sw, r)
		em.done(sw.status, time.Since(start))
		sw.ResponseWriter = nil
		statusWriterPool.Put(sw)
	}
}
