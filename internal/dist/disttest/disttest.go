// Package disttest is the in-process multi-worker cluster fixture behind
// the dist conformance and fault-injection suites: N real serve.Servers on
// httptest listeners, each fronted by a long-lived fault-injecting proxy.
// The proxy owns the address a coordinator routes to, so a worker can be
// "kill -9"ed (connections severed, backend closed) and restarted (a fresh
// server process on the same spill directory) without the address — and
// therefore the rendezvous routing — ever changing, exactly like a
// supervised daemon restarting on a fixed port.
package disttest

import (
	"bytes"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
)

// Proxy forwards requests to a replaceable backend and injects faults on
// command. All fault knobs are safe for concurrent use.
type Proxy struct {
	ts     *httptest.Server
	client *http.Client

	mu      sync.Mutex
	backend string // current backend base URL

	dropN    atomic.Int64 // sever the next N requests mid-flight
	failN429 atomic.Int64 // answer the next N requests with 429
	corruptN atomic.Int64 // corrupt the next N response bodies
	delay    atomic.Int64 // nanoseconds added to every request
	down     atomic.Bool  // worker killed: sever everything
}

// URL is the stable address clients route to.
func (p *Proxy) URL() string { return p.ts.URL }

// Drop severs the next n requests without a response (connection reset).
func (p *Proxy) Drop(n int) { p.dropN.Store(int64(n)) }

// Fail429 answers the next n requests with 429 and a Retry-After header.
func (p *Proxy) Fail429(n int) { p.failN429.Store(int64(n)) }

// Corrupt truncates and bit-flips the next n response bodies.
func (p *Proxy) Corrupt(n int) { p.corruptN.Store(int64(n)) }

// Delay adds d to every forwarded request (0 restores normal service).
func (p *Proxy) Delay(d time.Duration) { p.delay.Store(int64(d)) }

func (p *Proxy) setBackend(url string) {
	p.mu.Lock()
	p.backend = url
	p.mu.Unlock()
}

func (p *Proxy) backendURL() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.backend
}

// take decrements a fault budget if any remains.
func take(a *atomic.Int64) bool {
	for {
		v := a.Load()
		if v <= 0 {
			return false
		}
		if a.CompareAndSwap(v, v-1) {
			return true
		}
	}
}

func (p *Proxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if d := time.Duration(p.delay.Load()); d > 0 {
		select {
		case <-time.After(d):
		case <-r.Context().Done():
		}
	}
	if take(&p.dropN) || p.down.Load() {
		panic(http.ErrAbortHandler) // sever without a response
	}
	if take(&p.failN429) {
		w.Header().Set("Retry-After", "1")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		_, _ = io.WriteString(w, `{"error":{"status":429,"code":"injected","message":"fault injection"}}`)
		return
	}
	body, err := io.ReadAll(r.Body)
	if err != nil {
		panic(http.ErrAbortHandler)
	}
	req, err := http.NewRequestWithContext(r.Context(), r.Method, p.backendURL()+r.URL.RequestURI(), bytes.NewReader(body))
	if err != nil {
		panic(http.ErrAbortHandler)
	}
	req.Header = r.Header.Clone()
	resp, err := p.client.Do(req)
	if err != nil {
		panic(http.ErrAbortHandler) // backend gone: behave like a dead worker
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		panic(http.ErrAbortHandler)
	}
	if take(&p.corruptN) && len(out) > 2 {
		out = out[:len(out)/2] // truncation guarantees invalid JSON
		out[len(out)-1] ^= 0xff
	}
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(resp.StatusCode)
	_, _ = w.Write(out)
}

// Worker is one cluster member: a serve.Server on an httptest listener
// behind its fault proxy. The spill directory survives Kill/Restart, like a
// daemon's persistent cache volume.
type Worker struct {
	t        testing.TB
	cfg      serve.Config
	Proxy    *Proxy
	backend  *httptest.Server
	Server   *serve.Server
	spillDir string
	peers    []string // re-applied on every boot, like a daemon's config file
}

// newWorker boots a serve.Server with its own spill dir and fronts it with
// a fresh proxy.
func newWorker(t testing.TB, cfg serve.Config) *Worker {
	t.Helper()
	w := &Worker{t: t, cfg: cfg, spillDir: cfg.SpillDir}
	if w.spillDir == "" {
		w.spillDir = t.TempDir()
	}
	w.Proxy = &Proxy{client: &http.Client{}}
	w.Proxy.ts = httptest.NewServer(w.Proxy)
	t.Cleanup(w.Proxy.ts.Close)
	w.boot()
	return w
}

// boot starts a fresh backend server on the worker's spill dir.
func (w *Worker) boot() {
	w.t.Helper()
	cfg := w.cfg
	cfg.SpillDir = w.spillDir
	if w.peers != nil {
		cfg.Peers = w.peers
	}
	if cfg.Logger == nil {
		cfg.Logger = log.New(io.Discard, "", 0)
	}
	srv, err := serve.New(cfg)
	if err != nil {
		w.t.Fatalf("disttest: worker boot: %v", err)
	}
	w.Server = srv
	w.backend = httptest.NewServer(srv.Handler())
	w.Proxy.setBackend(w.backend.URL)
}

// URL is the worker's routable address (the proxy, stable across restarts).
func (w *Worker) URL() string { return w.Proxy.URL() }

// Kill terminates the worker abruptly: in-flight and future requests are
// severed without responses until Restart. The spill directory survives.
func (w *Worker) Kill() {
	w.Proxy.down.Store(true)
	w.backend.CloseClientConnections()
	w.backend.Close()
}

// Restart boots a fresh server process on the same spill directory (and
// the same peer wiring) and resumes service at the same address.
func (w *Worker) Restart() {
	w.t.Helper()
	w.boot()
	w.Proxy.down.Store(false)
}

// WipeSpill empties the worker's spill directory — the "lost volume"
// restart scenario: call between Kill and Restart to bring the worker back
// with no local warm state at all.
func (w *Worker) WipeSpill() {
	w.t.Helper()
	entries, err := os.ReadDir(w.spillDir)
	if err != nil {
		w.t.Fatalf("disttest: wiping spill dir: %v", err)
	}
	for _, e := range entries {
		if err := os.RemoveAll(filepath.Join(w.spillDir, e.Name())); err != nil {
			w.t.Fatalf("disttest: wiping spill dir: %v", err)
		}
	}
}

// SetPeers wires the worker into a peer warm tier by proxy addresses. The
// list is applied to the live server and remembered across Restart.
func (w *Worker) SetPeers(urls []string) {
	w.t.Helper()
	w.peers = append([]string(nil), urls...)
	if err := w.Server.SetPeers(w.peers); err != nil {
		w.t.Fatalf("disttest: SetPeers: %v", err)
	}
}

// Cluster is N workers sharing one Config template (each gets a private
// spill dir unless the template names one).
type Cluster struct {
	Workers []*Worker
}

// NewCluster boots n workers. Cleanup is bound to t.
func NewCluster(t testing.TB, n int, cfg serve.Config) *Cluster {
	t.Helper()
	c := &Cluster{}
	for i := 0; i < n; i++ {
		c.Workers = append(c.Workers, newWorker(t, cfg))
	}
	t.Cleanup(c.Close)
	return c
}

// URLs returns every worker's routable address.
func (c *Cluster) URLs() []string {
	urls := make([]string, len(c.Workers))
	for i, w := range c.Workers {
		urls[i] = w.URL()
	}
	return urls
}

// WirePeers connects every worker to all the others as a peer warm tier,
// by proxy address (so peer fetches survive Kill/Restart of the target and
// respect injected faults). The wiring persists across worker restarts.
func (c *Cluster) WirePeers() {
	urls := c.URLs()
	for i, w := range c.Workers {
		peers := make([]string, 0, len(urls)-1)
		for j, u := range urls {
			if j != i {
				peers = append(peers, u)
			}
		}
		w.SetPeers(peers)
	}
}

// Close shuts every backend down (idempotent; proxies close via t.Cleanup).
func (c *Cluster) Close() {
	for _, w := range c.Workers {
		if !w.Proxy.down.Load() {
			w.backend.Close()
		}
	}
}
