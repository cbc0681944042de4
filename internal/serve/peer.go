package serve

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// peerTier is the fleet-shared warm cache: on a local miss (memory and
// spill both cold) the server asks its peers for the content-addressed
// spill blob over GET /v1/matrix/{hash} before paying the DP fill. Peers
// are tried in rendezvous order per hash (RendezvousOrder), so every
// worker in a fleet agrees on which peer most likely filled a given key
// without any coordination or shared state. A fetched blob must pass the
// peer gate (gateBlob: key equality, the header, every section's CRC, and
// every split path against the walk of its rows) before the worker adopts
// it into its spill directory and loads it like its own spill file — a
// malfunctioning peer degrades to a cold fill, never to wrong bytes. So
// peers need a spill directory (Config.SpillDir).
//
// The tier is always constructed (counters and /v1/stats shape stay stable)
// and does nothing until peers are configured; SetPeers swaps the list at
// runtime, which disttest uses to wire a cluster after boot.
type peerTier struct {
	client  *http.Client
	timeout time.Duration

	mu    sync.RWMutex
	peers []string

	fetchHits, fetchMisses, fetchErrors, fetchBytes atomic.Int64
	serveHits, serveMisses, serveBytes              atomic.Int64
}

// peerTimeout bounds one peer fetch attempt. A peer blocked on an
// in-flight fill of the requested key holds the request until the fill
// lands, so this also bounds how long a miss waits for a sibling's fill
// instead of duplicating it.
const peerTimeout = 5 * time.Second

func newPeerTier() *peerTier {
	return &peerTier{client: &http.Client{}, timeout: peerTimeout}
}

// validatePeers rejects anything that is not an absolute http(s) URL — a
// typo'd peer should fail at config time, not as a per-key fetch error —
// and peers without a spill directory to adopt their blobs into.
func validatePeers(urls []string, spill bool) error {
	for _, raw := range urls {
		u, err := url.Parse(raw)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return fmt.Errorf("serve: peer %q, want an absolute http(s) URL", raw)
		}
	}
	if len(urls) > 0 && !spill {
		return fmt.Errorf("serve: peers need a SpillDir: a fetched blob is adopted into the spill directory and loaded from there")
	}
	return nil
}

func (p *peerTier) set(urls []string) {
	p.mu.Lock()
	p.peers = append([]string(nil), urls...)
	p.mu.Unlock()
}

func (p *peerTier) active() bool {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.peers) > 0
}

func (p *peerTier) count() int {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return len(p.peers)
}

// order returns the peers in hash's rendezvous order.
func (p *peerTier) order(hash string) []string {
	p.mu.RLock()
	peers := p.peers
	p.mu.RUnlock()
	return RendezvousOrder(peers, hash)
}

// RendezvousOrder ranks nodes for key by rendezvous (highest-random-weight)
// hashing: by the first 8 bytes of SHA-256(node + "#" + key), highest
// first, a tie going to the smaller node. The order depends on the set of
// nodes, never on how they are listed, and removing a node moves only the
// keys it ranked first — about K/N of K keys over N nodes — so the other
// nodes' caches stay hot across membership changes. It is the fleet's one
// placement rule: the peer tier tries peers in this order, and
// internal/dist routes each shard to its workers in it.
func RendezvousOrder(nodes []string, key string) []string {
	type ranked struct {
		node   string
		weight uint64
	}
	rs := make([]ranked, len(nodes))
	for i, node := range nodes {
		sum := sha256.Sum256([]byte(node + "#" + key))
		rs[i] = ranked{node, binary.BigEndian.Uint64(sum[:8])}
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].weight != rs[j].weight {
			return rs[i].weight > rs[j].weight
		}
		return rs[i].node < rs[j].node
	})
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.node
	}
	return out
}

// fetch asks each peer in rendezvous order for the blob of (hash, key) and
// returns the first response that passes the peer gate. A 404 is a clean
// miss; transport errors and refused blobs count as fetch errors and the
// next peer is tried. nil means no peer had it.
func (p *peerTier) fetch(ctx context.Context, hash, key string) []byte {
	for _, peer := range p.order(hash) {
		if data := p.fetchOne(ctx, peer, hash, key); data != nil {
			p.fetchHits.Add(1)
			p.fetchBytes.Add(int64(len(data)))
			return data
		}
		if ctx.Err() != nil {
			break
		}
	}
	p.fetchMisses.Add(1)
	return nil
}

func (p *peerTier) fetchOne(ctx context.Context, peer, hash, key string) []byte {
	ctx, cancel := context.WithTimeout(ctx, p.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/v1/matrix/"+hash, nil)
	if err != nil {
		p.fetchErrors.Add(1)
		return nil
	}
	resp, err := p.client.Do(req)
	if err != nil {
		p.fetchErrors.Add(1)
		return nil
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil
	}
	if resp.StatusCode != http.StatusOK {
		p.fetchErrors.Add(1)
		return nil
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, spillMaxBytes+1))
	if err != nil || len(data) > spillMaxBytes || gateBlob(data, key) != nil {
		p.fetchErrors.Add(1)
		return nil
	}
	return data
}

// peerStats is the /v1/stats peer block (zero-valued when no peers are
// configured, so the shape is stable for dashboards).
type peerStats struct {
	Peers       int   `json:"peers"`
	FetchHits   int64 `json:"fetch_hits"`
	FetchMisses int64 `json:"fetch_misses"`
	FetchErrors int64 `json:"fetch_errors"`
	FetchBytes  int64 `json:"fetch_bytes"`
	ServeHits   int64 `json:"serve_hits"`
	ServeMisses int64 `json:"serve_misses"`
	ServeBytes  int64 `json:"serve_bytes"`
}

func (p *peerTier) stats() peerStats {
	return peerStats{
		Peers:       p.count(),
		FetchHits:   p.fetchHits.Load(),
		FetchMisses: p.fetchMisses.Load(),
		FetchErrors: p.fetchErrors.Load(),
		FetchBytes:  p.fetchBytes.Load(),
		ServeHits:   p.serveHits.Load(),
		ServeMisses: p.serveMisses.Load(),
		ServeBytes:  p.serveBytes.Load(),
	}
}
