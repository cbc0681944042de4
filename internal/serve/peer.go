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

	"repro/pta"
)

// peerTier is the fleet-shared warm cache: on a local miss (memory and
// spill both cold) the server asks its peers for the content-addressed
// spill blob over GET /v1/matrix/{hash} before paying the DP fill. Peers
// are tried in rendezvous (highest-random-weight) order per hash, so every
// worker in a fleet agrees on which peer most likely filled a given key
// without any coordination or shared ring state. Fetched blobs are fully
// validated (key equality, header CRC, every row CRC) before use — a
// malfunctioning peer degrades to a cold fill, never to wrong bytes.
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

// validatePeers rejects anything that is not an absolute http(s) URL; a
// typo'd peer should fail at config time, not as a per-key fetch error.
func validatePeers(urls []string) error {
	for _, raw := range urls {
		u, err := url.Parse(raw)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return fmt.Errorf("serve: peer %q, want an absolute http(s) URL", raw)
		}
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

// order returns the peers ranked by rendezvous weight for hash: every
// worker hashing (peer, key-hash) the same way ranks the same peer first,
// so the fleet converges on one owner per key without a shared ring
// (internal/dist keeps its own ring on the coordinator; workers stay
// coordination-free).
func (p *peerTier) order(hash string) []string {
	p.mu.RLock()
	peers := p.peers
	p.mu.RUnlock()
	if len(peers) <= 1 {
		return peers
	}
	type ranked struct {
		peer   string
		weight uint64
	}
	rs := make([]ranked, len(peers))
	for i, peer := range peers {
		sum := sha256.Sum256([]byte(peer + "#" + hash))
		rs[i] = ranked{peer, binary.BigEndian.Uint64(sum[:8])}
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].weight > rs[j].weight })
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = r.peer
	}
	return out
}

// fetch asks each peer in rendezvous order for the blob of (hash, key) and
// returns the first fully validated response, decoded. A 404 is a clean
// miss; transport errors and invalid blobs count as fetch errors and the
// next peer is tried. nil means no peer had it.
func (p *peerTier) fetch(ctx context.Context, hash, key string) ([]byte, *pta.MatrixSnapshot) {
	for _, peer := range p.order(hash) {
		data, snap := p.fetchOne(ctx, peer, hash, key)
		if snap != nil {
			p.fetchHits.Add(1)
			p.fetchBytes.Add(int64(len(data)))
			return data, snap
		}
		if ctx.Err() != nil {
			break
		}
	}
	p.fetchMisses.Add(1)
	return nil, nil
}

func (p *peerTier) fetchOne(ctx context.Context, peer, hash, key string) ([]byte, *pta.MatrixSnapshot) {
	ctx, cancel := context.WithTimeout(ctx, p.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, peer+"/v1/matrix/"+hash, nil)
	if err != nil {
		p.fetchErrors.Add(1)
		return nil, nil
	}
	resp, err := p.client.Do(req)
	if err != nil {
		p.fetchErrors.Add(1)
		return nil, nil
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return nil, nil
	}
	if resp.StatusCode != http.StatusOK {
		p.fetchErrors.Add(1)
		return nil, nil
	}
	data, err := io.ReadAll(io.LimitReader(resp.Body, spillMaxBytes+1))
	if err != nil || len(data) > spillMaxBytes {
		p.fetchErrors.Add(1)
		return nil, nil
	}
	snap, err := decodeSnapshot(data, key)
	if err != nil {
		p.fetchErrors.Add(1)
		return nil, nil
	}
	return data, snap
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
