// Package dist is the scatter/gather tier over ptaserve workers: a
// coordinator shards a series by aggregation group and, within a group, by
// maximal gap-free run — the exact decomposition behind core.PTAcParallel —
// routes each shard to a worker by consistent hashing on its fingerprint,
// gathers per-shard error curves over the /v1/compress/many wire schema
// with per-shard deadlines and retry-with-backoff, and recombines the
// curves locally in core.SolveRuns, the driver the in-process parallel
// evaluators run, so the distributed result is bit-identical to theirs.
// The registry name is
// "dist" (strategy.go); docs/ARCHITECTURE.md § Distribution has the
// exactness argument.
package dist

import (
	"crypto/sha256"
	"encoding/binary"
	"sort"
	"strconv"
)

// ring is a consistent-hash ring over worker base URLs: every worker owns
// vnodes pseudo-random points on a uint64 circle, and a key routes to the
// owner of the first point at or after the key's hash. Adding or removing
// one worker only moves the keys whose owning points belonged to it —
// about K/N of K keys over N workers — so the other workers' matrix and
// spill caches stay hot across membership changes.
type ring struct {
	workers []string
	points  []ringPoint // sorted by hash
}

type ringPoint struct {
	hash   uint64
	worker int32 // index into workers
}

// hashKey maps a routing key onto the circle (the first 8 bytes of its
// SHA-256, like the spill-file names).
func hashKey(key string) uint64 {
	sum := sha256.Sum256([]byte(key))
	return binary.BigEndian.Uint64(sum[:8])
}

// newRing places vnodes points per worker. Construction is deterministic
// and order-independent: point positions hash only the worker URL, so
// routing depends on the set of workers, never the order they were listed.
func newRing(workers []string, vnodes int) *ring {
	r := &ring{workers: append([]string(nil), workers...)}
	r.points = make([]ringPoint, 0, len(r.workers)*vnodes)
	for wi, w := range r.workers {
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{
				hash:   hashKey(w + "#" + strconv.Itoa(v)),
				worker: int32(wi),
			})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Hash ties (astronomically rare) break on the URL so even then
		// construction order cannot matter.
		return r.workers[r.points[i].worker] < r.workers[r.points[j].worker]
	})
	return r
}

// lookup returns the primary worker for key, or "" on an empty ring.
func (r *ring) lookup(key string) string {
	seq := r.sequence(key, 1)
	if len(seq) == 0 {
		return ""
	}
	return seq[0]
}

// sequence returns up to n distinct workers in ring order from the key's
// position: the primary first, then the failover candidates a retry walks.
func (r *ring) sequence(key string, n int) []string {
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	n = min(n, len(r.workers))
	h := hashKey(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	seen := make(map[int32]bool, n)
	out := make([]string, 0, n)
	for j := 0; len(out) < n && j < len(r.points); j++ {
		p := r.points[(i+j)%len(r.points)]
		if seen[p.worker] {
			continue
		}
		seen[p.worker] = true
		out = append(out, r.workers[p.worker])
	}
	return out
}
