package serve

import (
	"bytes"
	"container/list"
	"context"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/pta"
)

// matrixCache is a concurrency-safe LRU of warm pta.MatrixSets, keyed by
// (series fingerprint, DP class, weights). Repeated budgets of a hot series
// backtrack over the cached matrices instead of refilling them; a new budget
// on a cached series only extends the matrices to the deeper row it needs.
//
// Entries are invalidated by displacement only: the key is a content hash,
// so a series that changes upstream simply fingerprints to a new key and the
// stale entry ages out of the LRU. There is no TTL — matrices are pure
// functions of (series, class, weights) and can never go stale in place.
//
// The cache also keeps the resident-series memo: the request bytes of the
// series its entries were built from (see seriesRecord).
type matrixCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List               // front = most recently used
	byKey    map[string]*list.Element // value: *cacheEntry
	byHash   map[string]*list.Element // spillHash(key) → same element, for /v1/matrix

	// series maps a fingerprint to the series record its resident entries
	// share; memo publishes the records to lookupSeries, which reads them
	// without taking mu.
	series map[string]*seriesRecord
	memo   atomic.Pointer[[]*seriesRecord]

	hits, misses, evictions atomic.Int64
	memoHits, memoMisses    atomic.Int64
}

// cacheEntry guards one MatrixSet. The set is built under the entry
// semaphore by the request that missed, so concurrent requests for the same
// key wait and then hit the warm matrices; the semaphore also serializes
// Compress calls (a MatrixSet is not concurrency-safe). It is a channel,
// not a mutex, so a waiting request still honors its own deadline instead
// of blocking unboundedly behind another request's long fill.
type cacheEntry struct {
	key  string
	hash string // spillHash(key): the content address peers fetch by

	sem chan struct{} // capacity 1
	set *pta.MatrixSet

	// bytes and rows mirror the set's footprint after the latest use, so
	// footprint never has to take entry locks.
	bytes atomic.Int64
	rows  atomic.Int64

	// spilled is how many rows the persistent tier already holds for this
	// key, so repeated budgets do not rewrite an unchanged spill file.
	spilled atomic.Int64

	// cells is the set's cumulative DP fill as of the last evaluation; the
	// per-evaluation delta feeds ptaserve_dp_cells_filled_total, the counter
	// the warm-tier tests use to prove "zero cells recomputed".
	cells atomic.Int64

	// rec is the series record the entry holds, set once under mu by
	// remember while the entry is resident.
	rec atomic.Pointer[seriesRecord]
}

// newMatrixCache builds a cache holding at most capacity entries (≥ 1).
func newMatrixCache(capacity int) *matrixCache {
	return &matrixCache{
		capacity: max(1, capacity),
		ll:       list.New(),
		byKey:    make(map[string]*list.Element),
		byHash:   make(map[string]*list.Element),
		series:   make(map[string]*seriesRecord),
	}
}

// cacheKey derives the full cache key of one evaluation. Weights are part of
// the key because they change the error matrix cell values.
func cacheKey(fingerprint, class string, weights []float64) string {
	var sb strings.Builder
	sb.WriteString(fingerprint)
	sb.WriteByte('|')
	sb.WriteString(class)
	for _, w := range weights {
		sb.WriteByte('|')
		sb.WriteString(strconv.FormatFloat(w, 'b', -1, 64))
	}
	return sb.String()
}

// acquire returns the entry for key, creating (and counting a miss) when
// absent, touching the LRU order and counting a hit otherwise.
func (c *matrixCache) acquire(key string) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.ll.MoveToFront(el)
		c.hits.Add(1)
		return el.Value.(*cacheEntry), true
	}
	c.misses.Add(1)
	e := &cacheEntry{key: key, hash: spillHash(key), sem: make(chan struct{}, 1)}
	el := c.ll.PushFront(e)
	c.byKey[key] = el
	c.byHash[e.hash] = el
	for c.ll.Len() > c.capacity {
		back := c.ll.Back()
		c.ll.Remove(back)
		evicted := back.Value.(*cacheEntry)
		delete(c.byKey, evicted.key)
		delete(c.byHash, evicted.hash)
		c.forget(evicted)
		c.evictions.Add(1)
	}
	return e, false
}

// lookupByHash resolves a content address to its resident entry for the
// peer /v1/matrix endpoint, touching the LRU (a peer fetch is a use) but
// not the hit/miss counters (those count compression lookups).
func (c *matrixCache) lookupByHash(hash string) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byHash[hash]
	if !ok {
		return nil
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry)
}

// discard drops an entry whose MatrixSet failed to build, so a poisoned key
// does not count later requests as hits.
func (c *matrixCache) discard(e *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[e.key]; ok && el.Value.(*cacheEntry) == e {
		c.ll.Remove(el)
		delete(c.byKey, e.key)
		delete(c.byHash, e.hash)
		c.forget(e)
	}
}

// footprint reports the resident entries, the DP rows they retain and
// their estimated bytes, the memo's series bytes included.
func (c *matrixCache) footprint() (entries int, rows, held int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*cacheEntry)
		rows += e.rows.Load()
		held += e.bytes.Load()
	}
	for _, rec := range c.series {
		held += int64(len(rec.raw))
	}
	return c.ll.Len(), rows, held
}

// compress serves one budget through the cache: it builds the MatrixSet on
// first use and answers every call under the entry semaphore, giving up
// with the context error when the request's deadline expires while queued
// behind another request's fill. A build failure discards the entry and
// surfaces the error.
func (e *cacheEntry) compress(ctx context.Context, c *matrixCache, build func() (*pta.MatrixSet, error), do func(*pta.MatrixSet) (*pta.Result, error)) (*pta.Result, error) {
	select {
	case e.sem <- struct{}{}:
	case <-ctx.Done():
		return nil, ctx.Err()
	}
	defer func() { <-e.sem }()
	if e.set == nil {
		set, err := build()
		if err != nil {
			c.discard(e)
			return nil, err
		}
		e.set = set
	}
	res, err := do(e.set)
	e.bytes.Store(e.set.MemBytes())
	e.rows.Store(int64(e.set.Rows()))
	return res, err
}

// --- the resident-series memo ---
//
// A warm request usually resends, byte for byte, a series the server has
// decoded before: every client in this repository builds its bodies with
// json.Marshal. So each resident entry holds the exact bytes of the
// "series" value it was built from, and the decoder skips a body's series
// when those bytes open the rest of the body (fastDecoder.seriesValue).
// The hit is exact: a JSON value is self-delimiting and its decoded series
// depends only on its bytes, so identical bytes decode to the same series,
// and the record carries that series and its fingerprint.

// seriesRecord is one resident series as a client sent it. The entries of
// one fingerprint share a record, which lives while one of them is
// resident. Every request that hits it shares its series, read-only.
type seriesRecord struct {
	raw         []byte // the "series" JSON value, exactly as received
	series      *pta.Series
	fingerprint string
	refs        int // resident entries holding the record; guarded by mu
}

// lookupSeries returns the record whose bytes are a prefix of rest, or nil.
// It does not take mu. A record that does not match costs only its common
// prefix with rest, and the records number at most the cache's capacity.
func (c *matrixCache) lookupSeries(rest []byte) *seriesRecord {
	if c == nil {
		return nil
	}
	if recs := c.memo.Load(); recs != nil {
		for _, rec := range *recs {
			if bytes.HasPrefix(rest, rec.raw) {
				return rec
			}
		}
	}
	return nil
}

// remember gives entry e the series record of the request being answered
// from it: the record the request hit, the record another entry of the
// same fingerprint holds, or else a new one holding a copy of the body's
// series bytes. It runs under e's semaphore, so an entry copies at most
// once, and only while e is resident; the copy itself runs outside mu, so
// no other request's acquire waits on it.
func (c *matrixCache) remember(e *cacheEntry, req *compressBody) {
	if e.rec.Load() != nil || req.rec == nil && req.raw == nil {
		return
	}
	c.mu.Lock()
	rec, ok := c.series[req.fingerprint], c.resident(e)
	c.mu.Unlock()
	if !ok {
		return
	}
	if rec == nil {
		rec = req.rec
	}
	if rec == nil {
		rec = &seriesRecord{
			raw:         bytes.Clone(req.raw),
			series:      req.series,
			fingerprint: req.fingerprint,
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if e.rec.Load() != nil || !c.resident(e) {
		return
	}
	if cur := c.series[rec.fingerprint]; cur != nil {
		rec = cur
	} else {
		c.series[rec.fingerprint] = rec
		c.publish()
	}
	rec.refs++
	e.rec.Store(rec)
}

// resident reports whether e is still the cache's entry for its key. The
// caller holds mu.
func (c *matrixCache) resident(e *cacheEntry) bool {
	el, ok := c.byKey[e.key]
	return ok && el.Value.(*cacheEntry) == e
}

// forget detaches an entry leaving the cache from its series record, and
// drops the record with the last resident entry that held it. The caller
// holds mu.
func (c *matrixCache) forget(e *cacheEntry) {
	rec := e.rec.Load()
	if rec == nil {
		return
	}
	if rec.refs--; rec.refs == 0 {
		delete(c.series, rec.fingerprint)
		c.publish()
	}
}

// publish hands lookupSeries a fresh list of the records. The caller holds
// mu.
func (c *matrixCache) publish() {
	recs := make([]*seriesRecord, 0, len(c.series))
	for _, rec := range c.series {
		recs = append(recs, rec)
	}
	c.memo.Store(&recs)
}
