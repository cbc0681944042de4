package dist

import (
	"container/list"
	"strconv"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/pta"
)

// curveCache is the coordinator's sub-request cache: the gathered per-run
// state — error curve, split ranges, worker-reported DP cost — keyed by the
// run's content fingerprint plus the options that change curve values (the
// weights). Repeat compressions of a series whose runs did not change seed
// their shards from the cache and skip the worker scatter entirely; an
// edited run fingerprints to a new key and only that run is re-fetched.
// Like every cache tier here, invalidation is by displacement only — the
// key is a content address, so an entry can never go stale in place.
//
// Ranges are stored relative to the run (the shard's lo subtracted), because
// the same run content can sit at a different global offset in another
// series — or shift inside an edited one — and still reuse the entry.
type curveCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List               // front = most recently used
	byKey    map[string]*list.Element // value: *curveEntry
}

type curveEntry struct {
	key    string
	curve  []float64
	ranges [][][2]int32 // ranges[k-1][i] = 0-based (first,last) within the run
	stats  core.DPStats
}

func newCurveCache(capacity int) *curveCache {
	return &curveCache{
		capacity: capacity,
		ll:       list.New(),
		byKey:    make(map[string]*list.Element),
	}
}

// curveKey derives a shard's cache key. The fingerprint already hashes the
// run's rows and schema; the weights are folded in because they change the
// curve values, mirroring the serve tier's matrix-cache key.
func curveKey(fp string, opts pta.Options) string {
	var sb strings.Builder
	sb.WriteString(fp)
	for _, w := range opts.Weights {
		sb.WriteByte('|')
		sb.WriteString(strconv.FormatFloat(w, 'b', -1, 64))
	}
	return sb.String()
}

// seed copies a cached entry into a fresh shard — curve, ranges shifted to
// the shard's global offset, and the DP cost the fleet once paid for the
// rows — reporting whether the key was present. Slices are cloned both ways,
// so a shard deepening its curve never mutates the cached state.
func (cc *curveCache) seed(sh *shard, key string) bool {
	cc.mu.Lock()
	el, ok := cc.byKey[key]
	if !ok {
		cc.mu.Unlock()
		return false
	}
	cc.ll.MoveToFront(el)
	e := el.Value.(*curveEntry)
	sh.curve = append([]float64(nil), e.curve...)
	sh.ranges = make([][][2]int32, len(e.ranges))
	lo := int32(sh.lo)
	for k, rgs := range e.ranges {
		out := make([][2]int32, len(rgs))
		for i, rg := range rgs {
			out[i] = [2]int32{rg[0] + lo, rg[1] + lo}
		}
		sh.ranges[k] = out
	}
	sh.stats = e.stats
	cc.mu.Unlock()
	return true
}

// store commits a shard's gathered state under key, replacing any shallower
// entry. The shard's slices are cloned and its ranges rebased to the run.
func (cc *curveCache) store(sh *shard, key string) {
	e := &curveEntry{
		key:    key,
		curve:  append([]float64(nil), sh.curve...),
		ranges: make([][][2]int32, len(sh.ranges)),
		stats:  sh.stats,
	}
	lo := int32(sh.lo)
	for k, rgs := range sh.ranges {
		out := make([][2]int32, len(rgs))
		for i, rg := range rgs {
			out[i] = [2]int32{rg[0] - lo, rg[1] - lo}
		}
		e.ranges[k] = out
	}
	cc.mu.Lock()
	if el, ok := cc.byKey[key]; ok {
		cc.ll.MoveToFront(el)
		el.Value = e
	} else {
		cc.byKey[key] = cc.ll.PushFront(e)
		for cc.ll.Len() > cc.capacity {
			back := cc.ll.Back()
			cc.ll.Remove(back)
			delete(cc.byKey, back.Value.(*curveEntry).key)
		}
	}
	cc.mu.Unlock()
}

// len reports the resident entry count (for stats and tests).
func (cc *curveCache) len() int {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return cc.ll.Len()
}
