package serve

import (
	"context"
	"testing"

	"repro/internal/dataset"
	"repro/pta"
)

// cacheTestSeries builds a small single-group series for direct cache tests.
func cacheTestSeries(t *testing.T) *pta.Series {
	t.Helper()
	seq, err := dataset.Counter(1, 64, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

// TestEvictionRacingInflightFill: an entry evicted while its fill is still
// running must complete its request correctly without resurrecting itself
// into the LRU or corrupting the counters. The sequence: request A misses
// and starts a slow build; key B displaces A; A's build finishes and its
// budget still answers (the detached entry is self-contained); a later
// request for A is a fresh miss on a fresh entry. Run under -race in CI.
func TestEvictionRacingInflightFill(t *testing.T) {
	series := cacheTestSeries(t)
	c := newMatrixCache(1)
	keyA, keyB := "series-A", "series-B"

	entryA, hit := c.acquire(keyA)
	if hit {
		t.Fatal("fresh cache reported a hit")
	}

	buildStarted := make(chan struct{})
	buildRelease := make(chan struct{})
	done := make(chan error, 1)
	go func() {
		_, err := entryA.compress(context.Background(), c,
			func() (*pta.MatrixSet, error) {
				close(buildStarted)
				<-buildRelease // hold the fill mid-build while B evicts us
				return pta.NewMatrixSet(series, "ptac", pta.Options{})
			},
			func(set *pta.MatrixSet) (*pta.Result, error) {
				return set.Compress(context.Background(), pta.Size(series.Len()/4))
			})
		done <- err
	}()

	<-buildStarted
	if _, hit := c.acquire(keyB); hit {
		t.Fatal("keyB reported a hit")
	}
	// Capacity 1: B displaced A while A's build holds the entry semaphore.
	close(buildRelease)
	if err := <-done; err != nil {
		t.Fatalf("in-flight fill failed after eviction: %v", err)
	}

	if entries, _, _ := c.footprint(); entries != 1 {
		t.Errorf("entries = %d, want 1 (the late fill must not resurrect A)", entries)
	}
	if hits, misses, evictions := c.hits.Load(), c.misses.Load(), c.evictions.Load(); misses != 2 || evictions != 1 || hits != 0 {
		t.Errorf("counters hits=%d misses=%d evictions=%d, want 0/2/1", hits, misses, evictions)
	}
	if _, hit := c.acquire(keyB); !hit {
		t.Error("keyB fell out of the cache")
	}

	// A is gone: re-acquiring is a miss that yields a fresh entry, not the
	// evicted one (which still holds its own warm set, harmlessly).
	entryA2, hit := c.acquire(keyA)
	if hit {
		t.Error("evicted key reported a hit")
	}
	if entryA2 == entryA {
		t.Error("re-acquired entry is the evicted one")
	}

	// discard on the long-gone entry must not remove the fresh one.
	c.discard(entryA)
	if _, hit := c.acquire(keyA); !hit {
		t.Error("discard of the stale entry removed the fresh entry")
	}
}
