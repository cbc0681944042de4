package serve

// Concurrency tests for the spill tier (run these under -race): concurrent
// misses on one key must coalesce into exactly one matrix fill, a restarted
// worker's concurrent first requests must race the spill reload safely with
// exactly one load, and the .ptam file must stay valid throughout.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"sync"
	"testing"
)

// trySend posts one compress request, returning an error instead of
// failing, so racing goroutines can use it (t.Fatal is main-goroutine
// only).
func trySend(url string, plan planWire) (resultWire, error) {
	var res resultWire
	raw, err := json.Marshal(compressRequest{Series: projWire(), Plan: plan})
	if err != nil {
		return res, err
	}
	resp, err := http.Post(url+"/v1/compress", "application/json", bytes.NewReader(raw))
	if err != nil {
		return res, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var out map[string]any
		json.NewDecoder(resp.Body).Decode(&out)
		return res, fmt.Errorf("status %d: %v", resp.StatusCode, out)
	}
	return res, json.NewDecoder(resp.Body).Decode(&res)
}

// raceSend fires n concurrent identical requests and returns the results.
func raceSend(t *testing.T, url string, plan planWire, n int) []resultWire {
	t.Helper()
	results := make([]resultWire, n)
	errs := make([]error, n)
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer done.Done()
			start.Wait() // maximize overlap: all goroutines release together
			results[i], errs[i] = trySend(url, plan)
		}(i)
	}
	start.Done()
	done.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatalf("raced request: %v", err)
		}
	}
	return results
}

// TestColdFillRace: G goroutines miss the same cold key together; the entry
// semaphore must coalesce them into one fill — one cache miss, G−1 hits,
// and total DP cell work equal to a single serial fill.
func TestColdFillRace(t *testing.T) {
	const g = 8
	plan := planWire{Strategy: "ptac", Budget: "c=4"}

	// Serial reference: the fill cost of this plan on a fresh server.
	_, ref := newTestServer(t, Config{})
	want := spillSend(t, ref.URL, plan)

	s, ts := newTestServer(t, Config{SpillDir: t.TempDir()})
	results := raceSend(t, ts.URL, plan, g)

	var misses int64
	for _, res := range results {
		if res.Cache == cacheMiss {
			misses++
		}
		// Cells is the set's cumulative fill: had any request refilled, the
		// later readings would exceed the single-fill cost.
		if res.Stats.Cells != want.Stats.Cells {
			t.Fatalf("raced request saw %d cumulative cells, want %d (exactly one fill)",
				res.Stats.Cells, want.Stats.Cells)
		}
		if res.C != want.C || res.Error != want.Error {
			t.Fatalf("raced result (C=%d err=%v) differs from serial (C=%d err=%v)",
				res.C, res.Error, want.C, want.Error)
		}
	}
	if misses != 1 {
		t.Fatalf("%d requests reported a cache miss, want exactly 1 (one fill)", misses)
	}
	if got := s.metrics.fillSeconds.Count(); got != 1 {
		t.Fatalf("fill latency histogram observed %d fills, want exactly 1", got)
	}
	if got := s.cache.misses.Load(); got != 1 {
		t.Fatalf("cache recorded %d misses, want 1", got)
	}
	if got := s.cache.hits.Load(); got != g-1 {
		t.Fatalf("cache recorded %d hits, want %d", got, g-1)
	}
	if stores, errs := s.store.stores.Load(), s.store.errors.Load(); stores != 1 || errs != 0 {
		t.Fatalf("spill counters: %d stores, %d errors; want exactly one store and no errors", stores, errs)
	}
}

// TestSpillReloadRace is the restart scenario: two-plus goroutines miss the
// same key on a freshly restarted worker and race the spill reload.
// Exactly one goroutine may touch the disk; everyone must answer from the
// restored matrices with zero fill work; the .ptam file must stay valid.
func TestSpillReloadRace(t *testing.T) {
	const g = 8
	dir := t.TempDir()
	plan := planWire{Strategy: "ptac", Budget: "c=4"}

	// Warm worker spills, then dies.
	_, ts1 := newTestServer(t, Config{SpillDir: dir})
	want := spillSend(t, ts1.URL, plan)
	files := spillFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("%d spill files after the warm fill, want 1", len(files))
	}
	spilled, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	ts1.Close()

	// Restarted worker: concurrent first requests race the reload.
	s2, ts2 := newTestServer(t, Config{SpillDir: dir})
	for _, res := range raceSend(t, ts2.URL, plan, g) {
		if res.Cache != cacheHit {
			t.Fatalf("restarted worker answered %q, want %q via the spill tier", res.Cache, cacheHit)
		}
		if res.Stats.Cells != 0 {
			t.Fatalf("restarted worker filled %d cells, want 0 (restored matrices)", res.Stats.Cells)
		}
		if res.C != want.C || res.Error != want.Error {
			t.Fatalf("reloaded result (C=%d err=%v) differs from pre-restart (C=%d err=%v)",
				res.C, res.Error, want.C, want.Error)
		}
	}
	if loads := s2.store.loads.Load(); loads != 1 {
		t.Fatalf("spill tier recorded %d loads, want exactly 1 for %d racing misses", loads, g)
	}
	if errs := s2.store.errors.Load(); errs != 0 {
		t.Fatalf("spill tier recorded %d errors", errs)
	}
	// The reload answered the budget already on disk, so nothing deepened
	// and the file must be byte-identical — never rewritten, never torn.
	after, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != string(spilled) {
		t.Fatal("spill file changed during a read-only reload race")
	}
}

// TestSpillDeepenRace: racing DIFFERENT budgets of one key forces the
// matrices to deepen and re-spill under contention. The entry semaphore
// must keep the file monotone and valid: after the dust settles a fresh
// worker answers the deepest budget as a pure hit.
func TestSpillDeepenRace(t *testing.T) {
	dir := t.TempDir()
	plans := []planWire{
		{Strategy: "ptac", Budget: "c=3"}, // cmin of the fixture
		{Strategy: "ptac", Budget: "c=4"},
		{Strategy: "ptac", Budget: "c=5"},
		{Strategy: "ptac", Budget: "c=6"},
	}

	s1, ts1 := newTestServer(t, Config{SpillDir: dir})
	errs := make([]error, 2*len(plans))
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(len(errs))
	for round := 0; round < 2; round++ {
		for i, plan := range plans {
			go func(slot int, plan planWire) {
				defer done.Done()
				start.Wait()
				_, errs[slot] = trySend(ts1.URL, plan)
			}(round*len(plans)+i, plan)
		}
	}
	start.Done()
	done.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatalf("raced deepening request: %v", err)
		}
	}
	if errs := s1.store.errors.Load(); errs != 0 {
		t.Fatalf("spill tier recorded %d errors under deepening contention", errs)
	}
	if files := spillFiles(t, dir); len(files) != 1 {
		t.Fatalf("%d spill files for one cache key, want 1", len(files))
	}
	ts1.Close()

	// The surviving file must be complete enough for the deepest budget.
	_, ts2 := newTestServer(t, Config{SpillDir: dir})
	res := spillSend(t, ts2.URL, plans[len(plans)-1])
	if res.Cache != cacheHit || res.Stats.Cells != 0 {
		t.Fatalf("deepest budget after restart: cache=%q cells=%d, want a zero-fill hit",
			res.Cache, res.Stats.Cells)
	}
}
