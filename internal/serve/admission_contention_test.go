package serve

// Error-path tests for admission under contention: the exact Retry-After
// contract of a 429, and the queue policy's one-at-a-time FIFO behavior
// when several over-budget requests pile up on the oversized slot.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRetryAfterHeaderContents pins the full 429 contract: the exact
// Retry-After value (the documented one second), the JSON content type, and
// a body whose fields agree with the header-level verdict.
func TestRetryAfterHeaderContents(t *testing.T) {
	_, ts := newTestServer(t, Config{AdmissionMaxCells: 10})
	raw, _ := json.Marshal(compressRequest{
		Series: projWire(), // 7 rows × c=4 = 28 cells > 10
		Plan:   planWire{Strategy: "ptac", Budget: "c=4"},
	})
	resp, err := http.Post(ts.URL+"/v1/compress", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want %q (delay-seconds form)", ra, "1")
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if status := errorField(t, out, "status"); status != float64(http.StatusTooManyRequests) {
		t.Errorf("body status = %v, want 429", status)
	}
	if msg := errorField(t, out, "message"); msg != "estimated cost 28 cells exceeds the admission budget 10" {
		t.Errorf("message = %q", msg)
	}

	// A non-admission failure must NOT carry Retry-After: the header means
	// "try the same request later", which is wrong advice for a budget that
	// can never fit.
	raw, _ = json.Marshal(compressRequest{
		Series: projWire(),
		Plan:   planWire{Strategy: "ptac", Budget: "c=1"}, // 7 cells, passes admission; infeasible
	})
	resp2, err := http.Post(ts.URL+"/v1/compress", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("infeasible budget: status %d, want 422", resp2.StatusCode)
	}
	if ra := resp2.Header.Get("Retry-After"); ra != "" {
		t.Errorf("422 carries Retry-After %q; only admission 429s may", ra)
	}
}

// bigWire builds an n-row single-group series with distinct values per
// seed, so each request fingerprints to its own cache key and pays a real
// fill — keeping queued evaluations long enough to observe their order.
func bigWire(seed int64, n int) seriesWire {
	rng := rand.New(rand.NewSource(seed))
	w := seriesWire{
		GroupAttrs: []attrWire{{Name: "g", Kind: "string"}},
		AggNames:   []string{"v"},
	}
	for i := 0; i < n; i++ {
		w.Rows = append(w.Rows, rowWire{
			Group: []any{"only"},
			Aggs:  []float64{rng.NormFloat64()},
			Start: int64(i),
			End:   int64(i),
		})
	}
	return w
}

// TestAdmissionQueueOrderingUnderContention: with the oversized slot held,
// several over-budget requests queue instead of rejecting; none may
// complete while the slot is held; on release they take the slot one at a
// time in arrival order, each to a 200. The order is recorded on the
// server, as each request takes the slot, and a request counts as arrived
// only once the admission counter shows it in the queue.
func TestAdmissionQueueOrderingUnderContention(t *testing.T) {
	const waiters = 3
	const n = 300
	s, ts := newTestServer(t, Config{AdmissionMaxCells: 1000, AdmissionPolicy: AdmissionQueue})

	// Request i asks for c = n/2 + i, so the cells estimate n·c that
	// admission hands the hook names the request.
	var (
		mu    sync.Mutex
		taken []int
	)
	s.onSlot = func(cells int64) {
		mu.Lock()
		taken = append(taken, int(cells/n)-n/2)
		mu.Unlock()
	}
	// Hold the single oversized slot; taking it also publishes the hook to
	// every later acquirer.
	if err := s.oversized.acquire(context.Background(), func() {}); err != nil {
		t.Fatal(err)
	}

	var (
		completed atomic.Int64
		wg        sync.WaitGroup
		errs      [waiters]error
		statuses  [waiters]int
	)
	for i := 0; i < waiters; i++ {
		raw, _ := json.Marshal(compressRequest{
			Series:    bigWire(int64(i), n),
			Plan:      planWire{Strategy: "ptac", Budget: fmt.Sprintf("c=%d", n/2+i)},
			TimeoutMS: 60_000,
		})
		wg.Add(1)
		go func(i int, raw []byte) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/compress", "application/json", bytes.NewReader(raw))
			if err != nil {
				errs[i] = err
				return
			}
			resp.Body.Close()
			statuses[i] = resp.StatusCode
			completed.Add(1)
		}(i, raw)

		// The counter moves only once the request holds its place in the
		// queue, so the next request cannot get ahead of this one.
		deadline := time.Now().Add(10 * time.Second)
		for s.metrics.admissionQueued.Value() != uint64(i+1) {
			if time.Now().After(deadline) {
				t.Fatalf("request %d never queued (counter at %d)", i, s.metrics.admissionQueued.Value())
			}
			time.Sleep(time.Millisecond)
		}
	}

	// The slot is still held: nobody may have finished.
	time.Sleep(50 * time.Millisecond)
	if got := completed.Load(); got != 0 {
		t.Fatalf("%d queued requests completed while the oversized slot was held", got)
	}
	if got := s.metrics.admissionRejected.Value(); got != 0 {
		t.Fatalf("queue policy rejected %d requests", got)
	}

	s.oversized.release() // the queue drains one at a time
	wg.Wait()
	for i := 0; i < waiters; i++ {
		if errs[i] != nil {
			t.Fatalf("queued request %d: %v", i, errs[i])
		}
		if statuses[i] != http.StatusOK {
			t.Fatalf("queued request %d: status %d, want 200", i, statuses[i])
		}
	}
	mu.Lock()
	order := append([]int(nil), taken...)
	mu.Unlock()
	if want := []int{0, 1, 2}; !slices.Equal(order, want) {
		t.Fatalf("slot taken in order %v, want FIFO arrival order %v", order, want)
	}
}

// TestFIFOSlotCancelNeverLeaks: waiters whose deadlines end while they
// queue, some just as the slot reaches them, never strand the slot or let
// two holders in: once every goroutine has returned, the slot is free.
func TestFIFOSlotCancelNeverLeaks(t *testing.T) {
	var q fifoSlot
	var holders atomic.Int32
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ctx, cancel := context.WithTimeout(context.Background(), time.Duration((g+i)%5)*10*time.Microsecond)
				if q.acquire(ctx, func() {}) == nil {
					if holders.Add(1) != 1 {
						t.Error("two holders at once")
					}
					holders.Add(-1)
					q.release()
				}
				cancel()
			}
		}(g)
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := q.acquire(ctx, func() {}); err != nil {
		t.Fatalf("slot stranded after every waiter returned: %v", err)
	}
}

// TestAdmissionQueueHonorsDeadline: a queued request gives up at its own
// deadline with 504 instead of waiting behind the slot unboundedly.
func TestAdmissionQueueHonorsDeadline(t *testing.T) {
	s, ts := newTestServer(t, Config{AdmissionMaxCells: 10, AdmissionPolicy: AdmissionQueue})
	if err := s.oversized.acquire(context.Background(), func() {}); err != nil {
		t.Fatal(err)
	}
	defer s.oversized.release()

	raw, _ := json.Marshal(compressRequest{
		Series:    projWire(),
		Plan:      planWire{Strategy: "ptac", Budget: "c=4"},
		TimeoutMS: 80,
	})
	start := time.Now()
	resp, err := http.Post(ts.URL+"/v1/compress", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline ignored: queued request waited %v", elapsed)
	}
	if resp.StatusCode != http.StatusGatewayTimeout {
		var out map[string]any
		json.NewDecoder(resp.Body).Decode(&out)
		t.Fatalf("status %d (%v), want 504", resp.StatusCode, out)
	}
}
