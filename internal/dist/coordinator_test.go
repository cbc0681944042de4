package dist

// Fault-injection suite: the coordinator must return byte-identical results
// while workers drop connections, throttle, delay, corrupt responses, or
// die and come back — and must surface clean errors when the whole fleet is
// gone or a shard can't meet its deadline.

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"log"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dist/disttest"
	"repro/internal/serve"
	"repro/pta"
)

// fixtureSeries is a fixed multi-group, multi-run series large enough to
// scatter several shards across a 3-worker ring.
func fixtureSeries(t *testing.T) *pta.Series {
	t.Helper()
	s := genSeries(rand.New(rand.NewSource(42)), "mixed")
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

// shardPrimaries maps each worker URL to how many of the series' shards it
// is the primary for.
func shardPrimaries(t *testing.T, co *Coordinator, s *pta.Series) map[string]int {
	t.Helper()
	kn, err := core.NewKernel(s, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	primaries := map[string]int{}
	for _, sh := range makeShards(s, kn) {
		seq := co.route(sh.fp)
		if len(seq) == 0 {
			t.Fatal("route returned no workers")
		}
		primaries[seq[0]]++
	}
	return primaries
}

func mustCompress(t *testing.T, co *Coordinator, s *pta.Series, b pta.Budget) *pta.Result {
	t.Helper()
	res, err := co.Compress(context.Background(), s, b, pta.Options{})
	if err != nil {
		t.Fatalf("dist compress (%v): %v", b, err)
	}
	return res
}

func assertSameResult(t *testing.T, name string, got, want *pta.Result) {
	t.Helper()
	if got.C != want.C {
		t.Fatalf("%s: C=%d, want %d", name, got.C, want.C)
	}
	if math.Float64bits(got.Error) != math.Float64bits(want.Error) {
		t.Fatalf("%s: Error %v, want %v (bit-exact)", name, got.Error, want.Error)
	}
	if !bitIdentical(got.Series, want.Series) {
		t.Fatalf("%s: result rows differ from fault-free baseline", name)
	}
}

// TestDistFaultInjection runs the same compression under every recoverable
// fault and requires byte-identical output plus a visible retry count.
func TestDistFaultInjection(t *testing.T) {
	cluster := disttest.NewCluster(t, 3, serve.Config{})
	// The curve cache would answer the repeat compressions without touching
	// a worker; disable it so every run re-exercises the scatter path the
	// faults are injected into.
	co := newTestCoordinator(t, cluster)
	co.curves = nil
	s := fixtureSeries(t)
	budgets := []pta.Budget{pta.Size(s.CMin() + 1), pta.ErrorBound(0.4)}
	baseline := make([]*pta.Result, len(budgets))
	for i, b := range budgets {
		baseline[i] = mustCompress(t, co, s, b)
	}

	inject := map[string]func(w *disttest.Worker){
		"drop":    func(w *disttest.Worker) { w.Proxy.Drop(1) },
		"429":     func(w *disttest.Worker) { w.Proxy.Fail429(1) },
		"corrupt": func(w *disttest.Worker) { w.Proxy.Corrupt(1) },
	}
	for name, fault := range inject {
		t.Run(name, func(t *testing.T) {
			for i, b := range budgets {
				before := co.m.retries.Value()
				for _, w := range cluster.Workers {
					fault(w)
				}
				got := mustCompress(t, co, s, b)
				assertSameResult(t, name, got, baseline[i])
				if co.m.retries.Value() == before {
					t.Fatalf("%s: no retries recorded despite injected faults", name)
				}
			}
		})
	}

	t.Run("delay", func(t *testing.T) {
		for _, w := range cluster.Workers {
			w.Proxy.Delay(5 * time.Millisecond)
		}
		defer func() {
			for _, w := range cluster.Workers {
				w.Proxy.Delay(0)
			}
		}()
		for i, b := range budgets {
			assertSameResult(t, "delay", mustCompress(t, co, s, b), baseline[i])
		}
	})
}

// TestDistKillRestart kills a worker that is primary for at least one
// shard, verifies failover keeps results byte-identical, then restarts the
// worker (same address, same spill dir) and verifies again.
func TestDistKillRestart(t *testing.T) {
	cluster := disttest.NewCluster(t, 3, serve.Config{})
	co := newTestCoordinator(t, cluster)
	co.curves = nil // repeats must re-scatter

	s := fixtureSeries(t)
	b := pta.Size((s.CMin() + s.Len()) / 2)
	baseline := mustCompress(t, co, s, b)

	primaries := shardPrimaries(t, co, s)
	var victim *disttest.Worker
	for _, w := range cluster.Workers {
		if primaries[w.URL()] > 0 {
			victim = w
			break
		}
	}
	if victim == nil {
		t.Fatal("no worker is primary for any shard")
	}

	victim.Kill()
	retriesBefore := co.m.retries.Value()
	assertSameResult(t, "after kill", mustCompress(t, co, s, b), baseline)
	if co.m.retries.Value() == retriesBefore {
		t.Fatal("failover to surviving replicas recorded no retries")
	}

	victim.Restart()
	assertSameResult(t, "after restart", mustCompress(t, co, s, b), baseline)
}

// TestDistAllWorkersDown: with the whole fleet dead the coordinator fails
// with a bounded-retry error instead of hanging.
func TestDistAllWorkersDown(t *testing.T) {
	cluster := disttest.NewCluster(t, 2, serve.Config{})
	co := newTestCoordinator(t, cluster)
	co.retries = 1
	s := fixtureSeries(t)
	for _, w := range cluster.Workers {
		w.Kill()
	}
	_, err := co.Compress(context.Background(), s, pta.Size(s.CMin()), pta.Options{})
	if err == nil {
		t.Fatal("compress succeeded with every worker dead")
	}
	if !strings.Contains(err.Error(), "attempts failed") {
		t.Fatalf("error %q does not mention exhausted attempts", err)
	}
}

// TestDistShardDeadline: a worker slower than the per-shard timeout makes
// the request fail over; with every worker slow, the call errors after the
// bounded retries rather than waiting out the full delay.
func TestDistShardDeadline(t *testing.T) {
	cluster := disttest.NewCluster(t, 2, serve.Config{})
	co := newTestCoordinator(t, cluster)
	co.timeout, co.retries = 50*time.Millisecond, 1
	s := fixtureSeries(t)
	for _, w := range cluster.Workers {
		w.Proxy.Delay(2 * time.Second)
	}
	start := time.Now()
	_, err := co.Compress(context.Background(), s, pta.Size(s.CMin()), pta.Options{})
	if err == nil {
		t.Fatal("compress succeeded despite universal slowness beyond the shard deadline")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline failure took %v — per-shard timeout not enforced", elapsed)
	}
}

// TestDistContextCancel: caller cancellation aborts the scatter promptly.
func TestDistContextCancel(t *testing.T) {
	cluster := disttest.NewCluster(t, 2, serve.Config{})
	co := newTestCoordinator(t, cluster)
	s := fixtureSeries(t)
	for _, w := range cluster.Workers {
		w.Proxy.Delay(2 * time.Second)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := co.Compress(ctx, s, pta.Size(s.CMin()), pta.Options{})
	if err == nil {
		t.Fatal("compress succeeded past its context deadline")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

// TestDistMetrics: the scatter/gather surfaces fan-out and latency through
// the registry.
func TestDistMetrics(t *testing.T) {
	cluster := disttest.NewCluster(t, 3, serve.Config{})
	co := newTestCoordinator(t, cluster)
	s := fixtureSeries(t)
	mustCompress(t, co, s, pta.Size(s.CMin()))

	if got := co.m.compressions.Value(); got != 1 {
		t.Fatalf("compressions counter = %d, want 1", got)
	}
	if co.m.shards.Value() == 0 {
		t.Fatal("shard fan-out counter never moved")
	}
	var observed uint64
	for _, w := range cluster.Workers {
		observed += co.m.workerSeconds.With(w.URL()).Count()
	}
	if observed == 0 {
		t.Fatal("no per-worker latency observations recorded")
	}

	// The exposition itself must stay lint-clean with dist families on it.
	var buf strings.Builder
	co.Registry().WritePrometheus(&buf)
	if !strings.Contains(buf.String(), "ptadist_shard_requests_total") {
		t.Fatal("ptadist_* families missing from exposition")
	}
}

// TestDistRegistryStrategy: "dist" resolves through the strategy registry
// once a coordinator is activated, and degrades to a clear error without
// one.
func TestDistRegistryStrategy(t *testing.T) {
	cluster := disttest.NewCluster(t, 3, serve.Config{})
	co := newTestCoordinator(t, cluster)
	s := fixtureSeries(t)
	b := pta.Size(s.CMin() + 1)

	prev := Activate(co)
	defer Activate(prev)

	viaRegistry, err := pta.Compress(s, "dist", b, pta.Options{})
	if err != nil {
		t.Fatalf(`pta.Compress(.., "dist", ..): %v`, err)
	}
	direct := mustCompress(t, co, s, b)
	assertSameResult(t, "registry vs direct", viaRegistry, direct)
	if viaRegistry.Strategy != "dist" {
		t.Fatalf("registry result strategy %q, want dist", viaRegistry.Strategy)
	}

	found := false
	for _, d := range pta.Describe() {
		if d.Name == "dist" {
			found = true
			if !d.Size || !d.Error {
				t.Fatalf("dist should support both budget kinds, got size=%v error=%v", d.Size, d.Error)
			}
		}
	}
	if !found {
		t.Fatal(`"dist" not in the strategy registry`)
	}

	Activate(nil)
	_, err = pta.Compress(s, "dist", b, pta.Options{})
	if err == nil || !strings.Contains(err.Error(), "no coordinator configured") {
		t.Fatalf("expected a no-coordinator error, got %v", err)
	}
}

// TestDistValidation covers the argument edges shared with the in-process
// evaluators.
func TestDistValidation(t *testing.T) {
	cluster := disttest.NewCluster(t, 2, serve.Config{})
	co := newTestCoordinator(t, cluster)
	s := fixtureSeries(t)
	ctx := context.Background()

	var inf *core.InfeasibleSizeError
	_, err := co.Compress(ctx, s, pta.Size(s.CMin()-1), pta.Options{})
	if !errors.As(err, &inf) {
		t.Fatalf("c < cmin: got %v, want InfeasibleSizeError", err)
	}

	res, err := co.Compress(ctx, s, pta.Size(s.Len()), pta.Options{})
	if err != nil || res.C != s.Len() {
		t.Fatalf("c = n should return the input unchanged: %v", err)
	}
	if !bitIdentical(res.Series, s) {
		t.Fatal("c = n result is not the input series")
	}

	empty := pta.NewSeries(nil, []string{"v"})
	if _, err := co.Compress(ctx, empty, pta.Size(3), pta.Options{}); err == nil {
		t.Fatal("size bound on an empty relation should fail")
	}
	res, err = co.Compress(ctx, empty, pta.ErrorBound(0.5), pta.Options{})
	if err != nil || res.Series.Len() != 0 {
		t.Fatalf("error bound on an empty relation: res=%v err=%v", res, err)
	}

	lonely, err := New()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := lonely.Compress(ctx, s, pta.Size(s.CMin()), pta.Options{}); err == nil ||
		!strings.Contains(err.Error(), "no workers") {
		t.Fatalf("workerless coordinator: got %v", err)
	}

	if _, err := New(WithWorkers("http://a", "http://a")); err == nil {
		t.Fatal("duplicate worker URLs accepted")
	}
	if _, err := New(WithWorkers("")); err == nil {
		t.Fatal("empty worker URL accepted")
	}
}

// TestDistErrorShiftingWorker: the coordinator recombines whatever curves
// its workers report, so a curve no exact fill produces must never panic
// it. The only worker here is a real server whose responses carry every
// result's error plus 1.0. No total size then meets eps = 0, which must
// come back as an error; a size budget still answers with rows that tile
// the series.
func TestDistErrorShiftingWorker(t *testing.T) {
	srv, err := serve.New(serve.Config{Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		t.Fatal(err)
	}
	backend := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		backend.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if rec.Code == http.StatusOK && r.URL.Path == "/v1/compress/many" {
			var out serve.ManyResponse
			if err := json.Unmarshal(body, &out); err != nil {
				t.Errorf("worker response: %v", err)
			}
			for i := range out.Results {
				out.Results[i].Error += 1.0
			}
			shifted, err := json.Marshal(out)
			if err != nil {
				t.Errorf("worker response: %v", err)
			}
			body = shifted
		}
		w.WriteHeader(rec.Code)
		w.Write(body)
	}))
	t.Cleanup(ts.Close)
	co, err := New(WithWorkers(ts.URL))
	if err != nil {
		t.Fatal(err)
	}
	co.retries = 0
	s := fixtureSeries(t)
	ctx := context.Background()

	res, err := co.Compress(ctx, s, pta.ErrorBound(0), pta.Options{})
	if err == nil || !strings.Contains(err.Error(), "error bound not reached at full size") {
		t.Fatalf("eps = 0 over shifted curves: %+v, %v; want the unreached-bound error", res, err)
	}
	c := min(s.Len(), s.CMin()+2)
	res, err = co.Compress(ctx, s, pta.Size(c), pta.Options{})
	if err != nil {
		t.Fatalf("size budget over shifted curves: %v", err)
	}
	if res.C != c || res.Series.Len() != c || res.Series.Validate() != nil || res.Series.TotalLen() != s.TotalLen() {
		t.Fatalf("size budget over shifted curves: C=%d over %d rows, want %d rows tiling the series", res.C, res.Series.Len(), c)
	}
}

// TestDistWorker422IsFinal: a worker's 422 is its verdict on the shard, so
// the coordinator takes it from the first worker asked, without retries,
// and fails with the facade error its code names. Weights of 1e160 over
// 1, 5, 2, 9, 3 (one shard) overflow the error sums, which each worker
// answers with 422 error_overflow.
func TestDistWorker422IsFinal(t *testing.T) {
	var fetches atomic.Int64
	var urls []string
	for range 2 {
		srv, err := serve.New(serve.Config{Logger: log.New(io.Discard, "", 0)})
		if err != nil {
			t.Fatal(err)
		}
		backend := srv.Handler()
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path == "/v1/compress/many" {
				fetches.Add(1)
			}
			backend.ServeHTTP(w, r)
		}))
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	co, err := New(WithWorkers(urls...))
	if err != nil {
		t.Fatal(err)
	}
	co.backoff, co.retries = time.Millisecond, 4
	s := pta.NewSeries(nil, []string{"v"})
	gid := s.Groups.Intern(nil)
	for i, v := range []float64{1, 5, 2, 9, 3} {
		s.Rows = append(s.Rows, pta.Row{Group: gid, Aggs: []float64{v}, T: pta.Interval{Start: pta.Chronon(i), End: pta.Chronon(i)}})
	}
	kn, err := core.NewKernel(s, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	shards := len(makeShards(s, kn))

	retries := co.m.retries.Value()
	_, err = co.Compress(context.Background(), s, pta.Size(3), pta.Options{Weights: []float64{1e160}})
	if !errors.Is(err, pta.ErrOverflow) {
		t.Fatalf("got %v, want pta.ErrOverflow", err)
	}
	if got := fetches.Load(); got != int64(shards) {
		t.Errorf("%d shard requests for %d shards, want one each", got, shards)
	}
	if got := co.m.retries.Value(); got != retries {
		t.Errorf("ptadist_retries_total moved from %d to %d", retries, got)
	}
}
