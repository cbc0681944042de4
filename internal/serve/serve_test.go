package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"testing"
	"time"

	"repro/pta"
)

// newTestServer mounts a fresh server over httptest.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = log.New(io.Discard, "", 0)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// projWire is the running example (Fig. 1 of the paper) on the wire: 7 ITA
// rows, cmin = 3.
func projWire() seriesWire {
	return seriesWire{
		GroupAttrs: []attrWire{{Name: "Proj", Kind: "string"}},
		AggNames:   []string{"AvgSal"},
		Rows: []rowWire{
			{Group: []any{"A"}, Aggs: []float64{800}, Start: 1, End: 2},
			{Group: []any{"A"}, Aggs: []float64{600}, Start: 3, End: 3},
			{Group: []any{"A"}, Aggs: []float64{500}, Start: 4, End: 4},
			{Group: []any{"A"}, Aggs: []float64{350}, Start: 5, End: 6},
			{Group: []any{"A"}, Aggs: []float64{300}, Start: 7, End: 7},
			{Group: []any{"B"}, Aggs: []float64{500}, Start: 4, End: 5},
			{Group: []any{"B"}, Aggs: []float64{500}, Start: 7, End: 8},
		},
	}
}

// post sends one JSON request and decodes the response envelope.
func post(t *testing.T, url string, body any) (int, map[string]any) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, out
}

// get fetches one JSON endpoint.
func get(t *testing.T, url string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp.StatusCode, out
}

// errorField digs the error envelope out of a response.
func errorField(t *testing.T, out map[string]any, field string) any {
	t.Helper()
	env, ok := out["error"].(map[string]any)
	if !ok {
		t.Fatalf("response %v has no error envelope", out)
	}
	return env[field]
}

// TestCompressSuccess reproduces Fig. 1(d): the testdata request (also used
// by the CI smoke) reduces the running example to 4 rows with the paper's
// error.
func TestCompressSuccess(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	raw, err := os.ReadFile("testdata/compress_request.json")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/compress", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var res resultWire
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	if res.C != 4 || len(res.Rows) != 4 {
		t.Fatalf("C = %d, rows = %d, want 4", res.C, len(res.Rows))
	}
	if math.Abs(res.Error-49166.666666) > 1e-3 {
		t.Errorf("error = %v, want ≈ 49166.67 (Fig. 1d)", res.Error)
	}
	if res.Strategy != "ptac" || res.Budget != "c=4" || res.Cache != cacheMiss {
		t.Errorf("provenance: %q %q cache=%q", res.Strategy, res.Budget, res.Cache)
	}
	if res.Rows[0].Group[0] != "A" || res.Rows[0].Start != 1 || res.Rows[0].End != 3 {
		t.Errorf("first row = %+v, want A [1, 3]", res.Rows[0])
	}
}

// TestCacheHitAcrossBudgets is the acceptance scenario: a repeated-budget
// request sequence shows nonzero hits on /v1/stats, and the ptae plan of the
// same class hits the matrices the ptac plan filled.
func TestCacheHitAcrossBudgets(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	series := projWire()
	send := func(strategy, budget string) resultWire {
		t.Helper()
		raw, _ := json.Marshal(compressRequest{Series: series, Plan: planWire{Strategy: strategy, Budget: budget}})
		resp, err := http.Post(ts.URL+"/v1/compress", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			var out map[string]any
			json.NewDecoder(resp.Body).Decode(&out)
			t.Fatalf("%s %s: status %d: %v", strategy, budget, resp.StatusCode, out)
		}
		var res resultWire
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
			t.Fatal(err)
		}
		return res
	}

	if res := send("ptac", "c=4"); res.Cache != cacheMiss {
		t.Errorf("first request cache = %q, want miss", res.Cache)
	}
	if res := send("ptac", "c=4"); res.Cache != cacheHit {
		t.Errorf("repeated budget cache = %q, want hit", res.Cache)
	}
	if res := send("ptac", "c=3"); res.Cache != cacheHit {
		t.Errorf("shallower budget cache = %q, want hit", res.Cache)
	}
	// Same DP class, other budget kind: still the same matrices.
	if res := send("ptae", "eps=0.2"); res.Cache != cacheHit {
		t.Errorf("ptae on warm ptac matrices = %q, want hit", res.Cache)
	}
	// A different weight vector is a different entry.
	raw, _ := json.Marshal(compressRequest{Series: series,
		Plan: planWire{Strategy: "ptac", Budget: "c=4", Weights: []float64{2}}})
	resp, err := http.Post(ts.URL+"/v1/compress", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	status, stats := get(t, ts.URL+"/v1/stats")
	if status != http.StatusOK {
		t.Fatalf("stats status %d", status)
	}
	cache := stats["cache"].(map[string]any)
	if hits := cache["hits"].(float64); hits < 3 {
		t.Errorf("cache hits = %v, want ≥ 3", hits)
	}
	if misses := cache["misses"].(float64); misses != 2 {
		t.Errorf("cache misses = %v, want 2 (one per key)", misses)
	}
	if entries := cache["entries"].(float64); entries != 2 {
		t.Errorf("cache entries = %v, want 2", entries)
	}
	if rows := cache["rows"].(float64); rows <= 0 {
		t.Errorf("cached rows = %v, want > 0", rows)
	}
}

// TestCompressMany: plans across budget kinds and cacheability resolve in
// order, cacheable plans share matrices, non-DP plans bypass.
func TestCompressMany(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, out := post(t, ts.URL+"/v1/compress/many", compressManyRequest{
		Series: projWire(),
		Plans: []planWire{
			{Strategy: "ptac", Budget: "c=4"},
			{Strategy: "ptac", Budget: "c=3"},
			{Strategy: "ptae", Budget: "eps=0.2"},
			{Strategy: "gms", Budget: "c=4"},
		},
	})
	if status != http.StatusOK {
		t.Fatalf("status %d: %v", status, out)
	}
	results := out["results"].([]any)
	if len(results) != 4 {
		t.Fatalf("%d results, want 4", len(results))
	}
	first := results[0].(map[string]any)
	if first["cache"] != cacheMiss || first["c"].(float64) != 4 {
		t.Errorf("plan 0: %v", first)
	}
	for i, want := range []string{cacheMiss, cacheHit, cacheHit, cacheBypass} {
		r := results[i].(map[string]any)
		if r["cache"] != want {
			t.Errorf("plan %d cache = %v, want %s", i, r["cache"], want)
		}
	}
	gms := results[3].(map[string]any)
	if gms["strategy"] != "gms" || gms["c"].(float64) != 4 {
		t.Errorf("gms plan: %v", gms)
	}
}

// TestTypedErrorStatuses pins the typed-error → HTTP status contract.
func TestTypedErrorStatuses(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	series := projWire()

	// Infeasible size budget (cmin = 3) → 422 with the reachable floor.
	status, out := post(t, ts.URL+"/v1/compress", compressRequest{
		Series: series, Plan: planWire{Strategy: "ptac", Budget: "c=2"},
	})
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("infeasible: status %d: %v", status, out)
	}
	if code := errorField(t, out, "code"); code != "budget_infeasible" {
		t.Errorf("infeasible code = %v", code)
	}
	if cmin := errorField(t, out, "cmin"); cmin != float64(3) {
		t.Errorf("cmin = %v, want 3", cmin)
	}

	// Unknown strategy → 400 with the registry attached.
	status, out = post(t, ts.URL+"/v1/compress", compressRequest{
		Series: series, Plan: planWire{Strategy: "nope", Budget: "c=4"},
	})
	if status != http.StatusBadRequest {
		t.Fatalf("unknown strategy: status %d", status)
	}
	if code := errorField(t, out, "code"); code != "unknown_strategy" {
		t.Errorf("unknown code = %v", code)
	}
	if known := errorField(t, out, "known"); known == nil {
		t.Error("unknown_strategy carries no registry")
	}

	// Unparsable budget, malformed body, invalid series → 400.
	status, _ = post(t, ts.URL+"/v1/compress", compressRequest{
		Series: series, Plan: planWire{Strategy: "ptac", Budget: "twelve"},
	})
	if status != http.StatusBadRequest {
		t.Errorf("bad budget: status %d", status)
	}
	// A NaN error budget fits no size; it is a 400 on both endpoints, not
	// a search that never ends.
	nan := planWire{Strategy: "ptae", Budget: "eps=NaN"}
	if status, out := post(t, ts.URL+"/v1/compress", compressRequest{Series: series, Plan: nan}); status != http.StatusBadRequest {
		t.Errorf("NaN budget: status %d: %v", status, out)
	}
	if status, out := post(t, ts.URL+"/v1/compress/many", compressManyRequest{Series: series, Plans: []planWire{nan}}); status != http.StatusBadRequest {
		t.Errorf("NaN budget on /many: status %d: %v", status, out)
	}
	resp, err := http.Post(ts.URL+"/v1/compress", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d", resp.StatusCode)
	}
	overlapping := projWire()
	overlapping.Rows[1].Start = 1 // overlaps row 0 within group A
	status, _ = post(t, ts.URL+"/v1/compress", compressRequest{
		Series: overlapping, Plan: planWire{Strategy: "ptac", Budget: "c=4"},
	})
	if status != http.StatusBadRequest {
		t.Errorf("overlapping series: status %d", status)
	}

	// Method and path discipline (plain-text mux responses, no JSON body).
	resp, err = http.Get(ts.URL + "/v1/compress")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/compress: status %d", resp.StatusCode)
	}
}

// TestOverflowingWeightsAre422: weights large enough to overflow the error
// sums (SSEmax is +Inf over 1, 5, 2, 9, 3 at weight 1e160) answer every
// registered strategy but dist (which needs workers) with a 422
// error_overflow under each budget kind it supports (eps = 0, eps = 0.5,
// c = 3), on a fresh server each: no panic that drops the connection, no
// "error": null answer, no 500 from a split walk over a row that was never
// written, no greedy answer that stopped merging above the size bound.
func TestOverflowingWeightsAre422(t *testing.T) {
	series := seriesWire{AggNames: []string{"v"}}
	for i, v := range []float64{1, 5, 2, 9, 3} {
		series.Rows = append(series.Rows, rowWire{Aggs: []float64{v}, Start: int64(i), End: int64(i)})
	}
	var plans []planWire
	for _, name := range pta.Strategies() {
		if name == "dist" {
			continue
		}
		ev, _ := pta.Lookup(name)
		if ev.Supports(pta.BudgetError) {
			plans = append(plans,
				planWire{Strategy: name, Budget: "eps=0", Weights: []float64{1e160}},
				planWire{Strategy: name, Budget: "eps=0.5", Weights: []float64{1e160}})
		}
		if ev.Supports(pta.BudgetSize) {
			plans = append(plans, planWire{Strategy: name, Budget: "c=3", Weights: []float64{1e160}})
		}
	}
	for _, plan := range plans {
		_, ts := newTestServer(t, Config{})
		status, out, err := tryPost(ts.URL+"/v1/compress", mustMarshal(t, compressRequest{Series: series, Plan: plan}))
		ts.Close()
		if err != nil {
			t.Fatalf("%s %s: %v", plan.Strategy, plan.Budget, err)
		}
		if status != http.StatusUnprocessableEntity || !bytes.Contains(out, []byte(`"code":"error_overflow"`)) {
			t.Errorf("%s %s: status %d %s, want 422 error_overflow", plan.Strategy, plan.Budget, status, out)
		}
	}
}

// TestDeadlineMapsTo504: a request whose deadline expires mid-evaluation
// returns 504 deadline_exceeded.
func TestDeadlineMapsTo504(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// A large single-group series: the DP fill is far slower than 1 ms.
	series := seriesWire{AggNames: []string{"v"}}
	n := 4000
	for i := 0; i < n; i++ {
		series.Rows = append(series.Rows, rowWire{
			Aggs:  []float64{float64(i%17) + 0.25*float64(i%5)},
			Start: int64(i), End: int64(i),
		})
	}
	status, out := post(t, ts.URL+"/v1/compress", compressRequest{
		Series:    series,
		Plan:      planWire{Strategy: "ptac", Budget: fmt.Sprintf("c=%d", n/2)},
		TimeoutMS: 1,
	})
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status %d: %v", status, out)
	}
	if code := errorField(t, out, "code"); code != "deadline_exceeded" {
		t.Errorf("code = %v", code)
	}
}

// TestStrategiesEndpoint: the registry endpoint serves the same Describe
// records the CLI table renders, with cache classes on the DP strategies.
func TestStrategiesEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, out := get(t, ts.URL+"/v1/strategies")
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	list := out["strategies"].([]any)
	if len(list) != len(pta.Describe()) {
		t.Fatalf("%d strategies on the wire, registry has %d", len(list), len(pta.Describe()))
	}
	byName := map[string]map[string]any{}
	for _, e := range list {
		m := e.(map[string]any)
		byName[m["name"].(string)] = m
	}
	ptac := byName["ptac"]
	if ptac == nil || ptac["matrix_cache_class"] != "dp+imax+jmin" || ptac["description"] == "" {
		t.Errorf("ptac entry: %v", ptac)
	}
	if gms := byName["gms"]; gms == nil || gms["matrix_cache_class"] != nil {
		t.Errorf("gms entry: %v", gms)
	}
}

// TestHealthz: liveness.
func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, out := get(t, ts.URL+"/healthz")
	if status != http.StatusOK || out["status"] != "ok" {
		t.Fatalf("healthz: %d %v", status, out)
	}
}

// TestConcurrentRequests hammers one hot series from many goroutines — the
// cache-entry locking and the LRU bookkeeping must hold up under -race.
func TestConcurrentRequests(t *testing.T) {
	eng, err := pta.New(pta.WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Engine: eng, CacheEntries: 2, Timeout: 20 * time.Second})
	series := projWire()
	budgets := []planWire{
		{Strategy: "ptac", Budget: "c=3"},
		{Strategy: "ptac", Budget: "c=4"},
		{Strategy: "ptae", Budget: "eps=0.1"},
		{Strategy: "gms", Budget: "c=4"},
		{Strategy: "ptac", Budget: "c=4", Weights: []float64{3}},
		{Strategy: "ptac", Budget: "c=4", Weights: []float64{5}},
	}
	var wg sync.WaitGroup
	errs := make(chan string, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				plan := budgets[(g+i)%len(budgets)]
				raw, _ := json.Marshal(compressRequest{Series: series, Plan: plan})
				resp, err := http.Post(ts.URL+"/v1/compress", "application/json", bytes.NewReader(raw))
				if err != nil {
					errs <- err.Error()
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Sprintf("%s %s: status %d", plan.Strategy, plan.Budget, resp.StatusCode)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	status, stats := get(t, ts.URL+"/v1/stats")
	if status != http.StatusOK {
		t.Fatalf("stats status %d", status)
	}
	cache := stats["cache"].(map[string]any)
	if entries := cache["entries"].(float64); entries > 2 {
		t.Errorf("cache entries = %v, capacity 2", entries)
	}
	if evictions := cache["evictions"].(float64); evictions == 0 {
		t.Error("two keys over capacity 2 with weight variants: want evictions > 0")
	}
}

// TestEngineWeightsReachCachePath: a server whose engine carries default
// weights must apply them on the cached DP path exactly like the engine
// path does (and key cache entries by them).
func TestEngineWeightsReachCachePath(t *testing.T) {
	eng, err := pta.New(pta.WithWeights([]float64{2}))
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, Config{Engine: eng})
	series := projWire()
	status, out := post(t, ts.URL+"/v1/compress", compressRequest{
		Series: series, Plan: planWire{Strategy: "ptac", Budget: "c=4"},
	})
	if status != http.StatusOK {
		t.Fatalf("status %d: %v", status, out)
	}
	// w=2 quadruples every squared error: 4 × 49166.67.
	if got := out["error"].(float64); math.Abs(got-4*49166.6666667) > 1e-3 {
		t.Errorf("cached error = %v, want %v (engine weights applied)", got, 4*49166.6666667)
	}
	if out["cache"] != cacheMiss {
		t.Errorf("cache = %v, want miss", out["cache"])
	}
	// Explicit weights matching the default share the same entry.
	status, out = post(t, ts.URL+"/v1/compress", compressRequest{
		Series: series, Plan: planWire{Strategy: "ptac", Budget: "c=4", Weights: []float64{2}},
	})
	if status != http.StatusOK || out["cache"] != cacheHit {
		t.Errorf("explicit matching weights: status %d cache %v, want hit", status, out["cache"])
	}
}

// TestGracefulShutdownDrains: canceling the Serve context must let an
// in-flight evaluation finish (200), not abort it — the rolling-restart
// contract.
func TestGracefulShutdownDrains(t *testing.T) {
	// A generous deadline: under -race the DP is an order of magnitude
	// slower, and this test is about shutdown, not timeouts.
	s, err := New(Config{Logger: log.New(io.Discard, "", 0), Timeout: 5 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	// A request slow enough to still be in flight when shutdown starts.
	series := seriesWire{AggNames: []string{"v"}}
	n := 1200
	for i := 0; i < n; i++ {
		series.Rows = append(series.Rows, rowWire{
			Aggs:  []float64{float64(i%13) + 0.5*float64(i%7)},
			Start: int64(i), End: int64(i),
		})
	}
	raw, _ := json.Marshal(compressRequest{
		Series: series, Plan: planWire{Strategy: "ptac", Budget: fmt.Sprintf("c=%d", n/2)},
	})
	type reply struct {
		status int
		err    error
	}
	replies := make(chan reply, 1)
	go func() {
		resp, err := http.Post(base+"/v1/compress", "application/json", bytes.NewReader(raw))
		if err != nil {
			replies <- reply{err: err}
			return
		}
		resp.Body.Close()
		replies <- reply{status: resp.StatusCode}
	}()
	time.Sleep(30 * time.Millisecond) // let the evaluation start
	cancel()                          // trigger graceful shutdown mid-flight

	r := <-replies
	if r.err != nil {
		t.Fatalf("in-flight request failed during shutdown: %v", r.err)
	}
	if r.status != http.StatusOK {
		t.Fatalf("in-flight request got %d during shutdown, want 200", r.status)
	}
	if err := <-served; err != nil {
		t.Fatalf("Serve returned %v, want nil", err)
	}
}

// TestDrainTimeoutForcesClose: a configured drain window bounds shutdown —
// when an in-flight evaluation outlives it, Serve force-closes and still
// returns nil instead of hanging for the full evaluation.
func TestDrainTimeoutForcesClose(t *testing.T) {
	s, err := New(Config{
		Logger:       log.New(io.Discard, "", 0),
		Timeout:      5 * time.Minute,
		DrainTimeout: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	served := make(chan error, 1)
	go func() { served <- s.Serve(ctx, ln) }()
	base := "http://" + ln.Addr().String()

	// A request far slower than the 50 ms drain window.
	series := seriesWire{AggNames: []string{"v"}}
	n := 3000
	for i := 0; i < n; i++ {
		series.Rows = append(series.Rows, rowWire{
			Aggs:  []float64{float64(i%13) + 0.5*float64(i%7)},
			Start: int64(i), End: int64(i),
		})
	}
	raw, _ := json.Marshal(compressRequest{
		Series: series, Plan: planWire{Strategy: "ptac", Budget: fmt.Sprintf("c=%d", n/2)},
	})
	requestDone := make(chan struct{})
	go func() {
		defer close(requestDone)
		resp, err := http.Post(base+"/v1/compress", "application/json", bytes.NewReader(raw))
		if err == nil {
			resp.Body.Close()
		}
		// Either outcome is fine: the connection may be force-closed
		// mid-response or the evaluation may finish first on a fast machine.
	}()
	time.Sleep(30 * time.Millisecond) // let the evaluation start
	start := time.Now()
	cancel()

	select {
	case err := <-served:
		if err != nil {
			t.Fatalf("Serve returned %v, want nil after a bounded drain", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Serve did not return: drain window was not enforced")
	}
	if elapsed := time.Since(start); elapsed < 50*time.Millisecond {
		t.Errorf("Serve returned after %v, before the drain window elapsed", elapsed)
	}
	<-requestDone
}

// TestDecodeSeriesValidation covers codec-level rejections.
func TestDecodeSeriesValidation(t *testing.T) {
	base := projWire()
	cases := []struct {
		name   string
		mutate func(*seriesWire)
	}{
		{"no aggs", func(s *seriesWire) { s.AggNames = nil }},
		{"no rows", func(s *seriesWire) { s.Rows = nil }},
		{"bad kind", func(s *seriesWire) { s.GroupAttrs[0].Kind = "blob" }},
		{"group arity", func(s *seriesWire) { s.Rows[0].Group = []any{"A", "B"} }},
		{"agg arity", func(s *seriesWire) { s.Rows[0].Aggs = []float64{1, 2} }},
		{"group type", func(s *seriesWire) { s.Rows[0].Group = []any{42.0} }},
		{"bad interval", func(s *seriesWire) { s.Rows[0].Start = 9; s.Rows[0].End = 1 }},
	}
	for _, tc := range cases {
		w := base
		w.GroupAttrs = append([]attrWire(nil), base.GroupAttrs...)
		w.Rows = make([]rowWire, len(base.Rows))
		copy(w.Rows, base.Rows)
		w.Rows[0].Group = append([]any(nil), base.Rows[0].Group...)
		w.Rows[0].Aggs = append([]float64(nil), base.Rows[0].Aggs...)
		tc.mutate(&w)
		if _, err := decodeSeries(w); err == nil {
			t.Errorf("%s: decodeSeries accepted the series", tc.name)
		}
	}
	if s, err := decodeSeries(base); err != nil || s.Len() != 7 || s.CMin() != 3 {
		t.Errorf("valid series rejected: %v", err)
	}
}
