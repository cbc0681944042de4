package serve

import (
	"strings"
	"testing"
)

// TestFillAlgoPlans: pinned fill algorithms return the same reduction as
// the default, key separate cache entries per algorithm, the retired names
// "smawk" and "online" answer as the default does, and unknown names are a
// 400.
func TestFillAlgoPlans(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	defer ts.Close()

	want := map[string]any{}
	for i, algo := range []string{"", "auto", "pruned", "dc", "smawk", "online"} {
		status, body := post(t, ts.URL+"/v1/compress", compressRequest{
			Series: projWire(),
			Plan:   planWire{Strategy: "ptac", Budget: "c=4", FillAlgo: algo},
		})
		if status != 200 {
			t.Fatalf("fill_algo %q: status %d: %v", algo, status, body)
		}
		if i == 0 {
			want = body
			continue
		}
		if body["c"] != want["c"] || body["error"] != want["error"] {
			t.Fatalf("fill_algo %q: c=%v err=%v, want c=%v err=%v",
				algo, body["c"], body["error"], want["c"], want["error"])
		}
	}

	// "", "auto" and the retired "smawk" and "online" share the default
	// class; each pinned algorithm owns a class, so the sequence above built
	// 1 + 2 distinct cache entries.
	if st := s.cache.stats(); st.Entries != 3 {
		t.Fatalf("cache entries = %d, want 3 (default + two pinned classes)", st.Entries)
	}

	status, body := post(t, ts.URL+"/v1/compress", compressRequest{
		Series: projWire(),
		Plan:   planWire{Strategy: "ptac", Budget: "c=4", FillAlgo: "bogus"},
	})
	if status != 400 {
		t.Fatalf("unknown fill_algo: status %d, want 400 (%v)", status, body)
	}
}

// TestFillAlgoCacheHit: a repeated pinned-algo budget hits the per-algo
// entry instead of rebuilding it.
func TestFillAlgoCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	defer ts.Close()
	req := compressRequest{
		Series: projWire(),
		Plan:   planWire{Strategy: "ptae", Budget: "eps=0.1", FillAlgo: "dc"},
	}
	if status, body := post(t, ts.URL+"/v1/compress", req); status != 200 || body["cache"] != "miss" {
		t.Fatalf("first pinned request: status %d cache %v", status, body["cache"])
	}
	if status, body := post(t, ts.URL+"/v1/compress", req); status != 200 || body["cache"] != "hit" {
		t.Fatalf("second pinned request: status %d cache %v", status, body["cache"])
	}
	if st := s.cache.stats(); st.Hits != 1 {
		t.Fatalf("cache hits = %d, want 1", st.Hits)
	}
}

// TestFillMetrics: answered exact-DP budgets count under the resolved
// row-fill algorithm (ptafill_requests_total), cold builds observe the
// certified monotone coverage, and /v1/stats carries the matching fill
// block. The 7-row proj series resolves FillAuto to the pruned scan.
func TestFillMetrics(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	defer ts.Close()
	for i := 0; i < 2; i++ {
		status, body := post(t, ts.URL+"/v1/compress", compressRequest{
			Series: projWire(),
			Plan:   planWire{Strategy: "ptac", Budget: "c=4"},
		})
		if status != 200 {
			t.Fatalf("request %d: status %d: %v", i, status, body)
		}
	}

	text, _ := scrape(t, ts.URL)
	if got := metricValue(t, text, `ptafill_requests_total{algo="pruned"}`); got != 2 {
		t.Errorf(`ptafill_requests_total{algo="pruned"} = %v, want 2`, got)
	}
	if !strings.Contains(text, "ptafill_monotone_coverage_bucket") {
		t.Error("exposition is missing ptafill_monotone_coverage buckets")
	}

	_, stats := get(t, ts.URL+"/v1/stats")
	fill, ok := stats["fill"].(map[string]any)
	if !ok {
		t.Fatalf("/v1/stats has no fill block: %v", stats)
	}
	reqs := fill["requests"].(map[string]any)
	if reqs["pruned"].(float64) != 2 {
		t.Errorf("stats fill requests = %v, want pruned: 2", reqs)
	}
	if fill["coverage_observed"].(float64) != 1 {
		t.Errorf("coverage_observed = %v, want 1 (one cold build)", fill["coverage_observed"])
	}
}

// TestStrategiesExposeFillAlgos: /v1/strategies lists the fill algorithms
// (one global list — they apply to every matrix-cacheable strategy).
func TestStrategiesExposeFillAlgos(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	defer ts.Close()
	status, body := get(t, ts.URL+"/v1/strategies")
	if status != 200 {
		t.Fatalf("status %d", status)
	}
	algos, ok := body["fill_algos"].([]any)
	if !ok || len(algos) != 3 {
		t.Fatalf("fill_algos = %v", body["fill_algos"])
	}
	strategies := body["strategies"].([]any)
	sawDP := false
	for _, raw := range strategies {
		entry := raw.(map[string]any)
		_, cacheable := entry["matrix_cache_class"]
		sawDP = sawDP || cacheable
	}
	if !sawDP {
		t.Fatal("no matrix-cacheable strategy listed")
	}
}
