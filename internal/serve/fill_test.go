package serve

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestFillAlgoPlans: fill_algo is read and ignored. Each name the wire
// ever accepted answers with the unpinned plan's bytes from the one cache
// entry the first request built, on a series that resolves to the pruned
// scan (7 rows) and on one that resolves to dc (300 rows); any other name
// is a 400.
func TestFillAlgoPlans(t *testing.T) {
	for _, series := range []seriesWire{projWire(), memoSeriesWire(1, 300)} {
		s, ts := newTestServer(t, Config{})
		send := func(algo string) (int, []byte) {
			body, err := json.Marshal(compressRequest{
				Series: series,
				Plan:   planWire{Strategy: "ptac", Budget: "c=4", FillAlgo: algo},
			})
			if err != nil {
				t.Fatal(err)
			}
			return postRaw(t, ts.URL+"/v1/compress", body)
		}
		if status, body := send(""); status != 200 || !bytes.Contains(body, []byte(`"cache":"miss"`)) {
			t.Fatalf("n=%d unpinned: status %d: %s", len(series.Rows), status, body)
		}
		_, want := send("")
		for _, algo := range []string{"auto", "pruned", "dc", "smawk", "online"} {
			status, body := send(algo)
			if status != 200 || !bytes.Equal(body, want) {
				t.Fatalf("n=%d fill_algo %q: status %d\n%s\nwant the unpinned hit\n%s", len(series.Rows), algo, status, body, want)
			}
		}
		if entries, _, _ := s.cache.footprint(); entries != 1 || s.cache.misses.Load() != 1 {
			t.Fatalf("n=%d: %d cache entries, %d misses; want one entry built once", len(series.Rows), entries, s.cache.misses.Load())
		}
		status, body := send("bogus")
		if status != 400 || !bytes.Contains(body, []byte(`"code":"bad_request"`)) {
			t.Fatalf("n=%d unknown fill_algo: status %d, want 400 bad_request: %s", len(series.Rows), status, body)
		}
		ts.Close()
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
	if hits := s.cache.hits.Load(); hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}
}

// TestFillMetrics: answered exact-DP budgets count under the resolved
// row-fill algorithm (ptafill_requests_total), cold builds observe the
// certified monotone coverage, and /v1/stats carries the same samples.
// The 7-row proj series resolves FillAuto to the pruned scan.
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
	if got := statNum(t, stats, `ptafill_requests_total{algo="pruned"}`); got != 2 {
		t.Errorf(`stats ptafill_requests_total{algo="pruned"} = %v, want 2`, got)
	}
	if got := statNum(t, stats, "ptafill_monotone_coverage_count"); got != 1 {
		t.Errorf("stats ptafill_monotone_coverage_count = %v, want 1 (one cold build)", got)
	}
}
