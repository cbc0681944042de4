package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// scrape fetches /metrics raw.
func scrape(t *testing.T, base string) (string, string) {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(body), resp.Header.Get("Content-Type")
}

// metricValue extracts one un-labeled sample value from an exposition.
func metricValue(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.Fields(rest)[0], 64)
			if err != nil {
				t.Fatalf("parsing %s sample %q: %v", name, rest, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not in exposition", name)
	return 0
}

// TestMetricsEndpointLintsAndAgreesWithStats is the tentpole acceptance
// test: after traffic of every disposition, /metrics parses clean under the
// promtool-style linter, carries the catalog families, and its counters
// agree with /v1/stats.
func TestMetricsEndpointLintsAndAgreesWithStats(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	series := projWire()
	send := func(strategy, budget string) {
		t.Helper()
		raw, _ := json.Marshal(compressRequest{Series: series, Plan: planWire{Strategy: strategy, Budget: budget}})
		resp, err := http.Post(ts.URL+"/v1/compress", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	send("ptac", "c=4") // miss
	send("ptac", "c=4") // hit
	send("gms", "c=4")  // bypass
	send("ptac", "c=2") // 422 infeasible
	send("nope", "c=4") // 400 unknown strategy
	get(t, ts.URL+"/healthz")

	text, contentType := scrape(t, ts.URL)
	if contentType != obs.ContentType {
		t.Errorf("content type %q, want %q", contentType, obs.ContentType)
	}
	if errs := obs.Lint([]byte(text)); len(errs) > 0 {
		for _, e := range errs {
			t.Error(e)
		}
		t.Fatalf("lint found %d problems", len(errs))
	}
	for _, family := range []string{
		"ptaserve_http_requests_total",
		"ptaserve_http_request_duration_seconds_bucket",
		"ptaserve_http_inflight",
		"ptaserve_uptime_seconds",
		"ptaserve_compressions_total",
		"ptaserve_admission_rejected_total",
		"ptaserve_cache_hits_total",
		"ptaserve_cache_misses_total",
		"ptaserve_cache_evictions_total",
		"ptaserve_cache_entries",
		"ptaserve_cache_fill_seconds_bucket",
		"ptaserve_series_memo_hits_total",
		"ptaserve_series_memo_misses_total",
		"ptaserve_spill_loads_total",
		"ptaserve_dp_cells_filled_total",
		"ptapeer_peers",
		"ptapeer_fetch_hits_total",
		"ptapeer_fetch_misses_total",
		"ptapeer_fetch_errors_total",
		"ptapeer_fetch_bytes_total",
		"ptapeer_serve_hits_total",
		"ptapeer_serve_misses_total",
		"ptapeer_serve_bytes_total",
		"ptafill_requests_total",
		"ptafill_monotone_coverage_bucket",
		"go_goroutines",
		"go_gc_cycles_total",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("exposition is missing %s", family)
		}
	}
	// Per-endpoint status codes landed on the right children.
	for _, sample := range []string{
		`ptaserve_http_requests_total{endpoint="compress",code="200"} 3`,
		`ptaserve_http_requests_total{endpoint="compress",code="422"} 1`,
		`ptaserve_http_requests_total{endpoint="compress",code="400"} 1`,
		`ptaserve_http_requests_total{endpoint="healthz",code="200"} 1`,
	} {
		if !strings.Contains(text, sample) {
			t.Errorf("exposition is missing sample %q", sample)
		}
	}

	// The first body's series was decoded; the four resends of its bytes
	// hit the memo, whatever their plan.
	if hits, misses := metricValue(t, text, "ptaserve_series_memo_hits_total"),
		metricValue(t, text, "ptaserve_series_memo_misses_total"); hits != 4 || misses != 1 {
		t.Errorf("series memo %v hits, %v misses; want 4 and 1", hits, misses)
	}
	if up := metricValue(t, text, "ptaserve_uptime_seconds"); up <= 0 {
		t.Errorf("uptime %v, want > 0", up)
	}

	// /v1/stats renders the same registry: it holds the scrape's value for
	// every counter sample that no request moves between the two reads.
	// The scrape's own request counts once it has answered, and the
	// runtime moves its go_* counters by itself.
	status, stats := get(t, ts.URL+"/v1/stats")
	if status != http.StatusOK {
		t.Fatalf("stats status %d", status)
	}
	counters := make(map[string]bool)
	compared := 0
	for _, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[1] == "TYPE" {
			counters[f[2]] = f[3] == "counter"
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		key := line[:sp]
		name, _, _ := strings.Cut(key, "{")
		if !counters[name] || strings.HasPrefix(name, "go_") || strings.Contains(key, `endpoint="metrics"`) {
			continue
		}
		want, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		if got := statNum(t, stats, key); got != want {
			t.Errorf("/v1/stats %s = %v, the scrape read %v", key, got, want)
		}
		compared++
	}
	if compared < 20 {
		t.Errorf("compared %d counter samples, want every ptaserve/ptapeer/ptafill counter", compared)
	}
}

// TestAdmissionRejectsWithoutConsumingSlot: an over-budget request 429s
// promptly with Retry-After and the cost verdict even while every in-flight
// slot is held — proof that admission runs before slot acquisition.
func TestAdmissionRejectsWithoutConsumingSlot(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxInflight: 1, AdmissionMaxCells: 10})
	s.inflight <- struct{}{} // hold the only evaluation slot

	raw, _ := json.Marshal(compressRequest{
		Series:    projWire(), // 7 rows × c=4 = 28 cells > 10
		Plan:      planWire{Strategy: "ptac", Budget: "c=4"},
		TimeoutMS: 30_000,
	})
	start := time.Now()
	resp, err := http.Post(ts.URL+"/v1/compress", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("rejection took %v — it waited for a slot", elapsed)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" {
		t.Error("429 without Retry-After")
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if code := errorField(t, out, "code"); code != "admission_rejected" {
		t.Errorf("code = %v", code)
	}
	if cells := errorField(t, out, "estimated_cells"); cells != float64(28) {
		t.Errorf("estimated_cells = %v, want 28", cells)
	}
	if maxCells := errorField(t, out, "max_cells"); maxCells != float64(10) {
		t.Errorf("max_cells = %v, want 10", maxCells)
	}

	// The rejection shows up on /metrics and /v1/stats alike.
	text, _ := scrape(t, ts.URL)
	if got := metricValue(t, text, "ptaserve_admission_rejected_total"); got != 1 {
		t.Errorf("admission_rejected_total = %v, want 1", got)
	}
	_, stats := get(t, ts.URL+"/v1/stats")
	if got := statNum(t, stats, "ptaserve_admission_rejected_total"); got != 1 {
		t.Errorf("stats ptaserve_admission_rejected_total = %v, want 1", got)
	}

	// An under-budget request passes admission; free the slot so it can run.
	<-s.inflight
	raw, _ = json.Marshal(compressRequest{
		Series: projWire(),
		Plan:   planWire{Strategy: "ptac", Budget: "c=1"}, // infeasible, but only 7 cells
	})
	resp2, err := http.Post(ts.URL+"/v1/compress", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode == http.StatusTooManyRequests {
		t.Error("under-budget request was admission-rejected")
	}
}

// TestAdmissionQueuePolicy: under the queue policy, over-budget requests
// serialize through the single oversized slot instead of failing.
func TestAdmissionQueuePolicy(t *testing.T) {
	_, ts := newTestServer(t, Config{AdmissionMaxCells: 10, AdmissionPolicy: AdmissionQueue})
	raw, _ := json.Marshal(compressRequest{
		Series: projWire(),
		Plan:   planWire{Strategy: "ptac", Budget: "c=4"},
	})
	for i := 0; i < 3; i++ {
		resp, err := http.Post(ts.URL+"/v1/compress", "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("queued request %d: status %d, want 200", i, resp.StatusCode)
		}
	}
	_, stats := get(t, ts.URL+"/v1/stats")
	if queued, rejected := statNum(t, stats, "ptaserve_admission_queued_total"),
		statNum(t, stats, "ptaserve_admission_rejected_total"); queued != 3 || rejected != 0 {
		t.Errorf("admission counters: %v queued, %v rejected; want 3 and 0", queued, rejected)
	}
}

// TestCompressManyAdmissionSumsPlans: many-plan requests are priced as a
// whole, so plans that pass individually still reject in aggregate.
func TestCompressManyAdmissionSumsPlans(t *testing.T) {
	_, ts := newTestServer(t, Config{AdmissionMaxCells: 50})
	status, out := post(t, ts.URL+"/v1/compress/many", compressManyRequest{
		Series: projWire(),
		Plans: []planWire{ // 28 cells each: each under 50, together 56 over
			{Strategy: "ptac", Budget: "c=4"},
			{Strategy: "ptac", Budget: "c=4"},
		},
	})
	if status != http.StatusTooManyRequests {
		t.Fatalf("status %d: %v", status, out)
	}
	if cells := errorField(t, out, "estimated_cells"); cells != float64(56) {
		t.Errorf("estimated_cells = %v, want 56", cells)
	}
}

// TestConfigValidationMessages pins the "negative means invalid, zero means
// default" contract in the error text itself.
func TestConfigValidationMessages(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		want string
	}{
		{"CacheEntries", Config{CacheEntries: -1}, "want >= 0 (0 = default 64)"},
		{"Timeout", Config{Timeout: -time.Second}, "want >= 0 (0 = default 30s)"},
		{"MaxBodyBytes", Config{MaxBodyBytes: -1}, "want >= 0 (0 = default 8 MiB)"},
		{"MaxInflight", Config{MaxInflight: -1}, "want >= 0 (0 = default 2×GOMAXPROCS)"},
		{"DrainTimeout", Config{DrainTimeout: -time.Second}, "want >= 0 (0 = default 10s)"},
		{"Peers", Config{Peers: []string{"not-a-url"}}, "want an absolute http(s) URL"},
		{"Peers without SpillDir", Config{Peers: []string{"http://127.0.0.1:1"}}, "peers need a SpillDir"},
		{"AdmissionMaxCells", Config{AdmissionMaxCells: -1}, "want >= 0 (0 = unlimited)"},
		{"AdmissionPolicy", Config{AdmissionPolicy: "drop"}, `want "reject" or "queue"`},
	}
	for _, tc := range cases {
		_, err := New(tc.cfg)
		if err == nil {
			t.Errorf("%s: New accepted an invalid config", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not explain %q", tc.name, err, tc.want)
		}
	}
}
