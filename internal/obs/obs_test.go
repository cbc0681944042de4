package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func expose(t *testing.T, r *Registry) string {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

func TestCounterGaugeExposition(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("jobs_total", "Jobs processed.")
	r.NewGaugeFunc("queue_depth", "Current queue depth.", func() float64 { return 1.5 })
	c.Inc()
	c.Add(4)

	text := expose(t, r)
	for _, want := range []string{
		"# HELP jobs_total Jobs processed.\n# TYPE jobs_total counter\njobs_total 5\n",
		"# TYPE queue_depth gauge\nqueue_depth 1.5\n",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	if errs := Lint([]byte(text)); len(errs) > 0 {
		t.Errorf("lint: %v", errs)
	}
}

func TestCounterVecChildrenStableAndSorted(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("http_requests_total", "Requests.", "endpoint", "code")
	b := v.With("b", "200")
	a := v.With("a", "500")
	if v.With("b", "200") != b {
		t.Fatal("With not idempotent")
	}
	a.Inc()
	b.Add(2)

	text := expose(t, r)
	ia := strings.Index(text, `http_requests_total{endpoint="a",code="500"} 1`)
	ib := strings.Index(text, `http_requests_total{endpoint="b",code="200"} 2`)
	if ia < 0 || ib < 0 || ia > ib {
		t.Errorf("vec exposition wrong or unsorted:\n%s", text)
	}
	if errs := Lint([]byte(text)); len(errs) > 0 {
		t.Errorf("lint: %v", errs)
	}
}

func TestHistogramCumulativeBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("latency_seconds", "Latency.", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	text := expose(t, r)
	for _, want := range []string{
		`latency_seconds_bucket{le="0.1"} 1`,
		`latency_seconds_bucket{le="1"} 3`,
		`latency_seconds_bucket{le="10"} 4`,
		`latency_seconds_bucket{le="+Inf"} 5`,
		`latency_seconds_count 5`,
		`latency_seconds_sum 56.05`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d, want 5", h.Count())
	}
	if errs := Lint([]byte(text)); len(errs) > 0 {
		t.Errorf("lint: %v", errs)
	}
}

func TestHistogramVecAndFuncs(t *testing.T) {
	r := NewRegistry()
	v := r.NewHistogramVec("op_seconds", "Op latency.", nil, "op")
	v.With("read").Observe(0.002)
	v.With("write").Observe(3)
	r.NewGaugeFunc("pool_inflight", "In-flight ops.", func() float64 { return 7 })
	r.NewCounterFunc("cache_hits_total", "Cache hits.", func() float64 { return 41 })
	r.RegisterRuntimeMetrics()

	text := expose(t, r)
	for _, want := range []string{
		`op_seconds_bucket{op="read",le="0.0025"} 1`,
		`op_seconds_count{op="write"} 1`,
		"pool_inflight 7",
		"cache_hits_total 41",
		"go_goroutines ",
		"# TYPE go_gc_cycles_total counter",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}
	if errs := Lint([]byte(text)); len(errs) > 0 {
		t.Errorf("lint: %v", errs)
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("weird_total", "Has \"quotes\" and\nnewlines.", "k")
	v.With("a\"b\\c\nd").Inc()
	text := expose(t, r)
	if !strings.Contains(text, `weird_total{k="a\"b\\c\nd"} 1`) {
		t.Errorf("label escaping wrong:\n%s", text)
	}
	if errs := Lint([]byte(text)); len(errs) > 0 {
		t.Errorf("lint: %v", errs)
	}
}

// TestWriteJSONMirrorsExposition: the JSON view of a registry holding
// every kind of metric is one object with exactly one key per exposition
// sample, spelled as the exposition spells it, and the sample's value, or
// null where that is not finite.
func TestWriteJSONMirrorsExposition(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("jobs_total", "Jobs.").Add(3)
	v := r.NewCounterVec("requests_total", "Requests.", "path", "code")
	v.With(`a "quoted" \ path`, "200").Add(2)
	v.With("/plain", "500").Inc()
	r.NewCounterFunc("loads_total", "Loads.", func() float64 { return 7 })
	r.NewGaugeFunc("hit_ratio", "Undefined before the first lookup.", math.NaN)
	r.NewGaugeFunc("depth", "Depth.", func() float64 { return 1.5 })
	r.NewHistogram("latency_seconds", "Latency.", []float64{0.1, 1}).Observe(0.5)
	r.NewHistogramVec("size_bytes", "Sizes.", []float64{10}, "kind").With("blob").Observe(20)

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	// Walk the tokens instead of unmarshaling, so a repeated key shows.
	got := make(map[string]any)
	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("body does not open an object (%v):\n%s", err, buf.Bytes())
	}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatalf("body does not parse (%v):\n%s", err, buf.Bytes())
		}
		key := tok.(string)
		var val any
		if err := dec.Decode(&val); err != nil {
			t.Fatalf("value of %q does not parse (%v):\n%s", key, err, buf.Bytes())
		}
		if _, dup := got[key]; dup {
			t.Errorf("key %q appears twice", key)
		}
		got[key] = val
	}
	if tok, err := dec.Token(); err != nil || tok != json.Delim('}') {
		t.Fatalf("body does not close its object (%v):\n%s", err, buf.Bytes())
	}
	if _, err := dec.Token(); err != io.EOF {
		t.Errorf("data after the object: %v", err)
	}

	samples := 0
	for _, line := range strings.Split(strings.TrimSuffix(expose(t, r), "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		samples++
		_, _, want, ok := parseSample(line)
		if !ok {
			t.Fatalf("exposition line %q does not parse", line)
		}
		key := line[:strings.LastIndexByte(line, ' ')]
		val, present := got[key]
		switch {
		case !present:
			t.Errorf("no key %q", key)
		case math.IsNaN(want) || math.IsInf(want, 0):
			if val != nil {
				t.Errorf("%s = %v, want null for %v", key, val, want)
			}
		case val != want:
			t.Errorf("%s = %v, the exposition reads %v", key, val, want)
		}
	}
	if len(got) != samples {
		t.Errorf("%d keys for %d exposition samples:\n%s", len(got), samples, buf.Bytes())
	}
	if val, ok := got["hit_ratio"]; !ok || val != nil {
		t.Errorf("NaN gauge = %v (present %v), want null", val, ok)
	}
	if key := `requests_total{path="a \"quoted\" \\ path",code="200"}`; got[key] != 2.0 {
		t.Errorf("%s = %v, want 2", key, got[key])
	}
}

func TestRegistryPanics(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("x_total", "x")
	for name, fn := range map[string]func(){
		"duplicate":     func() { r.NewCounter("x_total", "again") },
		"invalid name":  func() { r.NewCounter("0bad", "h") },
		"invalid label": func() { r.NewCounterVec("y_total", "h", "0bad") },
		"le label":      func() { r.NewHistogramVec("z", "h", nil, "le") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestConcurrentHotPath(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("n_total", "n")
	h := r.NewHistogram("h_seconds", "h", []float64{1, 2})
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.Inc()
				h.Observe(float64(i % 4))
			}
		}()
	}
	// Scrape concurrently with the writers: must stay lint-clean.
	for i := 0; i < 20; i++ {
		if errs := Lint([]byte(expose(t, r))); len(errs) > 0 {
			t.Fatalf("mid-write lint: %v", errs)
		}
	}
	wg.Wait()
	if c.Value() != 8000 {
		t.Errorf("counter = %d, want 8000", c.Value())
	}
	if h.Count() != 8000 {
		t.Errorf("histogram count = %d, want 8000", h.Count())
	}
}

func TestHandler(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("ok_total", "ok").Inc()
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); ct != ContentType {
		t.Errorf("content type %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "ok_total 1") {
		t.Errorf("body: %s", rec.Body.String())
	}
}

func TestLintCatchesBadExposition(t *testing.T) {
	cases := map[string]string{
		"no type":           "foo 1\n",
		"bad name":          "# TYPE 0bad counter\n0bad 1\n",
		"bad value":         "# TYPE a_total counter\na_total one\n",
		"counter suffix":    "# TYPE foo counter\nfoo 1\n",
		"type after sample": "# TYPE a_total counter\na_total 1\n# TYPE a_total counter\n",
		"duplicate series":  "# TYPE b gauge\nb 1\nb 2\n",
		"histogram no inf":  "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_sum 1\nh_count 1\n",
		"histogram order": "# TYPE h histogram\nh_bucket{le=\"1\"} 5\n" +
			"h_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
		"histogram count mismatch": "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 4\n",
	}
	for name, text := range cases {
		if errs := Lint([]byte(text)); len(errs) == 0 {
			t.Errorf("%s: lint accepted %q", name, text)
		}
	}
	clean := "# HELP a_total A.\n# TYPE a_total counter\na_total 1\n" +
		"# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"+Inf\"} 5\nh_sum 9.5\nh_count 5\n"
	if errs := Lint([]byte(clean)); len(errs) > 0 {
		t.Errorf("clean exposition rejected: %v", errs)
	}
}

func BenchmarkHotPath(b *testing.B) {
	r := NewRegistry()
	c := r.NewCounter("n_total", "n")
	h := r.NewHistogram("h_seconds", "h", DefBuckets)
	b.Run("counter", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("histogram", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			h.Observe(0.003)
		}
	})
}
