package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"testing/quick"

	"repro/internal/temporal"
	"repro/pta"
)

// reflectJSON renders v through encoding/json exactly like writeJSON does
// (HTML escaping off), minus the trailing newline.
func reflectJSON(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return bytes.TrimSuffix(buf.Bytes(), []byte("\n"))
}

// codecResult builds a result whose series exercises every datum kind and
// the string/float corner cases of the wire format.
func codecResult() *pta.Result {
	attrs := []temporal.Attribute{
		{Name: "name", Kind: temporal.KindString},
		{Name: "id", Kind: temporal.KindInt},
		{Name: "score", Kind: temporal.KindFloat},
	}
	s := pta.NewSeries(attrs, []string{"a", "b"})
	add := func(name string, id int64, score float64, aggs []float64, start, end int64) {
		s.Rows = append(s.Rows, pta.Row{
			Group: s.Groups.Intern([]temporal.Datum{
				temporal.String(name), temporal.Int(id), temporal.Float(score),
			}),
			Aggs: aggs,
			T:    pta.Interval{Start: pta.Chronon(start), End: pta.Chronon(end)},
		})
	}
	add(`q"uote\back`, -42, 0.25, []float64{800, 1e-7}, 1, 2)
	add("new\nline\r\ttab\x01ctrl", 7, 1e21, []float64{0, math.Copysign(0, -1)}, 3, 3)
	add("héllo <b>&amp;</b>", 0, 1e-7, []float64{123.456, 5e-324}, 4, 6)
	add("bad\xffutf8 line\u2028sep\u2029", 1, -1.5e21, []float64{1e20, 0.000001}, 7, 8)
	add("plain", 2, 0, []float64{0.0000009999, -49166.666666666664}, 9, 9)
	return &pta.Result{
		Series:   s,
		C:        len(s.Rows),
		Error:    49166.666666666664,
		Strategy: "ptac",
		Budget:   pta.Size(4),
		Stats:    pta.Stats{Cells: 12, InnerIters: 345, EnvelopeSkips: 21, MaxHeap: 7, ReadAhead: 3},
	}
}

// TestAppendResultMatchesEncodingJSON pins appendResult to the reference
// encodeResult + encoding/json bytes across datum kinds, omitempty fields
// and formatting corner cases.
func TestAppendResultMatchesEncodingJSON(t *testing.T) {
	grouped := codecResult()

	ungrouped := pta.NewSeries(nil, []string{"v"})
	for i := 0; i < 3; i++ {
		ungrouped.Rows = append(ungrouped.Rows, pta.Row{
			Group: ungrouped.Groups.Intern(nil), // the empty group, like decodeSeries
			Aggs:  []float64{float64(i) + 0.5},
			T:     pta.Interval{Start: pta.Chronon(i), End: pta.Chronon(i)},
		})
	}
	flat := &pta.Result{Series: ungrouped, C: 3, Error: 0, Strategy: "gms", Budget: pta.ErrorBound(0.05)}

	empty := &pta.Result{Series: pta.NewSeries(nil, []string{"v"}), C: 0, Error: 0,
		Strategy: "ptae", Budget: pta.ErrorBound(0)}

	cases := []struct {
		name  string
		res   *pta.Result
		cache string
	}{
		{"grouped/hit", grouped, cacheHit},
		{"grouped/no-cache", grouped, ""},
		{"ungrouped/zero-stats", flat, cacheBypass},
		{"empty-rows", empty, cacheMiss},
	}
	for _, tc := range cases {
		got := appendResult(nil, tc.res, tc.cache)
		want := reflectJSON(t, encodeResult(tc.res, tc.cache))
		if !bytes.Equal(got, want) {
			t.Errorf("%s:\n append = %s\nencoder = %s", tc.name, got, want)
		}
	}
}

// TestAppendJSONStringMatches drives the hand-rolled string escaper against
// encoding/json on generated strings and raw byte soup (invalid UTF-8).
func TestAppendJSONStringMatches(t *testing.T) {
	check := func(s string) bool {
		return bytes.Equal(appendJSONString(nil, s), reflectJSON(t, s))
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		raw := make([]byte, rng.Intn(24))
		rng.Read(raw)
		if s := string(raw); !check(s) {
			t.Fatalf("mismatch on %q:\n append = %s\nencoder = %s",
				s, appendJSONString(nil, s), reflectJSON(t, s))
		}
	}
	for _, s := range []string{"", "\u2028", "\u2029", "\xff", "\xc3", "a\x00b", "\x7f", "<&>"} {
		if !check(s) {
			t.Errorf("mismatch on %q", s)
		}
	}
}

// TestAppendJSONFloatMatches sweeps the full exponent range plus generated
// values against encoding/json's float formatting; non-finite values (which
// encoding/json refuses outright) must render as null.
func TestAppendJSONFloatMatches(t *testing.T) {
	check := func(f float64) bool {
		return bytes.Equal(appendJSONFloat(nil, f), reflectJSON(t, f))
	}
	for e := -320; e <= 308; e++ {
		f := 1.2345 * math.Pow(10, float64(e))
		if !check(f) || !check(-f) {
			t.Fatalf("mismatch at 1.2345e%d: append = %s", e, appendJSONFloat(nil, f))
		}
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	for _, f := range []float64{math.Inf(1), math.Inf(-1), math.NaN()} {
		if got := appendJSONFloat(nil, f); string(got) != "null" {
			t.Errorf("appendJSONFloat(%v) = %s, want null", f, got)
		}
	}
}

// --- allocation benchmarks ---

// benchResultRows builds an n-row grouped result, the shape a warm cache hit
// streams back.
func benchResultRows(n int) *pta.Result {
	attrs := []temporal.Attribute{{Name: "grp", Kind: temporal.KindString}}
	s := pta.NewSeries(attrs, []string{"v1", "v2"})
	for i := 0; i < n; i++ {
		s.Rows = append(s.Rows, pta.Row{
			Group: s.Groups.Intern([]temporal.Datum{temporal.String("tenant-7")}),
			Aggs:  []float64{float64(i) + 0.25, float64(i%9) * 1.5},
			T:     pta.Interval{Start: pta.Chronon(i * 3), End: pta.Chronon(i*3 + 2)},
		})
	}
	return &pta.Result{
		Series: s, C: n, Error: 12345.678,
		Strategy: "ptac", Budget: pta.Size(n),
		Stats: pta.Stats{Cells: 100, InnerIters: 4000},
	}
}

// BenchmarkEncodeResult is the encode rung of the per-layer ladder, at
// n = 512 and 8192 result rows: the reflective json.Encoder path writeJSON
// used to take for results versus the pooled appendResult path the compress
// handlers take now.
func BenchmarkEncodeResult(b *testing.B) {
	for _, n := range []int{512, 8192} {
		res := benchResultRows(n)
		b.Run(fmt.Sprintf("n=%d/reflect", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				enc := json.NewEncoder(io.Discard)
				enc.SetEscapeHTML(false)
				if err := enc.Encode(encodeResult(res, cacheHit)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("n=%d/append", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bp := codecBufPool.Get().(*[]byte)
				buf := appendResult((*bp)[:0], res, cacheHit)
				*bp = buf[:0]
				codecBufPool.Put(bp)
			}
		})
	}
}

// benchSeriesWire is a single-group wire series large enough that the
// response body dominates over the envelope.
func benchSeriesWire(n int) seriesWire {
	w := seriesWire{AggNames: []string{"v"}}
	for i := 0; i < n; i++ {
		w.Rows = append(w.Rows, rowWire{
			Aggs:  []float64{float64(i%17) + 0.25*float64(i%5)},
			Start: int64(i), End: int64(i),
		})
	}
	return w
}

func newBenchHandler(tb testing.TB) http.Handler {
	tb.Helper()
	s, err := New(Config{Logger: log.New(io.Discard, "", 0)})
	if err != nil {
		tb.Fatal(err)
	}
	return s.Handler()
}

// BenchmarkCompressHit measures a full warm-cache /v1/compress request —
// the memo hit on its resent series, cache lookup, DP walk on cached
// matrices, pooled encode.
func BenchmarkCompressHit(b *testing.B) {
	h := newBenchHandler(b)
	raw := mustMarshal(b, compressHitRequest())
	do := func() int {
		req := httptest.NewRequest(http.MethodPost, "/v1/compress", bytes.NewReader(raw))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}
	if code := do(); code != http.StatusOK {
		b.Fatalf("warm-up status %d", code)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := do(); code != http.StatusOK {
			b.Fatalf("status %d", code)
		}
	}
}

// BenchmarkCompressManyHit measures a warm-cache /v1/compress/many request
// resolving three plans over shared matrices.
func BenchmarkCompressManyHit(b *testing.B) {
	h := newBenchHandler(b)
	raw := mustMarshal(b, compressManyHitRequest())
	do := func() int {
		req := httptest.NewRequest(http.MethodPost, "/v1/compress/many", bytes.NewReader(raw))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec.Code
	}
	if code := do(); code != http.StatusOK {
		b.Fatalf("warm-up status %d", code)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if code := do(); code != http.StatusOK {
			b.Fatalf("status %d", code)
		}
	}
}
