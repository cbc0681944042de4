package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sync"
	"testing"

	"repro/pta"
)

// tryPost sends one body and returns the status and the response bytes.
func tryPost(url string, body []byte) (int, []byte, error) {
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

func postRaw(t *testing.T, url string, body []byte) (int, []byte) {
	t.Helper()
	status, out, err := tryPost(url, body)
	if err != nil {
		t.Fatal(err)
	}
	return status, out
}

// memoSeriesWire is a single-group, gap-free series of n rows whose values
// depend on seed, so distinct seeds are distinct series and every
// registered strategy, the baselines included, accepts it.
func memoSeriesWire(seed, n int) seriesWire {
	w := seriesWire{AggNames: []string{"v"}}
	for i := 0; i < n; i++ {
		w.Rows = append(w.Rows, rowWire{
			Aggs:  []float64{float64((i*7+seed*13)%23) + 0.5*float64(i%3)},
			Start: int64(i), End: int64(i),
		})
	}
	return w
}

// memoState reports the memo's records and checks that it holds only
// series some resident entry holds, each with the right reference count.
func memoState(t *testing.T, c *matrixCache) map[string]*seriesRecord {
	t.Helper()
	c.mu.Lock()
	defer c.mu.Unlock()
	refs := map[*seriesRecord]int{}
	for el := c.ll.Front(); el != nil; el = el.Next() {
		if rec := el.Value.(*cacheEntry).rec.Load(); rec != nil {
			refs[rec]++
		}
	}
	for fp, rec := range c.series {
		if rec.fingerprint != fp || refs[rec] == 0 || refs[rec] != rec.refs {
			t.Errorf("memo record %.8s: %d refs counted, %d resident entries hold it", fp, rec.refs, refs[rec])
		}
	}
	if len(refs) != len(c.series) {
		t.Errorf("resident entries hold %d records, the memo %d", len(refs), len(c.series))
	}
	out := make(map[string]*seriesRecord, len(c.series))
	for fp, rec := range c.series {
		out[fp] = rec
	}
	return out
}

// TestFingerprintOncePerRequest: a /v1/compress/many request hashes its
// series only for plans that need a cache key, and then once.
func TestFingerprintOncePerRequest(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	series := memoSeriesWire(1, 64)
	send := func(plans ...planWire) int64 {
		t.Helper()
		before := s.fingerprints.Load()
		status, out := postRaw(t, ts.URL+"/v1/compress/many",
			mustMarshal(t, compressManyRequest{Series: series, Plans: plans}))
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, out)
		}
		return s.fingerprints.Load() - before
	}
	if n := send(planWire{Strategy: "gms", Budget: "c=8"}, planWire{Strategy: "paa", Budget: "c=8"},
		planWire{Strategy: "gptac", Budget: "c=8"}, planWire{Strategy: "ptac", Budget: "c=8", ReadAhead: 2}); n != 0 {
		t.Errorf("all-bypass request computed %d fingerprints, want 0", n)
	}
	if n := send(planWire{Strategy: "ptac", Budget: "c=8"}, planWire{Strategy: "ptae", Budget: "eps=0.5"},
		planWire{Strategy: "dpbasic", Budget: "c=6"}); n != 1 {
		t.Errorf("three cacheable plans computed %d fingerprints, want 1", n)
	}
}

// TestSeriesMemoSkipsDecodeAndFingerprint: a resent series decodes no rows
// and computes no fingerprint, answers byte for byte as the decoded one
// did, and is forgotten with the last resident entry that held it.
func TestSeriesMemoSkipsDecodeAndFingerprint(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheEntries: 2})
	const n = 64
	body := func(seed int, pw planWire) []byte {
		return mustMarshal(t, compressRequest{Series: memoSeriesWire(seed, n), Plan: pw})
	}
	type work struct{ rows, fingerprints, hits, misses int64 }
	send := func(b []byte) (work, []byte) {
		t.Helper()
		before := work{s.decodedRows.Load(), s.fingerprints.Load(), s.cache.memoHits.Load(), s.cache.memoMisses.Load()}
		status, out := postRaw(t, ts.URL+"/v1/compress", b)
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, out)
		}
		return work{s.decodedRows.Load() - before.rows, s.fingerprints.Load() - before.fingerprints,
			s.cache.memoHits.Load() - before.hits, s.cache.memoMisses.Load() - before.misses}, out
	}
	ptac := planWire{Strategy: "ptac", Budget: "c=8"}
	a := body(1, ptac)

	w, decoded := send(a)
	if w != (work{rows: n, fingerprints: 1, misses: 1}) {
		t.Errorf("first send: %+v, want %d rows, 1 fingerprint, 1 miss", w, n)
	}
	fp := pta.Fingerprint(mustSeries(t, memoSeriesWire(1, n)))
	rec := memoState(t, s.cache)[fp]
	if rec == nil {
		t.Fatal("the memo does not hold the answered series")
	}
	if _, _, held := s.cache.footprint(); held < int64(len(rec.raw)) {
		t.Errorf("cache bytes %d do not count the memo's %d", held, len(rec.raw))
	}
	w, hit := send(a)
	if w != (work{hits: 1}) {
		t.Errorf("resend: %+v, want 0 rows, 0 fingerprints, 1 hit", w)
	}
	if !bytes.Equal(cacheField.ReplaceAll(hit, nil), cacheField.ReplaceAll(decoded, nil)) {
		t.Errorf("memo-hit answer differs from the decoded one:\n%s\n%s", hit, decoded)
	}

	// A second entry of the fingerprint shares the record; the record goes
	// only when both entries have been displaced.
	if w, _ = send(body(1, planWire{Strategy: "ptac", Budget: "c=8", Weights: []float64{2}})); w != (work{hits: 1}) {
		t.Errorf("new class on a resident series: %+v, want 1 hit and nothing else", w)
	}
	if got := memoState(t, s.cache)[fp]; got != rec || rec.refs != 2 {
		t.Errorf("record %p with %d refs, want the first one with 2", got, rec.refs)
	}
	send(body(2, ptac))
	if memoState(t, s.cache)[fp] != rec {
		t.Error("record forgotten while an entry still holds it")
	}
	send(body(3, ptac))
	if _, ok := memoState(t, s.cache)[fp]; ok {
		t.Fatal("record outlived every entry of its fingerprint")
	}
	if w, _ = send(a); w != (work{rows: n, fingerprints: 1, misses: 1}) {
		t.Errorf("send after eviction: %+v, want %d rows, 1 fingerprint, 1 miss", w, n)
	}
}

// TestMemoHoldsOnlyResidentSeries: an entry displaced before its request
// is answered gives the memo nothing, and a discarded entry takes its
// record along.
func TestMemoHoldsOnlyResidentSeries(t *testing.T) {
	req, ok := decodeFast(mustMarshal(t, compressRequest{Series: memoSeriesWire(1, 64),
		Plan: planWire{Strategy: "ptac", Budget: "c=8"}}), false)
	if !ok {
		t.Fatal("fast path declined")
	}
	req.fingerprint = pta.Fingerprint(req.series)
	key := cacheKey(req.fingerprint, "class", nil)
	c := newMatrixCache(1)
	e, _ := c.acquire(key)
	c.acquire("another key")
	c.remember(e, &req)
	if len(memoState(t, c)) != 0 || c.lookupSeries(req.raw) != nil {
		t.Error("the memo holds the series of an evicted entry")
	}
	e, _ = c.acquire(key)
	c.remember(e, &req)
	if c.lookupSeries(req.raw) == nil {
		t.Fatal("the memo misses the series of a resident entry")
	}
	c.discard(e)
	if len(memoState(t, c)) != 0 || c.lookupSeries(req.raw) != nil {
		t.Error("the memo holds the series of a discarded entry")
	}
}

func mustSeries(t *testing.T, w seriesWire) *pta.Series {
	t.Helper()
	s, err := decodeSeries(w)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestWarmHitAllocCeiling pins the allocations of a warm-cache request
// whose series the memo holds (62 and 109 with Go 1.24; 77 and 134 when
// every request decoded and hashed its series). The race detector's
// sync.Pool drops buffers at random, so the ceilings hold without it.
func TestWarmHitAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	h := newBenchHandler(t)
	for _, tc := range []struct {
		path    string
		body    any
		ceiling float64
	}{
		{"/v1/compress", compressHitRequest(), 66},
		{"/v1/compress/many", compressManyHitRequest(), 122},
	} {
		raw := mustMarshal(t, tc.body)
		do := func() {
			req := httptest.NewRequest(http.MethodPost, tc.path, bytes.NewReader(raw))
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, req)
			if rec.Code != http.StatusOK {
				t.Fatalf("%s: status %d", tc.path, rec.Code)
			}
		}
		do()
		allocs := testing.AllocsPerRun(200, do)
		t.Logf("%s: %.0f allocs per warm request", tc.path, allocs)
		if allocs > tc.ceiling {
			t.Errorf("%s: %.0f allocs per warm request, ceiling %.0f", tc.path, allocs, tc.ceiling)
		}
	}
}

var cacheField = regexp.MustCompile(`"cache":"(hit|miss|bypass)"`)

// TestSharedSeriesStayReadOnly: requests that resend one series share its
// decoded form across every strategy but dist, cacheable and bypass alike,
// on both compress endpoints, while another client evicts it by filling the
// cache. No evaluation may write to the shared series, and every answer
// must equal a fresh server's, cache dispositions aside. Run it under
// -race.
func TestSharedSeriesStayReadOnly(t *testing.T) {
	series := memoSeriesWire(1, 48)
	var plans []planWire
	for _, info := range pta.Describe() {
		if info.Name == "dist" {
			continue
		}
		pw := planWire{Strategy: info.Name, Budget: "c=6"}
		if !info.Size {
			pw.Budget = "eps=5"
		}
		plans = append(plans, pw)
	}
	type call struct {
		path string
		body []byte
	}
	var calls []call
	for _, pw := range plans {
		calls = append(calls, call{"/v1/compress", mustMarshal(t, compressRequest{Series: series, Plan: pw})})
	}
	for i := 0; i < len(plans); i += 3 {
		calls = append(calls, call{"/v1/compress/many", mustMarshal(t,
			compressManyRequest{Series: series, Plans: plans[i:min(i+3, len(plans))]})})
	}
	_, fresh := newTestServer(t, Config{})
	want := make([][]byte, len(calls))
	for i, c := range calls {
		status, out := postRaw(t, fresh.URL+c.path, c.body)
		if status != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", c.path, c.body[len(c.body)-80:], status, out)
		}
		want[i] = cacheField.ReplaceAll(out, nil)
	}

	var others [][]byte
	for seed := 2; seed < 10; seed++ {
		others = append(others, mustMarshal(t, compressRequest{Series: memoSeriesWire(seed, 48),
			Plan: planWire{Strategy: "ptac", Budget: "c=6"}}))
	}
	s, ts := newTestServer(t, Config{CacheEntries: 3})
	var (
		mu   sync.Mutex
		seen = map[*seriesRecord]bool{}
		wg   sync.WaitGroup
		done = make(chan struct{})
	)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 3; round++ {
				for j := range calls {
					i := (j + w*5) % len(calls)
					status, out, err := tryPost(ts.URL+calls[i].path, calls[i].body)
					if got := cacheField.ReplaceAll(out, nil); err != nil || status != http.StatusOK || !bytes.Equal(got, want[i]) {
						t.Errorf("%s: status %d, %v; answer differs from a fresh server's:\n%s\n%s", calls[i].path, status, err, got, want[i])
						return
					}
					if recs := s.cache.memo.Load(); recs != nil {
						mu.Lock()
						for _, rec := range *recs {
							seen[rec] = true
						}
						mu.Unlock()
					}
				}
			}
		}(w)
	}
	evicted := make(chan struct{})
	go func() {
		defer close(evicted)
		for i := 0; ; i++ {
			if i >= 2*len(others) {
				select {
				case <-done:
					return
				default:
				}
			}
			if status, out, err := tryPost(ts.URL+"/v1/compress", others[i%len(others)]); err != nil || status != http.StatusOK {
				t.Errorf("evicting client: status %d, %v: %s", status, err, out)
				return
			}
		}
	}()
	wg.Wait()
	close(done)
	<-evicted

	fp := pta.Fingerprint(mustSeries(t, series))
	shared := false
	for rec := range seen {
		if got := pta.Fingerprint(rec.series); got != rec.fingerprint {
			t.Errorf("a shared series changed: fingerprint %s, recorded %s", got, rec.fingerprint)
		}
		shared = shared || rec.fingerprint == fp
	}
	if !shared {
		t.Error("the resent series was never in the memo")
	}
	memoState(t, s.cache)
	t.Logf("%d evictions, memo %d hits and %d misses", s.cache.evictions.Load(),
		s.cache.memoHits.Load(), s.cache.memoMisses.Load())
}

// TestReferenceDecodeKeepsItsBuffer: a body the fast decoder declines is
// decoded by encoding/json straight from the pooled body buffer, so the
// buffer must stay out of the pool until that decode returns. Bodies that
// list rows before agg_names (declined, then decoded), the same with
// trailing data (declined, then rejected) and json.Marshal bodies (fast,
// memo hits once warm) run concurrently on both endpoints; every status and
// answer must equal a fresh server's. Run it under -race.
func TestReferenceDecodeKeepsItsBuffer(t *testing.T) {
	type call struct {
		path string
		body []byte
	}
	var calls []call
	for seed := 1; seed <= 3; seed++ {
		w := memoSeriesWire(seed, 256)
		rows := mustMarshal(t, w.Rows)
		single := fmt.Appendf(nil, `{"series":{"rows":%s,"agg_names":["v"]},"plan":{"strategy":"ptac","budget":"c=6"}}`, rows)
		calls = append(calls,
			call{"/v1/compress", mustMarshal(t, compressRequest{Series: w, Plan: planWire{Strategy: "ptac", Budget: "c=6"}})},
			call{"/v1/compress", single},
			call{"/v1/compress", fmt.Appendf(nil, "%s x", single)},
			call{"/v1/compress/many", fmt.Appendf(nil,
				`{"series":{"rows":%s,"agg_names":["v"]},"plans":[{"strategy":"ptac","budget":"c=6"},{"strategy":"gms","budget":"c=5"}]}`, rows)})
	}
	for _, c := range calls[1:4] {
		if _, ok := decodeFast(c.body, c.path == "/v1/compress/many"); ok {
			t.Fatalf("the fast decoder accepts %.60s…", c.body)
		}
	}
	type answer struct {
		status int
		body   string
	}
	_, fresh := newTestServer(t, Config{})
	want := make([]answer, len(calls))
	for i, c := range calls {
		status, out := postRaw(t, fresh.URL+c.path, c.body)
		want[i] = answer{status, string(cacheField.ReplaceAll(out, nil))}
	}
	if want[2].status != http.StatusBadRequest {
		t.Fatalf("trailing data: status %d, want 400", want[2].status)
	}

	_, ts := newTestServer(t, Config{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for round := 0; round < 8; round++ {
				for j := range calls {
					i := (j + w*3) % len(calls)
					status, out, err := tryPost(ts.URL+calls[i].path, calls[i].body)
					if got := (answer{status, string(cacheField.ReplaceAll(out, nil))}); err != nil || got != want[i] {
						t.Errorf("%s %.60s…: %v; got %d %s, want %d %s", calls[i].path, calls[i].body, err,
							got.status, got.body, want[i].status, want[i].body)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// compressHitRequest and compressManyHitRequest are the warm-hit bodies of
// BenchmarkCompressHit, BenchmarkCompressManyHit and their allocation
// ceilings.
func compressHitRequest() compressRequest {
	return compressRequest{Series: benchSeriesWire(64), Plan: planWire{Strategy: "ptac", Budget: "c=24"}}
}

func compressManyHitRequest() compressManyRequest {
	return compressManyRequest{
		Series: benchSeriesWire(64),
		Plans: []planWire{
			{Strategy: "ptac", Budget: "c=24"},
			{Strategy: "ptac", Budget: "c=12"},
			{Strategy: "ptae", Budget: "eps=0.2"},
		},
	}
}

// memoHolding returns a cache whose one resident entry holds the series
// record of a fast-decoded request, as answering the request leaves it.
func memoHolding(req compressBody) *matrixCache {
	c := newMatrixCache(1)
	req.fingerprint = pta.Fingerprint(req.series)
	e, _ := c.acquire(cacheKey(req.fingerprint, "class", nil))
	c.remember(e, &req)
	return c
}

// extendSeries returns the series bytes raw with one more row before the
// rows array closes: the last row's group, ones for aggregates, one chronon
// past every row.
func extendSeries(s *pta.Series, raw []byte) []byte {
	end := int64(math.MinInt64)
	for _, r := range s.Rows {
		end = max(end, r.T.End)
	}
	row := rowWire{Aggs: make([]float64, s.P()), Start: end + 1, End: end + 1}
	for i := range row.Aggs {
		row.Aggs[i] = 1
	}
	for _, v := range s.Groups.Values(s.Rows[len(s.Rows)-1].Group) {
		row.Group = append(row.Group, encodeDatum(v))
	}
	b, err := json.Marshal(row)
	if err != nil {
		panic(err)
	}
	i := bytes.LastIndexByte(raw, ']')
	return fmt.Appendf(nil, "%s,%s%s", raw[:i], b, raw[i:])
}

// checkMemoDecode decodes an accepted body again through a memo holding
// its series, and three variants of it: the series bytes followed by a
// different plan, by trailing garbage, and extended by one more row. Each
// must decode as the reference decodes it, or decline exactly as a
// memo-less decode does; the body and the other-plan variant must hit.
func checkMemoDecode(t *testing.T, body []byte, fast compressBody, many bool) {
	t.Helper()
	memo := memoHolding(fast)
	// The series bytes are body[start:end].
	start := cap(body) - cap(fast.raw)
	end := start + len(fast.raw)
	other := `"plan":{"strategy":"gms","budget":"c=3"}`
	if many {
		other = `"plans":[{"strategy":"gms","budget":"c=3"},{"strategy":"ptae","budget":"eps=1"}]`
	}
	for _, v := range []struct {
		name string
		body []byte
		hit  bool
	}{
		{"body", body, true},
		{"other plan", fmt.Appendf(nil, `{"series":%s,%s}`, fast.raw, other), true},
		{"trailing garbage", fmt.Appendf(nil, "%s} ]x", body[:end]), false},
		{"one more row", fmt.Appendf(nil, "%s%s%s", body[:start], extendSeries(fast.series, fast.raw), body[end:]), false},
	} {
		d := fastDecoder{b: v.body, memo: memo}
		got, ok := d.request(many)
		if _, want := decodeFast(v.body, many); ok != want {
			t.Fatalf("%s: memo decode accepted %v, memo-less decode %v:\n%s", v.name, ok, want, v.body)
		}
		if !ok {
			continue
		}
		if v.hit && (got.rec == nil || d.rowsRead != 0) {
			t.Fatalf("%s: memo hit %v, %d rows decoded; want a hit and none:\n%s", v.name, got.rec != nil, d.rowsRead, v.body)
		}
		ref, err := decodeReference(v.body, many)
		if err != nil {
			t.Fatalf("%s: memo decode accepted a body the reference rejects (%v):\n%s", v.name, err, v.body)
		}
		if err := sameRequest(got, ref); err != nil {
			t.Fatalf("%s: memo decode disagrees with the reference: %v\n%s", v.name, err, v.body)
		}
	}
}
