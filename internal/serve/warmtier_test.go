package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"testing"
	"time"

	"repro/pta"
)

// warmSend posts one compress request with an explicit series and returns
// the decoded result plus the raw response body, for byte-identity checks.
func warmSend(url string, series seriesWire, plan planWire) (resultWire, []byte, error) {
	var res resultWire
	raw, err := json.Marshal(compressRequest{Series: series, Plan: plan})
	if err != nil {
		return res, nil, err
	}
	resp, err := http.Post(url+"/v1/compress", "application/json", bytes.NewReader(raw))
	if err != nil {
		return res, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return res, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return res, body, fmt.Errorf("status %d: %s", resp.StatusCode, body)
	}
	return res, body, json.Unmarshal(body, &res)
}

// statNum digs a numeric field out of a nested /v1/stats body.
func statNum(t *testing.T, stats map[string]any, path ...string) float64 {
	t.Helper()
	cur := any(stats)
	for _, p := range path {
		m, ok := cur.(map[string]any)
		if !ok {
			t.Fatalf("stats path %v: %v is not an object", path, cur)
		}
		cur = m[p]
	}
	f, ok := cur.(float64)
	if !ok {
		t.Fatalf("stats path %v: %v is not a number", path, cur)
	}
	return f
}

// pollStats spins until the stats body satisfies ok, for sequencing races
// without sleeps.
func pollStats(t *testing.T, url string, what string, ok func(map[string]any) bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		_, stats := get(t, url+"/v1/stats")
		if ok(stats) {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("stats condition %q not reached", what)
}

// TestPeerWarmRestart is the fleet acceptance scenario: worker B boots with
// a wiped (fresh) spill directory and peers pointing at A. Every series A
// warmed answers on B as a cache hit with zero DP cells filled — the blob
// travels over GET /v1/matrix/{hash}, fully validated, byte-identical down
// to the adopted spill file — so a restarted node warms itself from its
// siblings instead of re-running the DP.
func TestPeerWarmRestart(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	plans := []struct {
		series seriesWire
		plan   planWire
	}{
		{projWire(), planWire{Strategy: "ptac", Budget: "c=4"}},
		{bigWire(9, 200), planWire{Strategy: "ptac", Budget: "c=16"}},
	}

	// answerBytes renders a result with the per-request fields (cache
	// disposition, this worker's own fill stats) cleared, leaving exactly
	// the answer: strategy, budget, C, error, rows.
	answerBytes := func(res resultWire) []byte {
		res.Cache = ""
		res.Stats = statsWire{}
		b, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	_, tsA := newTestServer(t, Config{SpillDir: dirA})
	warmAnswers := make([][]byte, len(plans))
	for i, p := range plans {
		if res, _, err := warmSend(tsA.URL, p.series, p.plan); err != nil || res.Cache != cacheMiss || res.Stats.Cells == 0 {
			t.Fatalf("cold fill %d on A: res=%+v err=%v", i, res, err)
		}
		res, _, err := warmSend(tsA.URL, p.series, p.plan)
		if err != nil || res.Cache != cacheHit {
			t.Fatalf("warm repeat %d on A: cache=%q err=%v", i, res.Cache, err)
		}
		warmAnswers[i] = answerBytes(res)
	}

	_, tsB := newTestServer(t, Config{SpillDir: dirB, Peers: []string{tsA.URL}})
	for i, p := range plans {
		res, _, err := warmSend(tsB.URL, p.series, p.plan)
		if err != nil {
			t.Fatalf("peer-warm %d on B: %v", i, err)
		}
		if res.Cache != cacheHit {
			t.Errorf("peer-warm %d on B: cache=%q, want hit", i, res.Cache)
		}
		if res.Stats.Cells != 0 {
			t.Errorf("peer-warm %d on B filled %d cells, want 0", i, res.Stats.Cells)
		}
		if !bytes.Equal(answerBytes(res), warmAnswers[i]) {
			t.Errorf("peer-warm %d on B: answer differs from A's warm answer", i)
		}
	}

	// The counters tell the same story on both sides: B did no DP work and
	// fetched every key; A served every fetch.
	_, statsB := get(t, tsB.URL+"/v1/stats")
	if cells := statNum(t, statsB, "dp_cells_filled"); cells != 0 {
		t.Errorf("B dp_cells_filled = %v, want 0", cells)
	}
	if hits := statNum(t, statsB, "peer", "fetch_hits"); hits != float64(len(plans)) {
		t.Errorf("B peer fetch_hits = %v, want %d", hits, len(plans))
	}
	if e := statNum(t, statsB, "peer", "fetch_errors"); e != 0 {
		t.Errorf("B peer fetch_errors = %v, want 0", e)
	}
	// Fetched blobs were written through B's own spill (adopt) and restored
	// lazily from it.
	if stores := statNum(t, statsB, "spill", "stores"); stores != float64(len(plans)) {
		t.Errorf("B spill stores = %v, want %d", stores, len(plans))
	}
	if loads := statNum(t, statsB, "spill", "loads"); loads != float64(len(plans)) {
		t.Errorf("B spill loads = %v, want %d", loads, len(plans))
	}
	_, statsA := get(t, tsA.URL+"/v1/stats")
	if hits := statNum(t, statsA, "peer", "serve_hits"); hits != float64(len(plans)) {
		t.Errorf("A peer serve_hits = %v, want %d", hits, len(plans))
	}

	// Spill files are content-addressed: B's adopted files carry the same
	// names and the same bytes as A's originals.
	filesA, filesB := spillFiles(t, dirA), spillFiles(t, dirB)
	if len(filesA) != len(plans) || len(filesB) != len(plans) {
		t.Fatalf("spill files: A=%d B=%d, want %d each", len(filesA), len(filesB), len(plans))
	}
	for i := range filesA {
		a, err := os.ReadFile(filesA[i])
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filesB[i])
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("adopted spill file %d differs from the origin blob", i)
		}
	}

	// A deeper budget on the peer-warmed (lazily restored) set resumes the
	// fill on B — the deeper walk reads the restored rows from the file.
	res, _, err := warmSend(tsB.URL, projWire(), planWire{Strategy: "ptac", Budget: "c=5"})
	if err != nil || res.Cache != cacheHit || res.C != 5 {
		t.Errorf("deeper budget on B after peer warm: cache=%q C=%d err=%v", res.Cache, res.C, err)
	}
}

// TestPeerRaceToFillOneKey: two mutual peers race on the same cold key;
// the tier performs exactly one cold fill. The second worker's fetch lands
// on the owner's entry semaphore and waits for the in-flight fill instead
// of duplicating it.
func TestPeerRaceToFillOneKey(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	sA, tsA := newTestServer(t, Config{SpillDir: dirA})
	_, tsB := newTestServer(t, Config{SpillDir: dirB, Peers: []string{tsA.URL}})
	if err := sA.SetPeers([]string{tsB.URL}); err != nil {
		t.Fatal(err)
	}

	// Big enough that the owner's fill is still in flight when the racer
	// arrives (~2s under -race), small enough to stay far from the 30s
	// request deadline.
	series := bigWire(42, 1500)
	plan := planWire{Strategy: "ptac", Budget: "c=32"}

	type outcome struct {
		res resultWire
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		res, _, err := warmSend(tsA.URL, series, plan)
		done <- outcome{res, err}
	}()
	// Release B only after A is past its own peer-fetch step (a clean miss
	// against cold B) and owns the fill — otherwise both workers can miss
	// simultaneously and legitimately fill twice.
	pollStats(t, tsA.URL, "A past peer fetch", func(stats map[string]any) bool {
		return statNum(t, stats, "cache", "entries") >= 1 &&
			statNum(t, stats, "peer", "fetch_misses") >= 1
	})
	resB, _, errB := warmSend(tsB.URL, series, plan)
	outA := <-done

	if outA.err != nil || errB != nil {
		t.Fatalf("raced sends: A err=%v, B err=%v", outA.err, errB)
	}
	if outA.res.Cache != cacheMiss || outA.res.Stats.Cells == 0 {
		t.Errorf("A (owner): cache=%q cells=%d, want the one cold fill", outA.res.Cache, outA.res.Stats.Cells)
	}
	if resB.Cache != cacheHit || resB.Stats.Cells != 0 {
		t.Errorf("B (racer): cache=%q cells=%d, want a peer-warm hit with zero fill", resB.Cache, resB.Stats.Cells)
	}
	if resB.C != outA.res.C || resB.Error != outA.res.Error {
		t.Errorf("raced answers diverge: A C=%d err=%v, B C=%d err=%v",
			outA.res.C, outA.res.Error, resB.C, resB.Error)
	}
	// Exactly one cold fill tier-wide: all DP cells live on A, none on B.
	_, statsA := get(t, tsA.URL+"/v1/stats")
	_, statsB := get(t, tsB.URL+"/v1/stats")
	if cells := statNum(t, statsA, "dp_cells_filled"); cells != float64(outA.res.Stats.Cells) {
		t.Errorf("A dp_cells_filled = %v, want %d (its own fill only)", cells, outA.res.Stats.Cells)
	}
	if cells := statNum(t, statsB, "dp_cells_filled"); cells != 0 {
		t.Errorf("B dp_cells_filled = %v, want 0", cells)
	}
	if hits := statNum(t, statsB, "peer", "fetch_hits"); hits != 1 {
		t.Errorf("B peer fetch_hits = %v, want 1", hits)
	}
}

// TestPeerMissFallsBackCold: a configured peer that has nothing (and one
// that is unreachable) degrade to a local cold fill — never an error.
func TestPeerMissFallsBackCold(t *testing.T) {
	t.Run("peer cold", func(t *testing.T) {
		_, tsA := newTestServer(t, Config{})
		_, tsB := newTestServer(t, Config{SpillDir: t.TempDir(), Peers: []string{tsA.URL}})
		res, _, err := warmSend(tsB.URL, projWire(), planWire{Strategy: "ptac", Budget: "c=4"})
		if err != nil || res.Cache != cacheMiss || res.Stats.Cells == 0 {
			t.Fatalf("res=%+v err=%v, want a cold fill", res, err)
		}
		_, stats := get(t, tsB.URL+"/v1/stats")
		if m := statNum(t, stats, "peer", "fetch_misses"); m != 1 {
			t.Errorf("peer fetch_misses = %v, want 1", m)
		}
		if h := statNum(t, stats, "peer", "fetch_hits"); h != 0 {
			t.Errorf("peer fetch_hits = %v, want 0", h)
		}
	})
	t.Run("peer unreachable", func(t *testing.T) {
		s, ts := newTestServer(t, Config{SpillDir: t.TempDir(), Peers: []string{"http://127.0.0.1:1"}})
		s.peers.timeout = 200 * time.Millisecond
		res, _, err := warmSend(ts.URL, projWire(), planWire{Strategy: "ptac", Budget: "c=4"})
		if err != nil || res.Cache != cacheMiss || res.Stats.Cells == 0 {
			t.Fatalf("res=%+v err=%v, want a cold fill", res, err)
		}
		_, stats := get(t, ts.URL+"/v1/stats")
		if e := statNum(t, stats, "peer", "fetch_errors"); e < 1 {
			t.Errorf("peer fetch_errors = %v, want >= 1", e)
		}
	})
}

// TestMatrixEndpointAddresses pins the /v1/matrix contract: a resident key
// answers by content address with the exact spill encoding, everything else
// is a clean 404.
func TestMatrixEndpointAddresses(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Config{SpillDir: dir})
	spillSend(t, ts.URL, planWire{Strategy: "ptac", Budget: "c=4"})

	files := spillFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("%d spill files, want 1", len(files))
	}
	want, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	var hash string
	s.cache.mu.Lock()
	for h := range s.cache.byHash {
		hash = h
	}
	s.cache.mu.Unlock()
	if hash == "" {
		t.Fatal("no resident cache entry after a fill")
	}

	resp, err := http.Get(ts.URL + "/v1/matrix/" + hash)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("matrix fetch status %d", resp.StatusCode)
	}
	if !bytes.Equal(got, want) {
		t.Error("matrix blob differs from the spill file")
	}
	for _, bad := range []string{
		"0123456789abcdef0123456789abcdef", // well-formed, unknown
		"not-a-hash",
		"ABCDEF0123456789ABCDEF0123456789", // uppercase: not an address we mint
	} {
		resp, err := http.Get(ts.URL + "/v1/matrix/" + bad)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET /v1/matrix/%s: status %d, want 404", bad, resp.StatusCode)
		}
	}
}

// TestSlabTruncationWhileOpen: a spill file truncated in place underneath
// an open view must surface as a clean WarmLostError on the first row read
// — a short read, never a panic or a wrong answer — and the serve layer's
// response is a cold rebuild.
func TestSlabTruncationWhileOpen(t *testing.T) {
	dir := t.TempDir()
	cs, err := newCacheStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	series, err := decodeSeries(bigWire(3, 600))
	if err != nil {
		t.Fatal(err)
	}
	budget, err := pta.ParseBudget("c=64")
	if err != nil {
		t.Fatal(err)
	}
	set, err := pta.NewMatrixSet(series, "ptac", pta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := set.Compress(ctx, budget); err != nil {
		t.Fatal(err)
	}
	const key = "trunc-test"
	if !cs.store(key, set) {
		t.Fatal("store refused the warm set")
	}

	// Restore lazily (every section past the header stays in the file),
	// then truncate the file inside the resume row: n=600 keeps that row
	// past the 4 KiB cut, so the rows and the paths read short.
	lazy := cs.load(key, series, "ptac", pta.Options{})
	if lazy == nil {
		t.Fatal("lazy load failed on an intact file")
	}
	files := spillFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("%d spill files, want 1", len(files))
	}
	if err := os.Truncate(files[0], 4096); err != nil {
		t.Fatal(err)
	}

	_, err = lazy.Compress(ctx, budget)
	var lost *pta.WarmLostError
	if !errors.As(err, &lost) {
		t.Fatalf("compress over the truncated file: %v, want a WarmLostError", err)
	}
	if lost.Row < 1 || lost.Row > 64 {
		t.Errorf("WarmLostError.Row = %d, want a row in 1..64", lost.Row)
	}

	// discardCorrupt closes the view before unlinking; the file is gone and
	// later reads keep failing cleanly rather than reopening anything.
	cs.discardCorrupt(key)
	if files := spillFiles(t, dir); len(files) != 0 {
		t.Errorf("%d spill files after discardCorrupt, want 0", len(files))
	}
	if _, err := lazy.Compress(ctx, budget); !errors.As(err, &lost) {
		t.Errorf("compress after discard: %v, want a WarmLostError", err)
	}
	if got := cs.errors.Load(); got < 1 {
		t.Errorf("spill errors = %d, want >= 1", got)
	}
}

// TestWarmLostRebuildsColdOverHTTP: end-to-end truncation recovery — a
// lazily restored set loses rows mid-life and the request still answers
// correctly via the retry-cold path.
func TestWarmLostRebuildsColdOverHTTP(t *testing.T) {
	dir := t.TempDir()
	_, ts1 := newTestServer(t, Config{SpillDir: dir})
	spillSend(t, ts1.URL, planWire{Strategy: "ptac", Budget: "c=6"})
	want := spillSend(t, ts1.URL, planWire{Strategy: "ptac", Budget: "c=6"})
	ts1.Close()

	_, ts2 := newTestServer(t, Config{SpillDir: dir})
	// Shallow budget first: it reads its split path alone.
	if res := spillSend(t, ts2.URL, planWire{Strategy: "ptac", Budget: "c=3"}); res.Cache != cacheHit || res.Stats.Cells != 0 {
		t.Fatalf("shallow budget after restart: cache=%q cells=%d", res.Cache, res.Stats.Cells)
	}
	files := spillFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("%d spill files, want 1", len(files))
	}
	// Cut budget 6's path, the file's last section, off under the open view
	// (the header keeps its size, so only reads of that path fail).
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(files[0], int64(len(data))-(4*6+4)); err != nil {
		t.Fatal(err)
	}

	// The deeper budget reads the lost path, the entry is discarded and the
	// request rebuilds cold — correct answer, no error surfaced.
	res := spillSend(t, ts2.URL, planWire{Strategy: "ptac", Budget: "c=6"})
	if res.Cache != cacheMiss || res.Stats.Cells == 0 {
		t.Errorf("after truncation: cache=%q cells=%d, want a cold rebuild", res.Cache, res.Stats.Cells)
	}
	if res.C != want.C || res.Error != want.Error {
		t.Errorf("rebuilt answer C=%d err=%v, want C=%d err=%v", res.C, res.Error, want.C, want.Error)
	}
	_, stats := get(t, ts2.URL+"/v1/stats")
	if e := statNum(t, stats, "spill", "errors"); e < 1 {
		t.Errorf("spill errors = %v, want >= 1", e)
	}
	// The cold rebuild re-spilled a fresh file under the same address.
	if files := spillFiles(t, dir); len(files) != 1 {
		t.Errorf("%d spill files after rebuild, want 1", len(files))
	}
}

// TestCloseBeforeDelete: removing a corrupt spill file while a restored set
// still holds its view must invalidate the view first, so the held set
// fails cleanly instead of reading rows of the discarded file.
func TestCloseBeforeDelete(t *testing.T) {
	dir := t.TempDir()
	cs, err := newCacheStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	series, err := decodeSeries(projWire())
	if err != nil {
		t.Fatal(err)
	}
	budget, err := pta.ParseBudget("c=4")
	if err != nil {
		t.Fatal(err)
	}
	set, err := pta.NewMatrixSet(series, "ptac", pta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, err := set.Compress(ctx, budget); err != nil {
		t.Fatal(err)
	}
	const key = "close-test"
	if !cs.store(key, set) {
		t.Fatal("store refused the warm set")
	}

	held := cs.load(key, series, "ptac", pta.Options{})
	if held == nil {
		t.Fatal("lazy load failed on an intact file")
	}
	cs.discardCorrupt(key)
	if files := spillFiles(t, dir); len(files) != 0 {
		t.Fatalf("%d spill files after discardCorrupt, want 0", len(files))
	}
	_, err = held.Compress(ctx, budget)
	var lost *pta.WarmLostError
	if !errors.As(err, &lost) {
		t.Fatalf("held set after unlink: %v, want a WarmLostError", err)
	}
}

// TestSetPeersNeedsSpillDir: a server without a spill directory takes no
// peers at runtime either — a fetched blob is adopted into that directory —
// but may still clear its list; one with a spill directory takes them.
func TestSetPeersNeedsSpillDir(t *testing.T) {
	memOnly, _ := newTestServer(t, Config{})
	if err := memOnly.SetPeers([]string{"http://127.0.0.1:1"}); err == nil || !strings.Contains(err.Error(), "SpillDir") {
		t.Errorf("SetPeers without a spill dir: %v, want an error naming SpillDir", err)
	}
	if err := memOnly.SetPeers(nil); err != nil {
		t.Errorf("SetPeers(nil) without a spill dir: %v", err)
	}
	spilling, _ := newTestServer(t, Config{SpillDir: t.TempDir()})
	if err := spilling.SetPeers([]string{"http://127.0.0.1:1"}); err != nil {
		t.Errorf("SetPeers with a spill dir: %v", err)
	}
}
