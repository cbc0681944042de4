package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"hash/crc32"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/pta"
)

// encodeSnapshot is writeSnapshot into memory: the blob store writes for
// snap under key.
func encodeSnapshot(key string, snap *pta.MatrixSnapshot) []byte {
	var b bytes.Buffer
	if err := writeSnapshot(&b, key, snap); err != nil {
		panic(err)
	}
	return b.Bytes()
}

// blobSnapshot is the whole snapshot a spill blob for key holds over
// series, read back through a lazy restore over a view of the blob.
func blobSnapshot(tb testing.TB, blob []byte, key string, series *pta.Series) *pta.MatrixSnapshot {
	tb.Helper()
	hollow, view, err := openView(bytes.NewReader(blob), int64(len(blob)), key)
	if err != nil {
		tb.Fatal(err)
	}
	set, err := pta.RestoreMatrixSetLazy(series, hollow.Strategy, pta.Options{}, hollow, view)
	if err != nil {
		tb.Fatal(err)
	}
	snap, err := set.Snapshot()
	if err != nil {
		tb.Fatal(err)
	}
	return snap
}

// spillSend posts one compress request and returns the decoded result.
func spillSend(t *testing.T, url string, plan planWire) resultWire {
	t.Helper()
	raw, _ := json.Marshal(compressRequest{Series: projWire(), Plan: plan})
	resp, err := http.Post(url+"/v1/compress", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var out map[string]any
		json.NewDecoder(resp.Body).Decode(&out)
		t.Fatalf("status %d: %v", resp.StatusCode, out)
	}
	var res resultWire
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		t.Fatal(err)
	}
	return res
}

// spillFiles lists the .ptam files in dir.
func spillFiles(t *testing.T, dir string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*"+spillSuffix))
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestSpillSurvivesRestart is the kill-9 acceptance scenario: a second
// Server over the same spill directory — a restarted worker; nothing is
// flushed at shutdown because spilling happens at fill time — answers a
// previously-warm request as a cache hit with zero DP cells filled.
func TestSpillSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	plan := planWire{Strategy: "ptac", Budget: "c=4"}

	_, ts1 := newTestServer(t, Config{SpillDir: dir})
	if res := spillSend(t, ts1.URL, plan); res.Cache != cacheMiss || res.Stats.Cells == 0 {
		t.Fatalf("cold request: cache=%q cells=%d, want miss with fill work", res.Cache, res.Stats.Cells)
	}
	if files := spillFiles(t, dir); len(files) != 1 {
		t.Fatalf("%d spill files after a warm fill, want 1", len(files))
	}
	ts1.Close() // the worker dies; only the spill directory survives

	_, ts2 := newTestServer(t, Config{SpillDir: dir})
	res := spillSend(t, ts2.URL, plan)
	if res.Cache != cacheHit {
		t.Errorf("restarted worker: cache=%q, want hit from spill", res.Cache)
	}
	if res.Stats.Cells != 0 {
		t.Errorf("restarted worker filled %d cells, want 0 (no refill)", res.Stats.Cells)
	}
	if res.C != 4 {
		t.Errorf("restored answer C=%d, want 4", res.C)
	}
	// A deeper budget on the restored matrices resumes the fill and spills
	// the deeper state.
	if res := spillSend(t, ts2.URL, planWire{Strategy: "ptac", Budget: "c=5"}); res.Cache != cacheHit || res.C != 5 {
		t.Errorf("deeper budget after restore: cache=%q C=%d", res.Cache, res.C)
	}
	_, stats := get(t, ts2.URL+"/v1/stats")
	if loads := statNum(t, stats, "ptaserve_spill_loads_total"); loads != 1 {
		t.Errorf("spill loads = %v, want 1", loads)
	}
	if stores := statNum(t, stats, "ptaserve_spill_stores_total"); stores < 1 {
		t.Errorf("spill stores = %v, want ≥ 1 (deeper fill re-spilled)", stores)
	}
	if errs := statNum(t, stats, "ptaserve_spill_errors_total"); errs != 0 {
		t.Errorf("spill errors = %v, want 0", errs)
	}
}

// TestSpillCorruptionFallsBackCold: flipped payload bytes, a stale format
// version and truncation all degrade to a cold build — never an error, and
// the bad file is removed.
func TestSpillCorruptionFallsBackCold(t *testing.T) {
	plan := planWire{Strategy: "ptac", Budget: "c=4"}
	corrupt := func(name string, mutate func([]byte) []byte) {
		dir := t.TempDir()
		_, ts1 := newTestServer(t, Config{SpillDir: dir})
		spillSend(t, ts1.URL, plan)
		ts1.Close()
		files := spillFiles(t, dir)
		if len(files) != 1 {
			t.Fatalf("%s: %d spill files, want 1", name, len(files))
		}
		data, err := os.ReadFile(files[0])
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(files[0], mutate(data), 0o644); err != nil {
			t.Fatal(err)
		}

		_, ts2 := newTestServer(t, Config{SpillDir: dir})
		res := spillSend(t, ts2.URL, plan)
		if res.Cache != cacheMiss || res.Stats.Cells == 0 {
			t.Errorf("%s: cache=%q cells=%d, want a cold rebuild", name, res.Cache, res.Stats.Cells)
		}
		_, stats := get(t, ts2.URL+"/v1/stats")
		if errs := statNum(t, stats, "ptaserve_spill_errors_total"); errs < 1 {
			t.Errorf("%s: spill errors = %v, want ≥ 1", name, errs)
		}
		if loads := statNum(t, stats, "ptaserve_spill_loads_total"); loads != 0 {
			t.Errorf("%s: spill loads = %v, want 0", name, loads)
		}
		// The rebuild re-spilled over the removed bad file.
		if files := spillFiles(t, dir); len(files) != 1 {
			t.Errorf("%s: %d spill files after rebuild, want 1", name, len(files))
		}
	}

	corrupt("flipped header byte", func(b []byte) []byte {
		// The sections after the header are checked when a walk or a fill
		// reads them, not at load.
		b[binary.LittleEndian.Uint32(b[8:])/2] ^= 0xFF
		return b
	})
	corrupt("stale version", func(b []byte) []byte {
		// Patch the version field and re-seal the header CRC so only the
		// version check can reject it.
		hl := binary.LittleEndian.Uint32(b[8:])
		binary.LittleEndian.PutUint32(b[4:], spillVersion+7)
		binary.LittleEndian.PutUint32(b[hl-4:], crc32.ChecksumIEEE(b[:hl-4]))
		return b
	})
	corrupt("truncated", func(b []byte) []byte {
		return b[:len(b)/3]
	})
	corrupt("empty", func(b []byte) []byte {
		return nil
	})
}

// TestSpillDecodeRejections covers the peer gate directly: every framing
// violation is an error, a path off its rows is errSpillPath, and a blob
// it passes round-trips through a lazy restore and the encoder.
func TestSpillDecodeRejections(t *testing.T) {
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{SpillDir: dir})
	spillSend(t, ts.URL, planWire{Strategy: "ptac", Budget: "c=4"})
	files := spillFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("%d spill files, want 1", len(files))
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}

	// Recover the key: it is length-prefixed right after the preamble
	// (magic, version, header length).
	keyLen := binary.LittleEndian.Uint32(data[spillPreamble:])
	key := string(data[spillPreamble+4 : spillPreamble+4+int(keyLen)])

	if err := gateBlob(data, key); err != nil {
		t.Fatalf("gate on the spill file: %v", err)
	}
	series, err := decodeSeries(projWire())
	if err != nil {
		t.Fatal(err)
	}
	snap := blobSnapshot(t, data, key, series)
	if snap.Strategy != "ptac" || snap.N != 7 || snap.Filled < 4 {
		t.Errorf("restored snapshot: strategy=%q n=%d filled=%d", snap.Strategy, snap.N, snap.Filled)
	}
	reencoded := encodeSnapshot(key, snap)
	if !bytes.Equal(reencoded, data) {
		t.Error("encode(restore(file)) != file")
	}

	if err := gateBlob(data, "some-other-key"); err == nil {
		t.Error("gate accepted a key mismatch")
	}
	if err := gateBlob(data[:16], key); err == nil {
		t.Error("gate accepted a truncated file")
	}
	if err := gateBlob(append(append([]byte(nil), data...), 0), key); err == nil {
		t.Error("gate accepted trailing bytes")
	}
	bad := append([]byte(nil), data...)
	copy(bad, "XXXX")
	hl := binary.LittleEndian.Uint32(bad[8:])
	binary.LittleEndian.PutUint32(bad[hl-4:], crc32.ChecksumIEEE(bad[:hl-4]))
	if err := gateBlob(bad, key); err == nil {
		t.Error("gate accepted a bad magic")
	}
	// A flipped byte in the resume row, a split row or a split path with an
	// intact header is caught by that section's CRC.
	l := spillLayout{header: int(hl), n: snap.N, filled: snap.Filled}
	for what, at := range map[string]int{"resume row": int(hl) + 5, "split row": l.rowOff(2) + 5, "split path": len(data) - 6} {
		bad := append([]byte(nil), data...)
		bad[at] ^= 0xFF
		if err := gateBlob(bad, key); err == nil {
			t.Errorf("gate accepted a corrupt %s", what)
		}
	}
	// A re-sealed path that leaves its rows' walk is refused as such: a
	// lazy load would answer from it what a walk over the rows answers
	// differently.
	bad = append([]byte(nil), data...)
	patchPath(bad, snap.N, snap.Filled, snap.Filled, 0, 0, true) // J[Filled][n] ≥ Filled−1 > 0
	if err := gateBlob(bad, key); !errors.Is(err, errSpillPath) {
		t.Errorf("gate on a re-sealed path off its rows: %v, want errSpillPath", err)
	}
}

// TestSpillBlobDigest holds the streamed spill encoding to the blobs the
// in-memory encoder wrote before it: the SHA-256 of the file stored for
// fixed series and budgets, computed with that encoder. The format is
// unchanged, so spillVersion stays 3 while these hold.
func TestSpillBlobDigest(t *testing.T) {
	for _, tc := range []struct {
		groups, perGroup, p, c int
		key, sha               string
	}{
		{1, 2048, 1, 204, "digest/mixed-2048", "837d78b2d36f150577eff8bbb7eede8f26168c8bd15427957a6fb43f02b3fdd2"},
		{1, 7, 1, 2, "digest/seven", "95d8f759c0686682c948c2f01b77e9fb6cf9a549389c453b701e8f831eb6ae14"},
		{3, 100, 2, 12, "digest/grouped", "30d3e26c8460fe44d83e9c480879c8d8f461a6dcbecd88466920bbda8e084e51"},
	} {
		series, err := dataset.Mixed(tc.groups, tc.perGroup, tc.p, 3)
		if err != nil {
			t.Fatal(err)
		}
		cs := spillWarm(t, series, tc.key, pta.Size(tc.c))
		data, err := os.ReadFile(cs.path(tc.key))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:]); got != tc.sha {
			t.Errorf("%s: blob of %d bytes has SHA-256 %s, want %s", tc.key, len(data), got, tc.sha)
		}
	}
}

// openSpillFiles counts this process's descriptors open on spill files in
// dir, unlinked ones included.
func openSpillFiles(t *testing.T, dir string) int {
	t.Helper()
	dir, err := filepath.EvalSymlinks(dir)
	if err != nil {
		t.Fatal(err)
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	open := 0
	for _, fd := range fds {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
		if err == nil && strings.HasPrefix(target, dir+string(filepath.Separator)) && strings.Contains(target, spillSuffix) {
			open++
		}
	}
	return open
}

// TestSpillViewsFollowResidentSets: a reloaded spill file's descriptor
// stays open only while some set reaches its view. Twenty series behind a
// two-entry cache are filled and spilled, then each is reloaded twice
// (every answer a zero-cell spill hit, every load evicting a resident
// entry). Once the GC has collected the evicted sets, only the two resident
// entries hold spill descriptors; the GC is retried up to a deadline, so
// the test does not depend on when cleanups run.
func TestSpillViewsFollowResidentSets(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("counts descriptors through /proc/self/fd")
	}
	dir := t.TempDir()
	_, ts := newTestServer(t, Config{SpillDir: dir, CacheEntries: 2})
	plan := planWire{Strategy: "ptac", Budget: "c=8"}
	for round := 0; round < 3; round++ {
		for seed := 0; seed < 20; seed++ {
			res, _, err := warmSend(ts.URL, memoSeriesWire(seed, 64), plan)
			if err != nil {
				t.Fatal(err)
			}
			if round > 0 && (res.Cache != cacheHit || res.Stats.Cells != 0) {
				t.Fatalf("round %d, series %d: cache %q after %d cells, want a zero-cell spill hit", round, seed, res.Cache, res.Stats.Cells)
			}
		}
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		runtime.GC()
		open := openSpillFiles(t, dir)
		if open <= 2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d spill descriptors open after GC, want at most 2 (the resident entries)", open)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSpillOpenErrorKeepsFile: a spill file the file system will not open
// is a counted cold miss, and it stays: only bytes that fail validation
// condemn a spill file. A symlink loop makes the open fail with ELOOP here,
// as running out of descriptors makes it fail with EMFILE in production.
func TestSpillOpenErrorKeepsFile(t *testing.T) {
	dir := t.TempDir()
	_, warm := newTestServer(t, Config{SpillDir: dir})
	spillSend(t, warm.URL, planWire{Strategy: "ptac", Budget: "c=4"})
	files := spillFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("%d spill files, want 1", len(files))
	}
	path := files[0]
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(filepath.Base(path), path); err != nil {
		t.Skipf("no symlinks here: %v", err)
	}

	s, ts := newTestServer(t, Config{SpillDir: dir})
	series, err := decodeSeries(projWire())
	if err != nil {
		t.Fatal(err)
	}
	class, _ := pta.DPClass("ptac")
	key := cacheKey(pta.Fingerprint(series), class, nil)
	if s.store.path(key) != path {
		t.Fatalf("cache key maps to %s, the spill file is %s", s.store.path(key), path)
	}
	if set := s.store.load(key, series, "ptac", pta.Options{}); set != nil {
		t.Fatal("load through a symlink loop restored a set")
	}
	if _, err := os.Lstat(path); err != nil {
		t.Fatalf("the spill file is gone after an open error: %v", err)
	}
	if got := s.store.errors.Load(); got != 1 {
		t.Errorf("spill errors = %d, want 1", got)
	}
	if res := spillSend(t, ts.URL, planWire{Strategy: "ptac", Budget: "c=4"}); res.Cache != cacheMiss || res.Stats.Cells == 0 {
		t.Fatalf("cache %q after %d cells, want a cold refill", res.Cache, res.Stats.Cells)
	}
}

// TestMatrixEndpointStreamsResidentSet: a worker without a spill dir
// streams a resident key's blob from the set itself, under the
// Content-Length of its layout and byte for byte what a spill file holds.
func TestMatrixEndpointStreamsResidentSet(t *testing.T) {
	dir := t.TempDir()
	_, withSpill := newTestServer(t, Config{SpillDir: dir})
	_, memOnly := newTestServer(t, Config{})
	plan := planWire{Strategy: "ptac", Budget: "c=4"}
	spillSend(t, withSpill.URL, plan)
	spillSend(t, memOnly.URL, plan)
	files := spillFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("%d spill files, want 1", len(files))
	}
	want, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	hash := strings.TrimSuffix(filepath.Base(files[0]), spillSuffix)
	resp, err := http.Get(memOnly.URL + "/v1/matrix/" + hash)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	got, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || resp.ContentLength != int64(len(want)) {
		t.Fatalf("status %d, Content-Length %d; want 200 and %d", resp.StatusCode, resp.ContentLength, len(want))
	}
	if !bytes.Equal(got, want) {
		t.Errorf("streamed blob (%d bytes) differs from the spill file (%d bytes)", len(got), len(want))
	}
}

// TestMatrixEndpointStreamsSpillFile: a spill file goes to a peer straight
// from disk, byte for byte under its size, and the server never holds it
// whole: serving a 16 MiB file allocates less than a quarter of it.
func TestMatrixEndpointStreamsSpillFile(t *testing.T) {
	const size = 16 << 20
	s, ts := newTestServer(t, Config{SpillDir: t.TempDir()})
	hash := spillHash("a key no request built")
	blob := make([]byte, size)
	for i := range blob {
		blob[i] = byte(i * 7 % 251)
	}
	if err := os.WriteFile(s.store.pathForHash(hash), blob, 0o644); err != nil {
		t.Fatal(err)
	}
	want := sha256.Sum256(blob)
	blob = nil
	fetch := func(dst io.Writer) {
		t.Helper()
		resp, err := http.Get(ts.URL + "/v1/matrix/" + hash)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK || resp.ContentLength != size {
			t.Fatalf("status %d, Content-Length %d; want 200 and %d", resp.StatusCode, resp.ContentLength, size)
		}
		if n, err := io.Copy(dst, resp.Body); n != size || err != nil {
			t.Fatalf("read %d bytes (%v), want %d", n, err, size)
		}
	}
	digest := sha256.New()
	fetch(digest)
	if got := digest.Sum(nil); !bytes.Equal(got, want[:]) {
		t.Errorf("served blob digest %x, the spill file's %x", got, want)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fetch(io.Discard)
	runtime.ReadMemStats(&after)
	alloc := after.TotalAlloc - before.TotalAlloc
	t.Logf("serving a %d-byte spill file allocated %d bytes", size, alloc)
	if alloc >= size/4 {
		t.Errorf("serving a %d-byte spill file allocated %d bytes, want < %d", size, alloc, size/4)
	}
}
