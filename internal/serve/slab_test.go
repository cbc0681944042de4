package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"runtime"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/pta"
)

// spillWarm answers every budget on a fresh set over series (deepening it
// to the deepest), spills it under key into a store over a fresh directory,
// and returns the store.
func spillWarm(tb testing.TB, series *pta.Series, key string, budgets ...pta.Budget) *cacheStore {
	tb.Helper()
	cs, err := newCacheStore(tb.TempDir(), 0)
	if err != nil {
		tb.Fatal(err)
	}
	set, err := pta.NewMatrixSet(series, "ptac", pta.Options{})
	if err != nil {
		tb.Fatal(err)
	}
	for _, b := range budgets {
		if _, err := set.Compress(context.Background(), b); err != nil {
			tb.Fatal(err)
		}
	}
	if !cs.store(key, set) {
		tb.Fatal("store refused the warm set")
	}
	return cs
}

// patchSplit sets J[k][i] = j in a spill blob over n+1 columns and, with
// reseal, recomputes that row's CRC so only the cell checks can object.
func patchSplit(blob []byte, n, k, i int, j int32, reseal bool) {
	rowSize := spillRowSize(n)
	row := blob[int(binary.LittleEndian.Uint32(blob[8:]))+(k-1)*rowSize:][:rowSize]
	binary.LittleEndian.PutUint32(row[4*i:], uint32(j))
	if reseal {
		binary.LittleEndian.PutUint32(row[rowSize-4:], crc32.ChecksumIEEE(row[:rowSize-4]))
	}
}

// readCounts returns a view's row-read counters.
func readCounts(v *slabView) (reads, bytes int64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.reads, v.readBytes
}

// TestSpillSplitPastColumnIsWarmLost: a CRC-valid split point inside 0..n
// but at its own column (the proj example spilled at c = 4 with J[4][7] = 7
// re-sealed) is a WarmLostError from the lazily restored set, not a panic
// in the backtrack.
func TestSpillSplitPastColumnIsWarmLost(t *testing.T) {
	series, err := decodeSeries(projWire())
	if err != nil {
		t.Fatal(err)
	}
	const key = "past-column"
	cs := spillWarm(t, series, key, pta.Size(4))
	path := cs.path(key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	patchSplit(data, 7, 4, 7, 7, true)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	lazy := cs.load(key, series, "ptac", pta.Options{})
	if lazy == nil {
		t.Fatal("load refused a file whose header and CRCs are intact")
	}
	_, err = lazy.Compress(context.Background(), pta.Size(4))
	var lost *pta.WarmLostError
	if !errors.As(err, &lost) {
		t.Fatalf("compress over J[4][7] = 7: %v, want a WarmLostError", err)
	}
	if lost.Row != 4 {
		t.Errorf("WarmLostError.Row = %d, want 4", lost.Row)
	}
}

// TestSplitPastColumnRebuildsColdOverHTTP is the same bad file behind the
// server: the request is answered by a cold rebuild byte-identical to the
// cold answer, and the discarded file counts as a spill error.
func TestSplitPastColumnRebuildsColdOverHTTP(t *testing.T) {
	dir := t.TempDir()
	plan := planWire{Strategy: "ptac", Budget: "c=4"}
	_, ts1 := newTestServer(t, Config{SpillDir: dir})
	_, want, err := warmSend(ts1.URL, projWire(), plan)
	if err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	files := spillFiles(t, dir)
	if len(files) != 1 {
		t.Fatalf("%d spill files, want 1", len(files))
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	patchSplit(data, 7, 4, 7, 7, true)
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	_, ts2 := newTestServer(t, Config{SpillDir: dir})
	res, got, err := warmSend(ts2.URL, projWire(), plan)
	if err != nil {
		t.Fatalf("request over the bad spill file: %v", err)
	}
	if res.Cache != cacheMiss || res.Stats.Cells == 0 {
		t.Errorf("cache=%q cells=%d, want a cold rebuild", res.Cache, res.Stats.Cells)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("rebuilt answer\n%s\nwant the cold answer\n%s", got, want)
	}
	_, stats := get(t, ts2.URL+"/v1/stats")
	if e := statNum(t, stats, "spill", "errors"); e < 1 {
		t.Errorf("spill errors = %v, want >= 1", e)
	}
}

// TestSpillRestoreReadGuard is the deterministic guard on the reload path,
// counted in reads and bytes rather than wall time: answering c on a fresh
// load issues one read covering rows 1..c; a repeat or shallower budget
// reads nothing; a deeper one reads only its new rows. MemBytes counts
// resident rows only, and a load plus its answer allocates the rows it
// read once, plus O(n) scalar state.
func TestSpillRestoreReadGuard(t *testing.T) {
	const n = 1024
	const c = n / 10
	series, err := dataset.Mixed(1, n, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	const key = "read-guard"
	cs := spillWarm(t, series, key, pta.Size(2*c))
	rowSize := int64(spillRowSize(n))
	scalar := int64(3 * 8 * (n + 1)) // MemBytes of the resume row, the row errors and the swap row
	ctx := context.Background()

	// Load and answer c three times over, each on a fresh load; the
	// smallest allocation is the path's own, free of stray allocations
	// elsewhere in the process.
	var set *pta.MatrixSet
	alloc := int64(math.MaxInt64)
	for range 3 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		set = cs.load(key, series, "ptac", pta.Options{})
		if set == nil {
			t.Fatal("load failed on an intact file")
		}
		if got := set.MemBytes(); got != scalar {
			t.Fatalf("fresh lazy set MemBytes = %d, want its scalar state's %d", got, scalar)
		}
		if _, err := set.Compress(ctx, pta.Size(c)); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		alloc = min(alloc, int64(after.TotalAlloc-before.TotalAlloc))
	}

	// The slack is O(n) state besides the rows: the kernel's prefix sums,
	// the spill header and the row errors and resume row parsed from it,
	// the solver's error rows and the answer. 20 words per column covers
	// it (about 13 are used). Decoding every walked row into a fresh
	// []int32 on top of its read buffer would cost each row twice: about
	// 1.09 MB here, against a bound of 0.58 MB.
	if slack := int64(20 * 8 * (n + 1)); alloc > c*rowSize+slack {
		t.Errorf("load + answer c=%d allocated %d bytes, want at most %d: c rows of %d bytes plus %d slack",
			c, alloc, c*rowSize+slack, rowSize, slack)
	}
	if got, want := set.MemBytes(), scalar+c*4*(n+1); got != want {
		t.Errorf("MemBytes after c=%d = %d, want %d (c resident rows)", c, got, want)
	}
	view := cs.views[cs.path(key)]
	if reads, bytes := readCounts(view); reads != 1 || bytes != c*rowSize {
		t.Errorf("answering c=%d: %d reads of %d bytes, want 1 read of rows 1..%d (%d bytes)", c, reads, bytes, c, c*rowSize)
	}
	for _, b := range []pta.Budget{pta.Size(c), pta.Size(c / 2)} {
		if _, err := set.Compress(ctx, b); err != nil {
			t.Fatal(err)
		}
	}
	if reads, _ := readCounts(view); reads != 1 {
		t.Errorf("a repeat and a shallower budget issued %d more reads, want 0", reads-1)
	}
	if _, err := set.Compress(ctx, pta.Size(2*c)); err != nil {
		t.Fatal(err)
	}
	if reads, bytes := readCounts(view); reads != 2 || bytes != 2*c*rowSize {
		t.Errorf("deeper budget c=%d: %d reads of %d bytes in all, want 2 reads of %d bytes (rows %d..%d added)",
			2*c, reads, bytes, 2*c*rowSize, c+1, 2*c)
	}
}

// TestSlabReadsRaceInvalidate: reads of one view racing its invalidation
// (a discardCorrupt while another set still reads) each return verified
// rows or a clean error, and every read after the close fails. Run under
// -race.
func TestSlabReadsRaceInvalidate(t *testing.T) {
	series, err := decodeSeries(bigWire(4, 300))
	if err != nil {
		t.Fatal(err)
	}
	const key = "race"
	cs := spillWarm(t, series, key, pta.Size(30))
	if cs.load(key, series, "ptac", pta.Options{}) == nil {
		t.Fatal("load failed on an intact file")
	}
	view := cs.views[cs.path(key)]
	const readers = 4
	var wg sync.WaitGroup
	wg.Add(readers)
	for g := 0; g < readers; g++ {
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				lo := 1 + (g+r)%20
				if rows, err := view.SplitRows(lo, lo+9); err == nil && len(rows) != 10 {
					t.Errorf("read of rows %d..%d returned %d rows", lo, lo+9, len(rows))
				}
			}
		}(g)
	}
	view.invalidate()
	wg.Wait()
	if _, err := view.SplitRows(1, 1); err == nil {
		t.Error("read after invalidate succeeded")
	}
}

// BenchmarkSpillRestore times what a spill reload costs a request: open and
// header-parse the file, restore lazily, answer one budget. The set is
// spilled at n = 2048 after answering all three budgets, so no iteration
// fills a cell; readB/op is the row bytes each answer read.
func BenchmarkSpillRestore(b *testing.B) {
	const n = 2048
	series, err := dataset.Mixed(1, n, 1, 3)
	if err != nil {
		b.Fatal(err)
	}
	budgets := []struct {
		name string
		b    pta.Budget
	}{
		{"c=n/10", pta.Size(n / 10)},
		{"eps=0.01", pta.ErrorBound(0.01)},
		{"eps=0.001", pta.ErrorBound(0.001)},
	}
	const key = "bench"
	warm := make([]pta.Budget, len(budgets))
	for i, bc := range budgets {
		warm[i] = bc.b
	}
	cs := spillWarm(b, series, key, warm...)
	ctx := context.Background()
	for _, bc := range budgets {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var readBytes int64
			for b.Loop() {
				set := cs.load(key, series, "ptac", pta.Options{})
				if set == nil {
					b.Fatal("load failed on an intact file")
				}
				res, err := set.Compress(ctx, bc.b)
				if err != nil {
					b.Fatal(err)
				}
				if res.Stats.Cells != 0 {
					b.Fatalf("a reload filled %d cells", res.Stats.Cells)
				}
				_, bytes := readCounts(cs.views[cs.path(key)])
				readBytes += bytes
			}
			b.ReportMetric(float64(readBytes)/float64(b.N), "readB/op")
		})
	}
}

// tiles reports why res does not tile series, or nil: it must have C rows,
// each the merge of a run of consecutive input tuples, the runs following
// each other from the first tuple to the last. Within a group starts
// increase strictly, so (group, start) names the tuple a row begins at.
func tiles(series *pta.Series, res *pta.Result) error {
	rows := res.Series.Rows
	if len(rows) != res.C || res.C < 1 {
		return fmt.Errorf("%d rows for C = %d", len(rows), res.C)
	}
	first := make([]int, len(rows))
	for k, r := range rows {
		first[k] = -1
		for i, in := range series.Rows {
			if in.Group == r.Group && in.T.Start == r.T.Start {
				first[k] = i
			}
		}
	}
	if first[0] != 0 {
		return fmt.Errorf("row 1 starts at tuple %d", first[0])
	}
	for k, r := range rows {
		last := len(series.Rows) - 1
		if k+1 < len(rows) {
			last = first[k+1] - 1
		}
		if last < first[k] || first[k] < 0 || series.Rows[last].T.End != r.T.End {
			return fmt.Errorf("row %d [%v, %v] is not the run of tuples %d..%d", k+1, r.T.Start, r.T.End, first[k], last)
		}
	}
	return nil
}

// spillLadder is the budget ladder the spill fuzz targets answer from a
// restored set, with each budget's answer from a cold set over series.
func spillLadder(f *testing.F, series *pta.Series) (budgets []pta.Budget, cold []*pta.Result) {
	budgets = []pta.Budget{
		pta.Size(3), pta.Size(4), pta.Size(5), pta.Size(6),
		pta.ErrorBound(0), pta.ErrorBound(0.05), pta.ErrorBound(0.3), pta.ErrorBound(1),
	}
	cold = make([]*pta.Result, len(budgets))
	for i, b := range budgets {
		set, err := pta.NewMatrixSet(series, "ptac", pta.Options{})
		if err != nil {
			f.Fatal(err)
		}
		if cold[i], err = set.Compress(context.Background(), b); err != nil {
			f.Fatal(err)
		}
	}
	return budgets, cold
}

// checkLadder answers every budget from a restored set: each answer is a
// WarmLostError or rows that tile the series at a finite, non-negative
// error, and a set restored from an unmutated blob answers as a cold set.
func checkLadder(t *testing.T, how string, set *pta.MatrixSet, series *pta.Series, budgets []pta.Budget, cold []*pta.Result, pristine bool) {
	t.Helper()
	for i, b := range budgets {
		res, err := set.Compress(context.Background(), b)
		var lost *pta.WarmLostError
		switch {
		case err != nil && !errors.As(err, &lost):
			t.Fatalf("%s %v: %v, want a WarmLostError or an answer", how, b, err)
		case err != nil && pristine:
			t.Fatalf("%s %v: unmutated blob lost: %v", how, b, err)
		case err != nil:
		case tiles(series, res) != nil:
			t.Fatalf("%s %v: %v", how, b, tiles(series, res))
		case !(res.Error >= 0) || math.IsInf(res.Error, 1):
			t.Fatalf("%s %v: answered at error %v", how, b, res.Error)
		case pristine && (res.C != cold[i].C || res.Error != cold[i].Error || !res.Series.Equal(cold[i].Series, 0)):
			t.Fatalf("%s %v: unmutated blob answered C=%d E=%v, cold C=%d E=%v", how, b, res.C, res.Error, cold[i].C, cold[i].Error)
		}
	}
}

// FuzzSpillRows mutates split cells of a valid spill blob, re-sealing the
// row CRCs or not, and answers a ladder of budgets from it both ways a
// worker restores one: lazily through a spill file, and eagerly through
// decodeSnapshot and RestoreMatrixSet. Nothing may panic, and every answer
// is a WarmLostError or rows that tile the series at a finite,
// non-negative error (checkLadder). A CRC is not authentication, so a
// re-sealed mutation may change the answer; an unmutated blob must answer
// exactly like a cold set.
//
// Each mutation is three bytes: the row (mod the rows spilled), the column
// (mod n+1) and the new split point as a signed byte.
func FuzzSpillRows(f *testing.F) {
	series, err := decodeSeries(projWire())
	if err != nil {
		f.Fatal(err)
	}
	n := series.Len()
	const key = "fuzz"
	cs := spillWarm(f, series, key, pta.Size(5))
	path := cs.path(key)
	blob, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	const filled = 5
	budgets, cold := spillLadder(f, series)

	f.Add([]byte{}, false)
	f.Add([]byte{3, 7, 7}, true)          // J[4][7] = 7: at its own column
	f.Add([]byte{3, 7, 0}, true)          // zero on the walk
	f.Add([]byte{3, 7, 2}, true)          // below k-1
	f.Add([]byte{0, 5, 2}, true)          // nonzero in row 1
	f.Add([]byte{3, 7, 5}, false)         // CRC mismatch
	f.Add([]byte{4, 7, 5, 3, 5, 4}, true) // a consistent but wrong chain
	f.Fuzz(func(t *testing.T, muts []byte, reseal bool) {
		data := append([]byte(nil), blob...)
		for m := 0; m+3 <= len(muts); m += 3 {
			patchSplit(data, n, int(muts[m])%filled+1, int(muts[m+1])%(n+1), int32(int8(muts[m+2])), reseal)
		}
		pristine := bytes.Equal(data, blob)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		defer cs.drop(path)
		if set := cs.load(key, series, "ptac", pta.Options{}); set != nil {
			checkLadder(t, "lazy", set, series, budgets, cold, pristine)
		} else {
			t.Fatal("load refused a blob whose header is intact")
		}

		snap, err := decodeSnapshot(data, key)
		if err != nil {
			if pristine || reseal {
				t.Fatalf("decode: %v", err)
			}
			return
		}
		set, err := pta.RestoreMatrixSet(series, "ptac", pta.Options{}, snap)
		if err != nil {
			if pristine {
				t.Fatalf("restore of the unmutated blob: %v", err)
			}
			return
		}
		checkLadder(t, "eager", set, series, budgets, cold, pristine)
	})
}

// The header fields FuzzSpillHeader mutates.
const (
	hdrN = iota
	hdrFilled
	hdrHasMax
	hdrBound
	hdrRowErr     // one row error
	hdrResumeCell // one cell of the resume row
	hdrResumeRow  // every cell of the resume row
	hdrStrategy
	hdrClass
	hdrFields
)

// hdrMut encodes one FuzzSpillHeader mutation: the field, an index into the
// row errors or the resume row, and the new value's 64 bits.
func hdrMut(field, at int, v uint64) []byte {
	return binary.LittleEndian.AppendUint64([]byte{byte(field), byte(at)}, v)
}

// FuzzSpillHeader mutates header fields of a valid spill blob — n, filled,
// has-max, SSEmax, row errors, resume cells, strategy and class — with the
// header CRC re-sealed or left as it was, and restores the blob both ways a
// worker does: lazily through cs.load, and through decodeSnapshot and
// RestoreMatrixSet, the path a peer-fetched blob takes. Nothing may panic.
// Either the blob is refused, or every budget of FuzzSpillRows' ladder
// answers with a WarmLostError or with rows that tile the series at a
// finite, non-negative error. An unmutated blob answers as a cold set does.
//
// Each mutation is ten bytes: the field (mod hdrFields), an index into the
// row errors or the resume row, and the new value as eight little-endian
// bytes: float bits, an integer, or an index into a list of names.
func FuzzSpillHeader(f *testing.F) {
	series, err := decodeSeries(projWire())
	if err != nil {
		f.Fatal(err)
	}
	const key = "fuzz-header"
	cs := spillWarm(f, series, key, pta.Size(5), pta.ErrorBound(0.3))
	path := cs.path(key)
	blob, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	base, err := decodeSnapshot(blob, key)
	if err != nil || !base.HasMax {
		f.Fatalf("warm blob: %v, has SSEmax %v", err, err == nil && base.HasMax)
	}
	hl := int(binary.LittleEndian.Uint32(blob[8:]))
	sealed := blob[hl-4 : hl] // the pristine header CRC
	budgets, cold := spillLadder(f, series)
	names := []string{"ptac", "ptae", "dpbasic", "gms", "", "dp", "dp+imax+jmin", "dp+imax+jmin/fill=dc"}
	nan, inf := math.Float64bits(math.NaN()), math.Float64bits(math.Inf(1))
	minus1 := math.Float64bits(-1)

	f.Add([]byte{}, false)
	f.Add(hdrMut(hdrBound, 0, nan), true)
	f.Add(hdrMut(hdrBound, 0, minus1), true)
	f.Add(hdrMut(hdrResumeRow, 0, inf), true)
	f.Add(hdrMut(hdrResumeRow, 0, nan), true)
	f.Add(hdrMut(hdrResumeRow, 0, minus1), true)
	f.Add(hdrMut(hdrRowErr, 4, inf), true)
	f.Add(hdrMut(hdrRowErr, 2, 0), true)
	f.Add(hdrMut(hdrClass, 0, 7), true)
	f.Add(hdrMut(hdrStrategy, 0, 3), true)
	f.Add(hdrMut(hdrN, 0, 8), true)
	f.Add(hdrMut(hdrFilled, 0, 3), true)
	f.Add(hdrMut(hdrHasMax, 0, 0), true)
	f.Add(hdrMut(hdrBound, 0, math.Float64bits(1)), false)
	f.Fuzz(func(t *testing.T, muts []byte, reseal bool) {
		snap := *base
		snap.RowErr = append([]float64(nil), base.RowErr...)
		snap.LastE = append([]float64(nil), base.LastE...)
		var patches [][2]uint64 // (offset from the n field, value) for n and filled
		for m := 0; m+10 <= len(muts); m += 10 {
			at, v := int(muts[m+1]), binary.LittleEndian.Uint64(muts[m+2:])
			switch muts[m] % hdrFields {
			case hdrN:
				patches = append(patches, [2]uint64{0, v})
			case hdrFilled:
				patches = append(patches, [2]uint64{8, v})
			case hdrHasMax:
				snap.HasMax = v&1 == 1
			case hdrBound:
				snap.Bound = math.Float64frombits(v)
			case hdrRowErr:
				snap.RowErr[at%len(snap.RowErr)] = math.Float64frombits(v)
			case hdrResumeCell:
				snap.LastE[at%len(snap.LastE)] = math.Float64frombits(v)
			case hdrResumeRow:
				for i := range snap.LastE {
					snap.LastE[i] = math.Float64frombits(v)
				}
			case hdrStrategy:
				snap.Strategy = names[v%uint64(len(names))]
			case hdrClass:
				snap.Class = names[v%uint64(len(names))]
			}
		}
		data := encodeSnapshot(key, &snap)
		hl := int(binary.LittleEndian.Uint32(data[8:]))
		at := spillPreamble + 4 + len(key) + 4 + len(snap.Strategy) + 4 + len(snap.Class)
		for _, p := range patches {
			binary.LittleEndian.PutUint64(data[at+int(p[0]):], p[1])
		}
		if reseal {
			binary.LittleEndian.PutUint32(data[hl-4:], crc32.ChecksumIEEE(data[:hl-4]))
		} else {
			copy(data[hl-4:hl], sealed)
		}
		pristine := bytes.Equal(data, blob)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		defer cs.drop(path)
		if set := cs.load(key, series, "ptac", pta.Options{}); set != nil {
			checkLadder(t, "lazy", set, series, budgets, cold, pristine)
		} else if pristine {
			t.Fatal("load refused the unmutated blob")
		}

		peer, err := decodeSnapshot(data, key)
		if err != nil {
			if pristine {
				t.Fatalf("decode of the unmutated blob: %v", err)
			}
			return
		}
		set, err := pta.RestoreMatrixSet(series, "ptac", pta.Options{}, peer)
		if err != nil {
			if pristine {
				t.Fatalf("restore of the unmutated blob: %v", err)
			}
			return
		}
		checkLadder(t, "eager", set, series, budgets, cold, pristine)
	})
}
