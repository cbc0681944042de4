package serve

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/temporal"
	"repro/pta"
)

// spillWarm answers every budget on a fresh set over series (deepening it
// to the deepest), spills it under key into a store over a fresh directory,
// and returns the store.
func spillWarm(tb testing.TB, series *pta.Series, key string, budgets ...pta.Budget) *cacheStore {
	tb.Helper()
	cs, err := newCacheStore(tb.TempDir())
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

// blobLayout reads the section layout of a spill blob over n+1 columns
// with filled rows.
func blobLayout(blob []byte, n, filled int) spillLayout {
	return spillLayout{header: int(binary.LittleEndian.Uint32(blob[8:])), n: n, filled: filled}
}

// patchSection sets the 32-bit word at cell of the section sec (its body
// and CRC) to v and, with reseal, recomputes the section's CRC so only the
// checks on the cell's value can object. The CRC itself is cell len(sec)/4−1.
func patchSection(sec []byte, cell int, v uint32, reseal bool) {
	binary.LittleEndian.PutUint32(sec[4*cell:], v)
	if reseal {
		binary.LittleEndian.PutUint32(sec[len(sec)-4:], crc32.ChecksumIEEE(sec[:len(sec)-4]))
	}
}

// patchSplit sets J[k][i] = j in a spill blob over n+1 columns and, with
// reseal, recomputes that row's CRC so only the cell checks can object.
func patchSplit(blob []byte, n, k, i int, j int32, reseal bool) {
	l := blobLayout(blob, n, 0)
	patchSection(blob[l.rowOff(k):l.rowOff(k+1)], i, uint32(j), reseal)
}

// patchPath sets the t-th split point of budget k's path (row k−t) to j in
// a spill blob over n+1 columns with filled rows, resealing as patchSplit
// does.
func patchPath(blob []byte, n, filled, k, t int, j int32, reseal bool) {
	l := blobLayout(blob, n, filled)
	patchSection(blob[l.pathOff(k):l.pathOff(k+1)], t, uint32(j), reseal)
}

// readCounts returns a view's row-read counters.
func readCounts(v *slabView) (reads, bytes int64) {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.reads, v.readBytes
}

// TestSpillSplitPastColumnIsWarmLost: a CRC-valid split point inside 0..n
// but at its own column (the proj example spilled at c = 4 with J[4][7] = 7
// re-sealed, in row 4 and in the first cell of budget 4's path) is a
// WarmLostError from the lazily restored set, not a panic in the backtrack.
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
	patchPath(data, 7, 4, 4, 0, 7, true)
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
	patchPath(data, 7, 4, 4, 0, 7, true)
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
	if e := statNum(t, stats, "ptaserve_spill_errors_total"); e < 1 {
		t.Errorf("spill errors = %v, want >= 1", e)
	}
}

// TestSpillRestoreReadGuard is the deterministic guard on the reload path,
// counted in reads and bytes rather than wall time: answering any c within
// the spilled rows issues one read of that budget's split path, 4c+4 bytes,
// and leaves no row resident; a budget past them reads the resume row and
// every spilled row once, one read each, after which a budget within them
// walks the resident rows and reads nothing. MemBytes counts resident rows
// only, and a load plus its answer allocates the path plus O(n) scalar
// state.
func TestSpillRestoreReadGuard(t *testing.T) {
	const n = 1024
	const c = n / 10
	const filled = 2 * c
	series, err := dataset.Mixed(1, n, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	const key = "read-guard"
	cs := spillWarm(t, series, key, pta.Size(filled))
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

	// The slack is O(n) state besides the path: the kernel's prefix sums,
	// the spill header and the row errors parsed from it, the solver's
	// error rows and the answer. 11 words per column covers it (about 9.3
	// are used). Reading rows 1..c instead of the path would add 418 608
	// bytes here, against a bound of 90 KB, and reading and parsing the
	// resume row at every load 2 words per column.
	t.Logf("load + answer c=%d allocated %d bytes (%.1f words per column)", c, alloc, float64(alloc)/float64(8*(n+1)))
	if bound := int64(11 * 8 * (n + 1)); alloc > bound {
		t.Errorf("load + answer c=%d allocated %d bytes, want at most %d (11 words per column)", c, alloc, bound)
	}
	view := cs.views[cs.path(key)].Value()
	wantReads, wantBytes := int64(1), int64(4*c+4)
	check := func(what string, resident int) {
		t.Helper()
		if reads, bytes := readCounts(view); reads != wantReads || bytes != wantBytes {
			t.Errorf("%s: %d reads of %d bytes in all, want %d reads of %d bytes", what, reads, bytes, wantReads, wantBytes)
		}
		if got, want := set.MemBytes(), scalar+int64(resident)*4*(n+1); got != want {
			t.Errorf("%s: MemBytes = %d, want %d (%d resident rows)", what, got, want, resident)
		}
	}
	check(fmt.Sprintf("answering c=%d", c), 0)
	for _, k := range []int{c, c / 2, filled} {
		if _, err := set.Compress(ctx, pta.Size(k)); err != nil {
			t.Fatal(err)
		}
		wantReads++
		wantBytes += int64(4*k + 4)
		check(fmt.Sprintf("then c=%d", k), 0)
	}

	// Past the spilled rows: the fill reads the resume row, and the walk
	// reads rows 1..filled, one read each.
	const deep = filled + 8
	res, err := set.Compress(ctx, pta.Size(deep))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Cells == 0 {
		t.Fatalf("c=%d past %d spilled rows filled no cells", deep, filled)
	}
	wantReads += 1 + filled
	wantBytes += int64(8*(n+1)+4) + filled*rowSize
	check(fmt.Sprintf("then c=%d", deep), deep)
	for _, k := range []int{c, filled} {
		if _, err := set.Compress(ctx, pta.Size(k)); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("then c=%d over resident rows", k), deep)
	}
}

// noPaths is a spill view without its path capability: a set restored
// over it answers every budget by walking split rows.
type noPaths struct{ v *slabView }

func (p noPaths) SplitRow(k int) ([]int32, error) { return p.v.SplitRow(k) }
func (p noPaths) ResumeRow() ([]float64, error)   { return p.v.ResumeRow() }

// memRows is a SplitRow-only source over a snapshot's rows in memory.
type memRows struct{ snap *pta.MatrixSnapshot }

func (m memRows) SplitRow(k int) ([]int32, error) {
	cols := m.snap.N + 1
	return slices.Clone(m.snap.Splits[(k-1)*cols : k*cols]), nil
}

// answerBytes is an answer's wire form without its fill stats, or the
// error it failed with.
func answerBytes(res *pta.Result, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	w := encodeResult(res, "")
	w.Stats = statsWire{}
	b, err := json.Marshal(w)
	if err != nil {
		return "marshal: " + err.Error()
	}
	return string(b)
}

// TestSpillPathsMatchRows: on Mixed, Counter, gapped and grouped series,
// every size budget within the spilled rows answers from its split path —
// one read of 4k+4 bytes, no row made resident — byte-identically to the
// same blob's rows, walked from the view and from memory, and to a cold
// set. It holds for a spill file the store wrote and for a peer blob
// adopted past the peer gate.
func TestSpillPathsMatchRows(t *testing.T) {
	gen := func(s *pta.Series, err error) *pta.Series {
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	gapped := gen(dataset.Counter(1, 240, 2, 5))
	for i := range gapped.Rows {
		// Gaps of three chronons open after the 80th and the 170th row.
		var shift temporal.Chronon
		if i >= 80 {
			shift += 3
		}
		if i >= 170 {
			shift += 3
		}
		gapped.Rows[i].T.Start += shift
		gapped.Rows[i].T.End += shift
	}
	series := map[string]*pta.Series{
		"mixed":   gen(dataset.Mixed(1, 240, 2, 3)),
		"counter": gen(dataset.Counter(1, 240, 1, 4)),
		"gapped":  gapped,
		"grouped": gen(dataset.Mixed(4, 60, 2, 6)),
	}
	ctx := context.Background()
	for name, s := range series {
		t.Run(name, func(t *testing.T) {
			const key = "paths"
			const filled = 48
			cs := spillWarm(t, s, key, pta.Size(filled))
			blob, err := os.ReadFile(cs.path(key))
			if err != nil {
				t.Fatal(err)
			}
			if err := gateBlob(blob, key); err != nil {
				t.Fatalf("peer gate: %v", err)
			}
			snap := blobSnapshot(t, blob, key, s)
			inMemory, err := pta.RestoreMatrixSetLazy(s, "ptac", pta.Options{}, snap, memRows{snap})
			if err != nil {
				t.Fatal(err)
			}
			peer, err := newCacheStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if !peer.adopt(key, blob) {
				t.Fatal("adopt refused the blob")
			}
			type arm struct {
				name string
				set  *pta.MatrixSet
				view *slabView // nil: answers from rows
			}
			var arms []arm
			for _, st := range []*cacheStore{cs, peer} {
				where := map[*cacheStore]string{cs: "spill", peer: "peer"}[st]
				set := st.load(key, s, "ptac", pta.Options{})
				if set == nil {
					t.Fatalf("%s: load failed", where)
				}
				view := st.views[st.path(key)].Value()
				hollow := *snap
				hollow.Splits, hollow.LastE = nil, nil
				rows, err := pta.RestoreMatrixSetLazy(s, "ptac", pta.Options{}, &hollow, noPaths{view})
				if err != nil {
					t.Fatal(err)
				}
				arms = append(arms, arm{where + " path", set, view}, arm{where + " rows", rows, nil})
			}
			arms = append(arms, arm{"memory rows", inMemory, nil})
			for k := 1; k <= filled; k++ {
				cold, err := pta.NewMatrixSet(s, "ptac", pta.Options{})
				if err != nil {
					t.Fatal(err)
				}
				want := answerBytes(cold.Compress(ctx, pta.Size(k)))
				for _, a := range arms {
					var reads, bytes int64
					if a.view != nil {
						reads, bytes = readCounts(a.view)
					}
					if got := answerBytes(a.set.Compress(ctx, pta.Size(k))); got != want {
						t.Fatalf("c=%d from %s:\n%s\nwant the cold answer\n%s", k, a.name, got, want)
					}
					if a.view == nil || strings.HasPrefix(want, "error: ") {
						continue // below the runs' count no walk runs
					}
					r, b := readCounts(a.view)
					if r-reads != 1 || b-bytes != int64(4*k+4) || a.set.MemBytes() != int64(3*8*(s.Len()+1)) {
						t.Fatalf("c=%d from %s: %d reads of %d bytes, MemBytes %d: want its path alone", k, a.name, r-reads, b-bytes, a.set.MemBytes())
					}
				}
			}
		})
	}
}

// TestSlabReadsRaceInvalidate: reads of one view racing its invalidation
// (a discardCorrupt while another set still reads) each return verified
// rows or a clean error, and every read after the close fails. The set
// stays reachable throughout, so the view its store holds weakly does
// too. Run under -race.
func TestSlabReadsRaceInvalidate(t *testing.T) {
	series, err := decodeSeries(bigWire(4, 300))
	if err != nil {
		t.Fatal(err)
	}
	const key = "race"
	cs := spillWarm(t, series, key, pta.Size(30))
	set := cs.load(key, series, "ptac", pta.Options{})
	if set == nil {
		t.Fatal("load failed on an intact file")
	}
	view := cs.views[cs.path(key)].Value()
	const readers = 4
	var wg sync.WaitGroup
	wg.Add(readers)
	for g := 0; g < readers; g++ {
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 50; r++ {
				k := 1 + (g+r)%30
				if row, err := view.SplitRow(k); err == nil && len(row) != series.Len()+1 {
					t.Errorf("read of row %d returned %d cells", k, len(row))
				}
			}
		}(g)
	}
	view.invalidate()
	wg.Wait()
	if _, err := view.SplitRow(1); err == nil {
		t.Error("read after invalidate succeeded")
	}
	runtime.KeepAlive(set)
}

// BenchmarkSpillRestore times what a spill reload costs a request: open and
// header-parse the file, restore lazily, answer one budget. The set is
// spilled at n = 2048 after answering the first three budgets, so none of
// them fills a cell and each reads its split path alone; readB/op is the
// bytes each answer read. The deep arm answers c = n/5 past the 204
// spilled rows: it fills rows 205..409 from the resume row and walks rows
// 1..204, read one at a time.
func BenchmarkSpillRestore(b *testing.B) {
	const n = 2048
	series, err := dataset.Mixed(1, n, 1, 3)
	if err != nil {
		b.Fatal(err)
	}
	budgets := []struct {
		name  string
		b     pta.Budget
		fills bool
	}{
		{"c=n/10", pta.Size(n / 10), false},
		{"eps=0.01", pta.ErrorBound(0.01), false},
		{"eps=0.001", pta.ErrorBound(0.001), false},
		{"deep/c=n/5", pta.Size(n / 5), true},
	}
	const key = "bench"
	var warm []pta.Budget
	for _, bc := range budgets {
		if !bc.fills {
			warm = append(warm, bc.b)
		}
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
				if filled := res.Stats.Cells != 0; filled != bc.fills {
					b.Fatalf("a reload filled %d cells", res.Stats.Cells)
				}
				_, bytes := readCounts(cs.views[cs.path(key)].Value())
				readBytes += bytes
				runtime.KeepAlive(set) // the store holds the view weakly
			}
			b.ReportMetric(float64(readBytes)/float64(b.N), "readB/op")
		})
	}
}

// BenchmarkSpillStore times one spill store of a set warm at n = 2048,
// c = 204: the snapshot, the encoding (every split row and, in one sweep
// over them, every budget's split path) and the file write. fileB is the
// blob's size.
func BenchmarkSpillStore(b *testing.B) {
	const n = 2048
	series, err := dataset.Mixed(1, n, 1, 3)
	if err != nil {
		b.Fatal(err)
	}
	cs, err := newCacheStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	set, err := pta.NewMatrixSet(series, "ptac", pta.Options{})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := set.Compress(context.Background(), pta.Size(n/10)); err != nil {
		b.Fatal(err)
	}
	const key = "bench-store"
	b.ReportAllocs()
	for b.Loop() {
		if !cs.store(key, set) {
			b.Fatal("store refused the warm set")
		}
	}
	fi, err := os.Stat(cs.path(key))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(fi.Size()), "fileB")
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

// FuzzSpillRows mutates split cells of a valid spill blob — in its split
// rows and in its split paths, CRCs included — re-sealing the sections or
// not, and answers a ladder of budgets from it both ways a worker gets
// one: from its own spill file, and as a peer blob that passed the peer
// gate and was adopted into a spill directory; either way the set loads
// lazily (paths for budgets within the spilled rows, rows past them).
// Nothing may panic, and every answer is a WarmLostError or rows that tile
// the series at a finite, non-negative error (checkLadder). A CRC is not
// authentication, so a re-sealed mutation may change an answer; the gate
// refuses a re-sealed blob only when a path no longer follows its rows
// (errSpillPath), and an unmutated blob must answer exactly like a cold
// set.
//
// Each mutation is three bytes: the target, the cell and the new value as a
// signed byte. A target below 0x80 is a row (mod the rows spilled) and the
// cell a column (mod n+1); from 0x80 up it is budget k's path (the low
// seven bits mod the rows spilled) and the cell a point of it (mod k+1,
// where k is the path's CRC).
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
	peer, err := newCacheStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}

	f.Add([]byte{}, false)
	f.Add([]byte{3, 7, 7}, true)          // J[4][7] = 7: at its own column
	f.Add([]byte{3, 7, 0}, true)          // zero on the walk
	f.Add([]byte{3, 7, 2}, true)          // below k-1
	f.Add([]byte{0, 5, 2}, true)          // nonzero in row 1
	f.Add([]byte{3, 7, 5}, false)         // CRC mismatch
	f.Add([]byte{4, 7, 5, 3, 5, 4}, true) // a consistent but wrong chain
	f.Add([]byte{0x83, 0, 7}, true)       // path 4 starts at its own column
	f.Add([]byte{0x84, 1, 2}, true)       // path 5 leaves its rows' walk
	f.Add([]byte{0x83, 4, 5}, false)      // path 4's CRC overwritten
	// The wrong chain in row and path alike.
	f.Add([]byte{4, 7, 5, 3, 5, 4, 0x84, 0, 5, 0x84, 1, 4}, true)
	f.Fuzz(func(t *testing.T, muts []byte, reseal bool) {
		data := append([]byte(nil), blob...)
		for m := 0; m+3 <= len(muts); m += 3 {
			v := int32(int8(muts[m+2]))
			if target := int(muts[m]); target < 0x80 {
				patchSplit(data, n, target%filled+1, int(muts[m+1])%(n+1), v, reseal)
			} else {
				k := (target&0x7f)%filled + 1
				patchPath(data, n, filled, k, int(muts[m+1])%(k+1), v, reseal)
			}
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

		if err := gateBlob(data, key); err != nil {
			if pristine || reseal && !errors.Is(err, errSpillPath) {
				t.Fatalf("gate: %v", err)
			}
			return
		}
		if !peer.adopt(key, data) {
			t.Fatal("adopt refused a gated blob")
		}
		defer peer.drop(peer.path(key))
		if set := peer.load(key, series, "ptac", pta.Options{}); set != nil {
			checkLadder(t, "peer", set, series, budgets, cold, pristine)
		} else {
			t.Fatal("load refused a gated blob whose header is intact")
		}
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

// FuzzSpillHeader mutates the scalar fields of a valid spill blob — n,
// filled, has-max, SSEmax, row errors and strategy and class in the header,
// and cells of the resume row in its own section — with the header and
// resume-row CRCs re-sealed or left as they were, and restores the blob both
// ways a worker does: through cs.load, and as a peer-fetched blob through
// the peer gate, adopted and loaded. Nothing may panic. Either the blob is refused, or every budget of FuzzSpillRows'
// ladder answers with a WarmLostError or with rows that tile the series at
// a finite, non-negative error. A lazy set reads and checks the resume row
// only when a budget fills past the spilled rows. An unmutated blob answers
// as a cold set does.
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
	base := blobSnapshot(f, blob, key, series)
	if !base.HasMax {
		f.Fatal("warm blob has no SSEmax")
	}
	hl := int(binary.LittleEndian.Uint32(blob[8:]))
	sealed := blob[hl-4 : hl]     // the pristine header CRC
	resumeCRC := 8 * (base.N + 1) // the resume row's CRC, from the end of the header
	sealedResume := blob[hl+resumeCRC : hl+resumeCRC+4]
	budgets, cold := spillLadder(f, series)
	peer, err := newCacheStore(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
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
			copy(data[hl+resumeCRC:], sealedResume)
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

		if err := gateBlob(data, key); err != nil {
			if pristine {
				t.Fatalf("gate on the unmutated blob: %v", err)
			}
			return
		}
		if !peer.adopt(key, data) {
			t.Fatal("adopt refused a gated blob")
		}
		defer peer.drop(peer.path(key))
		if set := peer.load(key, series, "ptac", pta.Options{}); set != nil {
			checkLadder(t, "peer", set, series, budgets, cold, pristine)
		} else if pristine {
			t.Fatal("load refused the unmutated blob")
		}
	})
}
