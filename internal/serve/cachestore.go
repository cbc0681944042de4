package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"weak"

	"repro/pta"
)

// cacheStore is the persistent tier under the in-memory matrix cache: warm
// pta.MatrixSet snapshots spilled to one file per cache key, so a restarted
// worker answers previously-warm series as cache hits without refilling a
// single DP cell. Files are keyed by the full cache key (content
// fingerprint, DP class, weights), hashed into the file name — like the
// in-memory cache, invalidation is by displacement only: a changed series
// fingerprints to a new key and the stale file is simply never read again.
// The same content-addressed blobs travel between workers over GET
// /v1/matrix/{hash} (the peer warm tier); adopt writes a fetched blob,
// once the peer gate (gateBlob) has passed it, into this directory, and
// the worker loads it like any spill file: every set a server restores is
// a lazy one over a spill file.
//
// The on-disk format is versioned and checksummed section by section: an
// eagerly validated header (identity, shapes, row errors), then the resume
// row, the split-point rows and one split path per filled budget, each
// sealed by its own CRC, so load can hand everything past the header to a
// lazy view (slabView) that reads a section only when a walk or a fill
// needs it and checks its CRC in its private copy then, not at load time.
// Header-level mismatches (magic, version, key, shape, CRC, a file of the
// wrong size) are a cold miss: the bad file is removed and the caller
// rebuilds. A file the file system would not open, stat or read (out of
// descriptors, say) is a cold miss too, but stays for the next one.
// Section-level corruption — a CRC mismatch, a short read from a file
// truncated in place, a split point no fill writes or a resume row no fill
// writes — surfaces later as a pta.WarmLostError from the evaluation; the
// serve layer then calls discardCorrupt and retries cold. Writes go
// through a temp file + rename so a crash mid-write never leaves a torn
// file under a live key.
type cacheStore struct {
	dir string

	loads, stores, errors atomic.Int64

	// views tracks the live lazy view per spill path so corrupt-file
	// removal can close its descriptor before unlinking: a set still
	// holding the view then fails cleanly instead of reading rows of a file
	// the store has discarded. It holds each view weakly, so a view no set
	// reaches any more is collected, and its GC cleanups close its
	// descriptor and remove its entry: open descriptors are bounded by the
	// resident sets, not by every key ever reloaded. Superseded views (a
	// deepened re-spill renames a new inode over the path) stay valid over
	// their old inode until then.
	viewsMu sync.Mutex
	views   map[string]weak.Pointer[slabView]
}

// spillMaxBytes bounds one spill file, split rows and split paths
// together; larger snapshots stay memory-only, and peers refuse larger
// blobs.
const spillMaxBytes = 64 << 20

const (
	spillMagic    = "PTAM"
	spillVersion  = uint32(3)
	spillSuffix   = ".ptam"
	spillPreamble = 12 // magic + version + headerLen
)

// spillRowSize is the on-disk footprint of one split row: n+1 little-endian
// uint32 cells plus a CRC32 over them.
func spillRowSize(n int) int { return (n+1)*4 + 4 }

// spillLayout locates the sections of a v3 blob after a header of header
// bytes: the resume row E[filled][0..n] (n+1 float64 cells and a CRC32),
// the split rows 1..filled (spillRowSize each), and the split paths
// 1..filled, path k holding the k split points its backtrack visits (row k
// first) and a CRC32, 4k+4 bytes. The paths add about filled/(2n) of the
// row region's bytes.
type spillLayout struct{ header, n, filled int }

func (l spillLayout) rowOff(k int) int  { return l.header + 8*(l.n+1) + 4 + (k-1)*spillRowSize(l.n) }
func (l spillLayout) pathOff(k int) int { return l.rowOff(l.filled+1) + (k-1)*(2*k+4) }
func (l spillLayout) size() int         { return l.pathOff(l.filled + 1) }

// snapshotLayout is the layout of snap's blob under key.
func snapshotLayout(key string, snap *pta.MatrixSnapshot) spillLayout {
	header := spillPreamble +
		4 + len(key) + 4 + len(snap.Strategy) + 4 + len(snap.Class) +
		8 + 8 + 1 + 8 + // n, filled, hasMax, bound
		8*len(snap.RowErr) +
		4 // header crc
	return spillLayout{header: header, n: snap.N, filled: snap.Filled}
}

// newCacheStore opens (creating if needed) the spill directory.
func newCacheStore(dir string) (*cacheStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("serve: spill dir: %w", err)
	}
	return &cacheStore{dir: dir, views: make(map[string]weak.Pointer[slabView])}, nil
}

// spillHash maps a cache key to its content address: the hex of the first
// 16 sha256 bytes. It names the spill file and the /v1/matrix/{hash} peer
// resource. The key embeds a sha256 content fingerprint already; hashing
// the whole key keeps names short and filesystem-safe regardless of weight
// vectors.
func spillHash(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:16])
}

// path maps a cache key to its spill file.
func (cs *cacheStore) path(key string) string { return cs.pathForHash(spillHash(key)) }

func (cs *cacheStore) pathForHash(hash string) string {
	return filepath.Join(cs.dir, hash+spillSuffix)
}

// store spills one warm set's snapshot, reporting whether a file was
// written. Failures only count errors — the in-memory entry stays valid.
func (cs *cacheStore) store(key string, set *pta.MatrixSet) bool {
	snap, err := set.Snapshot()
	if err != nil {
		cs.errors.Add(1)
		return false
	}
	if snap.Filled == 0 || snapshotLayout(key, snap).size() > spillMaxBytes {
		return false
	}
	return cs.writeFile(key, func(w io.Writer) error { return writeSnapshot(w, key, snap) })
}

// adopt writes a peer-fetched blob that passed the peer gate to the local
// spill file, where load restores it and where it survives this worker's
// own restarts too.
func (cs *cacheStore) adopt(key string, data []byte) bool {
	if len(data) > spillMaxBytes {
		return false
	}
	return cs.writeFile(key, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
}

// writeFile writes key's blob into a temp file and renames it over the
// spill file.
func (cs *cacheStore) writeFile(key string, write func(io.Writer) error) bool {
	tmp, err := os.CreateTemp(cs.dir, "spill-*")
	if err != nil {
		cs.errors.Add(1)
		return false
	}
	werr := write(tmp)
	cerr := tmp.Close()
	if werr != nil || cerr != nil || os.Rename(tmp.Name(), cs.path(key)) != nil {
		os.Remove(tmp.Name())
		cs.errors.Add(1)
		return false
	}
	cs.stores.Add(1)
	return true
}

// load restores a warm set for key over the series, or nil on any miss: no
// file, a file the file system would not open, stat or read, or a file
// whose header fails validation (corrupt, stale version, shape mismatch).
// The restored set is lazy: the resume row, split rows and split paths stay
// in the file behind a slabView, and a budget within the spilled rows reads
// only its path, one ReadAt of 4k+4 bytes. Files whose bytes fail
// validation are removed so the next miss goes straight to a cold build
// instead of re-parsing garbage; a file-system error condemns nothing.
// Section-level corruption is detected when read and handled by
// discardCorrupt.
func (cs *cacheStore) load(key string, series *pta.Series, strategy string, opts pta.Options) *pta.MatrixSet {
	path := cs.path(key)
	snap, view, err := openSpillFile(path, key)
	if err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			cs.errors.Add(1)
			if !errors.As(err, new(*fs.PathError)) {
				cs.drop(path)
			}
		}
		return nil
	}
	set, err := pta.RestoreMatrixSetLazy(series, strategy, opts, snap, view)
	if err != nil {
		view.invalidate()
		cs.errors.Add(1)
		cs.drop(path)
		return nil
	}
	cs.track(path, view)
	cs.loads.Add(1)
	return set
}

// track registers view as path's live view, weakly: once no set reaches the
// view, its cleanup removes the entry (unless a later load replaced it).
func (cs *cacheStore) track(path string, view *slabView) {
	wp := weak.Make(view)
	cs.viewsMu.Lock()
	cs.views[path] = wp
	cs.viewsMu.Unlock()
	runtime.AddCleanup(view, func(path string) {
		cs.viewsMu.Lock()
		if cs.views[path] == wp {
			delete(cs.views, path)
		}
		cs.viewsMu.Unlock()
	}, path)
}

// discardCorrupt removes key's spill file after its lazy view failed
// mid-life (row CRC mismatch, a short read after truncation, a bad split
// point): the view is invalidated (its descriptor closed) before the
// unlink and the failure is counted. The caller rebuilds cold.
func (cs *cacheStore) discardCorrupt(key string) {
	cs.errors.Add(1)
	cs.drop(cs.path(key))
}

// drop invalidates any live view over path before removing the file —
// close-before-delete, so a set still holding the old view gets a clean
// error instead of reading rows of a discarded file.
func (cs *cacheStore) drop(path string) {
	cs.viewsMu.Lock()
	if v := cs.views[path].Value(); v != nil {
		v.invalidate()
	}
	delete(cs.views, path)
	cs.viewsMu.Unlock()
	os.Remove(path)
}

// openSpillFile opens one spill file and header-validates it (openView).
// Any error means the file is unusable as a whole; a *fs.PathError in its
// chain means the file system failed, not the file's bytes.
func openSpillFile(path, key string) (*pta.MatrixSnapshot, *slabView, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	var snap *pta.MatrixSnapshot
	var view *slabView
	fi, err := f.Stat()
	if err == nil {
		snap, view, err = openView(f, fi.Size(), key)
	}
	if err != nil {
		f.Close()
	}
	return snap, view, err
}

// openView header-validates a blob of size bytes for key, read through r,
// and returns the eager scalar state (Splits and LastE nil) and a lazy view
// over the rest, which takes r.
func openView(r io.ReaderAt, size int64, key string) (*pta.MatrixSnapshot, *slabView, error) {
	if size < spillPreamble+4 || size > spillMaxBytes {
		return nil, nil, fmt.Errorf("spill: implausible file size %d", size)
	}
	pre := make([]byte, spillPreamble)
	if _, err := r.ReadAt(pre, 0); err != nil {
		return nil, nil, fmt.Errorf("spill: reading preamble: %w", err)
	}
	hl := int64(binary.LittleEndian.Uint32(pre[8:]))
	if hl < spillPreamble+4 || hl > size {
		return nil, nil, fmt.Errorf("spill: implausible header length %d", hl)
	}
	header := make([]byte, hl)
	if _, err := r.ReadAt(header, 0); err != nil {
		return nil, nil, fmt.Errorf("spill: reading header: %w", err)
	}
	snap, err := parseSpillHeader(header, key, size)
	if err != nil {
		return nil, nil, err
	}
	l := spillLayout{header: int(hl), n: snap.N, filled: snap.Filled}
	if want := int64(l.size()); want != size {
		return nil, nil, fmt.Errorf("spill: file size %d, want %d for n=%d filled=%d", size, want, snap.N, snap.Filled)
	}
	return snap, newSlabView(r, l), nil
}

// writeSnapshot streams the versioned binary spill format, v3, to w: an
// eagerly validated header — magic, version, total header length, the full
// cache key (verified on load so a hash-collision file can never serve the
// wrong series), the scalar snapshot fields and the per-row errors in fixed
// little-endian layout, sealed by a CRC32 — followed by the sections of
// spillLayout, each sealed by its own CRC32 so a lazy view can validate
// exactly what it reads: the resume row, one section per split row, and one
// split path per filled budget, written by one row-major sweep over the
// rows (pathSweep). Sections gather in one buffer that goes out spillChunk
// bytes at a time, and the paths are built in it last, so the blob is
// never held in memory whole. The encoding is deterministic: equal
// snapshots produce byte-identical blobs, which is what makes spill files
// content-addressed peer resources.
func writeSnapshot(w io.Writer, key string, snap *pta.MatrixSnapshot) error {
	n, filled, cols := snap.N, snap.Filled, snap.N+1
	l := snapshotLayout(key, snap)
	paths := l.size() - l.pathOff(1)
	b := make([]byte, 0, max(spillChunk+max(l.header, 8*cols+4), paths))
	b = append(b, spillMagic...)
	b = binary.LittleEndian.AppendUint32(b, spillVersion)
	b = binary.LittleEndian.AppendUint32(b, uint32(l.header))
	b = appendSpillString(b, key)
	b = appendSpillString(b, snap.Strategy)
	b = appendSpillString(b, snap.Class)
	b = binary.LittleEndian.AppendUint64(b, uint64(n))
	b = binary.LittleEndian.AppendUint64(b, uint64(filled))
	if snap.HasMax {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	b = binary.LittleEndian.AppendUint64(b, math.Float64bits(snap.Bound))
	for _, v := range snap.RowErr {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	var err error
	if b, err = sealSection(w, b, 0); err != nil {
		return err
	}
	start := len(b)
	for _, v := range snap.LastE {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
	}
	if b, err = sealSection(w, b, start); err != nil {
		return err
	}
	for k := 0; k < filled; k++ {
		start := len(b)
		for _, v := range snap.Splits[k*cols : (k+1)*cols] {
			b = binary.LittleEndian.AppendUint32(b, uint32(v))
		}
		if b, err = sealSection(w, b, start); err != nil {
			return err
		}
	}
	if len(b) > 0 {
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	// The paths, at their offsets from path 1. A snapshot's rows hold split
	// points its fills wrote, so every path steps.
	b, base := b[:paths], l.pathOff(1)
	sweep := newPathSweep(n, filled)
	for r := filled; r >= 1; r-- {
		pts, _ := sweep.step(r, snap.Splits[(r-1)*cols:r*cols])
		at := l.pathOff(r) - base // then path r+t's cell t, past the t paths before it
		for t, j := range pts {
			binary.LittleEndian.PutUint32(b[at:], uint32(j))
			at += 4*(r+t) + 8
		}
	}
	for k := 1; k <= filled; k++ {
		at := l.pathOff(k) - base
		binary.LittleEndian.PutUint32(b[at+4*k:], crc32.ChecksumIEEE(b[at:at+4*k]))
	}
	_, err = w.Write(b)
	return err
}

// spillChunk is the size of the writes writeSnapshot issues before the
// last rows and the paths: fewer, larger, page-aligned writes cost the
// file system less.
const spillChunk = 128 << 10

// sealSection appends the CRC32 of the section b[start:] and, once b holds
// spillChunk bytes, writes them out and keeps the rest.
func sealSection(w io.Writer, b []byte, start int) ([]byte, error) {
	b = binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b[start:]))
	if len(b) < spillChunk {
		return b, nil
	}
	if _, err := w.Write(b[:spillChunk]); err != nil {
		return nil, err
	}
	return b[:copy(b, b[spillChunk:])], nil
}

// pathSweep walks the backtrack of every budget k = 1..filled at once, one
// split row at a time from row filled down to row 1: a row-major sweep
// that visits each row once and touches only the cells some path stands
// on, where walking each path on its own would land every step in another
// row. Its cells are the column each path stands on, by k.
type pathSweep []int32

func newPathSweep(n, filled int) pathSweep {
	at := make(pathSweep, filled+1)
	for k := range at {
		at[k] = int32(n)
	}
	return at
}

// step moves every path k ≥ r through row r, J[r][0..n], to the split
// point at the column it stands on, and returns the new columns by k − r:
// pts[t] is path r+t's t-th split point. ok is false at a split point
// outside 0..n, which no fill writes; the sweep is then unusable.
func (at pathSweep) step(r int, row []int32) (pts []int32, ok bool) {
	n := uint32(len(row) - 1)
	for k := r; k < len(at); k++ {
		j := row[at[k]]
		if uint32(j) > n {
			return nil, false
		}
		at[k] = j
	}
	return at[r:], true
}

func appendSpillString(b []byte, s string) []byte {
	b = binary.LittleEndian.AppendUint32(b, uint32(len(s)))
	return append(b, s...)
}

// parseSpillHeader validates one header section (header[0:headerLen]) of a
// blob of size bytes for key and returns the snapshot with Splits and LastE
// nil. It guards framing: magic, version, key equality, declared lengths
// against the actual payload, and the header CRC; the sections after it
// are validated by slabView as it reads them, all of them at once by the
// peer gate (gateBlob).
func parseSpillHeader(header []byte, key string, size int64) (*pta.MatrixSnapshot, error) {
	if len(header) < spillPreamble+4 {
		return nil, fmt.Errorf("spill: short header (%d bytes)", len(header))
	}
	crcAt := len(header) - 4
	if got, want := crc32.ChecksumIEEE(header[:crcAt]), binary.LittleEndian.Uint32(header[crcAt:]); got != want {
		return nil, fmt.Errorf("spill: header CRC mismatch")
	}
	d := spillReader{data: header[:crcAt]}
	if string(d.bytes(4)) != spillMagic {
		return nil, fmt.Errorf("spill: bad magic")
	}
	if v := d.u32(); v != spillVersion {
		return nil, fmt.Errorf("spill: version %d, want %d", v, spillVersion)
	}
	if hl := d.u32(); int(hl) != len(header) {
		return nil, fmt.Errorf("spill: header length %d, have %d bytes", hl, len(header))
	}
	if k := d.str(); k != key {
		return nil, fmt.Errorf("spill: key mismatch")
	}
	snap := &pta.MatrixSnapshot{Strategy: d.str(), Class: d.str()}
	n := d.u64()
	filled := d.u64()
	hasMax := d.bytes(1)
	bound := d.u64()
	// Bound the declared shape by the blob before allocating or sizing its
	// layout: the resume row alone takes 8(n+1) bytes, and the split rows
	// filled·spillRowSize(n).
	if d.err != nil || filled > n || n >= uint64(size)/8 || filled > uint64(size)/(4*n+8) {
		return nil, fmt.Errorf("spill: implausible shape n=%d filled=%d", n, filled)
	}
	snap.N, snap.Filled = int(n), int(filled)
	snap.HasMax = len(hasMax) == 1 && hasMax[0] == 1
	snap.Bound = math.Float64frombits(bound)
	snap.RowErr = d.f64s(snap.Filled)
	if d.err != nil {
		return nil, d.err
	}
	if len(d.data) != d.off {
		return nil, fmt.Errorf("spill: %d trailing header bytes", len(d.data)-d.off)
	}
	return snap, nil
}

// errSpillPath marks a blob whose CRC-valid split paths do not follow its
// split rows: a loaded set answers a budget within the spilled rows from
// its path, which would then differ from the walk over its rows, so the
// peer gate refuses the blob.
var errSpillPath = errors.New("spill: split path does not follow its rows")

// gateBlob is the peer gate: it checks a fetched blob for key as a whole
// before the worker adopts it into its spill directory — the header
// (openView), every section's CRC, and every split path against the walk
// of its rows (errSpillPath) — through the view's own readers, in one
// pass that decodes a row at a time. A blob that passes answers a budget
// the same from its path, once adopted and loaded, as from its rows.
func gateBlob(data []byte, key string) error {
	snap, v, err := openView(bytes.NewReader(data), int64(len(data)), key)
	if err != nil {
		return err
	}
	if _, err := v.ResumeRow(); err != nil {
		return err
	}
	paths := make([][]int32, snap.Filled+1)
	for k := 1; k <= snap.Filled; k++ {
		if paths[k], err = v.SplitPath(k); err != nil {
			return err
		}
	}
	sweep := newPathSweep(snap.N, snap.Filled)
	for r := snap.Filled; r >= 1; r-- {
		row, err := v.SplitRow(r)
		if err != nil {
			return err
		}
		pts, ok := sweep.step(r, row)
		if !ok {
			return fmt.Errorf("%w: row %d leaves 0..%d", errSpillPath, r, snap.N)
		}
		for t, j := range pts {
			if paths[r+t][t] != j {
				return fmt.Errorf("%w: path %d", errSpillPath, r+t)
			}
		}
	}
	return nil
}

// sealed splits a section into its body and reports whether the CRC32 in
// its last four bytes matches the body.
func sealed(sec []byte) ([]byte, bool) {
	body := sec[:len(sec)-4]
	return body, crc32.ChecksumIEEE(body) == binary.LittleEndian.Uint32(sec[len(body):])
}

// spillReader walks the decode cursor, latching the first framing error.
type spillReader struct {
	data []byte
	off  int
	err  error
}

func (d *spillReader) bytes(n int) []byte {
	if d.err != nil || d.off+n > len(d.data) {
		if d.err == nil {
			d.err = fmt.Errorf("spill: truncated at byte %d", d.off)
		}
		return nil
	}
	b := d.data[d.off : d.off+n]
	d.off += n
	return b
}

func (d *spillReader) u32() uint32 {
	b := d.bytes(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *spillReader) u64() uint64 {
	b := d.bytes(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *spillReader) str() string {
	n := d.u32()
	if d.err != nil || uint64(n) > uint64(len(d.data)) {
		if d.err == nil {
			d.err = fmt.Errorf("spill: implausible string length %d", n)
		}
		return ""
	}
	return string(d.bytes(int(n)))
}

func (d *spillReader) f64s(n int) []float64 {
	b := d.bytes(8 * n)
	if b == nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}
