package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"sync"
)

// slabView is the lazy source behind a spill-restored MatrixSet. It keeps
// the spill file's descriptor and reads a section only when the solver
// needs it, each with one ReadAt into a fresh buffer whose CRC it checks in
// that private copy. SplitPath (core.SplitPathSource) reads the k split
// points one budget's backtrack visits: what a walk within the spilled rows
// reads, 4k+4 bytes. SplitRows (core.SplitRangeSource) reads every row a
// walk past the spilled rows has not read yet and hands the verified raw
// bytes to the solver, which keeps them and decodes only the one cell per
// row its walk visits; SplitRow reads and decodes a single row, for
// snapshots. ResumeRow (core.ResumeRowSource) reads the resume row for the
// first fill past the spilled rows. The solver retains every row and the
// resume row it gets, so each is read at most once per restored set; it
// keeps no path.
//
// Lifecycle: the descriptor pins the inode, so a deepened re-spill that
// renames a new file over the path leaves this view reading the old (still
// correct) sections, and the GC cleanup closes the descriptor once the set
// is collected. invalidate is the explicit early exit used by close-before-
// delete: after it every read fails cleanly, so a set still holding the
// view never serves sections of a file the store has discarded. A file
// truncated in place gives a short read, and bytes rewritten in place fail
// their section's CRC; the solver reports both as a WarmLostError.
type slabView struct {
	mu    sync.Mutex
	f     *os.File // nil once invalidated
	clean runtime.Cleanup
	spillLayout

	// reads and readBytes count the ReadAt calls past the header and the
	// bytes they asked for: the deterministic measure of what a restore
	// costs.
	reads, readBytes int64
}

// newSlabView wraps an open, header-validated spill file laid out as l. It
// takes ownership of f and closes it on invalidate or when the view is
// collected.
func newSlabView(f *os.File, l spillLayout) *slabView {
	v := &slabView{f: f, spillLayout: l}
	v.clean = runtime.AddCleanup(v, func(f *os.File) { f.Close() }, f)
	return v
}

// SplitRows implements core.SplitRangeSource: rows lo..hi in one ReadAt,
// each returned as its CRC-verified cells (the row minus its CRC trailer),
// sliced from one buffer nobody else holds.
func (v *slabView) SplitRows(lo, hi int) ([][]byte, error) {
	if lo < 1 || hi > v.filled || lo > hi {
		return nil, fmt.Errorf("spill: rows %d..%d outside 1..%d", lo, hi, v.filled)
	}
	rowSize := spillRowSize(v.n)
	buf := make([]byte, (hi-lo+1)*rowSize)
	if err := v.readAt(buf, v.rowOff(lo)); err != nil {
		return nil, fmt.Errorf("spill: reading rows %d..%d: %w", lo, hi, err)
	}
	rows := make([][]byte, hi-lo+1)
	for r := range rows {
		body, ok := sealed(buf[r*rowSize : (r+1)*rowSize])
		if !ok {
			return nil, fmt.Errorf("spill: row %d CRC mismatch", lo+r)
		}
		rows[r] = body
	}
	return rows, nil
}

// SplitRow implements pta.SplitRowSource: one row, read and decoded.
func (v *slabView) SplitRow(k int) ([]int32, error) {
	rows, err := v.SplitRows(k, k)
	if err != nil {
		return nil, err
	}
	row := make([]int32, v.n+1)
	for i := range row {
		row[i] = int32(binary.LittleEndian.Uint32(rows[0][4*i:]))
	}
	return row, nil
}

// SplitPath implements core.SplitPathSource: budget k's split path in one
// ReadAt of 4k+4 bytes, CRC-checked and decoded.
func (v *slabView) SplitPath(k int) ([]int32, error) {
	if k < 1 || k > v.filled {
		return nil, fmt.Errorf("spill: path %d outside 1..%d", k, v.filled)
	}
	body, err := v.section(v.pathOff(k), 4*k)
	if err != nil {
		return nil, fmt.Errorf("spill: path %d: %w", k, err)
	}
	path := make([]int32, k)
	for t := range path {
		path[t] = int32(binary.LittleEndian.Uint32(body[4*t:]))
	}
	return path, nil
}

// ResumeRow implements core.ResumeRowSource: E[filled][0..n] in one ReadAt,
// CRC-checked and decoded. The solver checks the values.
func (v *slabView) ResumeRow() ([]float64, error) {
	body, err := v.section(v.header, 8*(v.n+1))
	if err != nil {
		return nil, fmt.Errorf("spill: resume row: %w", err)
	}
	row := make([]float64, v.n+1)
	for i := range row {
		row[i] = math.Float64frombits(binary.LittleEndian.Uint64(body[8*i:]))
	}
	return row, nil
}

// section reads the size-byte body at off and the CRC32 after it with one
// ReadAt into a fresh buffer, and returns the body once the CRC matches.
func (v *slabView) section(off, size int) ([]byte, error) {
	buf := make([]byte, size+4)
	if err := v.readAt(buf, off); err != nil {
		return nil, err
	}
	body, ok := sealed(buf)
	if !ok {
		return nil, errors.New("CRC mismatch")
	}
	return body, nil
}

// readAt fills buf from the file at off, under the view mutex so it never
// races invalidate's close.
func (v *slabView) readAt(buf []byte, off int) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.f == nil {
		return fmt.Errorf("view closed (file removed)")
	}
	v.reads++
	v.readBytes += int64(len(buf))
	_, err := v.f.ReadAt(buf, int64(off))
	return err
}

// invalidate closes the view now: stop the GC cleanup, close the
// descriptor, and fail every later read. Idempotent.
func (v *slabView) invalidate() {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.f == nil {
		return
	}
	v.clean.Stop()
	v.f.Close()
	v.f = nil
}
