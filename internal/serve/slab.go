package serve

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"runtime"
	"sync"
)

// slabView is the lazy row source behind a spill-restored MatrixSet. It
// keeps the spill file's descriptor and reads rows only when a backtrack
// needs them: SplitRows (core.SplitRangeSource) reads every row the walk
// has not read yet with one ReadAt into one fresh buffer, checks each row's
// CRC in that private copy and hands the verified raw bytes to the solver,
// which keeps them and decodes only the one cell per row its walk visits.
// SplitRow reads and decodes a single row, for snapshots. The solver
// retains every row it gets, so each row is read at most once per restored
// set.
//
// Lifecycle: the descriptor pins the inode, so a deepened re-spill that
// renames a new file over the path leaves this view reading the old (still
// correct) rows, and the GC cleanup closes the descriptor once the set is
// collected. invalidate is the explicit early exit used by close-before-
// delete: after it every read fails cleanly, so a set still holding the
// view never serves rows of a file the store has discarded. A file
// truncated in place gives a short read, and bytes rewritten in place fail
// their row's CRC; the solver reports both as a WarmLostError.
type slabView struct {
	mu      sync.Mutex
	f       *os.File // nil once invalidated
	clean   runtime.Cleanup
	rowsOff int
	n       int
	filled  int

	// reads and readBytes count the row-region ReadAt calls and the bytes
	// they asked for: the deterministic measure of what a restore costs.
	reads, readBytes int64
}

// newSlabView wraps an open, header-validated spill file whose rows start
// at byte rowsOff. It takes ownership of f and closes it on invalidate or
// when the view is collected.
func newSlabView(f *os.File, rowsOff, n, filled int) *slabView {
	v := &slabView{f: f, rowsOff: rowsOff, n: n, filled: filled}
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
	if err := v.readAt(buf, v.rowsOff+(lo-1)*rowSize); err != nil {
		return nil, fmt.Errorf("spill: reading rows %d..%d: %w", lo, hi, err)
	}
	rows := make([][]byte, hi-lo+1)
	for r := range rows {
		row := buf[r*rowSize : (r+1)*rowSize]
		body := row[:rowSize-4]
		if crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(row[rowSize-4:]) {
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
