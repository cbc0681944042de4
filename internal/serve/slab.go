package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
)

// slabView is the lazy source behind every MatrixSet the server restores.
// It reads a spill blob through an io.ReaderAt — the spill file's
// descriptor, or a fetched peer blob in memory while the peer gate checks
// it — and reads a section only when the solver needs it, each with one
// ReadAt into a fresh buffer whose CRC it checks in that private copy.
// SplitPath (core.SplitPathSource) reads the k split points one budget's
// backtrack visits: what a walk within the spilled rows reads, 4k+4 bytes.
// SplitRow reads and decodes one split row, for a walk past the spilled
// rows (which reads each row it has not read yet, once) and for snapshots.
// ResumeRow (core.ResumeRowSource) reads the resume row for the first fill
// past the spilled rows. The solver checks and retains every row and the
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
	r     io.ReaderAt // nil once invalidated
	clean runtime.Cleanup
	spillLayout

	// reads and readBytes count the ReadAt calls past the header and the
	// bytes they asked for: the deterministic measure of what a restore
	// costs.
	reads, readBytes int64
}

// newSlabView wraps a header-validated blob laid out as l. It takes
// ownership of r and, when r is an io.Closer (a spill file), closes it on
// invalidate or when the view is collected.
func newSlabView(r io.ReaderAt, l spillLayout) *slabView {
	v := &slabView{r: r, spillLayout: l}
	if c, ok := r.(io.Closer); ok {
		v.clean = runtime.AddCleanup(v, func(c io.Closer) { c.Close() }, c)
	}
	return v
}

// SplitRow implements pta.SplitRowSource: row k in one ReadAt,
// CRC-checked and decoded. The solver checks the split points.
func (v *slabView) SplitRow(k int) ([]int32, error) {
	if k < 1 || k > v.filled {
		return nil, fmt.Errorf("spill: row %d outside 1..%d", k, v.filled)
	}
	body, err := v.section(v.rowOff(k), 4*(v.n+1))
	if err != nil {
		return nil, fmt.Errorf("spill: row %d: %w", k, err)
	}
	return decodeInt32s(body), nil
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
	return decodeInt32s(body), nil
}

// decodeInt32s decodes little-endian int32 cells.
func decodeInt32s(b []byte) []int32 {
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[4*i:]))
	}
	return out
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

// readAt fills buf from the blob at off, under the view mutex so it never
// races invalidate's close.
func (v *slabView) readAt(buf []byte, off int) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.r == nil {
		return fmt.Errorf("view closed (file removed)")
	}
	v.reads++
	v.readBytes += int64(len(buf))
	_, err := v.r.ReadAt(buf, int64(off))
	return err
}

// invalidate closes the view now: stop the GC cleanup, close the
// descriptor, and fail every later read. Idempotent.
func (v *slabView) invalidate() {
	v.mu.Lock()
	defer v.mu.Unlock()
	if v.r == nil {
		return
	}
	v.clean.Stop()
	if c, ok := v.r.(io.Closer); ok {
		c.Close()
	}
	v.r = nil
}
