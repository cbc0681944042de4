package core

import (
	"context"
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/temporal"
)

// Solver owns an incrementally filled pair of DP matrices for one sequence:
// the error column E[k][n] and every split-point row J[k] computed so far are
// retained, so answering a new budget reuses all rows filled by earlier
// budgets and only extends the matrices when a deeper row is needed. It is
// the unit a serving layer caches per hot series — a repeated budget costs
// one backtrack, no DP fill at all. It is also the one driver of the
// whole-series DP: DPMulti and the evaluators built on it answer through a
// transient Solver, and the run-decomposed evaluators fill one per run.
//
// A Solver is NOT safe for concurrent use; callers serialize access (the
// serve-layer cache guards each entry with a mutex). The context travels per
// call, so one cached Solver serves requests with different deadlines.
type Solver struct {
	kn     *CostKernel
	st     *dpState  // its options' Ctx is replaced per call
	rowErr []float64 // rowErr[k] = E[k][n] for k = 1..filled
	filled int
	bound  float64 // SSEmax, resolved lazily for error budgets
	hasMax bool
	warm   bool // state adopted from a snapshot (Restore or RestoreLazy)

	// After RestoreLazy, rows 1..restored come from lazy and rows 1..read of
	// them are resident. Every walk needs a prefix 1..k, so the resident
	// rows are a prefix too. Rows 1..len(raw) are held as the verified
	// little-endian bytes a range read returned; every other resident row
	// is decoded in st.splits.
	lazy     SplitRowSource
	raw      [][]byte
	restored int
	read     int
}

// NewSolver builds a solver for the sequence with the given pruning flags
// (PruneBoth semantics split into its two Section 5.3 bounds, matching
// DPMulti). Options.Fill selects the row-fill algorithm, resolved as on
// every other exact path; both algorithms fill bitwise-identical matrices,
// so cached solvers built with different fills stay interchangeable. The
// options' Ctx is ignored: each call passes its own.
func NewSolver(seq *temporal.Sequence, opts Options, pruneI, pruneJ bool) (*Solver, error) {
	if seq.Len() == 0 {
		return nil, fmt.Errorf("core: solver over an empty relation")
	}
	opts.Ctx = nil
	kn, err := NewKernel(seq, opts)
	if err != nil {
		return nil, err
	}
	return newSolver(kn, opts, pruneI, pruneJ), nil
}

// newSolver builds a solver over a prebuilt non-empty kernel with opts as
// given.
func newSolver(kn *CostKernel, opts Options, pruneI, pruneJ bool) *Solver {
	return &Solver{
		kn:     kn,
		st:     newDPState(kn, opts, pruneI, pruneJ, true),
		rowErr: make([]float64, kn.N()+1),
	}
}

// N returns the input size n.
func (sv *Solver) N() int { return sv.kn.N() }

// Rows returns how many matrix rows have been filled so far.
func (sv *Solver) Rows() int { return sv.filled }

// Stats reports the cumulative work of every row filled so far (not a
// per-budget share — a fully warm solver answers budgets with zero new
// cells).
func (sv *Solver) Stats() DPStats { return sv.st.stats }

// MemBytes estimates the retained matrix memory: the split-point rows
// dominate (one int32 per column per resident row, decoded or raw). A row a
// lazy restore has not read yet costs nothing until a walk reads it.
func (sv *Solver) MemBytes() int64 {
	n := int64(sv.kn.N() + 1)
	resident := int64(sv.filled - (sv.restored - sv.read))
	return resident*n*4 + // J rows
		3*n*8 // prevE, curE, rowErr
}

// Fill returns the concrete row-fill algorithm the solver resolved to
// (never FillAuto).
func (sv *Solver) Fill() FillAlgo { return sv.st.algo }

// MonotoneCoverage reports the kernel's certified dispatch coverage — the
// fraction of rows the monotone fill accelerates. The certification is
// computed at most once per solver lifetime (see CostKernel), so scraping
// this per request is free.
func (sv *Solver) MonotoneCoverage() float64 { return sv.kn.MonotoneCoverage() }

// Deepen fills matrix rows up to k (at most n) without answering a budget.
// Already-filled rows are never recomputed; Deepen(ctx, k) for k ≤ Rows()
// is a no-op. Only tests call it, to fill rows apart from any budget.
func (sv *Solver) Deepen(ctx context.Context, k int) error {
	if k > sv.kn.N() {
		k = sv.kn.N()
	}
	return sv.ensure(ctx, k)
}

// ensure fills rows filled+1..k under ctx: the one loop that fills DP rows,
// toward a budget or, for Matrices and ErrorCurve, to a row count. Rows are
// filled strictly in order; already-filled rows are never recomputed.
func (sv *Solver) ensure(ctx context.Context, k int) error {
	sv.st.opts.Ctx = ctx
	for next := sv.filled + 1; next <= k; next++ {
		e, err := sv.st.fillRow(next)
		if err != nil {
			return err
		}
		sv.rowErr[next] = e
		sv.filled = next
	}
	return nil
}

// SolveSize answers a size budget c: the minimal-error reduction to at most
// c tuples, reusing every previously filled row.
func (sv *Solver) SolveSize(ctx context.Context, c int) (*DPResult, error) {
	n := sv.kn.N()
	if err := checkSize(c, n, sv.kn.CMin()); err != nil {
		return nil, err
	}
	if c >= n {
		return unreduced(sv.kn.Sequence(), sv.st.stats), nil
	}
	if err := sv.ensure(ctx, c); err != nil {
		return nil, err
	}
	return sv.answer(c)
}

// SolveError answers an error budget eps ∈ [0, 1]: the smallest k whose
// reduction introduces at most eps·SSEmax error. Rows filled while searching
// are retained for later budgets.
func (sv *Solver) SolveError(ctx context.Context, eps float64) (*DPResult, error) {
	bound, err := checkBudget(MultiBudget{Eps: eps}, sv.kn.N(), sv.kn.CMin(), sv.maxError)
	if err != nil {
		return nil, err
	}
	k, err := sv.reach(ctx, bound)
	if err != nil {
		return nil, err
	}
	return sv.answer(k)
}

// solveBudgets answers every budget from one pass: it fills to the deepest
// size budget, then searches each error budget's row, filling further only
// as far as a search needs. Answers wait for the whole pass, so every
// result carries its stats.
func (sv *Solver) solveBudgets(ctx context.Context, budgets []MultiBudget) ([]*DPResult, error) {
	n := sv.kn.N()
	bounds, sizeK, err := planBudgets(budgets, n, sv.kn.CMin(), sv.maxError)
	if err != nil {
		return nil, err
	}
	if err := sv.ensure(ctx, sizeK); err != nil {
		return nil, err
	}
	ks := make([]int, len(budgets))
	for i, b := range budgets {
		if ks[i] = b.C; b.C == 0 {
			if ks[i], err = sv.reach(ctx, bounds[i]); err != nil {
				return nil, err
			}
		}
	}
	results := make([]*DPResult, len(budgets))
	for i, k := range ks {
		if budgets[i].C >= n {
			results[i] = unreduced(sv.kn.Sequence(), sv.st.stats)
		} else if results[i], err = sv.answer(k); err != nil {
			return nil, err
		}
	}
	return results, nil
}

// maxError returns SSEmax, computed at most once per solver; a snapshot
// carries it.
func (sv *Solver) maxError() float64 {
	if !sv.hasMax {
		sv.bound, sv.hasMax = sv.kn.MaxError(), true
	}
	return sv.bound
}

// reach returns the smallest k whose row error E[k][n] fits bound, filling
// rows as the search passes them. Filled exactly, E[n][n] = 0 fits every
// bound checkBudget returns; rows that say otherwise were restored wrong.
func (sv *Solver) reach(ctx context.Context, bound float64) (int, error) {
	n := sv.kn.N()
	for k := 1; k <= n; k++ {
		if k > sv.filled {
			if err := sv.ensure(ctx, k); err != nil {
				return 0, err
			}
		}
		if sv.rowErr[k] <= bound {
			return k, nil
		}
	}
	return 0, sv.lost(n, fmt.Errorf("core: no row error fits the error bound %v (E[%d][%d] = %v)", bound, n, n, sv.rowErr[n]))
}

// lost reports err as a WarmLostError at row k when the solver's state was
// adopted from a snapshot, which may be what went wrong: the caller then
// rebuilds cold, and a cold solver reports err itself.
func (sv *Solver) lost(k int, err error) error {
	if sv.warm {
		return &WarmLostError{Row: k, Err: err}
	}
	return err
}

// answer walks the filled rows from cell (k, n) into the optimal reduction
// to k tuples. A non-finite E[k][n] is ErrOverflow, not a walk: its split
// points were never written.
func (sv *Solver) answer(k int) (*DPResult, error) {
	if err := checkFinite(k, sv.rowErr[k]); err != nil {
		return nil, sv.lost(k, err)
	}
	rows := make([]temporal.SeqRow, k)
	if err := sv.backtrack(rows, sv.kn, 0); err != nil {
		return nil, err
	}
	return &DPResult{
		Sequence: sv.kn.Sequence().WithRows(rows),
		C:        k,
		Error:    sv.rowErr[k],
		Stats:    sv.st.stats,
	}, nil
}

// SolverState is the portable warm state of a Solver: every filled
// split-point row, the per-row errors and the last error row — everything a
// fresh Solver over the same sequence and options needs to answer budgets
// (and resume deeper fills) without recomputing a single cell. It is the
// payload a persistent matrix-cache tier serializes; the caller guarantees
// the sequence identity (the serve layer keys spill files by content
// fingerprint), Restore only validates the shapes.
type SolverState struct {
	N      int       // input size the rows were filled for
	Filled int       // rows 1..Filled are present
	RowErr []float64 // RowErr[k-1] = E[k][n], len Filled
	LastE  []float64 // E[Filled][0..n], len n+1; the resume row
	Splits []int32   // J rows, row-major: Splits[(k-1)*(n+1)+i] = J[k][i]
	Bound  float64   // SSEmax if HasMax (error-budget normalization)
	HasMax bool
}

// State snapshots the filled rows. The returned slices are copies; the
// solver may keep filling afterwards. A lazily restored solver materializes
// every row it has not read yet first, and decodes and checks the raw rows
// it holds, so the error surfaces here when the backing store has gone bad
// rather than as a torn snapshot.
func (sv *Solver) State() (*SolverState, error) {
	if err := sv.materialize(sv.filled); err != nil {
		return nil, err
	}
	n := sv.kn.N()
	st := &SolverState{
		N:      n,
		Filled: sv.filled,
		RowErr: append([]float64(nil), sv.rowErr[1:sv.filled+1]...),
		Bound:  sv.bound,
		HasMax: sv.hasMax,
	}
	if sv.filled > 0 {
		st.LastE = append([]float64(nil), sv.st.curE...)
		st.Splits = make([]int32, sv.filled*(n+1))
		for k := 1; k <= sv.filled; k++ {
			dst := st.Splits[(k-1)*(n+1) : k*(n+1)]
			if k > len(sv.raw) {
				copy(dst, sv.st.splits[k-1])
				continue
			}
			for i := range dst {
				dst[i] = int32(binary.LittleEndian.Uint32(sv.raw[k-1][4*i:]))
			}
			if err := checkSplitRow(k, dst); err != nil {
				return nil, &WarmLostError{Row: k, Err: err}
			}
		}
	}
	return st, nil
}

// Restore injects a snapshot into a freshly built solver (zero rows
// filled). It validates every shape and every split-point value (see
// checkSplitRow) so a corrupt snapshot fails cleanly instead of panicking
// rows later; on error the solver is unchanged and still usable cold.
func (sv *Solver) Restore(st *SolverState) error {
	if err := sv.checkSnapshot(st); err != nil {
		return err
	}
	n := sv.kn.N()
	if len(st.Splits) != st.Filled*(n+1) {
		return fmt.Errorf("core: snapshot has %d split cells, want %d", len(st.Splits), st.Filled*(n+1))
	}
	for k := 1; k <= st.Filled; k++ {
		if err := checkSplitRow(k, st.Splits[(k-1)*(n+1):k*(n+1)]); err != nil {
			return fmt.Errorf("core: snapshot %w", err)
		}
	}
	// The split rows become views into one retained slab, matching the
	// per-row slices fillRow appends.
	slab := append([]int32(nil), st.Splits...)
	sv.st.splits = sv.st.splits[:0]
	for k := 0; k < st.Filled; k++ {
		sv.st.splits = append(sv.st.splits, slab[k*(n+1):(k+1)*(n+1)])
	}
	sv.adopt(st)
	return nil
}

// checkSnapshot is the check Restore and RestoreLazy share: the solver is
// fresh, and the snapshot is of this n with 1..n rows, one error per row
// and a whole resume row. Every error is one a fill can write — not NaN,
// not negative (+Inf is a merge across a gap, or an overflow) — and
// SSEmax, when present, is finite and not negative: an error budget
// scales it.
func (sv *Solver) checkSnapshot(st *SolverState) error {
	n := sv.kn.N()
	switch {
	case sv.filled != 0:
		return fmt.Errorf("core: restore into a solver with %d filled rows", sv.filled)
	case st.N != n:
		return fmt.Errorf("core: snapshot n=%d, solver n=%d", st.N, n)
	case st.Filled < 1 || st.Filled > n:
		return fmt.Errorf("core: snapshot filled=%d outside 1..%d", st.Filled, n)
	case len(st.RowErr) != st.Filled:
		return fmt.Errorf("core: snapshot has %d row errors, want %d", len(st.RowErr), st.Filled)
	case len(st.LastE) != n+1:
		return fmt.Errorf("core: snapshot last row has %d cells, want %d", len(st.LastE), n+1)
	case st.HasMax && !(st.Bound >= 0 && st.Bound <= math.MaxFloat64):
		return fmt.Errorf("core: snapshot SSEmax %v", st.Bound)
	}
	for k, e := range st.RowErr {
		if !(e >= 0) {
			return fmt.Errorf("core: snapshot E[%d][%d] = %v", k+1, n, e)
		}
	}
	for i, e := range st.LastE {
		if !(e >= 0) {
			return fmt.Errorf("core: snapshot E[%d][%d] = %v", st.Filled, i, e)
		}
	}
	return nil
}

// adopt installs a checked snapshot's scalar state: the row errors, the
// resume row and SSEmax.
func (sv *Solver) adopt(st *SolverState) {
	copy(sv.st.curE, st.LastE) // fillRow(Filled+1) swaps this in as the previous row
	copy(sv.rowErr[1:], st.RowErr)
	sv.filled = st.Filled
	sv.bound, sv.hasMax = st.Bound, st.HasMax
	sv.warm = true
}

// SplitRowSource supplies individual restored split-point rows on demand:
// the lazy counterpart of SolverState.Splits, backed by a spill file in the
// serve layer so a huge warm matrix costs reads proportional to the rows a
// budget actually walks. SplitRow returns J[k][0..n] for a 1-based k ≤ the
// restored Filled; implementations validate their own framing (CRCs) and
// return an error for rows they can no longer produce.
type SplitRowSource interface {
	SplitRow(k int) ([]int32, error)
}

// SplitRangeSource is an optional capability of a SplitRowSource, detected
// with a type assertion. SplitRows reads rows lo..hi (1-based, inclusive)
// in one call and returns hi−lo+1 slices, each a row's verified
// little-endian int32 cells (at least 4·(n+1) bytes). The solver keeps the
// slices as the rows' resident form and decodes only the cells a walk
// visits, so the source must not write them afterwards.
type SplitRangeSource interface {
	SplitRows(lo, hi int) ([][]byte, error)
}

// WarmLostError reports that a restored split row could not be used: the
// backing store was truncated, corrupted or closed after RestoreLazy, or a
// row holds a split point no fill writes. The solver's remaining state is
// unusable; callers discard it and rebuild cold.
type WarmLostError struct {
	Row int // 1-based row that failed, or the first row of a failed range read
	Err error
}

func (e *WarmLostError) Error() string {
	return fmt.Sprintf("core: restored split row %d lost: %v", e.Row, e.Err)
}

func (e *WarmLostError) Unwrap() error { return e.Err }

// RestoreLazy is Restore with the split-point rows left behind a
// SplitRowSource instead of copied up front: the scalar state (row errors,
// resume row, bound) restores eagerly — SolveError's search scans RowErr, so
// it must be resident — while the J rows load on the first walk that needs
// them. A SplitRangeSource serves all of a walk's unread rows in one
// SplitRows call; any other source is asked once per row. st.Splits is
// ignored, and the solver retains what rows returns, so a row is read (and
// its CRC paid) at most once per solver lifetime.
func (sv *Solver) RestoreLazy(st *SolverState, rows SplitRowSource) error {
	if rows == nil {
		return fmt.Errorf("core: lazy restore without a row source")
	}
	if err := sv.checkSnapshot(st); err != nil {
		return err
	}
	// Unread rows are nil slots; fillRow appends deeper rows after them, so
	// Deepen works before any walk forces a read.
	sv.st.splits = append(sv.st.splits[:0], make([][]int32, st.Filled)...)
	sv.adopt(st)
	sv.lazy, sv.restored = rows, st.Filled
	return nil
}

// checkSplitRow validates one restored row J[k][0..n] cell by cell against
// what the fills write: 0 (a cell the row does not reach, and all of row
// 1) or a split point k−1 ≤ J[k][i] < i. The range test runs first because
// nearly every reached cell passes it, which keeps the loop as cheap as a
// bare 0..n bound.
func checkSplitRow(k int, row []int32) error {
	for i, j := range row {
		if (int(j) < k-1 || int(j) >= i) && j != 0 {
			return fmt.Errorf("split point J[%d][%d] = %d outside %d..%d", k, i, j, k-1, i-1)
		}
	}
	return nil
}

// backtrack makes rows 1..len(dst) resident and walks them from cell
// (len(dst), n), decoding one split point per row, into dst: the reduction
// merged from kn, whose rows off+1..off+n are the solver's sequence.
func (sv *Solver) backtrack(dst []temporal.SeqRow, kn *CostKernel, off int) error {
	if err := sv.load(len(dst)); err != nil {
		return err
	}
	return walkSplits(dst, kn, off, sv.kn.N(), sv.split)
}

// split reads J[k][i] from the row's resident form.
func (sv *Solver) split(k, i int) int {
	if k <= len(sv.raw) {
		return int(int32(binary.LittleEndian.Uint32(sv.raw[k-1][4*i:])))
	}
	return int(sv.st.splits[k-1][i])
}

// load makes the restored rows in 1..k resident for a walk. A
// SplitRangeSource reads every unread row of that prefix with one SplitRows
// call, and the verified bytes stay raw: no row is decoded or range-checked
// as a whole, because the walk checks the one cell it visits per row. Once
// a decoded row follows the raw prefix (State materialized it), and for
// any other source, rows materialize one by one.
func (sv *Solver) load(k int) error {
	hi := min(k, sv.restored)
	rr, ok := sv.lazy.(SplitRangeSource)
	if !ok || hi <= sv.read || len(sv.raw) != sv.read {
		return sv.materialize(k)
	}
	rows, err := rr.SplitRows(sv.read+1, hi)
	if err != nil {
		return &WarmLostError{Row: sv.read + 1, Err: err}
	}
	sv.raw = append(sv.raw, rows...)
	sv.read = hi
	return nil
}

// materialize reads the unread restored rows in 1..k one SplitRow call at a
// time, checking each row's length and cells like Restore, and keeps them
// decoded. Cold and eagerly restored solvers have no restored rows to read.
func (sv *Solver) materialize(k int) error {
	n := sv.kn.N()
	for r := sv.read + 1; r <= min(k, sv.restored); r++ {
		row, err := sv.lazy.SplitRow(r)
		if err != nil {
			return &WarmLostError{Row: r, Err: err}
		}
		if len(row) != n+1 {
			return &WarmLostError{Row: r, Err: fmt.Errorf("row has %d cells, want %d", len(row), n+1)}
		}
		if err := checkSplitRow(r, row); err != nil {
			return &WarmLostError{Row: r, Err: err}
		}
		sv.st.splits[r-1] = row
		sv.read = r
	}
	return nil
}
