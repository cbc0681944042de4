package core

import (
	"fmt"
	"sync"

	"repro/internal/temporal"
)

// DPStats counts the work the dynamic program performed; the experiments use
// it alongside wall-clock time to show the effect of the Section 5.3
// pruning and of the row-fill algorithm.
type DPStats struct {
	// Cells is the number of matrix cells (k, i) evaluated.
	Cells int64
	// InnerIters is the number of split-point candidates evaluated across
	// all cells (for the monotone fill: candidate-matrix evaluations;
	// envelope bound probes are O(1) per block and not counted).
	InnerIters int64
	// EnvelopeSkips is the number of completion-scan candidates discarded
	// in O(1) range skips by the envelope bounds (see envComplete) instead
	// of being evaluated — the work the envelope pruning saved.
	EnvelopeSkips int64
}

// Add accumulates o's counters into s: the cost of several fills, such as
// the per-run curves behind one run-decomposed evaluation.
func (s *DPStats) Add(o DPStats) {
	s.Cells += o.Cells
	s.InnerIters += o.InnerIters
	s.EnvelopeSkips += o.EnvelopeSkips
}

// DPResult is the outcome of an exact PTA evaluation.
type DPResult struct {
	// Sequence is the reduced sequential relation z.
	Sequence *temporal.Sequence
	// C is the size of the result (the c actually reached).
	C int
	// Error is SSE(s, z), the total introduced error E[C][n].
	Error float64
	// Stats describes the work performed.
	Stats DPStats
}

// dpState fills the error matrix E and split-point matrix J row by row
// (k = 1, 2, ...). Only the previous and current E rows are kept; J rows are
// appended as needed for reconstruction. All row indices are 1-based.
//
// The two Section 5.3 bounds can be toggled independently (the ablation
// experiment exercises each in isolation): pruneI skips columns beyond the
// k-th gap (imax), pruneJ lower-bounds the split point at the rightmost gap
// (jmin). The row-fill algorithm (Options.Fill) is orthogonal: both
// algorithms produce bitwise-identical E and J rows; see fill.go.
type dpState struct {
	kn             *CostKernel
	opts           Options
	n              int
	pruneI, pruneJ bool
	algo           FillAlgo // resolved, never FillAuto
	storeSplits    bool
	prevE, curE    []float64
	splits         [][]int32 // splits[k-1][i] = J[k][i]
	stats          DPStats

	rerr       func(i, j int) float64 // kernel merge-cost hot path
	costs      []float64              // scan: merge-cost table of one Solver.ensure call, nil outside it (see buildCosts)
	costBuf    *[]float64             // the costPool buffer behind costs
	segs       []int32                // FillDC: piecewise-monotone segment starts
	rightGap   []int32                // rightmostGapBefore per position (see ensureRightGap)
	envMin     []float64              // envelope completion: per-block progressive lower bounds (see ensureEnvelope)
	envMinPrev []float64              // envelope completion: per-block min of prevE (static bound)
	envAt      []int32                // envelope completion: cell of each block's last refresh, −1 = never
	envLo      []int32                // envelope completion: leftmost leaf the block's refresh state covers
	envHi      []int32                // envelope completion: rightmost leaf the block's refresh state covers
	envMuLo    []float64              // envelope completion: per-block per-dimension run-mean minima at refresh
	envMuHi    []float64              // envelope completion: per-block per-dimension run-mean maxima at refresh
	envHint    int                    // envelope completion: previous cell's completion argmin, −1 = none
	envValid   bool                   // envelope state describes the current prevE row
	fillSteps  int64                  // candidate evaluations since the last context poll
}

// cancelCheckCells is how many DP candidate evaluations happen between
// context polls: coarse enough to keep the poll off the hot path, fine
// enough that a long run aborts within a handful of inner loops.
const cancelCheckCells = 4096

func newDPState(kn *CostKernel, opts Options, pruneI, pruneJ, storeSplits bool) *dpState {
	algo := opts.Fill
	if algo == FillAuto && !(pruneI && pruneJ) {
		// The ablation modes (dpbasic, ptac-imax, ptac-jmin) exist to
		// measure the scan's Section 5.3 bounds in isolation; auto never
		// swaps their fill out from under them. An explicitly pinned
		// FillDC is still honored — results are identical, only the
		// work counters change meaning.
		algo = FillPruned
	}
	algo = algo.resolve(kn.N())
	var segs []int32
	if algo != FillPruned {
		// The monotone fill is only exact inside certified monotone
		// segments (the quadrangle inequality genuinely fails across a
		// direction change); dispatch is per segment, and when no segment is
		// long enough for the dispatch to engage the scan runs outright.
		if segs = kn.MonotoneSegments(); kn.MonotoneCoverage() == 0 {
			algo = FillPruned
			segs = nil
		}
	}
	return &dpState{
		kn:          kn,
		opts:        opts,
		n:           kn.N(),
		pruneI:      pruneI,
		pruneJ:      pruneJ,
		algo:        algo,
		storeSplits: storeSplits,
		prevE:       make([]float64, kn.N()+1),
		curE:        make([]float64, kn.N()+1),
		rerr:        kn.cost,
		segs:        segs,
	}
}

// fillRow computes row k of the matrices and returns E[k][n]. It polls the
// context while filling so canceled evaluations abort mid-matrix instead of
// running to completion; on cancellation the row swap is undone, so a
// retained state (core.Solver) can retry the row after the abort.
func (st *dpState) fillRow(k int) (float64, error) {
	if err := st.opts.canceled(); err != nil {
		return 0, err
	}
	kn, n := st.kn, st.n
	st.prevE, st.curE = st.curE, st.prevE
	for i := range st.curE {
		st.curE[i] = Inf
	}
	var jrow []int32
	if st.storeSplits {
		jrow = make([]int32, n+1)
	}

	// Upper bound for i: past the k-th gap every E[k][i] is infinite.
	imax := n
	if st.pruneI && k <= len(kn.gaps) {
		imax = kn.gaps[k-1]
	}

	var err error
	switch {
	case k == 1:
		err = st.fillFirstRow(imax)
	case st.algo == FillDC:
		err = st.fillRowSegmented(k, imax, jrow)
	default:
		err = st.fillRowScan(k, imax, jrow)
	}
	if err != nil {
		// Undo the row swap so curE is E[k−1] again: a retained state
		// (core.Solver) may retry this row after the abort.
		st.prevE, st.curE = st.curE, st.prevE
		return 0, err
	}

	if st.storeSplits {
		st.splits = append(st.splits, jrow)
	}
	return st.curE[n], nil
}

// fillFirstRow fills E[1][i] = the cost of merging the whole prefix into
// one tuple (infinite across gaps); J[1] stays all zero.
func (st *dpState) fillFirstRow(imax int) error {
	st.ensureRightGap()
	for i := 1; i <= imax; i++ {
		st.stats.Cells++
		st.curE[i] = st.mergeCost(0, i)
		if err := st.pollFill(1); err != nil {
			return err
		}
	}
	return nil
}

// mergeCost returns w(j+1, i), the cost of merging s_{j+1}..s_i into one
// tuple: Inf when the range crosses a gap, else the table's entry when the
// current ensure call built one, else the kernel closure's value. The last
// two equal MergeErr(j+1, i) bit for bit. The scan's inner loops make the
// same choice per cell.
func (st *dpState) mergeCost(j, i int) float64 {
	switch {
	case j < int(st.rightGap[i]):
		return Inf
	case st.costs != nil:
		return st.costs[i*(i-1)/2+j]
	}
	return st.rerr(j+1, i)
}

// costTableMinRows is the fewest rows one Solver.ensure call must fill for
// it to build the merge-cost table: the build evaluates every in-run pair
// once, about what a few scanned rows evaluate, so a call that fills fewer
// rows scans with the closure instead.
const costTableMinRows = 4

// wantsCosts reports whether a call filling rows rows builds the
// merge-cost table: only the scan reads it, only kernels below
// fillAutoThreshold rows (at most 32 640 entries, 255 KiB) get one, and
// only calls that fill enough rows to repay it.
func (st *dpState) wantsCosts(rows int) bool {
	return st.algo == FillPruned && st.n < fillAutoThreshold && rows >= costTableMinRows
}

// buildCosts builds the merge-cost table the scan reads instead of calling
// the kernel closure: costs[i(i−1)/2 + j] = rerr(j+1, i) for every cell i
// and every split candidate j inside i's gap-free run, rightGap[i] ≤ j < i,
// the diagonal's 0 included. Entries are the closure's own return values,
// NaN and Inf included, so a fill reading them computes the same rows, cells
// and inner iterations as one calling it. Pairs across a gap are not
// written (a recycled table keeps stale values there) and never read:
// mergeCost and the scan test the gap first. It polls the context like the
// fills; the caller drops the table when its call returns.
func (st *dpState) buildCosts() error {
	st.ensureRightGap()
	n, rerr := st.n, st.rerr
	size := n * (n + 1) / 2
	st.costBuf = costPool.Get().(*[]float64)
	if cap(*st.costBuf) < size {
		*st.costBuf = make([]float64, size)
	}
	costs := (*st.costBuf)[:size]
	for i := 1; i <= n; i++ {
		row := costs[i*(i-1)/2 : i*(i+1)/2]
		jlo := int(st.rightGap[i])
		for j := jlo; j < i; j++ {
			row[j] = rerr(j+1, i)
		}
		if err := st.pollFill(i - jlo); err != nil {
			return err
		}
	}
	st.costs = costs
	return nil
}

// costPool recycles merge-cost tables: a table lives for one ensure call,
// and the runs of one evaluation ask for tables of similar sizes one after
// another, so reuse spares most of their allocation and clearing.
var costPool = sync.Pool{New: func() any { return new([]float64) }}

// dropCosts returns the table to costPool: no retained state holds one.
func (st *dpState) dropCosts() {
	if st.costBuf != nil {
		costPool.Put(st.costBuf)
	}
	st.costs, st.costBuf = nil, nil
}

// fillRowScan fills row k ≥ 2 with the FillPruned candidate scan: for every
// cell, split points are tried right to left, keeping the first strict
// improvement, until no candidate further left can beat the incumbent. A
// candidate's merge cost is one load from the table when the current ensure
// call built one (buildCosts), else a closure call, at the same bits.
//
// The stop uses the row's own finished cells. Cells fill left to right, so
// when cell i meets candidate j the cell E[k][j] = curE[j] is final. For
// every j′ < j the merge cost is superadditive, w(j′+1, i) ≥ w(j′+1, j) +
// w(j+1, i) (merging a union costs both parts plus a non-negative pooled
// term), and E[k−1][j′] + w(j′+1, j) ≥ E[k][j] because j′ is a candidate
// of cell j. Together:
//
//	E[k−1][j′] + w(j′+1, i) ≥ curE[j] + w(j+1, i),
//
// so once curE[j] + w(j+1, i) reaches the incumbent no candidate left of j
// improves it strictly, and they all lie left of it, so a tie cannot
// displace it either. The Jagadish exit (stop once w(j+1, i) alone exceeds
// the incumbent) is the same test with curE[j] replaced by 0; it stays
// beside the new one, so the scan never runs past the point where it
// used to stop.
//
// Rounding. Like the Jagadish exit, the argument treats the prefix slabs
// as exact data: w̃, the merge cost evaluated exactly over them, is
// non-negative and exactly superadditive, because slab differences
// telescope. A computed merge cost lies within δ of w̃ (see NewKernel) and
// each addition within an ulp. For a skipped j′, cell j either evaluated
// it, so E[k−1][j′] + w̃(j′+1, j) ≥ curE[j] − δ up to ulps, or cut it with
// its Jagadish exit at some jx > j′, so w̃(j′+1, j) ≥ w̃(jx+1, j) >
// curE[j] − δ. Adding the errors of w(j+1, i) and of w(j′+1, i):
//
//	E[k−1][j′] + w(j′+1, i) ≥ curE[j] + w(j+1, i) − 3δ − O(ulp)·best.
//
// So the stop tests curE[j] + w(j+1, i) ≥ best·(1+envSafety) + 4δ. The
// relative part covers the ulps (envSafety is far above them). The
// absolute part covers 3δ with a δ to spare, and it is needed: without it
// the scan changes cells where offsets dwarf the noise, so that every
// merge cost is a small difference of large square sums. An infinite
// incumbent stops only at an infinite curE[j] + w(j+1, i): a gap or an
// infeasible prefix, which every candidate further left shares. Where the
// square sums behind δ near overflow (extreme weights or values) the
// kernel sets the slack to NaN, the test never passes, and the Jagadish
// exit works alone.
func (st *dpState) fillRowScan(k, imax int, jrow []int32) error {
	st.ensureRightGap()
	kn := st.kn
	rerr, costs := st.rerr, st.costs
	prevE, curE := st.prevE, st.curE
	slack := kn.scanSlack
	for i := k; i <= imax; i++ {
		st.stats.Cells++

		// Lower bound for j: merging the tail s_{j+1}..s_i across the
		// rightmost gap before i is infinite.
		rightGap := int(st.rightGap[i])
		jmin := k - 1
		if st.pruneJ {
			jmin = max(jmin, rightGap)
		}

		if st.pruneJ && k-2 < len(kn.gaps) && rightGap != 0 && kn.gaps[k-2] == jmin {
			// The prefix s_i contains exactly k−1 gaps: the only feasible
			// split point is the rightmost gap itself (Section 5.3).
			st.stats.InnerIters++
			curE[i] = prevE[jmin] + st.mergeCost(jmin, i)
			if jrow != nil {
				jrow[i] = int32(jmin)
			}
			if err := st.pollFill(1); err != nil {
				return err
			}
			continue
		}

		best := Inf
		bestJ := int32(0)
		stop := best + best*envSafety + slack
		inner := int64(0)
		// The two loops differ only in where w(j+1, i) comes from: the
		// closure call spills every value live across it, so the closure
		// loop carries no table row. Both stop once every candidate left
		// of j costs at least curE[j] + err2, or err2 alone (Jagadish et
		// al.), reaches the incumbent.
		if costs != nil {
			row := costs[i*(i-1)/2 : i*(i+1)/2] // row[j] = w(j+1, i) for j ≥ rightGap
			for j := i - 1; j >= jmin; j-- {
				inner++
				err2 := Inf // across the gap: only without the jmin bound
				if j >= rightGap {
					err2 = row[j]
				}
				if e := prevE[j] + err2; e < best {
					best, bestJ = e, int32(j)
					stop = best + best*envSafety + slack
				}
				if err2 > best || curE[j]+err2 >= stop {
					break
				}
			}
		} else {
			for j := i - 1; j >= jmin; j-- {
				inner++
				err2 := Inf // across the gap: only without the jmin bound
				if j >= rightGap {
					err2 = rerr(j+1, i)
				}
				if e := prevE[j] + err2; e < best {
					best, bestJ = e, int32(j)
					stop = best + best*envSafety + slack
				}
				if err2 > best || curE[j]+err2 >= stop {
					break
				}
			}
		}
		st.stats.InnerIters += inner
		curE[i] = best
		if jrow != nil {
			jrow[i] = bestJ
		}
		if err := st.pollFill(int(inner)); err != nil {
			return err
		}
	}
	return nil
}

// walkSplits follows the split points from cell (len(dst), n) down to row
// 1, reading the one cell J[k][i] each row contributes through split, and
// merges every segment into dst from kn, whose rows off+1..off+n are the
// walked sequence (off > 0 for one run of a larger series). A visited split
// point must satisfy k−1 ≤ j < i, and j = 0 at k = 1: then the segments
// tile 1..n. Any other value (a corrupt restored row) is a *WarmLostError
// naming the row, never a panic in MergeRange or a reduction that does not
// cover the series.
func walkSplits(dst []temporal.SeqRow, kn *CostKernel, off, n int, split func(k, i int) int) error {
	i := n
	for k := len(dst); k >= 1; k-- {
		j, lo, hi := split(k, i), k-1, i-1
		if k == 1 {
			hi = 0
		}
		if j < lo || j > hi {
			return &WarmLostError{Row: k, Err: fmt.Errorf("split point J[%d][%d] = %d outside %d..%d", k, i, j, lo, hi)}
		}
		dst[k-1] = kn.MergeRange(off+j+1, off+i)
		i = j
	}
	return nil
}

// PruneMode selects which of the two Section 5.3 search-space bounds the
// dynamic program applies. PTAc uses PruneBoth; the dpbasic strategy uses
// PruneNone; the other modes exist for the ablation experiment.
type PruneMode uint8

const (
	// PruneNone disables both bounds (the basic DP scheme of Section 5.1).
	PruneNone PruneMode = iota
	// PruneIMax only skips matrix columns beyond the k-th gap.
	PruneIMax
	// PruneJMin only lower-bounds split points at the rightmost gap.
	PruneJMin
	// PruneBoth applies both bounds (the full PTAc algorithm).
	PruneBoth
)

// String names the mode for reports.
func (m PruneMode) String() string {
	switch m {
	case PruneNone:
		return "none"
	case PruneIMax:
		return "imax"
	case PruneJMin:
		return "jmin"
	case PruneBoth:
		return "imax+jmin"
	}
	return fmt.Sprintf("prune(%d)", uint8(m))
}

// Flags converts the mode into the two Section 5.3 bounds the drivers
// take (DPMulti, NewSolver): the one place a mode becomes flags.
func (m PruneMode) Flags() (pruneI, pruneJ bool) {
	return m == PruneIMax || m == PruneBoth, m == PruneJMin || m == PruneBoth
}

// PTAcAblation evaluates size-bounded PTA with an explicit pruning mode. All
// modes return the same optimal reduction; they differ only in the work
// counted by Stats and in runtime.
func PTAcAblation(seq *temporal.Sequence, c int, opts Options, mode PruneMode) (*DPResult, error) {
	pruneI, pruneJ := mode.Flags()
	return solveSize(seq, c, opts, pruneI, pruneJ)
}

// solveSize is a one-budget size-bounded DPMulti call.
func solveSize(seq *temporal.Sequence, c int, opts Options, pruneI, pruneJ bool) (*DPResult, error) {
	budgets, err := oneSize(seq, c)
	if err != nil {
		return nil, err
	}
	return first(DPMulti(seq, budgets, opts, pruneI, pruneJ))
}

// PTAc evaluates size-bounded PTA exactly (Definition 6, algorithm of
// Fig. 7): it reduces the sequential relation seq to c tuples with the
// minimal possible sum-squared error. It requires cmin ≤ c; when c ≥ n the
// input is returned unchanged. Worst-case complexity is O(n²·c·p) time
// with the default scan fill and O(n log n · c · p) with the monotone
// fill; space is O(n·c) either way. With temporal gaps and aggregation
// groups the Section 5.3 bounds prune most cells.
func PTAc(seq *temporal.Sequence, c int, opts Options) (*DPResult, error) {
	return solveSize(seq, c, opts, true, true)
}

// PTAe evaluates error-bounded PTA exactly (Definition 7, algorithm of
// Fig. 8): it finds the smallest c such that reducing seq to c tuples
// introduces at most eps·SSEmax error, 0 ≤ eps ≤ 1, and returns that optimal
// reduction.
func PTAe(seq *temporal.Sequence, eps float64, opts Options) (*DPResult, error) {
	return first(DPMulti(seq, []MultiBudget{{Eps: eps}}, opts, true, true))
}

// Matrices runs the pruned DP for k = 1..c and returns copies of the error
// matrix rows E[k] and split-point rows J[k]. Row k lives at index k−1 and
// column i is 1-based (index 0 is unused), matching the paper's Figs. 4-5.
// It exists for inspection and the fig4fig5 experiment; PTAc is the
// production entry point.
func Matrices(seq *temporal.Sequence, c int, opts Options) ([][]float64, [][]int32, error) {
	n := seq.Len()
	if c < 1 || c > n {
		return nil, nil, fmt.Errorf("core: matrix row count %d outside 1..%d", c, n)
	}
	kn, err := NewKernel(seq, opts)
	if err != nil {
		return nil, nil, err
	}
	sv := newSolver(kn, opts, true, true)
	em := make([][]float64, c)
	for k := 1; k <= c; k++ {
		if err := sv.ensure(opts.Ctx, k); err != nil {
			return nil, nil, err
		}
		em[k-1] = append([]float64(nil), sv.st.curE...)
	}
	return em, sv.st.splits, nil
}

// ErrorCurve returns the minimal error of reducing seq to k tuples for every
// k = 1..kmax (Inf where k < cmin makes the reduction infeasible). It fills
// the same DP matrix as PTAc but stores no split points, so it costs one
// size-bounded run with c = kmax. The experiments use it to draw the
// error-versus-reduction curves of Fig. 14.
func ErrorCurve(seq *temporal.Sequence, kmax int, opts Options) ([]float64, error) {
	n := seq.Len()
	if kmax < 1 || kmax > n {
		return nil, fmt.Errorf("core: kmax %d outside 1..%d", kmax, n)
	}
	kn, err := NewKernel(seq, opts)
	if err != nil {
		return nil, err
	}
	sv := newSolver(kn, opts, true, true)
	sv.st.storeSplits = false
	if err := sv.ensure(opts.Ctx, kmax); err != nil {
		return nil, err
	}
	return sv.rowErr[1 : kmax+1], nil
}
