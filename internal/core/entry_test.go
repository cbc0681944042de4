package core

import (
	"context"
	"sort"

	"repro/internal/temporal"
)

// Entry points that only tests call: whole-series baselines, one-budget
// wrappers of the drivers, deepening apart from any budget, and kernel
// queries that the fills answer through their own state.

// DPBasic evaluates size-bounded PTA with the basic dynamic-programming
// scheme of Section 5.1: constant-time error evaluation but no gap/group
// pruning. It returns the same result as PTAc.
func DPBasic(seq *temporal.Sequence, c int, opts Options) (*DPResult, error) {
	return PTAcAblation(seq, c, opts, PruneNone)
}

// PTAeAblation evaluates error-bounded PTA with an explicit pruning mode,
// mirroring PTAcAblation: every mode returns the same minimal-size optimal
// reduction and differs only in the work counted by Stats.
func PTAeAblation(seq *temporal.Sequence, eps float64, opts Options, mode PruneMode) (*DPResult, error) {
	pruneI, pruneJ := mode.Flags()
	return first(DPMulti(seq, []MultiBudget{{Eps: eps}}, opts, pruneI, pruneJ))
}

// PTAcParallel evaluates size-bounded PTA exactly, decomposing the work
// over maximal adjacent runs and computing run curves on workers goroutines
// (0 = GOMAXPROCS). It returns the same optimal reduction as PTAc.
func PTAcParallel(seq *temporal.Sequence, c int, opts Options, workers int) (*DPResult, error) {
	budgets, err := oneSize(seq, c)
	if err != nil {
		return nil, err
	}
	return first(DPMultiParallel(seq, budgets, opts, workers))
}

// PTAeParallel evaluates error-bounded PTA exactly with the same run
// decomposition: the smallest total size whose optimal error fits
// eps·SSEmax wins — the same minimization as PTAe (Definition 7), parallel
// over runs.
func PTAeParallel(seq *temporal.Sequence, eps float64, opts Options, workers int) (*DPResult, error) {
	return first(DPMultiParallel(seq, []MultiBudget{{Eps: eps}}, opts, workers))
}

// Deepen fills matrix rows up to k (at most n) without answering a budget.
// Already-filled rows are never recomputed; Deepen(ctx, k) for k ≤ Rows()
// is a no-op.
func (sv *Solver) Deepen(ctx context.Context, k int) error {
	if k > sv.kn.N() {
		k = sv.kn.N()
	}
	return sv.ensure(ctx, k)
}

// MonotoneRuns reports whether every maximal gap-free run is monotone in
// every dimension as a whole — the shape of cumulative counters and other
// accumulating series, and the strongest certificate: the monotone row
// fill then applies to entire rows. Equivalent to the piecewise segmentation
// having exactly one segment per run.
func (kn *CostKernel) MonotoneRuns() bool {
	kn.monoOnce.Do(kn.computeSegments)
	if kn.n == 0 {
		return true
	}
	return len(kn.monoSegs) == len(kn.gaps)+1
}

// HasGap reports whether the run s_i..s_j (1-based, inclusive) contains at
// least one non-adjacent pair.
func (kn *CostKernel) HasGap(i, j int) bool {
	if i >= j {
		return false
	}
	// The run has a gap iff some gap position l satisfies i ≤ l < j.
	k := sort.SearchInts(kn.gaps, i)
	return k < len(kn.gaps) && kn.gaps[k] < j
}

// RightmostGapBefore returns the largest gap position strictly smaller than
// i, or 0 when there is none. It is the j_min bound of Section 5.3.
func (kn *CostKernel) RightmostGapBefore(i int) int {
	k := sort.SearchInts(kn.gaps, i)
	if k == 0 {
		return 0
	}
	return kn.gaps[k-1]
}

// MergeErrAll returns the error of merging s_i..s_j into one tuple, or Inf
// when the run crosses a gap or group boundary.
func (kn *CostKernel) MergeErrAll(i, j int) float64 {
	if kn.HasGap(i, j) {
		return Inf
	}
	return kn.MergeErr(i, j)
}
