package core

import (
	"fmt"
	"runtime"
	"sync"

	"repro/internal/temporal"
)

// This file implements a divide-and-conquer evaluation of exact PTA that
// makes the structure behind the paper's Section 5.3 pruning explicit:
// non-adjacent tuple pairs split the relation into maximal adjacent runs
// that never interact, so
//
//  1. each run's optimal error curve can be computed independently (and
//     concurrently — a bounded worker pool with per-run scratch
//     buffers), and
//  2. the global optimum is an allocation of the size budget c over the
//     runs, found by a small dynamic program over run curves:
//
//     A[r][k] = min over j of A[r−1][k−j] + curve_r[j].
//
// The result provably equals PTAc (property-tested); with many short runs
// it does asymptotically less work — per-run curves cost Σ O(q_r²·min(q_r,c))
// versus the monolithic scheme's larger search space — and it uses every
// core. Aggregation groups are a coarsening of runs (every group boundary
// is a run boundary), so this is also the group-parallel execution engine
// behind pta.Engine's WithParallelism. The paper's evaluation is
// single-threaded; this is an engineering extension, reported by the
// `parallel` and `engine` experiments.
//
// PTAcParallel serves size budgets; PTAeParallel computes full run curves
// and picks the smallest total size whose optimal error fits eps·SSEmax;
// DPMultiParallel (multiparallel.go) serves several budgets from one set of
// run curves. Each keeps one CurveAllocation (allocate.go) across its
// deepening rounds. CurveAllocation and AcceptErrorBound export the
// recombination rules so distributed coordinators that gather run curves
// from remote workers recombine them with exactly the in-process
// tie-breaks.

// runCurve is one maximal adjacent run with its reduction error curve and
// the split matrices needed to reconstruct any reduction size. The DP fill
// state is retained across computeCurves rounds, so iterative deepening and
// multi-budget evaluation extend a curve row by row instead of recomputing
// it from scratch.
type runCurve struct {
	lo, hi int // 1-based row bounds of the run, inclusive
	curve  []float64
	splits [][]int32

	st *dpState // retained fill state; owns private buffers
}

// decomposeRuns cuts the relation into its maximal adjacent runs.
func decomposeRuns(kn *CostKernel) []*runCurve {
	var runs []*runCurve
	lo := 1
	for _, g := range kn.gaps {
		runs = append(runs, &runCurve{lo: lo, hi: g})
		lo = g + 1
	}
	runs = append(runs, &runCurve{lo: lo, hi: kn.n})
	return runs
}

// computeCurves fills every run's error curve up to min(run length, kcap) on
// a pool of workers goroutines (0 = GOMAXPROCS). Curves that are already
// long enough are untouched; shorter ones extend from their retained DP
// state, so deepening rounds and multi-budget passes pay only for the new
// rows. Each run owns a private Scratch, so the caller's Options.Scratch is
// never shared across goroutines.
func computeCurves(seq *temporal.Sequence, runs []*runCurve, kcap int, opts Options, workers int) error {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(runs))
	jobs := make(chan int)
	errs := make([]error, len(runs))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				errs[i] = runs[i].extend(seq, kcap, opts)
			}
		}()
	}
	for i := range runs {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// curveStats sums the DP fill counters across runs — the aggregate cost of
// the curves backing one parallel evaluation.
func curveStats(runs []*runCurve) DPStats {
	var st DPStats
	for _, rc := range runs {
		if rc.st != nil {
			st.Cells += rc.st.stats.Cells
			st.InnerIters += rc.st.stats.InnerIters
		}
	}
	return st
}

// AcceptErrorBound widens an error-budget acceptance threshold by the
// relative-and-absolute tolerance every error-bounded evaluator in this
// package applies, so "the error fits the bound" means the same thing
// in-process and across a wire.
func AcceptErrorBound(bound, maxErr float64) float64 {
	return acceptErrorBound(bound, maxErr)
}

// runCurves lists the runs' curves, the input of their CurveAllocation.
func runCurves(runs []*runCurve) [][]float64 {
	curves := make([][]float64, len(runs))
	for r, rc := range runs {
		curves[r] = rc.curve
	}
	return curves
}

// reconstructRuns splits a total size k over the runs and expands each
// run's own splits into rows.
func reconstructRuns(kn *CostKernel, runs []*runCurve, ca *CurveAllocation, k int) ([]temporal.SeqRow, error) {
	alloc, err := ca.SplitAllocation(k)
	if err != nil {
		return nil, err
	}
	var rows []temporal.SeqRow
	for r, rc := range runs {
		rows = append(rows, rc.reconstruct(kn, alloc[r])...)
	}
	return rows, nil
}

// PTAcParallel evaluates size-bounded PTA exactly, decomposing the work
// over maximal adjacent runs and computing run curves on workers goroutines
// (0 = GOMAXPROCS). It returns the same optimal reduction as PTAc.
func PTAcParallel(seq *temporal.Sequence, c int, opts Options, workers int) (*DPResult, error) {
	n := seq.Len()
	if n == 0 {
		if c != 0 {
			return nil, fmt.Errorf("core: size bound %d for an empty relation", c)
		}
		return &DPResult{Sequence: seq.WithRows(nil), C: 0}, nil
	}
	kn, err := NewKernel(seq, opts)
	if err != nil {
		return nil, err
	}
	cmin := kn.CMin()
	if c < cmin {
		return nil, &InfeasibleSizeError{C: c, CMin: cmin}
	}
	if c >= n {
		return &DPResult{Sequence: seq.Clone(), C: n}, nil
	}

	runs := decomposeRuns(kn)
	// A total size of c leaves any single run at most c−R+1 tuples (every
	// other run keeps ≥ 1), so longer per-run curves can never be chosen —
	// the same truncation the error-bounded deepening relies on.
	if err := computeCurves(seq, runs, c-len(runs)+1, opts, workers); err != nil {
		return nil, err
	}
	var ca CurveAllocation
	final, err := ca.Extend(opts.Ctx, runCurves(runs), c)
	if err != nil {
		return nil, err
	}
	rows, err := reconstructRuns(kn, runs, &ca, c)
	if err != nil {
		return nil, err
	}
	return &DPResult{
		Sequence: seq.WithRows(rows),
		C:        c,
		Error:    final[c],
		Stats:    curveStats(runs),
	}, nil
}

// PTAeParallel evaluates error-bounded PTA exactly with the same run
// decomposition: every run's full error curve is computed concurrently, the
// combination DP yields the optimal error for every total size, and the
// smallest size whose error fits eps·SSEmax wins — the same minimization as
// PTAe (Definition 7), parallel over runs.
func PTAeParallel(seq *temporal.Sequence, eps float64, opts Options, workers int) (*DPResult, error) {
	if err := CheckErrorBound(eps); err != nil {
		return nil, err
	}
	n := seq.Len()
	if n == 0 {
		return &DPResult{Sequence: seq.WithRows(nil), C: 0}, nil
	}
	kn, err := NewKernel(seq, opts)
	if err != nil {
		return nil, err
	}
	maxErr := kn.MaxError()
	accept := acceptErrorBound(eps*maxErr, maxErr)

	// Iterative deepening preserves the serial evaluator's early exit: a
	// total size of K needs per-run curves only up to K−R+1 (every other
	// run keeps ≥ 1 tuple), so loose bounds that stop at small K never pay
	// for full curves. Each failed round doubles K and extends the retained
	// per-run curves and the allocation in place; the geometric growth
	// bounds total work at a small constant of the final round's.
	runs := decomposeRuns(kn)
	R := len(runs)
	var ca CurveAllocation
	for K := min(n, R+63); ; K = min(n, 2*K) {
		if err := computeCurves(seq, runs, K-R+1, opts, workers); err != nil {
			return nil, err
		}
		final, err := ca.Extend(opts.Ctx, runCurves(runs), K)
		if err != nil {
			return nil, err
		}
		for k := R; k <= K; k++ {
			if final[k] <= accept {
				// Curves cover every size ≤ K, so k is the exact minimum.
				rows, err := reconstructRuns(kn, runs, &ca, k)
				if err != nil {
					return nil, err
				}
				return &DPResult{
					Sequence: seq.WithRows(rows),
					C:        k,
					Error:    final[k],
					Stats:    curveStats(runs),
				}, nil
			}
		}
		if K == n {
			// A[n] = 0 ≤ bound always triggers; reaching this point means
			// the curve combination is broken.
			panic("core: error-bounded parallel DP did not terminate")
		}
	}
}

// extend grows the run's curve and split matrices to sizes 1..min(len, c)
// using the gap-free DP restricted to the run, resuming from the retained
// state when the curve is partially filled. The split rows must outlive
// this call (reconstruction happens after all runs finish) and the state
// must survive across rounds that may land on different worker goroutines,
// so both use private allocations — never a caller- or worker-shared
// Scratch.
func (rc *runCurve) extend(seq *temporal.Sequence, c int, opts Options) error {
	q := rc.hi - rc.lo + 1
	kmax := min(q, c)
	if len(rc.curve) >= kmax {
		return nil
	}
	if rc.st == nil {
		sub := seq.WithRows(seq.Rows[rc.lo-1 : rc.hi])
		sopts := opts
		sopts.Scratch = &Scratch{} // private: retained by the state
		kn, err := NewKernel(sub, sopts)
		if err != nil {
			return err
		}
		rc.st = newDPState(kn, sopts, true, true, true)
		rc.st.ownSplits = true
	}
	for k := len(rc.curve) + 1; k <= kmax; k++ {
		e, err := rc.st.fillRow(k)
		if err != nil {
			return err
		}
		rc.curve = append(rc.curve, e)
	}
	rc.splits = rc.st.splits
	return nil
}

// reconstruct expands the run's optimal reduction to size k into rows,
// using the global prefix for the merges (indices shifted to run space).
func (rc *runCurve) reconstruct(kn *CostKernel, k int) []temporal.SeqRow {
	rows := make([]temporal.SeqRow, k)
	hi := rc.hi - rc.lo + 1 // run-local 1-based end
	for kk := k; kk >= 1; kk-- {
		j := int(rc.splits[kk-1][hi])
		rows[kk-1] = kn.MergeRange(rc.lo+j, rc.lo+hi-1)
		hi = j
	}
	return rows
}
