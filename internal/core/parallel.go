package core

import (
	"context"
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
//     concurrently — a bounded worker pool, one Solver per run), and
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
// SolveRuns is the one driver: it validates the budgets, deepens the run
// curves, extends one CurveAllocation across the rounds, accepts error
// bounds and reconstructs. Where the curves come from is behind RunCurves:
// in-process Solvers here (DPMultiParallel, PTAcParallel, PTAeParallel),
// curves gathered from remote workers in the distributed coordinator, which
// therefore recombines with exactly the in-process tie-breaks.

// RunCurves is the per-run state SolveRuns recombines, one entry per
// maximal adjacent run of the kernel's series, in order. Curves only grow,
// by appending.
type RunCurves interface {
	// Extend grows every run's curve to min(run length, kcap) sizes.
	Extend(ctx context.Context, kcap int) error
	// Curves lists the curves: Curves()[r][j−1] is run r's optimal error
	// at size j. SolveRuns leaves them untouched.
	Curves() [][]float64
	// Rows fills dst with run r's optimal reduction to len(dst) tuples,
	// merged from the whole series' kernel.
	Rows(r int, dst []temporal.SeqRow) error
	// Stats reports the fill work behind the curves.
	Stats() DPStats
}

// SolveRuns answers budgets over the maximal adjacent runs of kn's series
// from the curves runs supplies. A total size of K needs per-run curves
// only up to K−R+1 tuples (every other run keeps at least one), so size
// budgets extend the curves once, to the deepest of them. Error budgets
// deepen iteratively from K = R+63, doubling K until every bound is met,
// which keeps the serial evaluator's early exit: loose bounds that stop at
// a small K never pay for full curves, and the geometric growth bounds the
// total work at a small constant of the final round's. Coexisting size
// budgets only ever raise K, never change which k first fits a bound.
//
// Results align with budgets, and each carries the fill stats of the
// shared curves. Like Options.Ctx, a nil ctx never cancels.
func SolveRuns(ctx context.Context, kn *CostKernel, runs RunCurves, budgets []MultiBudget) ([]*DPResult, error) {
	seq, n, R := kn.Sequence(), kn.N(), kn.CMin()
	if n == 0 {
		return emptyResults(seq, budgets)
	}
	bounds, K, err := planBudgets(budgets, n, R, sync.OnceValue(kn.MaxError))
	if err != nil {
		return nil, err
	}
	ks := make([]int, len(budgets)) // resolved size per budget; 0 = pending error budget
	pending := 0
	for i, b := range budgets {
		if ks[i] = b.C; b.C == 0 {
			pending++
		}
	}
	if pending > 0 {
		K = max(K, min(n, R+63))
	}
	var ca CurveAllocation
	var final []float64
	for K > 0 {
		if err := runs.Extend(ctx, K-R+1); err != nil {
			return nil, err
		}
		if final, err = ca.Extend(ctx, runs.Curves(), K); err != nil {
			return nil, err
		}
		for i := range budgets {
			for k := R; ks[i] == 0 && k <= K; k++ {
				if final[k] <= bounds[i] {
					ks[i] = k
					pending--
				}
			}
		}
		if pending == 0 {
			break
		}
		if K == n {
			// A[n] = 0 meets every bound when the curves are exact; curves
			// from elsewhere may not be.
			return nil, fmt.Errorf("core: error bound not reached at full size")
		}
		K = min(n, 2*K)
	}

	stats := runs.Stats()
	results := make([]*DPResult, len(budgets))
	for i, k := range ks {
		if budgets[i].C >= n {
			results[i] = unreduced(seq, stats)
			continue
		}
		if err := checkFinite(k, final[k]); err != nil {
			return nil, err
		}
		alloc, err := ca.SplitAllocation(k)
		if err != nil {
			return nil, err
		}
		rows := make([]temporal.SeqRow, k)
		at := 0
		for r, j := range alloc {
			if err := runs.Rows(r, rows[at:at+j]); err != nil {
				return nil, err
			}
			at += j
		}
		results[i] = &DPResult{Sequence: seq.WithRows(rows), C: k, Error: final[k], Stats: stats}
	}
	return results, nil
}

// runSolvers is the in-process RunCurves: one Solver per run over the run's
// own kernel, filled on a pool of workers goroutines (0 = GOMAXPROCS). A
// solver is built on the first Extend and retained, so deepening rounds pay
// only for new rows.
type runSolvers struct {
	kn      *CostKernel
	opts    Options
	workers int
	runs    []runSolver
}

type runSolver struct {
	lo, hi int     // 1-based row bounds of the run, inclusive
	sv     *Solver // nil until the first Extend
}

// newRunSolvers cuts kn's series into its maximal adjacent runs.
func newRunSolvers(kn *CostKernel, opts Options, workers int) *runSolvers {
	rs := &runSolvers{kn: kn, opts: opts, workers: workers}
	lo := 1
	for _, g := range kn.Gaps() {
		rs.runs = append(rs.runs, runSolver{lo: lo, hi: g})
		lo = g + 1
	}
	rs.runs = append(rs.runs, runSolver{lo: lo, hi: kn.N()})
	return rs
}

func (rs *runSolvers) Extend(ctx context.Context, kcap int) error {
	workers := rs.workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	workers = min(workers, len(rs.runs))
	jobs := make(chan int)
	errs := make([]error, len(rs.runs))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range jobs {
				errs[r] = rs.extend(ctx, r, kcap)
			}
		}()
	}
	for r := range rs.runs {
		jobs <- r
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

// extend fills run r's solver to min(run length, kcap) rows.
func (rs *runSolvers) extend(ctx context.Context, r, kcap int) error {
	run := &rs.runs[r]
	if run.sv == nil {
		seq := rs.kn.Sequence()
		kn, err := NewKernel(seq.WithRows(seq.Rows[run.lo-1:run.hi]), rs.opts)
		if err != nil {
			return err
		}
		run.sv = newSolver(kn, rs.opts, true, true)
	}
	return run.sv.ensure(ctx, min(run.hi-run.lo+1, kcap))
}

func (rs *runSolvers) Curves() [][]float64 {
	curves := make([][]float64, len(rs.runs))
	for r, run := range rs.runs {
		if run.sv != nil {
			curves[r] = run.sv.rowErr[1 : run.sv.filled+1]
		}
	}
	return curves
}

// Rows walks run r's split rows and merges from the whole series' kernel,
// so a run's rows are bit-identical to the same ranges merged serially.
func (rs *runSolvers) Rows(r int, dst []temporal.SeqRow) error {
	run := rs.runs[r]
	return run.sv.backtrack(dst, rs.kn, run.lo-1)
}

func (rs *runSolvers) Stats() DPStats {
	var st DPStats
	for _, run := range rs.runs {
		if run.sv != nil {
			st.Add(run.sv.st.stats)
		}
	}
	return st
}

// DPMultiParallel serves several budgets from one run-decomposed parallel
// evaluation: per-run error curves are computed once, concurrently, on
// workers goroutines (0 = GOMAXPROCS), then every budget is answered from
// the shared curves by SolveRuns — the parallel analogue of DPMulti.
//
// Each result is bit-identical to the corresponding single-budget parallel
// evaluation (and therefore to the serial DP wherever that holds): curves
// are truncated to K−R+1 rows for a total size of K, which the allocation
// DP provably never notices — a run can only receive more than K−R+1
// tuples if some other run receives none.
func DPMultiParallel(seq *temporal.Sequence, budgets []MultiBudget, opts Options, workers int) ([]*DPResult, error) {
	kn, err := NewKernel(seq, opts)
	if err != nil {
		return nil, err
	}
	return SolveRuns(opts.Ctx, kn, newRunSolvers(kn, opts, workers), budgets)
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
