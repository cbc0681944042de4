package core

import (
	"fmt"

	"repro/internal/temporal"
)

// DPMultiParallel serves several budgets from one run-decomposed parallel
// evaluation: per-run error curves are computed once, concurrently, on
// workers goroutines (0 = GOMAXPROCS), then every budget is answered from
// the shared curves by the combination DP — the multi-budget analogue of
// PTAcParallel/PTAeParallel, and the parallel analogue of DPMultiKernel.
//
// Each result is bit-identical to the corresponding single-budget parallel
// evaluation (and therefore to the serial DP wherever that holds): curves
// are truncated to K−R+1 rows for a total size of K exactly as the
// single-budget evaluators truncate, which the allocation DP provably never
// notices — a run can only receive more than K−R+1 tuples if some other run
// receives none.
//
// Error-bounded budgets deepen iteratively: K doubles until every bound is
// met, the retained per-run fill states extend their curves in place and
// one CurveAllocation extends the combination over them, so mixed batches
// pay one curve set regardless of how many budgets ride on it. Every
// result carries the aggregate fill stats of the shared curves, mirroring
// DPMultiKernel's accounting of the shared pass.
func DPMultiParallel(seq *temporal.Sequence, budgets []MultiBudget, opts Options, workers int) ([]*DPResult, error) {
	n := seq.Len()
	results := make([]*DPResult, len(budgets))
	if n == 0 {
		for i, b := range budgets {
			if b.C > 0 {
				return nil, fmt.Errorf("core: size bound %d for an empty relation", b.C)
			}
			if err := CheckErrorBound(b.Eps); err != nil {
				return nil, err
			}
			results[i] = &DPResult{Sequence: seq.WithRows(nil), C: 0}
		}
		return results, nil
	}
	kn, err := NewKernel(seq, opts)
	if err != nil {
		return nil, err
	}
	cmin := kn.CMin()

	// Validate every budget and derive the curve depth the size budgets
	// need; error bounds resolve against eps·SSEmax with the shared
	// acceptance tolerance.
	targetK := 0
	pendingEps := 0
	bounds := make([]float64, len(budgets))
	maxErrKnown := false
	var maxErr float64
	for i, b := range budgets {
		if b.C > 0 {
			if b.C < cmin {
				return nil, &InfeasibleSizeError{C: b.C, CMin: cmin}
			}
			if b.C < n {
				targetK = max(targetK, b.C)
			}
			continue
		}
		if err := CheckErrorBound(b.Eps); err != nil {
			return nil, err
		}
		if !maxErrKnown {
			maxErr = kn.MaxError()
			maxErrKnown = true
		}
		bounds[i] = acceptErrorBound(b.Eps*maxErr, maxErr)
		pendingEps++
	}

	runs := decomposeRuns(kn)
	R := len(runs)
	var ca CurveAllocation
	var final []float64
	reachedK := make([]int, len(budgets)) // resolved size per eps budget; 0 = pending
	K := targetK
	if pendingEps > 0 {
		// Error bounds start from the same deepening floor as PTAeParallel
		// so a lone eps budget does identical work; coexisting size budgets
		// only ever raise K, never change which k first fits a bound.
		K = max(K, min(n, R+63))
	}
	for K > 0 {
		if err := computeCurves(seq, runs, K-R+1, opts, workers); err != nil {
			return nil, err
		}
		if final, err = ca.Extend(opts.Ctx, runCurves(runs), K); err != nil {
			return nil, err
		}
		for i, b := range budgets {
			if b.C > 0 || reachedK[i] != 0 {
				continue
			}
			for k := R; k <= K; k++ {
				if final[k] <= bounds[i] {
					reachedK[i] = k
					pendingEps--
					break
				}
			}
		}
		if pendingEps == 0 {
			break
		}
		if K == n {
			// A[n] = 0 meets every bound; reaching this point means the
			// curve combination is broken.
			panic("core: multi-budget parallel DP did not terminate")
		}
		K = min(n, 2*K)
	}

	stats := curveStats(runs)
	for i, b := range budgets {
		k := reachedK[i]
		if b.C > 0 {
			if b.C >= n {
				results[i] = &DPResult{Sequence: seq.Clone(), C: n, Stats: stats}
				continue
			}
			k = b.C
		}
		if k == 0 {
			panic("core: multi-budget parallel DP left a budget unserved")
		}
		rows, err := reconstructRuns(kn, runs, &ca, k)
		if err != nil {
			return nil, err
		}
		results[i] = &DPResult{
			Sequence: seq.WithRows(rows),
			C:        k,
			Error:    final[k],
			Stats:    stats,
		}
	}
	return results, nil
}
