package core

import (
	"fmt"

	"repro/internal/temporal"
)

// MultiBudget is one budget of a DPMulti evaluation: C > 0 requests a
// size-bounded reduction to at most C tuples, otherwise Eps requests an
// error-bounded reduction to at most Eps·SSEmax introduced error.
type MultiBudget struct {
	C   int
	Eps float64
}

// DPMulti evaluates several budgets over the same sequence with one filling
// of the DP matrices: the error and split-point rows are shared by every
// budget, so serving B budgets costs one evaluation to the deepest row any
// budget needs instead of B independent evaluations. This is what makes
// serving multiple resolutions of the same series cheap (pta's
// Engine.CompressMany builds on it).
//
// Results align with budgets. Stats on every result reports the work of the
// single shared pass, not a per-budget share. An infeasible size budget
// (below cmin) fails the whole call with an InfeasibleSizeError.
func DPMulti(seq *temporal.Sequence, budgets []MultiBudget, opts Options, pruneI, pruneJ bool) ([]*DPResult, error) {
	if seq.Len() > 0 && len(budgets) > 0 {
		kn, err := NewKernel(seq, opts)
		if err != nil {
			return nil, err
		}
		return DPMultiKernel(kn, budgets, opts, pruneI, pruneJ)
	}
	results := make([]*DPResult, len(budgets))
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

// DPMultiKernel is DPMulti over a prebuilt cost kernel: callers that answer
// several budget groups of one series (Engine.CompressMany) build the
// kernel once and share its prefix slabs across every group's matrix pass.
// opts must be the options the kernel was built with (weights are baked
// into the kernel).
func DPMultiKernel(kn *CostKernel, budgets []MultiBudget, opts Options, pruneI, pruneJ bool) ([]*DPResult, error) {
	seq := kn.Sequence()
	n := kn.N()
	results := make([]*DPResult, len(budgets))
	if len(budgets) == 0 {
		return results, nil
	}
	cmin := kn.CMin()

	// Per-budget validation and the target row of the shared pass: the
	// largest size bound below n, plus every unmet error bound.
	targetK := 0
	pendingEps := 0
	bounds := make([]float64, len(budgets)) // eps budgets: absolute bound
	reachedK := make([]int, len(budgets))   // eps budgets: first feasible row
	var maxErr float64
	maxErrKnown := false
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

	st := newDPState(kn, opts, pruneI, pruneJ, true)
	rowErr := make([]float64, n+1) // rowErr[k] = E[k][n]
	for k := 1; k <= n && (k <= targetK || pendingEps > 0); k++ {
		e, err := st.fillRow(k)
		if err != nil {
			return nil, err
		}
		rowErr[k] = e
		for i, b := range budgets {
			if b.C > 0 || reachedK[i] != 0 {
				continue
			}
			if e <= bounds[i] {
				reachedK[i] = k
				pendingEps--
			}
		}
	}

	for i, b := range budgets {
		k := reachedK[i]
		if b.C > 0 {
			if b.C >= n {
				results[i] = &DPResult{Sequence: seq.Clone(), C: n, Stats: st.stats}
				continue
			}
			k = b.C
		}
		if k == 0 {
			// E[n][n] = 0 means every error bound is reached by row n.
			panic("core: multi-budget DP left a budget unserved")
		}
		results[i] = &DPResult{
			Sequence: seq.WithRows(st.reconstruct(k)),
			C:        k,
			Error:    rowErr[k],
			Stats:    st.stats,
		}
	}
	return results, nil
}
