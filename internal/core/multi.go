package core

import (
	"fmt"

	"repro/internal/temporal"
)

// MultiBudget is one budget of a DPMulti evaluation: C > 0 requests a
// size-bounded reduction to at most C tuples, C = 0 requests an
// error-bounded reduction to at most Eps·SSEmax introduced error, and
// C < 0 is an infeasible size.
type MultiBudget struct {
	C   int
	Eps float64
}

// checkBudget is the one validation every exact driver applies to a budget
// before it fills a row. Over an empty relation (n = 0) only error budgets
// are valid; otherwise a size below cmin, negative sizes included, is an
// InfeasibleSizeError, and Eps must lie in [0, 1]. For an error budget over
// a non-empty relation it returns the acceptance threshold over SSEmax,
// which maxErr supplies and which must be finite (ErrOverflow otherwise:
// no row error could be judged against it); size budgets never call
// maxErr.
func checkBudget(b MultiBudget, n, cmin int, maxErr func() float64) (float64, error) {
	if b.C != 0 {
		return 0, checkSize(b.C, n, cmin)
	}
	if err := CheckErrorBound(b.Eps); err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, nil
	}
	m := maxErr()
	if err := checkFinite(0, m); err != nil {
		return 0, err
	}
	return acceptErrorBound(b.Eps*m, m), nil
}

// checkSize validates a size budget c: an empty relation reduces only to
// c = 0, any other to cmin ≤ c.
func checkSize(c, n, cmin int) error {
	if n == 0 && c != 0 {
		return fmt.Errorf("core: size bound %d for an empty relation", c)
	}
	if c < cmin {
		return &InfeasibleSizeError{C: c, CMin: cmin}
	}
	return nil
}

// planBudgets checks every budget with checkBudget, so a bad budget fails
// the whole call before the first row is filled. It returns each error
// budget's acceptance threshold (bounds[i], unused for size budgets) and
// sizeK, the deepest row a size budget below n needs.
func planBudgets(budgets []MultiBudget, n, cmin int, maxErr func() float64) (bounds []float64, sizeK int, err error) {
	bounds = make([]float64, len(budgets))
	for i, b := range budgets {
		if bounds[i], err = checkBudget(b, n, cmin, maxErr); err != nil {
			return nil, 0, err
		}
		if b.C < n {
			sizeK = max(sizeK, b.C)
		}
	}
	return bounds, sizeK, nil
}

// emptyResults answers valid budgets over an empty relation, which every
// budget reduces to itself.
func emptyResults(seq *temporal.Sequence, budgets []MultiBudget) ([]*DPResult, error) {
	if _, _, err := planBudgets(budgets, 0, 0, nil); err != nil {
		return nil, err
	}
	results := make([]*DPResult, len(budgets))
	for i := range results {
		results[i] = &DPResult{Sequence: seq.WithRows(nil), C: 0}
	}
	return results, nil
}

// unreduced is the answer to a size budget of at least n: ρ(s, c) = s when
// |s| ≤ c, with nothing to merge.
func unreduced(seq *temporal.Sequence, stats DPStats) *DPResult {
	return &DPResult{Sequence: seq.Clone(), C: seq.Len(), Stats: stats}
}

// DPMulti evaluates several budgets over the same sequence with one filling
// of the DP matrices: the error and split-point rows are shared by every
// budget, so serving B budgets costs one evaluation to the deepest row any
// budget needs instead of B independent evaluations. This is what makes
// serving multiple resolutions of the same series cheap (pta's
// Engine.CompressMany builds on it). The pass is a transient Solver's: it
// fills to the deepest size budget, then as far as the error budgets need.
//
// Results align with budgets. Stats on every result reports the work of the
// single shared pass, not a per-budget share. An infeasible size budget
// (below cmin) fails the whole call with an InfeasibleSizeError.
func DPMulti(seq *temporal.Sequence, budgets []MultiBudget, opts Options, pruneI, pruneJ bool) ([]*DPResult, error) {
	kn, err := NewKernel(seq, opts)
	if err != nil {
		return nil, err
	}
	if kn.N() == 0 {
		return emptyResults(seq, budgets)
	}
	return newSolver(kn, opts, pruneI, pruneJ).solveBudgets(opts.Ctx, budgets)
}

// oneSize is the budget list of a one-budget size-bounded call. It rejects
// c = 0 over a non-empty relation itself, because MultiBudget{C: 0} is the
// error budget 0.
func oneSize(seq *temporal.Sequence, c int) ([]MultiBudget, error) {
	if c == 0 && seq.Len() > 0 {
		return nil, &InfeasibleSizeError{C: 0, CMin: seq.CMin()}
	}
	return []MultiBudget{{C: c}}, nil
}

// first unwraps the result of a one-budget call.
func first(results []*DPResult, err error) (*DPResult, error) {
	if err != nil {
		return nil, err
	}
	return results[0], nil
}
