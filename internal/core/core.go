// Package core implements parsimonious temporal aggregation (PTA), the
// contribution of the paper: reducing an instant-temporal-aggregation (ITA)
// result by repeatedly merging adjacent tuples until a user-given size bound
// c or error bound ε is met.
//
// The package provides
//
//   - the merge operator ⊕ and the sum-squared error measure (Defs. 3 and 5),
//   - prefix matrices for O(p) error evaluation of any adjacent run (Prop. 1),
//   - the exact dynamic-programming evaluators PTAc and PTAe (Sec. 5),
//     including the unpruned baseline of the experiments (PTAcAblation
//     with PruneNone),
//   - the greedy merging strategy GMS and the streaming greedy evaluators
//     GPTAc and GPTAe with δ read-ahead (Sec. 6), gap-bridging GMSBridged
//     (Sec. 8) and the relative-amnesic reduction Amnesic (Sec. 2.2), all
//     on one greedy merge engine (greedy.go): one heap of mergeable pairs,
//     one merge loop, one overflow rule.
//
// Row indices handed to Prefix and the DP matrices are 1-based, matching the
// paper's notation (s1 ... sn); slices of rows use ordinary 0-based Go
// indexing.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
)

// Inf is the infinite error assigned to merges that would cross a temporal
// gap or an aggregation-group boundary.
var Inf = math.Inf(1)

// DeltaInf disables the δ read-ahead heuristic of the greedy algorithms:
// with δ = DeltaInf early merges happen only when Proposition 3/4 proves
// them safe, and the result provably equals GMS (Theorems 2 and 3).
const DeltaInf = math.MaxInt32

// Options carries evaluation parameters shared by all PTA algorithms. It is
// a per-call argument bundle: Ctx belongs to one evaluation.
type Options struct {
	// Weights holds one positive weight per aggregate attribute (w_d of
	// Definition 5). nil means all weights are 1.
	Weights []float64
	// Fill selects the DP row-fill algorithm (see FillAlgo). The zero
	// value FillAuto picks by input size. Every algorithm produces
	// bitwise-identical E/J matrices; they differ only in speed. Outside
	// this package only the `fill` experiment and tests pin one.
	Fill FillAlgo
	// Ctx, when non-nil, is polled inside the evaluation loops so that
	// long-running reductions abort promptly when the caller cancels.
	// Evaluators return the context error (wrapped) on cancellation.
	Ctx context.Context
}

// canceled reports the context error, if any, wrapped for the evaluators.
func (o Options) canceled() error { return ctxErr(o.Ctx) }

// ctxErr reports ctx's error, if any, wrapped for the evaluators; a nil ctx
// never cancels.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("core: evaluation canceled: %w", err)
	}
	return nil
}

// acceptErrorBound returns the threshold for testing a row error against an
// error bound eps·SSEmax. Prefix sums accumulated in different orders leave
// O(ulp)-scale residue on exact ties — eps = 0 over duplicate values, eps = 1
// at cmin — which must not move the minimal feasible size, so every
// error-bounded search accepts through this one function, which
// checkBudget applies for every driver.
func acceptErrorBound(bound, maxErr float64) float64 {
	return bound*(1+1e-9) + 1e-12*maxErr
}

// CheckErrorBound rejects an error bound outside [0, 1], NaN included.
// Every error-bounded evaluator searches for the smallest size whose error
// fits eps·SSEmax; no size fits a NaN bound, so the search would never end.
func CheckErrorBound(eps float64) error {
	if !(eps >= 0 && eps <= 1) {
		return fmt.Errorf("core: error bound %v outside [0, 1]", eps)
	}
	return nil
}

// ErrOverflow reports weighted error sums beyond float64's range: SSEmax,
// or the optimal error at the size a budget asks for, is not a finite
// number, so no budget can be judged against it. Smaller weights or values
// avoid it.
var ErrOverflow = errors.New("error sums overflow float64")

// checkFinite returns ErrOverflow unless e, the optimal error at size k
// (SSEmax for k = 0), is a finite number.
func checkFinite(k int, e float64) error {
	switch {
	case !math.IsInf(e, 0) && !math.IsNaN(e):
		return nil
	case k == 0:
		return fmt.Errorf("core: SSEmax is %v: %w", e, ErrOverflow)
	}
	return fmt.Errorf("core: optimal error at size %d is %v: %w", k, e, ErrOverflow)
}

// InfeasibleSizeError reports a size budget below the smallest reachable
// reduction size cmin (the number of maximal adjacent runs): no sequence of
// adjacent merges can shrink the input that far.
type InfeasibleSizeError struct {
	// C is the requested size bound.
	C int
	// CMin is the smallest reachable reduction size.
	CMin int
}

func (e *InfeasibleSizeError) Error() string {
	return fmt.Sprintf("core: size bound %d below cmin %d", e.C, e.CMin)
}

// weightsSquared resolves the per-dimension squared weights for p aggregate
// attributes.
func (o Options) weightsSquared(p int) ([]float64, error) {
	w2 := make([]float64, p)
	if o.Weights == nil {
		for d := range w2 {
			w2[d] = 1
		}
		return w2, nil
	}
	if len(o.Weights) != p {
		return nil, fmt.Errorf("core: %d weights for %d aggregate attributes", len(o.Weights), p)
	}
	for d, w := range o.Weights {
		if !(w > 0) {
			return nil, fmt.Errorf("core: weight %d is %v, want > 0", d, w)
		}
		w2[d] = w * w
	}
	return w2, nil
}
