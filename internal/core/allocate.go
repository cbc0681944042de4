package core

import (
	"context"
	"fmt"
)

// CurveAllocation is the combination DP that spends a total size budget
// over per-run error curves, A[r][k] = min over j of A[r−1][k−j] +
// curve_r[j−1], kept across the deepening rounds of one evaluation. Ties
// keep the smallest j (strict improvement only), so the in-process
// evaluators and the distributed coordinator, which gathers the curves
// from remote workers, recombine them identically.
//
//   - Reachable cells only. Every run keeps at least one tuple and at most
//     its curve length, so row r (0-based) holds only its band, the totals
//     r+1 ≤ k ≤ min(Σ_{i≤r} len(curve_i), kmax), stored at exact size, and
//     a cell tries only k − Σ_{i<r} len(curve_i) ≤ j ≤ min(len(curve_r), k−r).
//   - Resume instead of recompute. Curves only ever grow by appending, so
//     Extend detects a change by curve length: rows before the first run
//     whose curve grew compute only the columns past their old band, the
//     rest are recomputed.
//
// The zero value is ready to use. A CurveAllocation serves one evaluation
// and is not safe for concurrent use.
type CurveAllocation struct {
	rows  []allocRow
	steps int64 // (k, j) candidates evaluated, summed over Extend calls
}

// allocRow is run r's row of the combination DP over its band, the totals
// k = r+1 … r+len(val).
type allocRow struct {
	curveLen int       // length of the run's curve the band was computed from
	val      []float64 // val[k−r−1] = A[r][k]
	choice   []int32   // tuples run r receives in that optimum; unsetChoice where val is Inf
}

// unsetChoice marks a total size no allocation reaches with finite error.
const unsetChoice = -1

// allocOrigin is the row before run 0: a total of zero tuples costs nothing.
var allocOrigin = []float64{0}

// Extend brings the allocation up to date with curves (curves[r][j−1] is
// run r's optimal error at size j) for totals up to kmax, and returns the
// final row: final[k] is the minimal total error of reducing the whole
// relation to k tuples, Inf where no allocation reaches k. The returned
// slice is the caller's.
//
// Between calls, a curve may only grow by appending: Extend compares
// lengths, not values. It polls ctx before every row and on cancellation
// returns the wrapped context error, leaving the allocation empty so a
// retry recomputes it.
func (a *CurveAllocation) Extend(ctx context.Context, curves [][]float64, kmax int) ([]float64, error) {
	if len(a.rows) != len(curves) {
		a.rows = make([]allocRow, len(curves))
	}
	plo, prev := 0, allocOrigin // previous row's band start and values
	changed := false
	for r, curve := range curves {
		if err := ctxErr(ctx); err != nil {
			a.rows = nil
			return nil, err
		}
		row := &a.rows[r]
		changed = changed || len(curve) != row.curveLen
		lo, hi := r+1, r // band lo..hi; empty when hi = r
		if len(prev) > 0 && len(curve) > 0 {
			hi = max(min(plo+len(prev)-1+len(curve), kmax), r)
		}
		from := lo + len(row.val) // first column the row has not computed
		if changed {
			from = lo
		}
		row.val = growExact(row.val, hi-r)
		row.choice = growExact(row.choice, hi-r)
		row.curveLen = len(curve)
		a.steps += fillAllocRow(row, prev, curve, plo, from, hi)
		plo, prev = lo, row.val
	}
	final := make([]float64, kmax+1)
	for k := range final {
		final[k] = Inf
	}
	if len(prev) > 0 {
		copy(final[plo:], prev)
	}
	return final, nil
}

// fillAllocRow computes the cells k = from … hi of the row whose band
// starts at plo+1 from the previous row's values prev (stored from total
// plo), and returns the number of (k, j) candidates it evaluated. j is the
// outer loop so the inner one streams contiguous slices; each cell still
// meets its candidates in increasing j, and the strict improvement keeps
// the smallest j on ties.
func fillAllocRow(row *allocRow, prev, curve []float64, plo, from, hi int) int64 {
	if from > hi {
		return 0
	}
	phi := plo + len(prev) - 1
	val, choice := row.val[from-plo-1:], row.choice[from-plo-1:]
	for i := range val {
		val[i] = Inf
	}
	for i := range choice {
		choice[i] = unsetChoice
	}
	var steps int64
	for j := 1; j <= min(len(curve), hi-plo); j++ {
		klo, khi := max(from, plo+j), min(hi, phi+j)
		if klo > khi {
			continue
		}
		c, ps := curve[j-1], prev[klo-j-plo:khi-j-plo+1]
		vs := val[klo-from:][:len(ps)]
		cs := choice[klo-from:][:len(ps)]
		for i, p := range ps {
			if e := p + c; e < vs[i] {
				vs[i], cs[i] = e, int32(j)
			}
		}
		steps += int64(len(ps))
	}
	return steps
}

// SplitAllocation walks the allocation backwards from a total size k and
// returns how many tuples each run receives (the entries sum to k). It
// fails when the last Extend found no finite allocation of k tuples.
func (a *CurveAllocation) SplitAllocation(k int) ([]int, error) {
	alloc := make([]int, len(a.rows))
	for r := len(a.rows) - 1; r >= 0; r-- {
		j := unsetChoice
		if i := k - r - 1; i >= 0 && i < len(a.rows[r].choice) {
			j = int(a.rows[r].choice[i])
		}
		if j == unsetChoice {
			return nil, fmt.Errorf("core: internal error reconstructing parallel DP at run %d", r)
		}
		alloc[r] = j
		k -= j
	}
	return alloc, nil
}

// growExact resizes s to n elements, keeping its prefix. When the capacity
// falls short it reallocates to exactly n, not to append's doubled
// capacity: a band grows a little per deepening round, and doubling would
// hold up to twice the reachable cells.
func growExact[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	t := make([]T, n)
	copy(t, s)
	return t
}
