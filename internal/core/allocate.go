package core

import (
	"context"
	"fmt"
)

// CurveAllocation is the combination DP that spends a total size budget
// over per-run error curves, A[r][k] = min over j of A[r−1][k−j] +
// curve_r[j−1], kept across the deepening rounds of one evaluation. Ties
// go to the smallest j, so the in-process evaluators and the distributed
// coordinator, which gathers the curves from remote workers, recombine
// them identically.
//
//   - Reachable cells only. Every run keeps at least one tuple and at most
//     its curve length, so row r (0-based) holds only its band, the totals
//     r+1 ≤ k ≤ min(Σ_{i≤r} len(curve_i), kmax), stored at exact size, and
//     a cell tries only k − Σ_{i<r} len(curve_i) ≤ j ≤ min(len(curve_r), k−r).
//   - Values only. A cell keeps A[r][k] and not the j that reached it:
//     SplitAllocation recovers that j from the row before and the curve,
//     so a band cell costs 8 bytes.
//   - Resume instead of recompute. Curves only ever grow by appending, so
//     Extend detects a change by curve length: rows before the first run
//     whose curve grew compute only the columns past their old band, the
//     rest are recomputed.
//
// The zero value is ready to use. A CurveAllocation serves one evaluation
// and is not safe for concurrent use.
type CurveAllocation struct {
	rows   []allocRow
	curves [][]float64 // the curves of the last Extend, which SplitAllocation reads
	steps  int64       // (k, j) candidates evaluated, summed over Extend calls
}

// allocRow is run r's row of the combination DP over its band, the totals
// k = r+1 … r+len(val).
type allocRow struct {
	curveLen int       // length of the run's curve the band was computed from
	val      []float64 // val[k−r−1] = A[r][k], Inf where no allocation reaches k
}

// allocOrigin is the row before run 0: a total of zero tuples costs nothing.
var allocOrigin = []float64{0}

// Extend brings the allocation up to date with curves (curves[r][j−1] is
// run r's optimal error at size j) for totals up to kmax, and returns the
// final row: final[k] is the minimal total error of reducing the whole
// relation to k tuples, Inf where no allocation reaches k. The returned
// slice is the caller's.
//
// Between calls, a curve may only grow by appending: Extend compares
// lengths, not values. SplitAllocation reads the curves of the last call,
// so the caller must leave their first len(curve) entries as they are
// until it has split. It polls ctx before every row and on cancellation
// returns the wrapped context error, leaving the allocation empty so a
// retry recomputes it.
func (a *CurveAllocation) Extend(ctx context.Context, curves [][]float64, kmax int) ([]float64, error) {
	if len(a.rows) != len(curves) {
		a.rows = make([]allocRow, len(curves))
	}
	a.curves = curves
	plo, prev := 0, allocOrigin // previous row's band start and values
	changed := false
	for r, curve := range curves {
		if err := ctxErr(ctx); err != nil {
			a.rows, a.curves = nil, nil
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
		row.curveLen = len(curve)
		a.steps += fillAllocRow(row.val, prev, curve, plo, from, hi)
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

// fillAllocRow computes the cells k = from … hi of the band val (run r's
// row, band start plo+1) from the previous row's values prev (stored from
// total plo), and returns the number of (k, j) candidates it evaluated.
// A cell keeps only the minimum, which involves no rounding, so the order
// of candidates does not matter: j is the outer loop, four sizes at a time,
// so the inner loop streams contiguous slices and loads and stores each
// cell once per four candidates.
func fillAllocRow(val, prev, curve []float64, plo, from, hi int) int64 {
	if from > hi {
		return 0
	}
	phi := plo + len(prev) - 1
	val = val[from-plo-1:] // val[k−from] = A[r][k]
	for i := range val {
		val[i] = Inf
	}
	var steps int64
	jmax := min(len(curve), hi-plo)
	j := 1
	for ; j+3 <= jmax; j += 4 {
		// klo … khi are the totals all four candidates reach; each folds
		// the rest of its cells on its own.
		klo, khi := max(from, plo+j+3), min(hi, phi+j)
		if klo > khi {
			klo, khi = hi+1, hi
		}
		for jj := j; jj < j+4; jj++ {
			steps += foldAllocCandidate(val, prev, curve[jj-1], jj, plo, from, from, klo-1)
			steps += foldAllocCandidate(val, prev, curve[jj-1], jj, plo, from, khi+1, hi)
		}
		if klo > khi {
			continue
		}
		c0, c1, c2, c3 := curve[j-1], curve[j], curve[j+1], curve[j+2]
		vs := val[klo-from : khi-from+1]
		p0 := prev[klo-j-plo:][:len(vs)]
		p1 := prev[klo-j-1-plo:][:len(vs)]
		p2 := prev[klo-j-2-plo:][:len(vs)]
		p3 := prev[klo-j-3-plo:][:len(vs)]
		for i, v := range vs {
			if e := p0[i] + c0; e < v {
				v = e
			}
			if e := p1[i] + c1; e < v {
				v = e
			}
			if e := p2[i] + c2; e < v {
				v = e
			}
			if e := p3[i] + c3; e < v {
				v = e
			}
			vs[i] = v
		}
		steps += 4 * int64(len(vs))
	}
	for ; j <= jmax; j++ {
		steps += foldAllocCandidate(val, prev, curve[j-1], j, plo, from, from, hi)
	}
	return steps
}

// foldAllocCandidate folds the candidate size j, costing c, into the cells
// of val (stored from total from) within the totals lo … hi that j reaches
// from prev (stored from total plo), and returns how many it folded.
func foldAllocCandidate(val, prev []float64, c float64, j, plo, from, lo, hi int) int64 {
	lo, hi = max(lo, plo+j), min(hi, plo+len(prev)-1+j)
	if lo > hi {
		return 0
	}
	ps := prev[lo-j-plo : hi-j-plo+1]
	vs := val[lo-from:][:len(ps)]
	for i, p := range ps {
		if e := p + c; e < vs[i] {
			vs[i] = e
		}
	}
	return int64(len(ps))
}

// SplitAllocation walks the allocation backwards from a total size k and
// returns how many tuples each run receives (the entries sum to k). It
// fails when the last Extend found no finite allocation of k tuples.
//
// It reads the curves passed to the last Extend. Run r's size is the
// smallest j whose candidate prev[k−j] + curve_r[j−1] equals A[r][k] bit
// for bit, over the candidates the fill tried: the j a scan in increasing
// j keeping strict improvements would have kept, since the minimum
// involves no rounding.
func (a *CurveAllocation) SplitAllocation(k int) ([]int, error) {
	alloc := make([]int, len(a.rows))
	for r := len(a.rows) - 1; r >= 0; r-- {
		j := a.split(r, k)
		if j == 0 {
			return nil, fmt.Errorf("core: internal error reconstructing parallel DP at run %d", r)
		}
		alloc[r] = j
		k -= j
	}
	return alloc, nil
}

// split returns the size run r receives in the optimum A[r][k], or 0 when
// that cell is unreached.
func (a *CurveAllocation) split(r, k int) int {
	val := a.rows[r].val
	i := k - r - 1
	if i < 0 || i >= len(val) || val[i] == Inf {
		return 0
	}
	plo, prev := 0, allocOrigin
	if r > 0 {
		plo, prev = r, a.rows[r-1].val
	}
	curve := a.curves[r]
	for j := max(1, k-(plo+len(prev)-1)); j <= min(len(curve), k-plo); j++ {
		if prev[k-j-plo]+curve[j-1] == val[i] {
			return j
		}
	}
	return 0
}

// retainedBytes is the memory the allocation's bands hold.
func (a *CurveAllocation) retainedBytes() int64 {
	var b int64
	for _, row := range a.rows {
		b += int64(cap(row.val)) * 8
	}
	return b
}

// growExact resizes s to n elements, keeping its prefix. When the capacity
// falls short it reallocates to exactly n, not to append's doubled
// capacity: a band grows a little per deepening round, and doubling would
// hold up to twice the reachable cells.
func growExact(s []float64, n int) []float64 {
	if n <= cap(s) {
		return s[:n]
	}
	t := make([]float64, n)
	copy(t, s)
	return t
}
