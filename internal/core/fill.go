package core

import (
	"fmt"
)

// FillAlgo selects the algorithm that fills one row of the DP error matrix
// E[k] given row E[k−1]. Both algorithms produce bitwise-identical E and J
// rows — they share the CostKernel's merge-cost arithmetic and the same
// rightmost-argmin tie handling — and differ only in how many candidate
// split points they evaluate:
//
//   - FillPruned scans candidates right to left and stops once the row's
//     own finished cell E[k][j] plus the merge cost w(j+1, i) reaches the
//     best total: the merge cost is superadditive, so every candidate
//     further left costs at least that much. This subsumes the
//     Jagadish-style exit (the merge cost alone exceeds the best total),
//     and a rounding slack keeps the rows bit for bit those of that exit
//     alone (see fillRowScan). Worst case O(n) per cell, O(n²) per row; in
//     practice often far less.
//   - FillDC exploits that inside a monotone segment — a maximal stretch
//     with per-dimension monotone values, certified piecewise by
//     CostKernel.MonotoneSegments — the weighted SSE merge cost satisfies
//     the concave quadrangle inequality, so optimal in-segment split
//     points are monotone across the segment's cells: divide and conquer
//     evaluates O(m log m) in-segment candidates for a segment of m cells.
//
// Dispatch is per segment, not all-or-nothing: every row's cells are
// partitioned by the kernel's piecewise-monotone segmentation, segments of
// at least fillSegmentMin rows run FillDC over their in-segment candidates
// and then complete each cell over the remaining out-of-segment candidates
// (where the quadrangle inequality genuinely fails — e.g. values 0, 100, 0)
// with the envelope-pruned scan: a blocked
// right-to-left scan that discards whole candidate blocks in O(1) against
// a progressive lower envelope of min(prevE)+MergeErr (envComplete).
// Shorter segments run the same envelope-pruned scan over their windows.
// Mixed-shape series therefore get the monotone speedup on their monotone
// stretches instead of losing it to a single direction change; results are
// identical for every selection on every input.
// FillAuto (the zero value) picks FillPruned below fillAutoThreshold rows
// and FillDC at or above it — on every exact path, the incremental Solver
// included — except for the pruning-ablation modes, whose scan-work
// measurements auto never replaces.
type FillAlgo uint8

const (
	// FillAuto selects the algorithm by input size (the default).
	FillAuto FillAlgo = iota
	// FillPruned is the i*/j′-pruned right-to-left candidate scan.
	FillPruned
	// FillDC is the monotone divide-and-conquer row fill.
	FillDC
)

// fillAutoThreshold is the input size at which FillAuto switches from the
// pruned scan to the monotone divide-and-conquer fill (on series the kernel
// certifies; everything else scans regardless). On certified workloads the
// measured crossover is far below this — FillDC already wins ~2× at n = 64
// and ~40× at n = 8192 — so the threshold only keeps the certification scan
// and recursion off inputs too small to care. The `fill` experiment records
// the trajectory.
const fillAutoThreshold = 256

// fillSegmentMin is the smallest monotone segment the per-segment dispatch
// hands to the monotone fill; shorter segments use the pruned scan for
// their cells. The monotone fill wins asymptotically, so the bound only
// keeps recursion setup and the per-cell completion probe off stretches too
// short to repay them — oscillating noise decomposes into segments of two
// or three rows, which the scan handles in as many candidate evaluations.
// CostKernel.MonotoneCoverage reports the row fraction above this bound.
const fillSegmentMin = 16

// String names the algorithm; the names round-trip through ParseFillAlgo.
func (a FillAlgo) String() string {
	switch a {
	case FillAuto:
		return "auto"
	case FillPruned:
		return "pruned"
	case FillDC:
		return "dc"
	}
	return fmt.Sprintf("fill(%d)", uint8(a))
}

// Valid reports whether a is one of the defined algorithms. NewKernel
// rejects every other value, so no exact path runs with one.
func (a FillAlgo) Valid() bool { return a <= FillDC }

// ParseFillAlgo resolves a row-fill algorithm name ("auto", "pruned" or
// "dc"). The retired names "smawk" and "online" resolve to FillAuto: they
// named fills that produced the same matrices as every other fill. It is
// also the name check of the serve wire's fill_algo field, which answers
// every name it accepts as FillAuto.
func ParseFillAlgo(s string) (FillAlgo, error) {
	switch s {
	case "", "auto", "smawk", "online":
		return FillAuto, nil
	case "pruned":
		return FillPruned, nil
	case "dc":
		return FillDC, nil
	}
	return FillAuto, fmt.Errorf("core: unknown fill algorithm %q (have %v)", s, FillAlgoNames())
}

// FillAlgoNames lists the recognized fill-algorithm names in definition
// order.
func FillAlgoNames() []string {
	return []string{"auto", "pruned", "dc"}
}

// resolve maps FillAuto onto a concrete algorithm for an input of size n.
func (a FillAlgo) resolve(n int) FillAlgo {
	if a != FillAuto {
		return a
	}
	if n >= fillAutoThreshold {
		return FillDC
	}
	return FillPruned
}

// The monotone row fill below computes, for every cell i of row k ≥ 2,
//
//	E[k][i] = min_j E[k−1][j] + w(j+1, i),   J[k][i] = the LARGEST argmin,
//
// where w is the merge cost (Inf across gaps). Inside a certified monotone
// segment [a, b] (CostKernel.MonotoneSegments), w satisfies the concave
// quadrangle inequality — for split candidates j < j′ and cells i < i′
// whose merges stay inside the segment,
//
//	w(j+1, i) + w(j′+1, i′) ≤ w(j+1, i′) + w(j′+1, i)
//
// (the weighted sorted 1-D k-means Monge property) — so the candidate
// matrix M[i][j] = E[k−1][j] + w(j+1, i) restricted to the segment's cells
// i ∈ [a, b] and its in-segment candidates j ∈ [a−1, i−1] is totally
// monotone (the E[k−1][j] term is column-constant, so it cannot break the
// inequality; an Inf from an infeasible prefix is column-constant too): if
// a right candidate is at least as good as a left one at some cell, it
// stays at least as good at every later cell. The rightmost in-segment
// argmin is therefore non-decreasing in i, which is exactly the tie-break
// the pruned scan applies (it scans right to left and keeps the first
// strict improvement), so the monotone fill reproduces the scan's
// in-segment minima bit for bit.
//
// Each cell's remaining candidates — split points left of the segment,
// j ∈ [max(k−1, rightmostGapBefore(i)), a−2] — are completed afterwards by
// the envelope-pruned scan (completeSegment → envComplete): candidates are
// visited right to left a block at a time, and a block is discarded whole
// in O(1) when the monotone lower envelope — the static bound
// min(prevE[block]) + w(rightEdge+1, i) or the tighter progressive bound
// refreshed as earlier cells evaluated the block (see ensureEnvelope) —
// already reaches the incumbent (the merge cost w(j+1, i) grows as j moves
// left: SSE over a superset of rows, the same monotonicity behind the
// Jagadish early exit, so the right edge bounds the block). Completion
// replaces a cell only on strict improvement, every out-of-segment
// candidate lies left of every in-segment one, blocks are scanned in the
// reference order, and skipped blocks cannot strictly improve the
// incumbent, so the rightmost-argmin convention survives the merge; all
// candidate values are ≥ +0 and computed by the shared kernel arithmetic,
// so the combined minimum is bitwise-identical to the full scan's.
//
// Gaps integrate into the same framework: segments never span a gap, a
// merge cost across a gap is Inf, and those Inf cells persist downward (the
// rightmost gap before i is non-decreasing in i). The segmented fill
// therefore restricts each cell's candidate window to
// [max(k−1, rightmostGapBefore(i)), i−1] — the Section 5.3 jmin bound — and
// cap the cell range at the k-th gap — the imax bound — unconditionally:
// outside those bounds every candidate is infinite, so the produced rows
// are identical for every PruneMode (only the scan's work differs across
// ablation modes).

// ensureRightGap materializes rightmostGapBefore(i) for every position so
// the monotone fill resolves candidate windows in O(1) under random access.
func (st *dpState) ensureRightGap() {
	if st.rightGap != nil {
		return
	}
	st.rightGap = make([]int32, st.n+1)
	rg, gi := int32(0), 0
	gaps := st.kn.gaps
	for i := 0; i <= st.n; i++ {
		for gi < len(gaps) && gaps[gi] < i {
			rg = int32(gaps[gi])
			gi++
		}
		st.rightGap[i] = rg
	}
}

// effectiveIMax caps a row's cell range at the k-th gap: beyond it every
// cell of row k is infinite regardless of the pruning mode, so the
// segmented fill never visits those cells (the initialization already left them Inf
// with split point 0, matching the scan's output).
func (st *dpState) effectiveIMax(k, imax int) int {
	if k <= len(st.kn.gaps) && st.kn.gaps[k-1] < imax {
		return st.kn.gaps[k-1]
	}
	return imax
}

// pollFill polls cancellation every cancelCheckCells candidate evaluations,
// amortizing the context check off the fills' hot paths. It is the one
// poll inside a row: the first row, the scan (forced splits included), the
// segmented fill and the merge-cost table's build all count their
// evaluations here.
func (st *dpState) pollFill(evals int) error {
	st.fillSteps += int64(evals)
	if st.fillSteps < cancelCheckCells {
		return nil
	}
	st.fillSteps = 0
	return st.opts.canceled()
}

// --- per-segment dispatch ---

// fillRowSegmented walks the kernel's piecewise-monotone segmentation over
// the row's cells [k, imax]: segments of at least fillSegmentMin rows run
// the monotone divide and conquer (FillDC) over their in-segment candidates
// and then complete every cell with the envelope-pruned out-of-segment
// scan; shorter segments run the envelope-pruned scan over their whole
// candidate windows. On fully monotone data (one segment per run) the
// completion windows are empty and this reduces to a whole-row monotone
// fill.
func (st *dpState) fillRowSegmented(k, imax int, jrow []int32) error {
	imax = st.effectiveIMax(k, imax)
	if k > imax {
		return nil
	}
	st.ensureRightGap()
	st.envValid = false // prevE changed since the last row's envelope state
	st.envHint = -1     // last row's winning splits don't seed this row
	segs := st.segs
	for t, start := range segs {
		a := int(start)
		b := st.n
		if t+1 < len(segs) {
			b = int(segs[t+1]) - 1
		}
		if b < k {
			continue
		}
		if a > imax {
			break
		}
		ilo, ihi := max(k, a), min(imax, b)
		if b-a+1 < fillSegmentMin {
			// Eligibility goes by the full segment length, not the visited
			// slice, so a row's dispatch never depends on its k/imax bounds.
			if err := st.fillScanRange(k, ilo, ihi, jrow); err != nil {
				return err
			}
			continue
		}
		if err := st.dcSolve(k, ilo, ihi, max(k-1, a-1), ihi-1, jrow); err != nil {
			return err
		}
		if err := st.completeSegment(k, a, ilo, ihi, jrow); err != nil {
			return err
		}
	}
	return nil
}

// fillScanRange fills cells ilo..ihi of row k with the envelope-pruned
// candidate scan under the monotone fill's conventions: the jmin/imax gap
// bounds apply unconditionally (outside them every candidate is infinite,
// so the produced cells are identical for every PruneMode) and rightGap is
// resolved from the materialized table. It serves the segments too short
// for the monotone fill to repay its setup; the envelope bound (see
// envComplete) keeps those cells from scanning their whole windows.
func (st *dpState) fillScanRange(k, ilo, ihi int, jrow []int32) error {
	for i := ilo; i <= ihi; i++ {
		st.stats.Cells++
		jmin := max(k-1, int(st.rightGap[i]))
		best, bestJ, evals := st.envComplete(i, jmin, i-1, Inf, 0)
		st.stats.InnerIters += int64(evals)
		st.curE[i] = best
		if jrow != nil {
			jrow[i] = bestJ
		}
		if err := st.pollFill(evals); err != nil {
			return err
		}
	}
	return nil
}

// completeSegment finishes cells ilo..ihi of the segment starting at a: the
// monotone fill compared only in-segment candidates j ≥ a−1, so the
// remaining window [max(k−1, rightmostGapBefore(i)), a−2] is searched with
// the envelope-pruned scan (envComplete), replacing a cell only on strict
// improvement (every out-of-segment candidate lies left of the in-segment
// argmin, so the rightmost-argmin convention is preserved). When the
// segment starts its run the window is empty and the loop falls through.
// The cells were already counted by the monotone fill; only the extra
// candidate evaluations land in InnerIters.
func (st *dpState) completeSegment(k, a, ilo, ihi int, jrow []int32) error {
	evals := 0
	for i := ilo; i <= ihi; i++ {
		jmin := max(k-1, int(st.rightGap[i]))
		if a-2 < jmin {
			continue
		}
		best, bestJ, cellEvals := st.envComplete(i, jmin, a-2, st.curE[i], -1)
		evals += cellEvals
		if bestJ >= 0 {
			st.curE[i] = best
			if jrow != nil {
				jrow[i] = bestJ
			}
		}
	}
	st.stats.InnerIters += int64(evals)
	return st.pollFill(evals)
}

// --- envelope-pruned completion ---

// envBlockBits sets the envelope granularity: completion candidates are
// grouped by split point into blocks of 2^envBlockBits columns — the unit
// in which the scan skips, probes and refreshes. 32 columns amortize each
// O(1) bound probe to a small fraction of a candidate evaluation per
// skipped column while keeping a refresh (one pass over the block) cheap
// enough to repay itself within a couple of cells.
const (
	envBlockBits = 5
	envBlock     = 1 << envBlockBits
)

// envSafety is the relative slack the completion scan keeps between a
// lower bound and the incumbent before discarding candidates: a block is
// skipped only when bound ≥ best·(1+envSafety). The bounds below are exact
// in real arithmetic; the slack absorbs the floating-point error of the
// prefix-slab evaluations on both sides of the comparison, so a skipped
// candidate is never one the reference scan would have installed as a
// strict improvement. 10⁻⁶ is orders of magnitude above the slabs' relative
// rounding error and orders below any error gap the DP distinguishes on
// real data, so the slack costs no measurable pruning.
const envSafety = 1e-6

// ensureEnvelope (re)initializes the per-block envelope state for the
// current prevE row. The completion scan minimizes
//
//	f_i(j) = prevE[j] + rerr(j+1, i)
//
// over out-of-segment split points j, and the envelope maintains, per block
// of 2^envBlockBits consecutive columns, two progressive lower bounds it
// can test in O(1) per block:
//
//   - static: min(prevE[block]) + rerr(hi+1, i) ≤ f_i(j) for every j ≤ hi
//     in the block — prevE is non-negative and the merge cost only grows as
//     the split moves left (SSE over a superset of rows, the monotonicity
//     behind the Jagadish exit), so the block's right edge bounds it whole.
//
//   - progressive: when a block was last refreshed at cell I (envAt), every
//     leaf holds its exact value f_I(j) ≥ envMin, and the weighted
//     parallel-axis decomposition of the merge cost
//
//     rerr(j+1, i) = rerr(j+1, I) + rerr(I+1, i)
//
//   - (W₁·W₂/(W₁+W₂))·Σ_d w²_d·(μ_{j,d} − ν_d)²
//
//     (W₁, μ the length and per-dimension means of run (j, I]; W₂, ν those
//     of run (I, i]) gives f_i(j) ≥ envMin + rerr(I+1, i) + pooled term,
//     with the pooled term bounded below through the refresh-time interval
//     [envMuLo, envMuHi] enclosing every leaf's run mean and the smallest
//     in-block run length W₁ = l[I]−l[hi]. The pooled term is what prices
//     the growth of every candidate's merge cost since the refresh — it
//     recovers ≈ (vᵢ−μ)² per appended row, which is exactly the rate at
//     which the incumbent grows too, so a refreshed block keeps pruning
//     even as the incumbent decays.
//
// Blocks are refreshed whole (every leaf re-evaluated in one pass) so the
// refresh cell I is uniform across the block and the decomposition above
// pairs each leaf's stored value with its own growth. The state is rebuilt
// lazily per row — fully certified series, whose completion windows are all
// empty, never pay for it.
func (st *dpState) ensureEnvelope() {
	if st.envValid {
		return
	}
	nb := (st.n >> envBlockBits) + 1
	p := st.kn.p
	if st.envMin == nil {
		st.envMin = make([]float64, nb)
		st.envMinPrev = make([]float64, nb)
		st.envAt = make([]int32, nb)
		st.envLo = make([]int32, nb)
		st.envHi = make([]int32, nb)
		st.envMuLo = make([]float64, nb*p)
		st.envMuHi = make([]float64, nb*p)
	}
	prevE := st.prevE
	for b := 0; b < nb; b++ {
		lo := b << envBlockBits
		hi := min(lo+envBlock-1, st.n)
		m := prevE[lo]
		for j := lo + 1; j <= hi; j++ {
			m = min(m, prevE[j])
		}
		st.envMinPrev[b] = m
		st.envMin[b] = m
		st.envAt[b] = -1
	}
	st.envValid = true
}

// envComplete minimizes f_i(j) = prevE[j] + rerr(j+1, i) over the candidate
// range [j1, j2], seeded with the incumbent (best, bestJ) and returning the
// window minimum with the rightmost argmin — the value and argmin the
// reference right-to-left scan produces (its Jagadish exit only ever cuts
// candidates whose merge cost alone already exceeds the running minimum,
// which under the merge cost's superset monotonicity are strictly worse
// than the answer, so the reference's result IS the window minimum with the
// rightmost argmin; see the tie rules below).
//
// The scan exploits that the winning split point moves slowly from one
// cell to the next: it first refreshes the block containing the previous
// cell's completion argmin (envHint), which lands the incumbent near its
// final value immediately, then sweeps the remaining blocks right to left,
// discarding each in O(1) against that strong incumbent (tallied in
// stats.EnvelopeSkips):
//
//   - the Jagadish stop: once the merge cost at a block's right edge alone
//     exceeds the incumbent, every remaining leaf to the left is strictly
//     worse (superset monotonicity) and the sweep ends;
//   - the static and progressive envelope bounds (see ensureEnvelope): a
//     block whose bound reaches best·(1+envSafety) cannot strictly improve
//     the incumbent and is skipped whole. A bound that only ties the
//     incumbent (lb == best, possible at best = 0) skips just the blocks
//     left of the current argmin — a tie further right must still be
//     evaluated to keep the argmin rightmost.
//
// A surviving block is refreshed (envRefresh): every leaf is evaluated at
// the current cell with the reference's exact arithmetic, the incumbent is
// updated under the rightmost-tie rule, and the block's envelope state is
// rebuilt so later cells inherit the tightened bound. A Jagadish stop
// inside a refresh freezes the incumbent — the frozen leaf's merge cost
// exceeds the incumbent, so every leaf further left is strictly worse and
// the sweep ends once the block's state is complete.
//
// The returned count is the number of merge-cost evaluations spent; bound
// probes are O(1) per block and are not counted as inner iterations.
func (st *dpState) envComplete(i, j1, j2 int, best float64, bestJ int32) (float64, int32, int) {
	if j2 < j1 {
		return best, bestJ, 0
	}
	st.ensureEnvelope()
	kn := st.kn
	rerr := st.rerr
	l := kn.l
	p := kn.p
	stride := st.n + 1
	s, w2 := kn.s, kn.w2
	evals := 0

	// Seed: refresh the block that held the previous cell's winner, so the
	// sweep below compares against a near-final incumbent instead of paying
	// one evaluation per candidate on the long slide toward the optimum.
	hintB := -1
	floor := j1 // leaves left of floor are proven worse than the incumbent
	if h := st.envHint; h >= j1 && h <= j2 {
		hintB = h >> envBlockBits
		var stopJ, ev int
		best, bestJ, stopJ, ev = st.envRefresh(hintB, i, j1, j2, best, bestJ)
		evals += ev
		if stopJ >= 0 {
			floor = max(floor, stopJ)
		}
	}

	for b := j2 >> envBlockBits; b >= floor>>envBlockBits; b-- {
		if b == hintB {
			continue // evaluated this cell; its minimum is in the incumbent
		}
		lo := b << envBlockBits
		jlo := max(lo, floor)
		jhi := min(lo+envBlock-1, j2)
		if jhi < jlo {
			continue
		}
		rEdge := rerr(jhi+1, i)
		if rEdge > best {
			break // every remaining leaf costs at least rEdge on merges alone
		}
		thresh := best + best*envSafety
		lb := st.envMinPrev[b] + rEdge
		if lb < thresh {
			if I := int(st.envAt[b]); I >= 0 && I < i && int(st.envLo[b]) <= jlo && int(st.envHi[b]) >= jhi {
				credit := rerr(I+1, i)
				w1 := float64(l[I] - l[st.envHi[b]])
				wa := float64(l[i] - l[I])
				if w1 > 0 && wa > 0 {
					var pool float64
					for d := 0; d < p; d++ {
						mu2 := (s[d*stride+i] - s[d*stride+I]) / wa
						if muLo := st.envMuLo[b*p+d]; mu2 < muLo {
							dmu := muLo - mu2
							pool += w2[d] * dmu * dmu
						} else if muHi := st.envMuHi[b*p+d]; mu2 > muHi {
							dmu := mu2 - muHi
							pool += w2[d] * dmu * dmu
						}
					}
					credit += w1 * wa / (w1 + wa) * pool
				}
				if v := st.envMin[b] + credit; v > lb {
					lb = v
				}
			}
		}
		// Skip needs lb strictly above best (no leaf can tie) unless the
		// whole block lies left of the argmin, where ties lose anyway.
		if lb >= thresh && (lb > best || bestJ < 0 || jhi < int(bestJ)) {
			continue
		}
		var stopJ, ev int
		best, bestJ, stopJ, ev = st.envRefresh(b, i, floor, j2, best, bestJ)
		evals += ev
		if stopJ >= 0 {
			break // leaves left of the frozen leaf are strictly worse
		}
	}
	st.stats.EnvelopeSkips += int64(j2-j1+1) - int64(evals)
	if bestJ >= 0 {
		st.envHint = int(bestJ)
	}
	return best, bestJ, evals
}

// envRefresh evaluates every feasible leaf of block b at cell i — the
// reference scan's exact arithmetic, right to left — folding each value
// into the incumbent under the rightmost-tie rule (strict improvement, or
// an exact finite tie further right than the current completion argmin;
// bestJ < 0 marks an incumbent that lies right of the whole window, which
// ties must not displace). It rebuilds the block's envelope state: the
// minimum leaf value, the refresh cell, the covered leaf range and the
// per-dimension interval of run means, from which later cells derive the
// progressive bound. If a leaf's merge cost alone exceeds the incumbent,
// the incumbent freezes (leaves further left are strictly worse under
// superset monotonicity) but the remaining leaves are still evaluated so
// the stored state describes the whole covered range; the frozen position
// is returned as stopJ (−1 when no freeze happened) and ends the sweep.
func (st *dpState) envRefresh(b, i, j1, j2 int, best float64, bestJ int32) (float64, int32, int, int) {
	kn := st.kn
	rerr := st.rerr
	prevE := st.prevE
	l := kn.l
	p := kn.p
	stride := st.n + 1
	s := kn.s
	lo := b << envBlockBits
	jlo := max(lo, j1)
	jhi := min(lo+envBlock-1, j2)
	muLo := st.envMuLo[b*p : b*p+p]
	muHi := st.envMuHi[b*p : b*p+p]
	bmin := Inf
	stopJ := -1
	evals := 0
	for j := jhi; j >= jlo; j-- {
		e2 := rerr(j+1, i)
		evals++
		v := prevE[j] + e2
		bmin = min(bmin, v)
		if stopJ < 0 {
			if v < best || (v == best && v < Inf && bestJ >= 0 && int32(j) > bestJ) {
				best, bestJ = v, int32(j)
			}
			if e2 > best {
				stopJ = j
			}
		}
		w := float64(l[i] - l[j])
		for d := 0; d < p; d++ {
			mu := (s[d*stride+i] - s[d*stride+j]) / w
			if j == jhi {
				muLo[d], muHi[d] = mu, mu
			} else {
				muLo[d] = min(muLo[d], mu)
				muHi[d] = max(muHi[d], mu)
			}
		}
	}
	st.envMin[b] = bmin
	st.envAt[b] = int32(i)
	st.envLo[b], st.envHi[b] = int32(jlo), int32(jhi)
	return best, bestJ, stopJ, evals
}

// --- monotone divide and conquer ---

// dcSolve fills cells ilo..ihi with candidate split points clamped to
// [jlo, jhi] (further clamped per cell by its own jmin window).
func (st *dpState) dcSolve(k, ilo, ihi, jlo, jhi int, jrow []int32) error {
	if ilo > ihi {
		return nil
	}
	mid := ilo + (ihi-ilo)/2
	lo := max(jlo, max(k-1, int(st.rightGap[mid])))
	hi := min(jhi, mid-1)
	rerr := st.rerr
	prevE := st.prevE
	best := Inf
	bestJ := 0
	inner := 0
	for j := hi; j >= lo; j-- {
		inner++
		err2 := rerr(j+1, mid)
		if v := prevE[j] + err2; v < best {
			best = v
			bestJ = j
		}
		// err2 grows as j decreases; once it alone exceeds the best total,
		// no smaller j can win (the scan's early exit applies here too).
		if err2 > best {
			break
		}
	}
	st.stats.Cells++
	st.stats.InnerIters += int64(inner)
	st.curE[mid] = best
	if jrow != nil {
		jrow[mid] = int32(bestJ)
	}
	if err := st.pollFill(inner); err != nil {
		return err
	}
	// An Inf cell (every candidate saturated — possible under extreme
	// weights even on certified data) constrains neither neighbor: recurse
	// with the parent's bounds instead of narrowing through its sentinel.
	leftHi, rightLo := bestJ, bestJ
	if best == Inf {
		leftHi, rightLo = jhi, jlo
	}
	if err := st.dcSolve(k, ilo, mid-1, jlo, leftHi, jrow); err != nil {
		return err
	}
	return st.dcSolve(k, mid+1, ihi, rightLo, jhi, jrow)
}
