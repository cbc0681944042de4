package core

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/temporal"
)

// CostKernel is the shared merge-cost kernel behind every exact PTA
// evaluation: the auxiliary prefix structures of Section 5.2 for a
// sequential relation s of size n with p aggregate attributes, stored as
// flat, contiguous slabs so the DP inner loops stream over cache lines
// instead of chasing per-dimension row pointers:
//
//	s[d·(n+1)+i]  = Σ_{j≤i} |s_j.T| · s_j.B_d        (length-weighted value sums)
//	ss[d·(n+1)+i] = Σ_{j≤i} |s_j.T| · s_j.B_d²       (length-weighted square sums)
//	l[i]          = Σ_{j≤i} |s_j.T|                   (timestamp lengths)
//	gaps          = positions of non-adjacent tuple pairs (the gap vector)
//
// With them the error of merging any gap-free run s_i..s_j into one tuple is
// computed in O(p) time (Proposition 1) by MergeErr. Building a kernel costs
// O(np) time and space; in the paper this work is folded into the ITA scan.
//
// One kernel serves any number of row fills over the same sequence — the DP
// evaluators, DPMulti, the incremental Solver and the parallel run curves
// all draw their merge costs from here, so the cost arithmetic exists
// exactly once.
type CostKernel struct {
	seq  *temporal.Sequence
	n, p int
	w2   []float64
	s    []float64 // [p*(n+1)] flat, dimension-major; index 0 of each slab is the empty prefix
	ss   []float64 // [p*(n+1)] flat, dimension-major
	l    []int64   // [n+1]
	gaps []int     // 1-based positions l with s_l ⊀ s_{l+1}, ascending

	// scanSlack is the absolute rounding slack of the pruned scan's stop
	// (see fillRowScan): 4δ, with δ the bound on one merge-cost
	// evaluation's rounding error. NaN, which turns that stop off, when
	// the weighted square sum δ scales is near overflow.
	scanSlack float64

	// cost is the merge-cost closure (rangeErr), built once by NewKernel.
	cost func(i, j int) float64

	// Piecewise-monotone certification (MonotoneSegments), computed at most
	// once. The sync.Once makes lazy certification safe when goroutines
	// share one kernel (solvers over one kernel on several goroutines, as
	// TestMonotoneSegmentsConcurrent runs them; retained Solver kernels live
	// in caches): after the Once completes, monoSegs and monoCov are
	// immutable.
	monoOnce sync.Once
	monoSegs []int32 // ascending 1-based segment start positions; nil until computed
	monoCov  float64 // fraction of rows in dispatch-eligible segments; set with monoSegs

	// certifies counts how many times computeSegments actually ran — at most
	// 1 per kernel by construction. Tests read it to pin the guarantee that
	// retained paths (deepening rounds, repeated coverage queries) never
	// re-certify; see TestSolverCertifiesOnce.
	certifies atomic.Int64
}

// NewKernel validates the sequence and the options and builds the cost
// kernel. Covered lengths that overflow the int64 prefix lengths are an
// error wrapping temporal.ErrLengthOverflow.
func NewKernel(seq *temporal.Sequence, opts Options) (*CostKernel, error) {
	if !opts.Fill.Valid() {
		return nil, fmt.Errorf("core: unknown fill algorithm %v (have %v)", opts.Fill, FillAlgoNames())
	}
	w2, err := opts.weightsSquared(seq.P())
	if err != nil {
		return nil, err
	}
	n, p := seq.Len(), seq.P()
	kn := &CostKernel{
		seq:  seq,
		n:    n,
		p:    p,
		w2:   w2,
		gaps: seq.GapPositions(),
		s:    make([]float64, p*(n+1)),
		ss:   make([]float64, p*(n+1)),
		l:    make([]int64, n+1),
	}
	stride := n + 1
	for i := 1; i <= n; i++ {
		row := seq.Rows[i-1]
		length := float64(row.T.Len())
		kn.l[i] = kn.l[i-1] + row.T.Len()
		if kn.l[i] <= kn.l[i-1] && row.T.Valid() {
			// A valid row adds at least one chronon unless |T| or Σ|T|
			// wrapped past 2⁶³−1; CheckLengths names the row.
			return nil, fmt.Errorf("core: %w", temporal.CheckLengths(seq.Rows))
		}
		for d := 0; d < p; d++ {
			v := row.Aggs[d]
			kn.s[d*stride+i] = kn.s[d*stride+i-1] + length*v
			kn.ss[d*stride+i] = kn.ss[d*stride+i-1] + length*v*v
		}
	}
	// δ bounds one merge-cost evaluation's rounding error. Every term
	// MergeErr subtracts is at most w²_d·ss_d[n]: a range's square sum, and
	// its squared value sum over its length (Cauchy–Schwarz). Each of the p
	// terms errs by at most seven unit roundoffs of that, and their sum adds
	// p−1 more, so the error stays below (p+6)·2⁻⁵³·Σ_d w²_d·ss_d[n];
	// δ = 3(p+4)·2⁻⁵²·Σ_d w²_d·ss_d[n] keeps a wide margin over it. An E
	// value sums merge costs of disjoint ranges, so it stays below that sum
	// too; when twice the sum overflows (extreme weights or values) the
	// stop is off.
	var sq float64
	for d := 0; d < p; d++ {
		sq += w2[d] * kn.ss[d*stride+n]
	}
	delta := 3 * float64(p+4) * 0x1p-52 * sq
	kn.scanSlack = math.NaN()
	if 2*sq < Inf {
		kn.scanSlack = 4 * delta
	}
	kn.cost = kn.rangeErr()
	return kn, nil
}

// N returns the sequence size n.
func (kn *CostKernel) N() int { return kn.n }

// P returns the number of aggregate attributes p.
func (kn *CostKernel) P() int { return kn.p }

// Sequence returns the underlying sequential relation.
func (kn *CostKernel) Sequence() *temporal.Sequence { return kn.seq }

// Gaps returns the gap vector G: the ascending 1-based positions l at which
// rows l and l+1 are non-adjacent.
func (kn *CostKernel) Gaps() []int { return kn.gaps }

// CMin returns the smallest reachable reduction size (number of maximal
// adjacent runs).
func (kn *CostKernel) CMin() int {
	if kn.n == 0 {
		return 0
	}
	return len(kn.gaps) + 1
}

// MergeErr returns the error of merging the (assumed gap-free) run s_i..s_j
// into one tuple, per Proposition 1. Indices are 1-based and inclusive,
// 1 ≤ i ≤ j ≤ n. It calls the kernel's one cost closure (see rangeErr), the
// same one the row fills and the merge-cost table call, so every consumer
// computes identical bits.
func (kn *CostKernel) MergeErr(i, j int) float64 {
	return kn.cost(i, j)
}

// mergeErrN is the p ≥ 5 merge cost: four independent accumulators over a
// four-wide unrolled pass across the dimension-major slabs, so consecutive
// iterations carry no dependency chain and the slab loads pipeline.
func (kn *CostKernel) mergeErrN(i, j int) float64 {
	stride := kn.n + 1
	il := i - 1
	length := float64(kn.l[j] - kn.l[il])
	s, ss, w2 := kn.s, kn.ss, kn.w2
	var a0, a1, a2, a3 float64
	d, base := 0, 0
	for ; d+4 <= kn.p; d, base = d+4, base+4*stride {
		b0, b1, b2, b3 := base, base+stride, base+2*stride, base+3*stride
		sv0 := s[b0+j] - s[b0+il]
		sv1 := s[b1+j] - s[b1+il]
		sv2 := s[b2+j] - s[b2+il]
		sv3 := s[b3+j] - s[b3+il]
		a0 += w2[d] * (ss[b0+j] - ss[b0+il] - sv0*sv0/length)
		a1 += w2[d+1] * (ss[b1+j] - ss[b1+il] - sv1*sv1/length)
		a2 += w2[d+2] * (ss[b2+j] - ss[b2+il] - sv2*sv2/length)
		a3 += w2[d+3] * (ss[b3+j] - ss[b3+il] - sv3*sv3/length)
	}
	for ; d < kn.p; d, base = d+1, base+stride {
		sv := s[base+j] - s[base+il]
		a0 += w2[d] * (ss[base+j] - ss[base+il] - sv*sv/length)
	}
	sse := (a0 + a1) + (a2 + a3)
	if sse < 0 {
		return 0
	}
	return sse
}

// rangeErr builds the kernel's merge-cost closure, which NewKernel stores
// once and MergeErr, the row fills and the merge-cost table all call: the
// slab slices and the weights are hoisted into locals, so the
// per-candidate evaluation is branch-light flat-slice arithmetic with the
// bounds checks lifted out of the hot loops. The one-dimensional case —
// most of the paper's queries — is a handful of flat loads with no inner
// loop; p ∈ {2, 3, 4} take dedicated straight-line bodies, and p ≥ 5 the
// unrolled mergeErrN. A negative result (a rounding residue from
// cancellation) is clamped to 0.
func (kn *CostKernel) rangeErr() func(i, j int) float64 {
	stride := kn.n + 1
	switch kn.p {
	case 1:
		s, ss, l, w20 := kn.s[:stride], kn.ss[:stride], kn.l[:stride], kn.w2[0]
		return func(i, j int) float64 {
			if i == j {
				return 0
			}
			length := float64(l[j] - l[i-1])
			sv := s[j] - s[i-1]
			e := w20 * (ss[j] - ss[i-1] - sv*sv/length)
			if e < 0 {
				return 0
			}
			return e
		}
	case 2:
		l := kn.l[:stride]
		s0, ss0 := kn.s[:stride], kn.ss[:stride]
		s1, ss1 := kn.s[stride:2*stride], kn.ss[stride:2*stride]
		w20, w21 := kn.w2[0], kn.w2[1]
		return func(i, j int) float64 {
			if i == j {
				return 0
			}
			il := i - 1
			length := float64(l[j] - l[il])
			sv0 := s0[j] - s0[il]
			sv1 := s1[j] - s1[il]
			sse := w20*(ss0[j]-ss0[il]-sv0*sv0/length) +
				w21*(ss1[j]-ss1[il]-sv1*sv1/length)
			if sse < 0 {
				return 0
			}
			return sse
		}
	case 3:
		l := kn.l[:stride]
		s0, ss0 := kn.s[:stride], kn.ss[:stride]
		s1, ss1 := kn.s[stride:2*stride], kn.ss[stride:2*stride]
		s2, ss2 := kn.s[2*stride:3*stride], kn.ss[2*stride:3*stride]
		w20, w21, w22 := kn.w2[0], kn.w2[1], kn.w2[2]
		return func(i, j int) float64 {
			if i == j {
				return 0
			}
			il := i - 1
			length := float64(l[j] - l[il])
			sv0 := s0[j] - s0[il]
			sv1 := s1[j] - s1[il]
			sv2 := s2[j] - s2[il]
			sse := w20*(ss0[j]-ss0[il]-sv0*sv0/length) +
				w21*(ss1[j]-ss1[il]-sv1*sv1/length) +
				w22*(ss2[j]-ss2[il]-sv2*sv2/length)
			if sse < 0 {
				return 0
			}
			return sse
		}
	case 4:
		l := kn.l[:stride]
		s0, ss0 := kn.s[:stride], kn.ss[:stride]
		s1, ss1 := kn.s[stride:2*stride], kn.ss[stride:2*stride]
		s2, ss2 := kn.s[2*stride:3*stride], kn.ss[2*stride:3*stride]
		s3, ss3 := kn.s[3*stride:4*stride], kn.ss[3*stride:4*stride]
		w20, w21, w22, w23 := kn.w2[0], kn.w2[1], kn.w2[2], kn.w2[3]
		return func(i, j int) float64 {
			if i == j {
				return 0
			}
			il := i - 1
			length := float64(l[j] - l[il])
			sv0 := s0[j] - s0[il]
			sv1 := s1[j] - s1[il]
			sv2 := s2[j] - s2[il]
			sv3 := s3[j] - s3[il]
			sse := w20*(ss0[j]-ss0[il]-sv0*sv0/length) +
				w21*(ss1[j]-ss1[il]-sv1*sv1/length) +
				w22*(ss2[j]-ss2[il]-sv2*sv2/length) +
				w23*(ss3[j]-ss3[il]-sv3*sv3/length)
			if sse < 0 {
				return 0
			}
			return sse
		}
	}
	return func(i, j int) float64 {
		if i == j {
			return 0
		}
		return kn.mergeErrN(i, j)
	}
}

// MonotoneSegments returns the piecewise-monotone segmentation of the
// sequence: the ascending 1-based start positions of maximal segments within
// which every aggregate dimension is monotone (non-decreasing or
// non-increasing, directions independent per dimension). Segmentation is
// greedy left to right — a segment extends until some dimension reverses the
// direction it established inside the segment — and every gap position also
// starts a new segment, so each segment lies inside one maximal gap-free
// run.
//
// Inside one segment the weighted merge cost satisfies the concave
// quadrangle inequality
//
//	MergeErr(a, e₁) + MergeErr(b, e₂) ≤ MergeErr(a, e₂) + MergeErr(b, e₁)
//
// for a ≤ b ≤ e₁ ≤ e₂ with all merges contained in the segment (the
// classical sorted 1-D k-means Monge property, summed over dimensions), so
// the DP candidate matrix restricted to a segment's cells and in-segment
// split points is totally monotone and the FillDC row fill applies there;
// across a segment boundary the inequality genuinely fails (e.g. values 0,
// 100, 0), which is why the fill completes each cell with a pruned scan
// over the out-of-segment candidates (see fill.go).
//
// The segmentation is computed at most once per kernel under a sync.Once,
// so, unlike most kernel methods, MonotoneSegments (and MonotoneCoverage)
// is safe to call from concurrent goroutines sharing one kernel. Callers
// must not mutate the returned slice.
func (kn *CostKernel) MonotoneSegments() []int32 {
	kn.monoOnce.Do(kn.computeSegments)
	return kn.monoSegs
}

// MonotoneCoverage reports the fraction of rows lying inside monotone
// segments long enough for the per-segment fill dispatch to engage (see
// fillSegmentMin) — the share of the series that gets the monotone-fill
// speedup. 1.0 on counter-like data, 0.0 on pure oscillating noise. The
// value is cached alongside the segmentation, so repeated queries (solver
// deepening rounds) cost a Once check, not a rescan.
func (kn *CostKernel) MonotoneCoverage() float64 {
	kn.monoOnce.Do(kn.computeSegments)
	return kn.monoCov
}

// computeSegments materializes the piecewise-monotone segmentation (1-based
// segment starts) and the derived dispatch coverage. Runs once per kernel
// under monoOnce.
func (kn *CostKernel) computeSegments() {
	kn.certifies.Add(1)
	if kn.n == 0 {
		kn.monoSegs = []int32{}
		return
	}
	rows := kn.seq.Rows
	dirs := make([]int8, kn.p)
	segs := make([]int32, 0, len(kn.gaps)+1)
	segment := func(lo, hi int) { // 0-based inclusive row range of one run
		segs = append(segs, int32(lo+1))
		clear(dirs)
		for r := lo + 1; r <= hi; r++ {
			split := false
			for d := 0; d < kn.p && !split; d++ {
				prev, v := rows[r-1].Aggs[d], rows[r].Aggs[d]
				switch {
				case v > prev:
					if dirs[d] < 0 {
						split = true
					}
					dirs[d] = 1
				case v < prev:
					if dirs[d] > 0 {
						split = true
					}
					dirs[d] = -1
				}
			}
			if split {
				// Rows r−1 and r cannot share a segment: r starts a new one
				// and directions reset (the pair across the boundary
				// establishes nothing inside the new segment).
				segs = append(segs, int32(r+1))
				clear(dirs)
			}
		}
	}
	start := 0
	for _, g := range kn.gaps {
		segment(start, g-1)
		start = g
	}
	segment(start, kn.n-1)
	kn.monoSegs = segs
	covered := 0
	for si, sstart := range segs {
		end := kn.n
		if si+1 < len(segs) {
			end = int(segs[si+1]) - 1
		}
		if m := end - int(sstart) + 1; m >= fillSegmentMin {
			covered += m
		}
	}
	kn.monoCov = float64(covered) / float64(kn.n)
}

// MaxError returns SSEmax = SSE(s, ρ(s, cmin)): the error of the maximal
// reduction that merges every maximal adjacent run into a single tuple.
func (kn *CostKernel) MaxError() float64 {
	if kn.n == 0 {
		return 0
	}
	var total float64
	start := 1
	for _, g := range kn.gaps {
		total += kn.MergeErr(start, g)
		start = g + 1
	}
	total += kn.MergeErr(start, kn.n)
	return total
}

// MergeRange builds the tuple s_i ⊕ ... ⊕ s_j (1-based, inclusive): the
// grouping values of s_i, the concatenated timestamp, and length-weighted
// average aggregate values (Definition 3 applied associatively).
func (kn *CostKernel) MergeRange(i, j int) temporal.SeqRow {
	kn.validateBounds(i, j)
	first, last := kn.seq.Rows[i-1], kn.seq.Rows[j-1]
	length := float64(kn.l[j] - kn.l[i-1])
	stride := kn.n + 1
	aggs := make([]float64, kn.p)
	for d := 0; d < kn.p; d++ {
		aggs[d] = (kn.s[d*stride+j] - kn.s[d*stride+i-1]) / length
	}
	return temporal.SeqRow{
		Group: first.Group,
		Aggs:  aggs,
		T:     temporal.Interval{Start: first.T.Start, End: last.T.End},
	}
}

// validateBounds panics on malformed 1-based run bounds; exported entry
// points validate their arguments instead, so this is a defensive check for
// internal callers only.
func (kn *CostKernel) validateBounds(i, j int) {
	if i < 1 || j > kn.n || i > j {
		panic(fmt.Sprintf("core: run bounds [%d, %d] out of range 1..%d", i, j, kn.n))
	}
}
