package core

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/temporal"
)

// referenceScanRow is the pruned scan with the Jagadish exit alone: every
// cell tries its candidates right to left and stops only once the merge
// cost by itself exceeds the best total. fillRowScan's stronger stop must
// reproduce its rows bit for bit.
func referenceScanRow(st *dpState, k, imax int, jrow []int32) {
	kn := st.kn
	for i := k; i <= imax; i++ {
		jmin := k - 1
		var rightGap int
		if st.pruneJ {
			rightGap = kn.RightmostGapBefore(i)
			jmin = max(jmin, rightGap)
		}
		if st.pruneJ && k-2 < len(kn.gaps) && rightGap != 0 && kn.gaps[k-2] == jmin {
			st.curE[i] = st.prevE[jmin] + st.rerr(jmin+1, i)
			jrow[i] = int32(jmin)
			continue
		}
		best, bestJ := Inf, int32(0)
		for j := i - 1; j >= jmin; j-- {
			var err2 float64
			if st.pruneJ {
				err2 = st.rerr(j+1, i)
			} else {
				err2 = kn.MergeErrAll(j+1, i)
			}
			if e := st.prevE[j] + err2; e < best {
				best, bestJ = e, int32(j)
			}
			if err2 > best {
				break
			}
		}
		st.curE[i] = best
		jrow[i] = bestJ
	}
}

// referenceMatrices fills c rows of E and J with referenceScanRow and
// returns copies of every row, the reference fillMatrices is held to.
func referenceMatrices(kn *CostKernel, pruneI, pruneJ bool, c int) ([][]float64, [][]int32) {
	st := newDPState(kn, Options{Fill: FillPruned}, pruneI, pruneJ, false)
	em, jm := make([][]float64, c), make([][]int32, c)
	for k := 1; k <= c; k++ {
		st.prevE, st.curE = st.curE, st.prevE
		for i := range st.curE {
			st.curE[i] = Inf
		}
		jrow := make([]int32, st.n+1)
		imax := st.n
		if pruneI && k <= len(kn.gaps) {
			imax = kn.gaps[k-1]
		}
		if k == 1 {
			if err := st.fillFirstRow(imax); err != nil {
				panic(err)
			}
		} else {
			referenceScanRow(st, k, imax, jrow)
		}
		em[k-1] = append([]float64(nil), st.curE...)
		jm[k-1] = jrow
	}
	return em, jm
}

// offsetSequence builds runs of 8–24 unit rows whose values sit at a large
// offset: random noise of the given amplitude around it, or, with ramp,
// unit steps down toward it. Each merge cost is then a small difference of
// large square sums, the shape where the scan's stop needs its absolute
// rounding slack.
func offsetSequence(rng *rand.Rand, runs, p int, offset, noise float64, ramp bool) *temporal.Sequence {
	names := make([]string, p)
	for d := range names {
		names[d] = fmt.Sprintf("v%d", d)
	}
	seq := temporal.NewSequence(nil, names)
	gid := seq.Groups.Intern(nil)
	t := temporal.Chronon(0)
	for r := 0; r < runs; r++ {
		for m := 8 + rng.Intn(17); m > 0; m-- {
			aggs := make([]float64, p)
			for d := range aggs {
				if ramp {
					aggs[d] = offset + float64(m)
				} else {
					aggs[d] = offset + noise*(rng.Float64()-0.5)
				}
			}
			seq.Rows = append(seq.Rows, temporal.SeqRow{Group: gid, Aggs: aggs, T: temporal.Inst(t)})
			t++
		}
		t++ // a temporal gap ends the run
	}
	return seq
}

// scanShape is one input of the reference-scan differential.
type scanShape struct {
	name string
	kn   *CostKernel
}

// scanShapes draws one kernel of every shape from rng: random with and
// without gaps, tie-heavy, monotone, weighted, extreme-weight (finite and
// overflowing δ) and large-offset, with offset/noise from 1 to 1e12.
func scanShapes(t *testing.T, rng *rand.Rand) []scanShape {
	t.Helper()
	var shapes []scanShape
	add := func(name string, seq *temporal.Sequence, weights []float64) {
		kn, err := NewKernel(seq, Options{Weights: weights})
		if err != nil {
			t.Fatal(err)
		}
		shapes = append(shapes, scanShape{name, kn})
	}
	weights := func(p int, lo, span float64) []float64 {
		w := make([]float64, p)
		for d := range w {
			w[d] = lo + rng.Float64()*span
		}
		return w
	}
	n, p := 2+rng.Intn(40), 1+rng.Intn(6)
	gap := []float64{0, 0.1, 0.35}[rng.Intn(3)]
	add("random", randomSequence(rng, n, p, gap), nil)
	add("gapped", randomSequence(rng, n, p, 0.3), nil)
	shapes = append(shapes, scanShape{"ties", tieSequence(rng, n, 1+rng.Intn(2), gap)})
	add("monotone", monotoneSequence(rng, n, p, gap), nil)
	add("weighted", randomSequence(rng, n, p, gap), weights(p, 0.25, 3))
	add("extreme-weight", randomSequence(rng, n, 1, gap), []float64{1e100})
	add("overflowing-weight", randomSequence(rng, n, 1, gap), []float64{1.4e151})
	for _, on := range [][2]float64{{1, 1}, {1e3, 1}, {1e6, 1}, {1e12, 1}, {1e3, 1e-3}, {1e6, 1e-3}, {1e9, 1e-3}} {
		add(fmt.Sprintf("offset=%g/noise=%g", on[0], on[1]), offsetSequence(rng, 2+rng.Intn(2), 1+rng.Intn(4), on[0], on[1], false), nil)
	}
	add("ramp offset=1e6", offsetSequence(rng, 2+rng.Intn(2), 1, 1e6, 0, true), nil)
	return shapes
}

// TestFillScanMatchesReference: the scan that stops at the row's own
// finished cells fills E and J bit for bit like the Jagadish-only
// reference, under all four pruning modes, on every shape scanShapes
// draws.
func TestFillScanMatchesReference(t *testing.T) {
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		for _, sh := range scanShapes(t, rng) {
			c := sh.kn.N()
			for _, m := range []PruneMode{PruneNone, PruneIMax, PruneJMin, PruneBoth} {
				pruneI, pruneJ := m == PruneIMax || m == PruneBoth, m == PruneJMin || m == PruneBoth
				wantE, wantJ := referenceMatrices(sh.kn, pruneI, pruneJ, c)
				gotE, gotJ := fillMatrices(t, sh.kn, Options{Fill: FillPruned}, pruneI, pruneJ, c)
				if !matricesBitwiseEqual(t, fmt.Sprintf("seed %d %s %v", seed, sh.name, m), wantE, gotE, wantJ, gotJ) {
					return
				}
			}
		}
	}
}

// Committed ceiling for the scan work guard below: the batch shape (64
// runs of 64 rows, p = 4) under the batch budgets fills every run's full
// curve. The Jagadish exit alone evaluates 2.00 M candidates there; the
// stop at the row's own cells about 0.9 M.
const guardBatchScanIters = 1_000_000

// TestBatchScanIterCeiling is the CI guard on the scan's work: a
// deterministic candidate count, not wall time. DPMultiParallel's results
// are pinned bit for bit against the serial evaluators by the
// multi-budget tests; this one pins how much scanning they cost.
func TestBatchScanIterCeiling(t *testing.T) {
	seq, err := dataset.Uniform(64, 64, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	budgets := []MultiBudget{{C: 409}, {C: 204}, {Eps: 0.05}}
	res, err := DPMultiParallel(seq, budgets, Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	st := res[0].Stats
	t.Logf("batch shape: %d cells, %d inner iterations", st.Cells, st.InnerIters)
	if st.InnerIters > guardBatchScanIters {
		t.Errorf("batch shape: %d inner iterations, ceiling %d", st.InnerIters, guardBatchScanIters)
	}
}

// TestScanPollsByCandidates: the scan polls the context through pollFill,
// every cancelCheckCells candidate evaluations, like the other fills. On
// 2 048 alternating 0, 1 rows the pinned scan evaluates about i candidates
// at cell i of row 2, so a context that cancels from its third poll (row
// 1's start, row 2's start, then the first poll inside row 2) stops the
// fill inside row 2 within cancelCheckCells + n evaluations. A poll every
// 4 096 cells let row 2 run to its end, 2 096 128 evaluations, and saw the
// cancel at row 3's start.
func TestScanPollsByCandidates(t *testing.T) {
	const n = 2048
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i % 2)
	}
	sv, err := NewSolver(unitSequence(vals), Options{Fill: FillPruned}, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sv.SolveSize(newPollCtx(3), n/10); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("SolveSize under a context that cancels from its third poll: %v", err)
	}
	iters := sv.Stats().InnerIters
	t.Logf("canceled after %d rows and %d candidate evaluations", sv.Rows(), iters)
	if sv.Rows() != 1 {
		t.Errorf("the fill stopped after %d rows, want inside row 2", sv.Rows())
	}
	if iters > cancelCheckCells+n {
		t.Errorf("%d candidate evaluations before the cancel, want at most %d", iters, cancelCheckCells+n)
	}
}
