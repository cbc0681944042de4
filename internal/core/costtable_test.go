package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/temporal"
)

// costTableShapes draws kernels of p aggregates and n rows for the table
// tests: random with and without gaps, random weights, values at offsets
// from 10³ to 10⁹ with small noise (every merge cost a small difference of
// large square sums), and weights of 10¹⁶⁰, whose squares overflow so that
// merge costs come out +Inf or NaN.
func costTableShapes(t *testing.T, rng *rand.Rand, n, p int) []scanShape {
	t.Helper()
	var shapes []scanShape
	add := func(name string, seq *temporal.Sequence, weights []float64) {
		kn, err := NewKernel(seq, Options{Weights: weights})
		if err != nil {
			t.Fatal(err)
		}
		shapes = append(shapes, scanShape{fmt.Sprintf("%s n=%d p=%d", name, n, p), kn})
	}
	weights := func(w func() float64) []float64 {
		ws := make([]float64, p)
		for d := range ws {
			ws[d] = w()
		}
		return ws
	}
	add("gap-free", randomSequence(rng, n, p, 0), nil)
	add("gapped", randomSequence(rng, n, p, 0.1), nil)
	add("weighted", randomSequence(rng, n, p, 0.05), weights(func() float64 { return 0.25 + 3*rng.Float64() }))
	for _, offset := range []float64{1e3, 1e6, 1e9} {
		seq := randomSequence(rng, n, p, 0.05)
		for _, r := range seq.Rows {
			for d := range r.Aggs {
				r.Aggs[d] = offset + r.Aggs[d]*1e-3
			}
		}
		add(fmt.Sprintf("offset=%g", offset), seq, nil)
	}
	add("overflowing-weight", randomSequence(rng, n, p, 0.05), weights(func() float64 { return 1e160 }))
	return shapes
}

// costTableSizes are the kernel sizes the table tests cover, up to the
// largest kernel that gets a table.
var costTableSizes = []int{1, 2, 5, 33, 100, fillAutoThreshold - 1}

// TestCostTableMatchesKernel: every entry of the merge-cost table is the
// kernel closure's own value, bit for bit, NaN and Inf included, for p = 1
// to 6 up to the size bound, and the table's mergeCost is MergeErrAll for
// every pair, gaps included. A fill that reads the table fills the same E
// and J rows, cells and inner iterations as one calling the closure, in
// every pruning mode.
func TestCostTableMatchesKernel(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	var sawInf, sawNaN bool
	for p := 1; p <= 6; p++ {
		for _, n := range costTableSizes {
			for _, sh := range costTableShapes(t, rng, n, p) {
				kn := sh.kn
				st := newDPState(kn, Options{}, true, true, false)
				if st.algo != FillPruned {
					t.Fatalf("%s: resolved fill %v, want the scan", sh.name, st.algo)
				}
				if err := st.buildCosts(); err != nil {
					t.Fatal(err)
				}
				for i := 1; i <= n; i++ {
					for j := int(st.rightGap[i]); j < i; j++ {
						got, want := st.costs[i*(i-1)/2+j], st.rerr(j+1, i)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s: costs[%d][%d] = %v, rangeErr(%d, %d) = %v", sh.name, i, j, got, j+1, i, want)
						}
						sawInf = sawInf || math.IsInf(got, 1)
						sawNaN = sawNaN || math.IsNaN(got)
					}
					for j := 0; j < i; j++ {
						got, want := st.mergeCost(j, i), kn.MergeErrAll(j+1, i)
						if math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s: mergeCost(%d, %d) = %v, MergeErrAll(%d, %d) = %v", sh.name, j, i, got, j+1, i, want)
						}
					}
				}
				st.dropCosts()

				if n > 100 && p > 2 {
					continue // the fills below cost O(n³) per mode
				}
				for _, m := range []PruneMode{PruneNone, PruneIMax, PruneJMin, PruneBoth} {
					pruneI, pruneJ := m == PruneIMax || m == PruneBoth, m == PruneJMin || m == PruneBoth
					wantE, wantJ, wantStats := fillScanRows(t, kn, pruneI, pruneJ, false)
					gotE, gotJ, gotStats := fillScanRows(t, kn, pruneI, pruneJ, true)
					if !matricesBitwiseEqual(t, fmt.Sprintf("%s %v", sh.name, m), wantE, gotE, wantJ, gotJ) {
						return
					}
					if gotStats != wantStats {
						t.Fatalf("%s %v: stats with the table %+v, without %+v", sh.name, m, gotStats, wantStats)
					}
				}
			}
		}
	}
	if !sawInf || !sawNaN {
		t.Errorf("no table entry was +Inf (%v) or NaN (%v): the overflow shape covers nothing", sawInf, sawNaN)
	}
}

// fillScanRows fills every row of kn with the scan, reading the merge-cost
// table when table is set, and returns copies of the E and J rows and the
// work counters.
func fillScanRows(t *testing.T, kn *CostKernel, pruneI, pruneJ, table bool) ([][]float64, [][]int32, DPStats) {
	t.Helper()
	st := newDPState(kn, Options{Fill: FillPruned}, pruneI, pruneJ, true)
	if table {
		if err := st.buildCosts(); err != nil {
			t.Fatal(err)
		}
		defer st.dropCosts()
	}
	em := make([][]float64, kn.N())
	for k := 1; k <= kn.N(); k++ {
		if _, err := st.fillRow(k); err != nil {
			t.Fatal(err)
		}
		em[k-1] = append([]float64(nil), st.curE...)
	}
	return em, st.splits, st.stats
}

// TestSolverDropsCostTable: a solver that filled with the table, or whose
// table build was canceled, holds no table once ensure or an error-budget
// search returns, and its MemBytes counts only the J rows and the three
// error rows.
func TestSolverDropsCostTable(t *testing.T) {
	seq, err := dataset.Mixed(1, fillAutoThreshold-1, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	sv, err := NewSolver(seq, Options{}, true, true)
	if err != nil {
		t.Fatal(err)
	}
	n := int64(seq.Len() + 1)
	if !sv.st.wantsCosts(costTableMinRows) || sv.st.wantsCosts(costTableMinRows-1) {
		t.Fatalf("a %d-row solver wants no table for %d rows or one for %d", n-1, costTableMinRows, costTableMinRows-1)
	}
	long, err := dataset.Mixed(1, fillAutoThreshold, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	lsv, err := NewSolver(long, Options{Fill: FillPruned}, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if lsv.st.wantsCosts(fillAutoThreshold) {
		t.Fatalf("a %d-row scan solver wants a table", fillAutoThreshold)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sv.st.opts.Ctx = ctx
	if err := sv.st.buildCosts(); !errors.Is(err, context.Canceled) {
		t.Fatalf("table build under a canceled context: %v, want context.Canceled", err)
	}
	sv.st.dropCosts()
	if err := sv.ensure(ctx, 20); !errors.Is(err, context.Canceled) || sv.Rows() != 0 {
		t.Fatalf("canceled ensure: %v after %d rows, want context.Canceled at 0", err, sv.Rows())
	}
	if sv.st.costs != nil || sv.st.costBuf != nil {
		t.Fatal("a canceled ensure left its table on the solver")
	}
	for _, k := range []int{20, 21, 40} {
		if err := sv.ensure(context.Background(), k); err != nil {
			t.Fatal(err)
		}
		if sv.st.costs != nil || sv.st.costBuf != nil {
			t.Fatalf("ensure to row %d left its table on the solver", k)
		}
		if got, want := sv.MemBytes(), int64(k)*n*4+3*n*8; got != want {
			t.Errorf("MemBytes at %d rows = %d, want %d", k, got, want)
		}
	}

	// An error-budget search fills one row per ensure call and builds the
	// table once it has filled costTableMinRows rows. It fills what a size
	// budget of its answer fills, rows and counts alike, and drops the
	// table when it returns, answered or canceled.
	const eps = 0.002
	probe := newPollCtx(0)
	esv, err := NewSolver(seq, Options{}, true, true)
	if err != nil {
		t.Fatal(err)
	}
	got, err := esv.SolveError(probe, eps)
	if err != nil {
		t.Fatal(err)
	}
	if got.C <= costTableMinRows+1 {
		t.Fatalf("eps=%v answers at %d rows, want a search past the table build at row %d", eps, got.C, costTableMinRows+1)
	}
	if esv.st.costs != nil || esv.st.costBuf != nil {
		t.Fatal("an error-budget search left its table on the solver")
	}
	if mem, want := esv.MemBytes(), int64(got.C)*n*4+3*n*8; mem != want {
		t.Errorf("MemBytes after the search = %d, want %d", mem, want)
	}
	want, err := PTAc(seq, got.C, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats != want.Stats || got.Error != want.Error || !got.Sequence.Equal(want.Sequence, 0) {
		t.Errorf("search to %d rows: %+v, error %v; size budget %d: %+v, error %v",
			got.C, got.Stats, got.Error, got.C, want.Stats, want.Error)
	}
	csv, err := NewSolver(seq, Options{}, true, true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := csv.SolveError(newPollCtx(probe.calls.Load()), eps); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("search canceled at its last poll: %v, want context.DeadlineExceeded", err)
	}
	if csv.Rows() <= costTableMinRows {
		t.Fatalf("search canceled after %d rows, want one past the table build", csv.Rows())
	}
	if csv.st.costs != nil || csv.st.costBuf != nil {
		t.Fatal("a canceled error-budget search left its table on the solver")
	}
}

// Committed ceiling for the allocation guard below: the batch shape's run
// curves, one worker, every curve to its full length. Each run allocates
// its kernel, its solver and one J row per filled row (64 runs × 64 rows);
// the merge-cost tables come from costPool. Measured: 5 390 allocations;
// a table allocated per ensure call instead makes it 5 452.
const guardRunCurveAllocs = 5_420

// TestRunCurvesAllocCeiling is a deterministic count, not wall time: the
// allocations of filling the batch shape's run curves.
func TestRunCurvesAllocCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	seq, err := dataset.Uniform(64, 64, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	kn, err := NewKernel(seq, Options{})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if err := newRunSolvers(kn, Options{}, 1).Extend(context.Background(), 64); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("batch shape run curves: %.0f allocations", allocs)
	if allocs > guardRunCurveAllocs {
		t.Errorf("batch shape run curves: %.0f allocations, ceiling %d", allocs, guardRunCurveAllocs)
	}
}
