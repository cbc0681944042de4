package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
)

// allocateCurvesOracle is the reference CurveAllocation must match bit for
// bit: the combination DP computed from scratch, every run's row over every
// total 1..kmax, skipping infinite predecessors, strict improvement so the
// smallest j wins ties. choice[r][k] is the size run r receives, -1 where
// unreached.
func allocateCurvesOracle(curves [][]float64, kmax int) (final []float64, choice [][]int32) {
	const unset = -1
	prev := make([]float64, kmax+1)
	cur := make([]float64, kmax+1)
	choice = make([][]int32, len(curves))
	for k := range prev {
		prev[k] = Inf
	}
	prev[0] = 0
	minNeeded := 0
	for r, curve := range curves {
		choice[r] = make([]int32, kmax+1)
		for k := range cur {
			cur[k] = Inf
			choice[r][k] = unset
		}
		maxLen := len(curve)
		minNeeded++ // every run contributes ≥ 1 tuple
		for k := minNeeded; k <= kmax; k++ {
			for j := 1; j <= maxLen && j < k+1; j++ {
				if prev[k-j] == Inf {
					continue
				}
				if e := prev[k-j] + curve[j-1]; e < cur[k] {
					cur[k] = e
					choice[r][k] = int32(j)
				}
			}
		}
		prev, cur = cur, prev
	}
	return prev, choice
}

// splitOracle walks allocateCurvesOracle's choice matrices back from k.
func splitOracle(choice [][]int32, k int) ([]int, error) {
	const unset = -1
	alloc := make([]int, len(choice))
	for r := len(choice) - 1; r >= 0; r-- {
		j := int(choice[r][k])
		if j == unset {
			return nil, fmt.Errorf("core: internal error reconstructing parallel DP at run %d", r)
		}
		alloc[r] = j
		k -= j
	}
	return alloc, nil
}

// matchOracle reports where ca's last Extend (which returned final)
// differs from the oracle over the same curves and kmax: the final row bit
// for bit, and SplitAllocation's allocation or error at every total k.
func matchOracle(ca *CurveAllocation, final []float64, curves [][]float64, kmax int) error {
	wantFinal, choice := allocateCurvesOracle(curves, kmax)
	if len(final) != len(wantFinal) {
		return fmt.Errorf("final has %d entries, want %d", len(final), len(wantFinal))
	}
	for k := range wantFinal {
		if math.Float64bits(final[k]) != math.Float64bits(wantFinal[k]) {
			return fmt.Errorf("final[%d] = %v, want %v", k, final[k], wantFinal[k])
		}
		got, gerr := ca.SplitAllocation(k)
		want, werr := splitOracle(choice, k)
		if !reflect.DeepEqual(got, want) || fmt.Sprint(gerr) != fmt.Sprint(werr) {
			return fmt.Errorf("SplitAllocation(%d) = %v, %v; want %v, %v", k, got, gerr, want, werr)
		}
	}
	return nil
}

// allocCase is one quick.Check input: full curves revealed by prefix over
// a sequence of Extend calls.
type allocCase struct {
	curves [][]float64 // the longest each curve gets
	lens   [][]int     // lens[call][r] = curve r's length at that call
	kmaxes []int
}

// Generate draws 1–8 runs with curves of 1–12 entries (now and then 0)
// over a handful of values, so equal totals tie often, with +Inf entries
// standing in for weight-saturated curves. Curves grow by appending over
// 1–4 calls, each run independently, so a middle run growing alone forces
// a partial recompute; kmax mostly grows, at times stays or shrinks, and
// is at times below the curve lengths, as the dist coordinator's curve
// cache produces.
func (allocCase) Generate(rng *rand.Rand, _ int) reflect.Value {
	R := 1 + rng.Intn(8)
	c := allocCase{curves: make([][]float64, R)}
	for r := range c.curves {
		c.curves[r] = make([]float64, 1+rng.Intn(12))
		for j := range c.curves[r] {
			switch v := rng.Intn(12); {
			case v == 0:
				c.curves[r][j] = Inf
			case v < 4:
				c.curves[r][j] = float64(rng.Intn(3)) / 2
			default:
				c.curves[r][j] = float64(rng.Intn(40)) / 4
			}
		}
	}
	cur := make([]int, R)
	for r := range cur {
		cur[r] = rng.Intn(len(c.curves[r]) + 1)
	}
	kmax := rng.Intn(R + 4)
	for call := 1 + rng.Intn(4); call > 0; call-- {
		c.lens = append(c.lens, append([]int(nil), cur...))
		c.kmaxes = append(c.kmaxes, kmax)
		for r := range cur {
			if rng.Intn(3) == 0 {
				cur[r] = min(len(c.curves[r]), cur[r]+1+rng.Intn(6))
			}
		}
		switch rng.Intn(6) {
		case 0: // same kmax
		case 1:
			kmax = max(0, kmax-1-rng.Intn(4))
		default:
			kmax += 1 + rng.Intn(2*R+8)
		}
	}
	return reflect.ValueOf(c)
}

// TestCurveAllocationMatchesOracle: across growing curves and kmax, every
// Extend of one resumable allocation agrees with the from-scratch oracle
// bit for bit, on the final row and on the allocation at every total.
func TestCurveAllocationMatchesOracle(t *testing.T) {
	f := func(c allocCase) bool {
		var ca CurveAllocation
		for call, lens := range c.lens {
			curves := make([][]float64, len(lens))
			for r, l := range lens {
				curves[r] = c.curves[r][:l]
			}
			kmax := c.kmaxes[call]
			final, err := ca.Extend(context.Background(), curves, kmax)
			if err == nil {
				err = matchOracle(&ca, final, curves, kmax)
			}
			if err != nil {
				t.Logf("call %d of %v, kmax %d: %v", call, c.lens, kmax, err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// TestCurveAllocationPartialRecompute: when a middle run's curve grows,
// the run before it keeps its row and only it and the runs after it are
// recomputed, and the result still matches the oracle.
func TestCurveAllocationPartialRecompute(t *testing.T) {
	curves := [][]float64{{9, 4, 1}, {8, 3}, {7, 5, 2, 0}, {6, 1}}
	var ca CurveAllocation
	if _, err := ca.Extend(context.Background(), curves, 11); err != nil {
		t.Fatal(err)
	}
	kept := &ca.rows[0].val[0]
	before := ca.steps
	curves[1] = append(curves[1], 0)
	final, err := ca.Extend(context.Background(), curves, 11)
	if err != nil {
		t.Fatal(err)
	}
	if err := matchOracle(&ca, final, curves, 11); err != nil {
		t.Fatal(err)
	}
	if &ca.rows[0].val[0] != kept {
		t.Error("row 0 was reallocated although neither its curve nor kmax changed")
	}
	var fresh CurveAllocation
	if _, err := fresh.Extend(context.Background(), curves, 11); err != nil {
		t.Fatal(err)
	}
	if re := ca.steps - before; re >= fresh.steps {
		t.Errorf("partial recompute evaluated %d candidates, a full pass %d", re, fresh.steps)
	}
}

// Committed ceiling for the allocation work guard below. The batch shape —
// 64 runs whose curves hold 64 entries, deepened over the totals
// 409 → 818 → 1636 → 3272 → 4096 as CompressMany's ptae plan does beside
// its c = 409 plan — evaluates 8 132 608 (k, j) candidates: exactly the
// reachable pairs at K = 4096. Recomputing the reachable band every round
// costs 25.1 M, and the from-scratch oracle 41.0 M; the ceiling sits just
// above the resumed count so losing the resumption trips it.
const (
	guardAllocRuns     = 64
	guardAllocCurveLen = 64
	guardAllocSteps    = 9_000_000
)

var guardAllocSchedule = []int{409, 818, 1636, 3272, 4096}

// batchShapeCurves returns R non-increasing error curves of q entries.
func batchShapeCurves(R, q int) [][]float64 {
	rng := rand.New(rand.NewSource(41))
	curves := make([][]float64, R)
	for r := range curves {
		curves[r] = make([]float64, q)
		e := 1e4 * rng.Float64()
		for j := range curves[r] {
			curves[r][j] = e
			e *= rng.Float64()
		}
		curves[r][q-1] = 0
	}
	return curves
}

// TestAllocateStepCeiling is the CI guard on the allocation's work: a
// deterministic candidate count, not wall time. The final round is also
// checked against the oracle, so a fast but wrong allocation cannot pass.
func TestAllocateStepCeiling(t *testing.T) {
	curves := batchShapeCurves(guardAllocRuns, guardAllocCurveLen)
	var ca CurveAllocation
	var final []float64
	for _, K := range guardAllocSchedule {
		var err error
		if final, err = ca.Extend(context.Background(), curves, K); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("batch shape: %d allocation steps over %v", ca.steps, guardAllocSchedule)
	if ca.steps > guardAllocSteps {
		t.Errorf("allocation evaluated %d candidates, ceiling %d", ca.steps, guardAllocSteps)
	}
	if err := matchOracle(&ca, final, curves, guardAllocSchedule[len(guardAllocSchedule)-1]); err != nil {
		t.Error(err)
	}
}

// TestCurveAllocationRetainedBytes is the guard on the allocation's
// memory, on the shape where it dominates: ptae eps = 0.05 over 2000
// groups of 8 rows deepens K = 2063 → 4126 → 8252 → 16000 on full curves,
// and row r then holds the totals r+1 … min(8(r+1), K). The band must cost
// 8 bytes a cell, a value and nothing else: 14 009 000 cells, 112 MB
// (choices beside the values held 12 bytes a cell).
func TestCurveAllocationRetainedBytes(t *testing.T) {
	const groups, rows = 2000, 8
	seq, err := dataset.Uniform(groups, rows, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	kn, err := NewKernel(seq, Options{})
	if err != nil {
		t.Fatal(err)
	}
	runs := newRunSolvers(kn, Options{}, 2)
	n, R := kn.N(), len(runs.runs)
	if err := runs.Extend(context.Background(), rows); err != nil {
		t.Fatal(err)
	}
	maxErr := kn.MaxError()
	accept := acceptErrorBound(0.05*maxErr, maxErr)
	var ca CurveAllocation
	K := min(n, R+63) // PTAeParallel's deepening schedule
	for ; ; K = min(n, 2*K) {
		final, err := ca.Extend(context.Background(), runs.Curves(), K)
		if err != nil {
			t.Fatal(err)
		}
		if slices.IndexFunc(final[R:], func(e float64) bool { return e <= accept }) >= 0 || K == n {
			break
		}
	}
	var cells int64
	for r := 0; r < R; r++ {
		cells += int64(min(rows*(r+1), K) - r)
	}
	got := ca.retainedBytes()
	t.Logf("%d groups × %d rows, eps 0.05: K = %d, %d band cells, %d bytes retained", groups, rows, K, cells, got)
	if got != 8*cells {
		t.Errorf("allocation retains %d bytes for %d band cells, want 8 a cell (%d)", got, cells, 8*cells)
	}
}

// pollCtx counts Err calls and reports a deadline from call number limit
// on (never when limit is 0), so a test cancels an evaluation at a fixed
// point of its work instead of racing a clock.
type pollCtx struct {
	context.Context
	limit int64
	calls atomic.Int64
}

func newPollCtx(limit int64) *pollCtx {
	return &pollCtx{Context: context.Background(), limit: limit}
}

func (c *pollCtx) Err() error {
	if n := c.calls.Add(1); c.limit > 0 && n >= c.limit {
		return context.DeadlineExceeded
	}
	return nil
}

// TestParallelEvaluatorsCancelAfterCurvesComplete: once the run curves are
// complete, later deepening rounds fill no cells, so only the allocation
// can notice a cancellation. 64 runs of 4 rows have full curves after the
// first round; a size budget of n−1 fills exactly those curves and
// allocates once, so an error-bounded evaluation that needs more rounds
// polls past that count only in its later allocations, and must stop
// there with the context's error.
func TestParallelEvaluatorsCancelAfterCurvesComplete(t *testing.T) {
	seq, err := dataset.Uniform(64, 4, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	n, R := seq.Len(), seq.CMin()
	probe := newPollCtx(0)
	if _, err := PTAcParallel(seq, n-1, Options{Ctx: probe}, 2); err != nil {
		t.Fatal(err)
	}
	sizePolls := probe.calls.Load()
	const eps = 0.001
	res, err := PTAeParallel(seq, eps, Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.C <= R+63 {
		t.Fatalf("eps=%v: C=%d, want a size past the first round's %d", eps, res.C, R+63)
	}
	eval := map[string]func(ctx context.Context) error{
		"PTAeParallel": func(ctx context.Context) error {
			_, err := PTAeParallel(seq, eps, Options{Ctx: ctx}, 2)
			return err
		},
		"DPMultiParallel": func(ctx context.Context) error {
			_, err := DPMultiParallel(seq, []MultiBudget{{Eps: eps}}, Options{Ctx: ctx}, 2)
			return err
		},
	}
	for name, run := range eval {
		err := run(newPollCtx(sizePolls + 1))
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s: err = %v after the curves were complete, want the context's deadline", name, err)
		}
	}
}

// TestCurveAllocationCanceled: a canceled Extend returns the wrapped
// context error and leaves an allocation that a retry rebuilds exactly.
func TestCurveAllocationCanceled(t *testing.T) {
	curves := [][]float64{{1, 0}, {10, 9}, {5, 0}}
	var ca CurveAllocation
	if _, err := ca.Extend(context.Background(), curves, 6); err != nil {
		t.Fatal(err)
	}
	// Run 1's new entry lowers A[1][4] from 9 to 1, and so A[2][5] from 10
	// to 6. The deadline hits before run 2's row, which must not keep its
	// cells built on the old run 1.
	curves[1] = append(curves[1], 0)
	if _, err := ca.Extend(newPollCtx(3), curves, 8); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want the context's deadline", err)
	}
	final, err := ca.Extend(context.Background(), curves, 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := matchOracle(&ca, final, curves, 8); err != nil {
		t.Error(err)
	}
}
