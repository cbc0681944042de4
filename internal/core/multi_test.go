package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/temporal"
)

// TestDPMultiMatchesSingle: one shared matrix pass serves every budget with
// the same result as independent PTAc/PTAe evaluations.
func TestDPMultiMatchesSingle(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		seq := randomSequence(rng, 2+rng.Intn(40), 1+rng.Intn(2), 0.3)
		cmin := seq.CMin()
		n := seq.Len()
		budgets := []MultiBudget{
			{C: cmin},
			{C: cmin + rng.Intn(n-cmin+1)},
			{C: n},
			{Eps: 0},
			{Eps: rng.Float64()},
			{Eps: 1},
		}
		results, err := DPMulti(seq, budgets, Options{}, true, true)
		if err != nil {
			return false
		}
		for i, b := range budgets {
			var want *DPResult
			if b.C > 0 {
				want, err = PTAc(seq, b.C, Options{})
			} else {
				want, err = PTAe(seq, b.Eps, Options{})
			}
			if err != nil {
				return false
			}
			got := results[i]
			if got.C != want.C || math.Abs(got.Error-want.Error) > 1e-6*(1+want.Error) {
				return false
			}
			if !got.Sequence.Equal(want.Sequence, 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestDPMultiInfeasible: a size bound below cmin fails the whole call with
// the typed error.
func TestDPMultiInfeasible(t *testing.T) {
	seq := figure1c()
	_, err := DPMulti(seq, []MultiBudget{{C: seq.CMin() - 1}}, Options{}, true, true)
	var inf *InfeasibleSizeError
	if err == nil || !asInfeasible(err, &inf) {
		t.Fatalf("want InfeasibleSizeError, got %v", err)
	}
	if inf.CMin != seq.CMin() {
		t.Errorf("CMin = %d, want %d", inf.CMin, seq.CMin())
	}
}

// asInfeasible is a minimal errors.As for the core test (avoiding the
// dependency on the errors package semantics being re-tested here).
func asInfeasible(err error, target **InfeasibleSizeError) bool {
	e, ok := err.(*InfeasibleSizeError)
	if ok {
		*target = e
	}
	return ok
}

// TestPTAeParallelMatchesPTAe: the run-decomposed error-bounded evaluator
// finds the same minimal size and optimal error as the serial PTAe.
func TestPTAeParallelMatchesPTAe(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		seq := randomSequence(rng, 2+rng.Intn(40), 1+rng.Intn(2), 0.3)
		for _, eps := range []float64{0, 0.05, rng.Float64(), 1} {
			want, err := PTAe(seq, eps, Options{})
			if err != nil {
				return false
			}
			for _, workers := range []int{1, 4} {
				got, err := PTAeParallel(seq, eps, Options{}, workers)
				if err != nil {
					return false
				}
				if got.C != want.C || math.Abs(got.Error-want.Error) > 1e-6*(1+want.Error) {
					return false
				}
				if got.Sequence.Validate() != nil {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestDPCancellation: a canceled context aborts the DP promptly with the
// context error in the chain.
func TestDPCancellation(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	seq := randomSequence(rng, 400, 1, 0)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := PTAc(seq, 40, Options{Ctx: ctx}); err == nil || !isCanceled(err) {
		t.Errorf("PTAc under canceled ctx: %v", err)
	}
	if _, err := GMS(seq, 40, Options{Ctx: ctx}); err == nil {
		t.Errorf("GMS under canceled ctx: %v", err)
	}
	if _, err := PTAcParallel(seq, 40, Options{Ctx: ctx}, 2); err == nil {
		t.Errorf("PTAcParallel under canceled ctx: %v", err)
	}
	if _, err := DPMulti(seq, []MultiBudget{{C: 40}}, Options{Ctx: ctx}, true, true); err == nil {
		t.Errorf("DPMulti under canceled ctx: %v", err)
	}
}

func isCanceled(err error) bool {
	for e := err; e != nil; {
		if e == context.Canceled {
			return true
		}
		u, ok := e.(interface{ Unwrap() error })
		if !ok {
			return false
		}
		e = u.Unwrap()
	}
	return false
}

// TestScratchReuse: evaluations sharing one Scratch across calls (serially)
// keep producing correct results on varying input sizes.
func TestScratchReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	sc := &Scratch{}
	for i := 0; i < 20; i++ {
		seq := randomSequence(rng, 5+rng.Intn(60), 1+rng.Intn(2), 0.25)
		cmin := seq.CMin()
		c := cmin + rng.Intn(seq.Len()-cmin+1)
		want, err := PTAc(seq, c, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := PTAc(seq, c, Options{Scratch: sc})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got.Error-want.Error) > 1e-9*(1+want.Error) || !got.Sequence.Equal(want.Sequence, 1e-9) {
			t.Fatalf("iteration %d: scratch run differs: %v vs %v", i, got.Error, want.Error)
		}
		eps := rng.Float64()
		wantE, err := PTAe(seq, eps, Options{})
		if err != nil {
			t.Fatal(err)
		}
		gotE, err := PTAe(seq, eps, Options{Scratch: sc})
		if err != nil {
			t.Fatal(err)
		}
		if gotE.C != wantE.C || !gotE.Sequence.Equal(wantE.Sequence, 1e-9) {
			t.Fatalf("iteration %d: scratch PTAe differs", i)
		}
	}
}

// TestSizeBudgetEdges pins what the size-bounded entry points return for
// c ∈ {−1, 0}: an InfeasibleSizeError over a non-empty relation, the empty
// reduction for c = 0 over the empty relation, and an error for c = −1
// there. MultiBudget{C: 0} is the error budget 0, but a negative C is a
// size, so the multi-budget drivers reject it the same way.
func TestSizeBudgetEdges(t *testing.T) {
	full := figure1c()
	empty := full.WithRows(nil)
	wantInfeasible := func(name string, c int, res *DPResult, err error) {
		t.Helper()
		var inf *InfeasibleSizeError
		if !errors.As(err, &inf) || inf.C != c || inf.CMin != full.CMin() {
			t.Errorf("%s(Fig. 1(c), %d) = %+v, %v; want InfeasibleSizeError{C: %d, CMin: %d}",
				name, c, res, err, c, full.CMin())
		}
	}
	for name, eval := range map[string]func(seq *temporal.Sequence, c int) (*DPResult, error){
		"PTAc":    func(seq *temporal.Sequence, c int) (*DPResult, error) { return PTAc(seq, c, Options{}) },
		"DPBasic": func(seq *temporal.Sequence, c int) (*DPResult, error) { return DPBasic(seq, c, Options{}) },
		"PTAcAblation": func(seq *temporal.Sequence, c int) (*DPResult, error) {
			return PTAcAblation(seq, c, Options{}, PruneIMax)
		},
		"PTAcParallel": func(seq *temporal.Sequence, c int) (*DPResult, error) {
			return PTAcParallel(seq, c, Options{}, 2)
		},
	} {
		for _, c := range []int{-1, 0} {
			res, err := eval(full, c)
			wantInfeasible(name, c, res, err)
		}
		if res, err := eval(empty, 0); err != nil || res.C != 0 || res.Sequence.Len() != 0 {
			t.Errorf("%s(empty, 0) = %+v, %v; want the empty reduction", name, res, err)
		}
		if res, err := eval(empty, -1); err == nil {
			t.Errorf("%s(empty, -1) = %+v; want an error", name, res)
		}
	}
	sv, err := NewSolver(full, Options{}, true, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []int{-1, 0} {
		res, err := sv.SolveSize(context.Background(), c)
		wantInfeasible("Solver.SolveSize", c, res, err)
	}
	for name, multi := range map[string]func(seq *temporal.Sequence, budgets []MultiBudget) ([]*DPResult, error){
		"DPMulti": func(seq *temporal.Sequence, budgets []MultiBudget) ([]*DPResult, error) {
			return DPMulti(seq, budgets, Options{}, true, true)
		},
		"DPMultiParallel": func(seq *temporal.Sequence, budgets []MultiBudget) ([]*DPResult, error) {
			return DPMultiParallel(seq, budgets, Options{}, 2)
		},
	} {
		res, err := first(multi(full, []MultiBudget{{C: -1}}))
		wantInfeasible(name, -1, res, err)
		if res, err := first(multi(empty, []MultiBudget{{C: -1}})); err == nil {
			t.Errorf("%s(empty, C: -1) = %+v; want an error", name, res)
		}
	}
}
