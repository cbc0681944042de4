package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
)

// TestPTAcParallelFigure1d: the decomposed evaluator reproduces the exact
// running-example reduction.
func TestPTAcParallelFigure1d(t *testing.T) {
	seq := figure1c()
	res, err := PTAcParallel(seq, 4, Options{}, 0)
	if err != nil {
		t.Fatalf("PTAcParallel: %v", err)
	}
	approx(t, res.Error, 49166.666, 1e-2, "error")
	want, _ := PTAc(seq, 4, Options{})
	if !res.Sequence.Equal(want.Sequence, 1e-9) {
		t.Errorf("parallel result differs:\n%v\nvs\n%v", res.Sequence, want.Sequence)
	}
}

// TestPTAcParallelPropMatchesPTAc: on random gapped inputs the decomposed
// evaluator returns the same optimal error and a valid reduction, for
// several worker counts.
func TestPTAcParallelPropMatchesPTAc(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		seq := randomSequence(rng, 2+rng.Intn(40), 1+rng.Intn(2), 0.3)
		cmin := seq.CMin()
		c := cmin + rng.Intn(seq.Len()-cmin+1)
		want, err := PTAc(seq, c, Options{})
		if err != nil {
			return false
		}
		for _, workers := range []int{0, 1, 4} {
			got, err := PTAcParallel(seq, c, Options{}, workers)
			if err != nil {
				return false
			}
			if math.Abs(got.Error-want.Error) > 1e-6*(1+want.Error) {
				return false
			}
			if got.Sequence.Len() != c || got.Sequence.Validate() != nil {
				return false
			}
			// The reconstructed reduction must realize the reported error.
			sse, err := SSEBetween(seq, got.Sequence, Options{})
			if err != nil || math.Abs(sse-got.Error) > 1e-6*(1+sse) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPTAcParallelGapFree: a single run degenerates to the plain DP.
func TestPTAcParallelGapFree(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	seq := randomSequence(rng, 30, 1, 0)
	for c := 1; c <= 30; c += 7 {
		got, err := PTAcParallel(seq, c, Options{}, 2)
		if err != nil {
			t.Fatalf("c=%d: %v", c, err)
		}
		want, _ := PTAc(seq, c, Options{})
		if math.Abs(got.Error-want.Error) > 1e-6*(1+want.Error) {
			t.Errorf("c=%d: error %v vs %v", c, got.Error, want.Error)
		}
	}
}

// TestPTAcParallelBounds mirrors PTAc's argument validation.
func TestPTAcParallelBounds(t *testing.T) {
	seq := figure1c()
	if _, err := PTAcParallel(seq, 2, Options{}, 0); err == nil {
		t.Error("c below cmin should fail")
	}
	res, err := PTAcParallel(seq, 7, Options{}, 0)
	if err != nil || res.C != 7 {
		t.Errorf("c = n: %+v, %v", res, err)
	}
}

func BenchmarkPTAcMonolithic(b *testing.B) {
	seq := benchSequence(4000, 1, 0.05)
	c := max(seq.CMin(), 400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PTAc(seq, c, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPTAcParallel(b *testing.B) {
	seq := benchSequence(4000, 1, 0.05)
	c := max(seq.CMin(), 400)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PTAcParallel(seq, c, Options{}, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPTAcParallelCountsEnvelopeSkips: a run-decomposed result carries every
// fill counter of its run curves. Two mixed runs long enough for the
// automatic fill to pick a monotone fill skip completion-scan candidates in
// envelope ranges, and the result must report them.
func TestPTAcParallelCountsEnvelopeSkips(t *testing.T) {
	seq, err := dataset.Mixed(2, 256, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := PTAcParallel(seq, seq.Len()/10, Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Cells == 0 || res.Stats.EnvelopeSkips == 0 {
		t.Errorf("stats %+v: want cells and envelope skips", res.Stats)
	}
}

// TestRunSolversExtendSkipsFullRuns: Extend starts its pool only while some
// run lacks rows. Once every run holds min(run length, kcap) rows, a call
// with a canceled context returns nil without touching a solver, and a
// deeper kcap still fills.
func TestRunSolversExtendSkipsFullRuns(t *testing.T) {
	seq, err := dataset.Uniform(8, 12, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	kn, err := NewKernel(seq, Options{})
	if err != nil {
		t.Fatal(err)
	}
	rs := newRunSolvers(kn, Options{}, 2)
	if rs.full(1) {
		t.Fatal("runs with no solvers reported full")
	}
	if err := rs.Extend(context.Background(), 5); err != nil {
		t.Fatal(err)
	}
	if !rs.full(5) || rs.full(6) {
		t.Fatalf("after Extend(5): full(5) = %v, full(6) = %v, want true and false", rs.full(5), rs.full(6))
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	cells := rs.Stats().Cells
	if err := rs.Extend(canceled, 5); err != nil {
		t.Errorf("Extend over full runs under a canceled context: %v, want nil", err)
	}
	if err := rs.Extend(canceled, 6); !errors.Is(err, context.Canceled) {
		t.Errorf("Extend that must fill under a canceled context: %v, want context.Canceled", err)
	}
	if err := rs.Extend(context.Background(), 64); err != nil || !rs.full(64) || rs.Stats().Cells <= cells {
		t.Errorf("Extend(64): err %v, full %v, cells %d → %d", err, rs.full(64), cells, rs.Stats().Cells)
	}
}
