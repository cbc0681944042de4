package pta

import (
	"context"
	"errors"
	"testing"

	"repro/internal/approx"
	"repro/internal/dataset"
)

// TestBaselinesHonorCancel: the baselines' error-budget search polls the
// context before every evaluation, so a context canceled once the first
// evaluation returns ends the search there with the engine's typed
// cancellation; it used to run the whole search. pla polls it too, once
// the tolerance-0 pass is done: in its bisection (c = 1, which leaves
// nothing to split) and in its splitting (c = n, which needs no
// bisection).
func TestBaselinesHonorCancel(t *testing.T) {
	s, err := dataset.Uniform(1, 512, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	bud := ErrorBound(0.01)
	for _, name := range []string{"paa", "apca", "pla"} {
		ev, ok := Lookup(name)
		if !ok {
			t.Fatalf("%s is not registered", name)
		}
		b := *ev.(*baseline)
		ctx, cancel := context.WithCancel(context.Background())
		evals := 0
		segments := b.segments
		b.segments = func(ctx context.Context, vals []float64, c int, start Chronon) ([]approx.Segment, error) {
			segs, err := segments(ctx, vals, c, start)
			if evals++; evals == 1 {
				cancel()
			}
			return segs, err
		}
		res, err := b.Evaluate(ctx, s, bud, Options{})
		_, err = finishResult(name, bud, res, err)
		cancel()
		if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
			t.Errorf("%s %v canceled after the first evaluation: %v, want ErrCanceled", name, bud, err)
		}
		if evals != 1 {
			t.Errorf("%s %v: %d evaluations after the cancel, want 1", name, bud, evals)
		}
	}

	vals := make([]float64, s.Len())
	for i, r := range s.Rows {
		vals[i] = r.Aggs[0]
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, c := range []int{1, len(vals)} {
		if _, err := plaSegments(ctx, vals, c, 0); !errors.Is(err, context.Canceled) {
			t.Errorf("pla c=%d under a canceled context: %v, want context.Canceled", c, err)
		}
	}
}
