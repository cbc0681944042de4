package pta_test

import (
	"context"
	"fmt"
	"testing"

	"repro/pta"
)

// TestCompressManyParallelAmortization is the regression pin for the
// run-decomposed amortization gap: a batch of exact-DP size budgets must
// share one set of per-run curves, so every result reports the fill-cell
// count of the one shared pass — exactly what the deepest budget costs
// alone — instead of paying per plan. It holds on one worker and on four.
func TestCompressManyParallelAmortization(t *testing.T) {
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("parallelism=%d", workers), func(t *testing.T) {
			testCompressManyAmortization(t, mustEngine(t, pta.WithParallelism(workers)))
		})
	}
}

func testCompressManyAmortization(t *testing.T, eng *pta.Engine) {
	ctx := context.Background()
	seq := grouped(t)
	n, cmin := seq.Len(), seq.CMin()
	if cmin <= 1 {
		t.Fatal("fixture must decompose into several runs")
	}

	deepest := pta.Plan{Strategy: "ptac", Budget: pta.Size(n - 1)}
	plans := []pta.Plan{
		deepest,
		{Strategy: "ptac", Budget: pta.Size(cmin)},
		{Strategy: "ptac", Budget: pta.Size((cmin + n) / 2)},
		{Strategy: "ptae", Budget: pta.ErrorBound(0.25)},
	}
	many, err := eng.CompressMany(ctx, seq, plans)
	if err != nil {
		t.Fatal(err)
	}

	// One shared curve set serves the whole batch: identical counters on
	// every result.
	for i := range many {
		if many[i].Stats != many[0].Stats {
			t.Errorf("plan %d stats %+v != shared %+v — per-run curves rebuilt per budget",
				i, many[i].Stats, many[0].Stats)
		}
	}
	if many[0].Stats.Cells == 0 {
		t.Fatal("batch reports zero DP cells; the pricing signal is gone")
	}

	// Size-only batches pin the exact amortized cost: the shared pass fills
	// precisely the cells the deepest budget needs alone on the same
	// parallel path.
	single, err := eng.Compress(ctx, seq, deepest)
	if err != nil {
		t.Fatal(err)
	}
	sizeOnly, err := eng.CompressMany(ctx, seq, plans[:3])
	if err != nil {
		t.Fatal(err)
	}
	if sizeOnly[0].Stats.Cells != single.Stats.Cells {
		t.Errorf("batch of %d size budgets filled %d cells, deepest alone %d — curves not shared",
			len(plans)-1, sizeOnly[0].Stats.Cells, single.Stats.Cells)
	}

	// Amortization must not change results: plan for plan, the batch equals
	// individual evaluation bit for bit (both take the run-decomposed path).
	for i, p := range plans {
		want, err := eng.Compress(ctx, seq, p)
		if err != nil {
			t.Fatalf("plan %d individually: %v", i, err)
		}
		if many[i].C != want.C || many[i].Error != want.Error {
			t.Errorf("plan %d (%s %v): batch C=%d E=%v vs single C=%d E=%v",
				i, p.Strategy, p.Budget, many[i].C, many[i].Error, want.C, want.Error)
		}
		if !many[i].Series.Equal(want.Series, 0) {
			t.Errorf("plan %d (%s %v): batch rows differ from single evaluation", i, p.Strategy, p.Budget)
		}
	}
}
