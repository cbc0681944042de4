package pta_test

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/temporal"
	"repro/pta"
)

// sameAnswer reports how got differs from want in C, error bits or rows
// (intervals, groups and aggregate bits), or nil when they are identical.
func sameAnswer(got, want *pta.Result) error {
	if got.C != want.C {
		return fmt.Errorf("C=%d, want %d", got.C, want.C)
	}
	if math.Float64bits(got.Error) != math.Float64bits(want.Error) {
		return fmt.Errorf("error %v (bits %x), want %v (bits %x)",
			got.Error, math.Float64bits(got.Error), want.Error, math.Float64bits(want.Error))
	}
	if len(got.Series.Rows) != len(want.Series.Rows) {
		return fmt.Errorf("%d rows, want %d", len(got.Series.Rows), len(want.Series.Rows))
	}
	for i, a := range got.Series.Rows {
		b := want.Series.Rows[i]
		if a.T != b.T || a.Group != b.Group || len(a.Aggs) != len(b.Aggs) {
			return fmt.Errorf("row %d is %v, want %v", i, a, b)
		}
		for d := range a.Aggs {
			if math.Float64bits(a.Aggs[d]) != math.Float64bits(b.Aggs[d]) {
				return fmt.Errorf("row %d aggregate %d is %v, want %v", i, d, a.Aggs[d], b.Aggs[d])
			}
		}
	}
	return nil
}

// tieSeries draws one series of the tie-heavy set: 2–5 groups of 3–12
// unit-length rows, values in {0, 1, 2}, and a one-chronon gap before a
// row with probability 0.3. Many split sets tie at the optimum, so any
// driver that breaks ties its own way returns other rows.
func tieSeries(rng *rand.Rand) *pta.Series {
	s := pta.NewSeries([]pta.Attribute{{Name: "g", Kind: temporal.KindString}}, []string{"v"})
	for g := range 2 + rng.Intn(4) {
		id := s.Groups.Intern([]temporal.Datum{temporal.String(fmt.Sprintf("G%d", g))})
		t := pta.Chronon(rng.Intn(3))
		for i := range 3 + rng.Intn(10) {
			if i > 0 && rng.Float64() < 0.3 {
				t++
			}
			s.Rows = append(s.Rows, pta.Row{
				Group: id,
				T:     pta.Interval{Start: t, End: t},
				Aggs:  []float64{float64(rng.Intn(3))},
			})
			t++
		}
	}
	s.Sort()
	return s
}

// TestParallelismNeverChangesTheAnswer: on 200 tie-heavy multi-run series,
// every exact plan — each size from cmin to n and a few error bounds —
// returns the same rows and error bits through Compress at parallelism 1,
// 2 and 4, through CompressMany (all plans of a series in one call) and
// through CompressStream on each of those engines, and through the
// registered "ptac" and "ptae" evaluators' own Evaluate and EvaluateStream.
// The whole-series DP breaks ties its own way: where parallelism 1 ran it,
// this set returned other rows at parallelism 2 in 1 497 of its 3 428 size
// plans, and where the evaluators' own Evaluate ran it, other rows or
// error bits in the same 1 497 size plans and in 135 of its 1 000 error
// plans.
func TestParallelismNeverChangesTheAnswer(t *testing.T) {
	ctx := context.Background()
	engines := []*pta.Engine{
		mustEngine(t, pta.WithParallelism(1)),
		mustEngine(t, pta.WithParallelism(2)),
		mustEngine(t, pta.WithParallelism(4)),
	}
	names := []string{"parallelism 1", "parallelism 2", "parallelism 4"}
	rng := rand.New(rand.NewSource(26))
	plans := 0
	for i := range 200 {
		s := tieSeries(rng)
		if err := s.Validate(); err != nil {
			t.Fatalf("series %d: %v", i, err)
		}
		if s.CMin() < 2 {
			t.Fatalf("series %d has %d run; the set must be multi-run", i, s.CMin())
		}
		var batch []pta.Plan
		for c := s.CMin(); c <= s.Len(); c++ {
			batch = append(batch, pta.Plan{Strategy: "ptac", Budget: pta.Size(c)})
		}
		for _, eps := range []float64{0, 0.05, 0.2, 0.5, 1} {
			batch = append(batch, pta.Plan{Strategy: "ptae", Budget: pta.ErrorBound(eps)})
		}
		plans += len(batch)
		want := make([]*pta.Result, len(batch))
		for j, p := range batch {
			res, err := engines[0].Compress(ctx, s, p)
			if err != nil {
				t.Fatalf("series %d %v: %v", i, p.Budget, err)
			}
			want[j] = res
			for _, name := range []string{"ptac", "ptae"} {
				ev, _ := pta.Lookup(name)
				direct, err := ev.Evaluate(ctx, s, p.Budget, pta.Options{})
				if err != nil {
					t.Fatalf("series %d %v: %s Evaluate: %v", i, p.Budget, name, err)
				}
				streamed, err := ev.(pta.StreamEvaluator).EvaluateStream(ctx, pta.NewStream(s), p.Budget, pta.Options{})
				if err != nil {
					t.Fatalf("series %d %v: %s EvaluateStream: %v", i, p.Budget, name, err)
				}
				for path, got := range map[string]*pta.Result{"Evaluate": direct, "EvaluateStream": streamed} {
					if err := sameAnswer(got, res); err != nil {
						t.Errorf("series %d %v: %s %s differs from Compress at parallelism 1: %v",
							i, p.Budget, name, path, err)
					}
				}
			}
		}
		for e, eng := range engines {
			many, err := eng.CompressMany(ctx, s, batch)
			if err != nil {
				t.Fatalf("series %d: %s CompressMany: %v", i, names[e], err)
			}
			for j, p := range batch {
				got, err := eng.Compress(ctx, s, p)
				if err != nil {
					t.Fatalf("series %d %v: %s Compress: %v", i, p.Budget, names[e], err)
				}
				streamed, err := eng.CompressStream(ctx, pta.NewStream(s), p, nil)
				if err != nil {
					t.Fatalf("series %d %v: %s CompressStream: %v", i, p.Budget, names[e], err)
				}
				for path, res := range map[string]*pta.Result{"Compress": got, "CompressMany": many[j], "CompressStream": streamed} {
					if err := sameAnswer(res, want[j]); err != nil {
						t.Errorf("series %d %v: %s %s differs from Compress at parallelism 1: %v",
							i, p.Budget, names[e], path, err)
					}
				}
			}
		}
	}
	t.Logf("%d plans over 200 series", plans)
}

// TestErrorBudgetFirstRound: the run-decomposed driver's first error-budget
// round gives each run at most min(64, R) rows, so on series of few long
// runs an error budget at parallelism 1 evaluates about as many candidates
// as the whole-series PTAe. Counts, not wall time: a first round of 64
// rows per run made the ratio 15.3 on the two-run shape at eps = 0.5. On
// shapes of at least 64 runs the round is unchanged, and so are the pinned
// counts.
func TestErrorBudgetFirstRound(t *testing.T) {
	ctx := context.Background()
	eng := mustEngine(t)
	epss := []float64{0.5, 0.2, 0.05}
	few := []struct {
		name string
		seq  func() (*pta.Series, error)
	}{
		{"Mixed(2, 1024, 4, 1)", func() (*pta.Series, error) { return dataset.Mixed(2, 1024, 4, 1) }},
		{"Counter(8, 256, 1, 1)", func() (*pta.Series, error) { return dataset.Counter(8, 256, 1, 1) }},
	}
	for _, sh := range few {
		seq, err := sh.seq()
		if err != nil {
			t.Fatal(err)
		}
		for _, eps := range epss {
			whole, err := core.PTAe(seq, eps, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			res, err := eng.Compress(ctx, seq, pta.Plan{Strategy: "ptae", Budget: pta.ErrorBound(eps)})
			if err != nil {
				t.Fatal(err)
			}
			if res.C != whole.C {
				t.Errorf("%s eps=%v: C=%d, whole-series PTAe C=%d", sh.name, eps, res.C, whole.C)
			}
			ratio := float64(res.Stats.InnerIters) / float64(whole.Stats.InnerIters)
			t.Logf("%s eps=%v: %d inner iterations, whole-series %d (%.2f×)",
				sh.name, eps, res.Stats.InnerIters, whole.Stats.InnerIters, ratio)
			if ratio > 1.5 {
				t.Errorf("%s eps=%v: %d inner iterations, %.2f× the whole-series PTAe's %d; ceiling 1.5×",
					sh.name, eps, res.Stats.InnerIters, ratio, whole.Stats.InnerIters)
			}
		}
	}
	many := []struct {
		name  string
		seq   func() (*pta.Series, error)
		iters int64
	}{
		{"Uniform(64, 64, 4, 1)", func() (*pta.Series, error) { return dataset.Uniform(64, 64, 4, 1) }, 909_092},
		{"Uniform(1000, 8, 1, 1)", func() (*pta.Series, error) { return dataset.Uniform(1000, 8, 1, 1) }, 67_972},
	}
	for _, sh := range many {
		seq, err := sh.seq()
		if err != nil {
			t.Fatal(err)
		}
		for _, eps := range epss {
			res, err := eng.Compress(ctx, seq, pta.Plan{Strategy: "ptae", Budget: pta.ErrorBound(eps)})
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.InnerIters != sh.iters {
				t.Errorf("%s eps=%v: %d inner iterations, want %d", sh.name, eps, res.Stats.InnerIters, sh.iters)
			}
		}
	}
}
