package pta_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/pta"
)

func mustEngine(t *testing.T, opts ...pta.Option) *pta.Engine {
	t.Helper()
	e, err := pta.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestEngineOptionValidation pins the functional-option error contract.
func TestEngineOptionValidation(t *testing.T) {
	if _, err := pta.New(pta.WithParallelism(-1)); err == nil {
		t.Error("WithParallelism(-1) should fail")
	}
	if _, err := pta.New(pta.WithWeights([]float64{1, 0})); err == nil {
		t.Error("WithWeights with a zero weight should fail")
	}
	if _, err := pta.New(pta.WithEstimator(nil)); err == nil {
		t.Error("WithEstimator(nil) should fail")
	}
	if _, err := pta.New(pta.WithWeights([]float64{2, 1}), pta.WithParallelism(0), pta.WithReadAhead(2)); err != nil {
		t.Errorf("valid options: %v", err)
	}
}

// TestEngineMatchesFacade: Engine.Compress and the legacy wrapper agree for
// every strategy and budget kind.
func TestEngineMatchesFacade(t *testing.T) {
	eng := mustEngine(t)
	ctx := context.Background()
	seq := grouped(t)
	c := max(seq.CMin(), seq.Len()/6)
	for _, name := range []string{"ptac", "gms", "gptac", "amnesic"} {
		want, err := pta.Compress(seq, name, pta.Size(c), pta.Options{})
		if err != nil {
			t.Fatalf("%s facade: %v", name, err)
		}
		got, err := eng.Compress(ctx, seq, pta.Plan{Strategy: name, Budget: pta.Size(c)})
		if err != nil {
			t.Fatalf("%s engine: %v", name, err)
		}
		if got.C != want.C || math.Abs(got.Error-want.Error) > 1e-9*(1+want.Error) {
			t.Errorf("%s: engine C=%d E=%v vs facade C=%d E=%v", name, got.C, got.Error, want.C, want.Error)
		}
		if got.Strategy != name || got.Budget != pta.Size(c) {
			t.Errorf("%s: result not stamped: %q %v", name, got.Strategy, got.Budget)
		}
	}
}

// TestEngineConcurrentCompress hammers one shared engine from many
// goroutines; every result must equal the serial reference.
// Run under -race this is the engine's concurrency-safety proof.
func TestEngineConcurrentCompress(t *testing.T) {
	eng := mustEngine(t)
	ctx := context.Background()
	seqs := []*pta.Series{oneDim(t), grouped(t), projITA(t)}
	type job struct {
		seq  *pta.Series
		plan pta.Plan
	}
	var jobs []job
	refs := map[int]*pta.Result{}
	for si, seq := range seqs {
		c := max(seq.CMin(), seq.Len()/5)
		for _, strategy := range []string{"ptac", "ptae", "gms", "gptac"} {
			b := pta.Size(c)
			if strategy == "ptae" {
				b = pta.ErrorBound(0.1)
			}
			plan := pta.Plan{Strategy: strategy, Budget: b}
			ref, err := eng.Compress(ctx, seq, plan)
			if err != nil {
				t.Fatalf("reference %s on seq %d: %v", strategy, si, err)
			}
			refs[len(jobs)] = ref
			jobs = append(jobs, job{seq: seq, plan: plan})
		}
	}

	const goroutines = 16
	const rounds = 8
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				j := (g + r) % len(jobs)
				res, err := eng.Compress(ctx, jobs[j].seq, jobs[j].plan)
				if err != nil {
					errCh <- fmt.Errorf("goroutine %d job %d: %v", g, j, err)
					return
				}
				ref := refs[j]
				if res.C != ref.C || math.Abs(res.Error-ref.Error) > 1e-9*(1+ref.Error) ||
					!res.Series.Equal(ref.Series, 1e-9) {
					errCh <- fmt.Errorf("goroutine %d job %d: result differs from reference", g, j)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Error(err)
	}
}

// TestEngineCancellation: an already-canceled context fails fast, a context
// canceled mid-DP aborts the evaluation, and both surface the typed
// ErrCanceled that also matches context.Canceled.
func TestEngineCancellation(t *testing.T) {
	eng := mustEngine(t)
	seq := grouped(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := eng.Compress(ctx, seq, pta.Plan{Strategy: "ptac", Budget: pta.Size(seq.CMin())})
	if !errors.Is(err, pta.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-canceled ctx: %v", err)
	}
	var ce *pta.CanceledError
	if !errors.As(err, &ce) || ce.Strategy != "ptac" {
		t.Fatalf("want CanceledError carrying the strategy, got %v", err)
	}

	// Mid-DP: a large gap-free input on the unpruned DP takes seconds
	// serially; a short deadline must abort it far sooner.
	big, err := dataset.Uniform(1, 3000, 4, 5)
	if err != nil {
		t.Fatal(err)
	}
	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer dcancel()
	start := time.Now()
	_, err = eng.Compress(dctx, big, pta.Plan{Strategy: "dpbasic", Budget: pta.Size(300)})
	elapsed := time.Since(start)
	if !errors.Is(err, pta.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("mid-DP deadline: %v", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("cancellation took %v, want prompt abort", elapsed)
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

func (c *pollCtx) Err() error {
	if n := c.calls.Add(1); c.limit > 0 && n >= c.limit {
		return context.DeadlineExceeded
	}
	return nil
}

// TestEngineParallelCancelAfterCurvesComplete: on a parallel engine an
// error-bounded plan that deepens past its first round must still honour
// its context once the run curves are complete, when only the run
// allocation is left to poll it. 64 runs of 4 rows have full curves after
// the first round; a size budget of n−1 fills exactly those curves and
// allocates once, so a deadline that fires on the next poll after that
// count lands in the error-bounded plan's later allocations.
func TestEngineParallelCancelAfterCurvesComplete(t *testing.T) {
	eng := mustEngine(t, pta.WithParallelism(2))
	seq, err := dataset.Uniform(64, 4, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	size := pta.Plan{Strategy: "ptac", Budget: pta.Size(seq.Len() - 1)}
	bound := pta.Plan{Strategy: "ptae", Budget: pta.ErrorBound(0.001)}
	res, err := eng.Compress(context.Background(), seq, bound)
	if err != nil {
		t.Fatal(err)
	}
	if first := seq.CMin() + 63; res.C <= first {
		t.Fatalf("%v: C=%d, want a size past the first deepening round's %d", bound.Budget, res.C, first)
	}
	for _, call := range []struct {
		name string
		run  func(ctx context.Context, p pta.Plan) error
	}{
		{"Compress", func(ctx context.Context, p pta.Plan) error {
			_, err := eng.Compress(ctx, seq, p)
			return err
		}},
		{"CompressMany", func(ctx context.Context, p pta.Plan) error {
			_, err := eng.CompressMany(ctx, seq, []pta.Plan{p})
			return err
		}},
	} {
		probe := &pollCtx{Context: context.Background()}
		if err := call.run(probe, size); err != nil {
			t.Fatalf("%s %v: %v", call.name, size.Budget, err)
		}
		err := call.run(&pollCtx{Context: context.Background(), limit: probe.calls.Load() + 1}, bound)
		if !errors.Is(err, pta.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("%s %v: err = %v once the curves were complete, want ErrCanceled", call.name, bound.Budget, err)
		}
	}
}

// TestEngineParallelConformance: exact plans on a multi-run series are
// byte-identical across worker counts, parallelism 1 included (one driver,
// deterministic combination), and match the whole-series DP, core.PTAc and
// core.PTAe, the independent reference: same C, error within summation
// reassociation, and the same rows, since the fixture's continuous values
// leave no ties.
func TestEngineParallelConformance(t *testing.T) {
	ctx := context.Background()
	seq := grouped(t)
	c := max(seq.CMin(), seq.Len()/4)
	for _, b := range []pta.Budget{pta.Size(c), pta.ErrorBound(0.05)} {
		strategy := "ptac"
		if b.Kind() == pta.BudgetError {
			strategy = "ptae"
		}
		plan := pta.Plan{Strategy: strategy, Budget: b}

		var want *core.DPResult
		var err error
		if b.Kind() == pta.BudgetSize {
			want, err = core.PTAc(seq, b.C(), core.Options{})
		} else {
			want, err = core.PTAe(seq, b.Eps(), core.Options{})
		}
		if err != nil {
			t.Fatalf("whole-series %v: %v", b, err)
		}
		var results []*pta.Result
		for _, workers := range []int{1, 2, 4, 8} {
			res, err := mustEngine(t, pta.WithParallelism(workers)).Compress(ctx, seq, plan)
			if err != nil {
				t.Fatalf("workers=%d %v: %v", workers, b, err)
			}
			results = append(results, res)
		}
		// Every worker count takes the identical decomposed path: rows, C
		// and error bits must match.
		for i := 1; i < len(results); i++ {
			if err := sameAnswer(results[i], results[0]); err != nil {
				t.Errorf("%v: results differ between worker counts: %v", b, err)
			}
		}
		// Against the whole-series DP: same size, same optimal error, same
		// reduction.
		got := results[0]
		if got.C != want.C || math.Abs(got.Error-want.Error) > 1e-9*(1+want.Error) {
			t.Errorf("%v: engine C=%d E=%v vs whole-series C=%d E=%v", b, got.C, got.Error, want.C, want.Error)
		}
		if !got.Series.Equal(want.Sequence, 0) {
			t.Errorf("%v: engine reduction differs from the whole-series DP's", b)
		}
	}
}

// TestCompressMany: amortized evaluation returns exactly what independent
// Compress calls return, plan for plan, across strategies and budget kinds.
func TestCompressMany(t *testing.T) {
	eng := mustEngine(t)
	ctx := context.Background()
	seq := grouped(t)
	n, cmin := seq.Len(), seq.CMin()
	plans := []pta.Plan{
		{Strategy: "ptac", Budget: pta.Size(max(cmin, n/10))},
		{Strategy: "ptac", Budget: pta.Size(max(cmin, n/4))},
		{Strategy: "ptae", Budget: pta.ErrorBound(0.1)},
		{Strategy: "ptac", Budget: pta.Size(n)},
		{Strategy: "gms", Budget: pta.Size(max(cmin, n/4))},
		{Strategy: "ptae", Budget: pta.ErrorBound(0)},
		{Strategy: "gptac", Budget: pta.Size(max(cmin, n/4)),
			Options: &pta.Options{ReadAhead: 1}},
	}
	many, err := eng.CompressMany(ctx, seq, plans)
	if err != nil {
		t.Fatal(err)
	}
	if len(many) != len(plans) {
		t.Fatalf("CompressMany returned %d results for %d plans", len(many), len(plans))
	}
	for i, p := range plans {
		want, err := eng.Compress(ctx, seq, p)
		if err != nil {
			t.Fatalf("plan %d individually: %v", i, err)
		}
		got := many[i]
		if got == nil {
			t.Fatalf("plan %d: nil result", i)
		}
		if got.Strategy != p.Strategy || got.Budget != p.Budget {
			t.Errorf("plan %d: stamped %q %v", i, got.Strategy, got.Budget)
		}
		if got.C != want.C || math.Abs(got.Error-want.Error) > 1e-9*(1+want.Error) ||
			!got.Series.Equal(want.Series, 1e-9) {
			t.Errorf("plan %d (%s %v): CompressMany C=%d E=%v vs Compress C=%d E=%v",
				i, p.Strategy, p.Budget, got.C, got.Error, want.C, want.Error)
		}
	}

	// On four workers the run-decomposed pass returns the same bytes as on
	// one, and its exact answers match the whole-series DP, the
	// independent reference: same C, error within reassociation, same rows
	// on this tie-free fixture.
	parEng := mustEngine(t, pta.WithParallelism(4))
	parMany, err := parEng.CompressMany(ctx, seq, plans)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range plans {
		if err := sameAnswer(parMany[i], many[i]); err != nil {
			t.Errorf("plan %d: CompressMany at parallelism 4 differs from parallelism 1: %v", i, err)
		}
		if p.Strategy != "ptac" && p.Strategy != "ptae" {
			continue
		}
		var want *core.DPResult
		if b := p.Budget; b.Kind() == pta.BudgetSize {
			want, err = core.PTAc(seq, b.C(), core.Options{})
		} else {
			want, err = core.PTAe(seq, b.Eps(), core.Options{})
		}
		if err != nil {
			t.Fatal(err)
		}
		if got := parMany[i]; got.C != want.C || math.Abs(got.Error-want.Error) > 1e-9*(1+want.Error) ||
			!got.Series.Equal(want.Sequence, 0) {
			t.Errorf("plan %d (%s %v): C=%d E=%v vs whole-series C=%d E=%v",
				i, p.Strategy, p.Budget, got.C, got.Error, want.C, want.Error)
		}
	}

	// An infeasible member fails the call and names the offending plan.
	if cmin > 1 {
		_, err = eng.CompressMany(ctx, seq, []pta.Plan{
			{Strategy: "ptac", Budget: pta.Size(max(cmin, n/4))},
			{Strategy: "ptac", Budget: pta.Size(cmin - 1)},
		})
		var inf *pta.InfeasibleBudgetError
		if !errors.As(err, &inf) {
			t.Fatalf("infeasible plan: %v", err)
		}
		if inf.Budget != pta.Size(cmin-1) || inf.CMin != cmin {
			t.Errorf("blamed %v (cmin %d), want %v (cmin %d)", inf.Budget, inf.CMin, pta.Size(cmin-1), cmin)
		}
	}
}

// TestCompressManyGroupErrorOrder: when two DP plan groups both fail, the
// call reports the group of the first plan, in either plan order and on
// every repetition (the groups once ran in map order, which blamed a
// random plan).
func TestCompressManyGroupErrorOrder(t *testing.T) {
	eng := mustEngine(t)
	seq := grouped(t)
	if seq.CMin() < 2 {
		t.Fatalf("grouped series has cmin %d; the test needs c = 1 infeasible", seq.CMin())
	}
	ptac := pta.Plan{Strategy: "ptac", Budget: pta.Size(1)}
	dpbasic := pta.Plan{Strategy: "dpbasic", Budget: pta.Size(1)}
	for _, plans := range [][]pta.Plan{{ptac, dpbasic}, {dpbasic, ptac}} {
		for rep := 0; rep < 20; rep++ {
			_, err := eng.CompressMany(context.Background(), seq, plans)
			var inf *pta.InfeasibleBudgetError
			if !errors.As(err, &inf) {
				t.Fatalf("%s first: %v, want an InfeasibleBudgetError", plans[0].Strategy, err)
			}
			if inf.Strategy != plans[0].Strategy {
				t.Fatalf("%s first, call %d: error names %s", plans[0].Strategy, rep, inf.Strategy)
			}
		}
	}
}

// collectSink records everything pushed into it.
type collectSink struct {
	rows   []pta.Row
	closed *pta.Result
}

func (s *collectSink) Emit(row pta.Row) error { s.rows = append(s.rows, row); return nil }
func (s *collectSink) Close(res *pta.Result) error {
	if s.closed != nil {
		return errors.New("closed twice")
	}
	s.closed = res
	return nil
}

// TestCompressStreamSink: the sink receives every result row in order and a
// single Close with the summary; sink failures surface to the caller.
func TestCompressStreamSink(t *testing.T) {
	eng := mustEngine(t)
	ctx := context.Background()
	seq := grouped(t)
	c := max(seq.CMin(), seq.Len()/8)
	sink := &collectSink{}
	res, err := eng.CompressStream(ctx, pta.NewStream(seq), pta.Plan{
		Strategy: "gptac", Budget: pta.Size(c),
	}, sink)
	if err != nil {
		t.Fatal(err)
	}
	if sink.closed != res {
		t.Error("Close did not receive the result")
	}
	if len(sink.rows) != res.C {
		t.Fatalf("sink got %d rows, result has %d", len(sink.rows), res.C)
	}
	for i, row := range sink.rows {
		if !reflect.DeepEqual(row, res.Series.Rows[i]) {
			t.Fatalf("sink row %d differs from result row", i)
		}
	}

	// A failing sink aborts the push.
	boom := errors.New("downstream full")
	_, err = eng.CompressStream(ctx, pta.NewStream(seq), pta.Plan{
		Strategy: "gptac", Budget: pta.Size(c),
	}, pta.SinkFunc(func(pta.Row) error { return boom }))
	if !errors.Is(err, boom) {
		t.Errorf("sink failure: %v", err)
	}
}

// TestEngineEstimator: an engine-level estimator serves error-bounded
// streaming plans that carry no explicit estimate.
func TestEngineEstimator(t *testing.T) {
	ctx := context.Background()
	seq := grouped(t)
	est, err := pta.ExactEstimate(seq, pta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	eng := mustEngine(t, pta.WithEstimator(func(ctx context.Context, meta *pta.Series) (pta.Estimate, error) {
		calls++
		if meta.Len() != 0 {
			t.Error("estimator meta should be row-less")
		}
		return est, nil
	}))
	res, err := eng.CompressStream(ctx, pta.NewStream(seq), pta.Plan{
		Strategy: "gptae", Budget: pta.ErrorBound(0.1),
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Errorf("estimator called %d times, want 1", calls)
	}
	want, err := pta.CompressStream(pta.NewStream(seq), "gptae", pta.ErrorBound(0.1),
		pta.Options{Estimate: &est})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Series.Equal(want.Series, 1e-9) {
		t.Error("estimator-fed stream differs from explicit-estimate stream")
	}
}

// TestTypedErrors pins the typed error surface: concrete types carry the
// offending name or bound, and every one matches its sentinel.
func TestTypedErrors(t *testing.T) {
	eng := mustEngine(t)
	ctx := context.Background()
	seq := grouped(t)

	_, err := eng.Compress(ctx, seq, pta.Plan{Strategy: "nope", Budget: pta.Size(4)})
	var unknown *pta.UnknownStrategyError
	if !errors.As(err, &unknown) || !errors.Is(err, pta.ErrUnknownStrategy) {
		t.Fatalf("unknown strategy: %v", err)
	}
	if unknown.Name != "nope" || len(unknown.Known) == 0 {
		t.Errorf("UnknownStrategyError = %+v", unknown)
	}

	cmin := seq.CMin()
	_, err = eng.Compress(ctx, seq, pta.Plan{Strategy: "ptac", Budget: pta.Size(cmin - 1)})
	var inf *pta.InfeasibleBudgetError
	if !errors.As(err, &inf) || !errors.Is(err, pta.ErrBudgetInfeasible) {
		t.Fatalf("infeasible budget: %v", err)
	}
	if inf.Strategy != "ptac" || inf.CMin != cmin || inf.Budget != pta.Size(cmin-1) {
		t.Errorf("InfeasibleBudgetError = %+v", inf)
	}

	cctx, cancel := context.WithCancel(ctx)
	cancel()
	_, err = eng.Compress(cctx, seq, pta.Plan{Strategy: "ptac", Budget: pta.Size(cmin)})
	var canceled *pta.CanceledError
	if !errors.As(err, &canceled) || !errors.Is(err, pta.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled: %v", err)
	}
}

// TestAmnesicStrategy: the "amnesic" registry entry reproduces the direct
// internal reduction and honors Options.Amnesic; the nil default works.
func TestAmnesicStrategy(t *testing.T) {
	eng := mustEngine(t)
	ctx := context.Background()
	seq := oneDim(t)
	now := seq.Rows[len(seq.Rows)-1].T.End
	const c = 24

	res, err := eng.Compress(ctx, seq, pta.Plan{
		Strategy: "amnesic",
		Budget:   pta.Size(c),
		Options:  &pta.Options{Amnesic: pta.AmnesicLinearAge(now, 2.0)},
	})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := core.Amnesic(seq, c, pta.AmnesicLinearAge(now, 2.0), core.Options{Ctx: ctx})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Series.Equal(direct.Sequence, 1e-9) || math.Abs(res.Error-direct.Error) > 1e-9*(1+direct.Error) {
		t.Error("registry amnesic differs from direct core.Amnesic")
	}

	// The nil default must work (CLI and registry sweep path) and stay
	// within the size budget.
	def, err := eng.Compress(ctx, seq, pta.Plan{Strategy: "amnesic", Budget: pta.Size(c)})
	if err != nil {
		t.Fatal(err)
	}
	if def.C > c {
		t.Errorf("default amnesic size %d exceeds budget %d", def.C, c)
	}
}
