package pta

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"repro/internal/core"
)

// Engine is a reusable, concurrency-safe compression session: it carries
// evaluation defaults (weights, read-ahead, estimator) and a parallelism
// degree for run-decomposed group-parallel evaluation. One Engine is meant to serve many compressions
// — a serving layer holds one per deployment, not one per request.
//
// All methods are safe for concurrent use by multiple goroutines.
type Engine struct {
	opts        Options // engine-level evaluation defaults
	parallelism int     // 1 = serial, n > 1 = n workers, 0 = all cores
	estimator   EstimatorFunc
}

// Option configures an Engine at construction (the functional-options
// pattern); options report invalid arguments from New.
type Option func(*Engine) error

// WithWeights sets the per-aggregate error weights (w_d of Definition 5)
// every evaluation of the engine uses unless a Plan overrides them. The
// slice is copied.
func WithWeights(w []float64) Option {
	return func(e *Engine) error {
		for d, v := range w {
			if !(v > 0) {
				return fmt.Errorf("pta: WithWeights: weight %d is %v, want > 0", d, v)
			}
		}
		e.opts.Weights = append([]float64(nil), w...)
		return nil
	}
}

// WithReadAhead sets the default δ read-ahead of the streaming strategies
// (see Options.ReadAhead for the encoding).
func WithReadAhead(delta int) Option {
	return func(e *Engine) error {
		e.opts.ReadAhead = delta
		return nil
	}
}

// WithParallelism sets how many worker goroutines group-parallel evaluation
// may use: 1 (the default) evaluates serially, n > 1 decomposes eligible
// strategies over maximal adjacent runs — aggregation groups compress
// independently (Section 3 guarantees groups never merge) — on n workers,
// and 0 uses every core. Results are unchanged: the decomposition is exact
// and deterministic.
func WithParallelism(n int) Option {
	return func(e *Engine) error {
		if n < 0 {
			return fmt.Errorf("pta: WithParallelism(%d): want ≥ 0", n)
		}
		e.parallelism = n
		return nil
	}
}

// EstimatorFunc supplies the (N̂, Êmax) estimate an error-bounded streaming
// compression needs before its input ends (Section 6.3). meta carries the
// row-less stream metadata (grouping attributes, aggregate names).
type EstimatorFunc func(ctx context.Context, meta *Series) (Estimate, error)

// WithEstimator installs the estimator Engine.CompressStream consults when
// an error-bounded plan carries no Options.Estimate.
func WithEstimator(fn EstimatorFunc) Option {
	return func(e *Engine) error {
		if fn == nil {
			return fmt.Errorf("pta: WithEstimator(nil)")
		}
		e.estimator = fn
		return nil
	}
}

// New builds an Engine from functional options. The zero configuration —
// pta.New() — is serial and unweighted.
func New(opts ...Option) (*Engine, error) {
	e := &Engine{parallelism: 1}
	for _, opt := range opts {
		if err := opt(e); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// defaultEngine backs the package-level Compress/CompressStream wrappers:
// serial, default options.
var defaultEngine = sync.OnceValue(func() *Engine {
	e, err := New()
	if err != nil {
		panic(err) // New() with no options cannot fail
	}
	return e
})

// Plan names one compression to perform: a strategy from the registry and a
// budget, with optional per-plan option overrides.
type Plan struct {
	// Strategy is the registry name of the evaluator to run.
	Strategy string
	// Budget is the size or error bound.
	Budget Budget
	// Options, when non-nil, replaces the engine-level evaluation options
	// for this plan (engine weights still apply when Options.Weights is
	// nil). Plans with overrides are excluded from CompressMany's
	// shared-matrix amortization.
	Options *Options
}

// planOptions resolves the effective options of one plan: the engine
// defaults, or the plan override backed by the engine weights.
func (e *Engine) planOptions(p Plan) Options {
	if p.Options == nil {
		return e.opts
	}
	opts := *p.Options
	if opts.Weights == nil {
		opts.Weights = e.opts.Weights
	}
	return opts
}

// workers resolves the configured parallelism into a worker count for one
// evaluation (0 = all cores is passed through to the core pool).
func (e *Engine) workers() int { return e.parallelism }

// Weights returns a copy of the engine-level default weights (nil when
// unweighted) — the vector every evaluation applies when its plan carries
// none. Serving layers fold it into cache keys and cache builds so cached
// and engine evaluations agree.
func (e *Engine) Weights() []float64 {
	return append([]float64(nil), e.opts.Weights...)
}

// resolve validates the budget and looks the strategy up, returning the
// typed facade errors.
func (e *Engine) resolve(strategy string, b Budget) (Evaluator, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	ev, ok := Lookup(strategy)
	if !ok {
		return nil, &UnknownStrategyError{Name: strategy, Known: Strategies()}
	}
	if !ev.Supports(b.Kind()) {
		return nil, fmt.Errorf("pta: strategy %q, budget %v: %w", strategy, b.Kind(), ErrBudgetKind)
	}
	return ev, nil
}

// finish maps evaluator errors onto the typed facade errors and stamps the
// result with its provenance.
func (e *Engine) finish(p Plan, res *Result, err error) (*Result, error) {
	return finishResult(p.Strategy, p.Budget, res, err)
}

// finishResult is the shared error-mapping/stamping step behind every facade
// evaluation (Engine methods and MatrixSet.Compress): core errors become the
// typed errors.Is-able facade errors, a result whose error is not a finite
// number becomes ErrOverflow, successful results are stamped with their
// provenance.
func finishResult(strategy string, b Budget, res *Result, err error) (*Result, error) {
	if err == nil && (math.IsNaN(res.Error) || math.IsInf(res.Error, 0)) {
		err = fmt.Errorf("error is %v: %w", res.Error, ErrOverflow)
	}
	if err != nil {
		var inf *core.InfeasibleSizeError
		if errors.As(err, &inf) {
			return nil, &InfeasibleBudgetError{Strategy: strategy, Budget: b, CMin: inf.CMin}
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return nil, &CanceledError{Strategy: strategy, Cause: err}
		}
		return nil, fmt.Errorf("pta: %s: %w", strategy, err)
	}
	res.Strategy, res.Budget = strategy, b
	return res, nil
}

// Compress reduces the series under the plan. The context cancels the
// evaluation mid-matrix; with engine parallelism above one and an eligible
// exact strategy, the series' maximal adjacent runs (a refinement of its
// aggregation groups) are compressed concurrently and combined exactly.
func (e *Engine) Compress(ctx context.Context, s *Series, p Plan) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ev, err := e.resolve(p.Strategy, p.Budget)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, &CanceledError{Strategy: p.Strategy, Cause: err}
	}
	opts := e.planOptions(p)

	if workers := e.workers(); workers != 1 && s.CMin() > 1 {
		if pev, ok := ev.(ParallelEvaluator); ok {
			res, err := pev.EvaluateParallel(ctx, s, p.Budget, opts, workers)
			return e.finish(p, res, err)
		}
	}

	res, err := ev.Evaluate(ctx, s, p.Budget, opts)
	return e.finish(p, res, err)
}

// CompressMany evaluates several plans over the same series, amortizing
// shared work at two levels: every exact-DP plan without per-plan option
// overrides shares one CostKernel build (the prefix slabs of the series),
// and plans that additionally resolve to the same dynamic program — same
// pruning flags, so "ptac" and "ptae" plans pool together, in any order —
// share one filling of the error and split-point matrices (one pass serves
// every budget — the cheap way to serve multiple resolutions of one
// series). On a parallel engine with a decomposable series, fully pruned
// groups run the run-decomposed multi-budget pass instead: per-run curves
// are computed once on the worker pool and every budget in the group is
// answered from them, so group parallelism and cross-budget amortization
// compose. Other plans evaluate individually. Results align with plans;
// the first failure aborts the call.
func (e *Engine) CompressMany(ctx context.Context, s *Series, plans []Plan) ([]*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]*Result, len(plans))

	// Group amortizable plans by their DP pruning flags: exact-DP
	// evaluators with default options share one matrix pass even across
	// strategy names ("ptac" and "ptae" are the same fully pruned DP).
	// Everything else evaluates individually. Groups run in the order of
	// their first plans, so the same failing plans always yield the same
	// error.
	type dpGroup struct {
		pruneI, pruneJ bool
		plans          []int
	}
	var groups []dpGroup
	if s.Len() > 0 {
		for i, p := range plans {
			ev, err := e.resolve(p.Strategy, p.Budget)
			if err != nil {
				return nil, err
			}
			mev, ok := ev.(interface{ multiDP() (bool, bool, bool) })
			if !ok || p.Options != nil {
				continue
			}
			pruneI, pruneJ, isDP := mev.multiDP()
			if !isDP {
				continue
			}
			at := slices.IndexFunc(groups, func(g dpGroup) bool { return g.pruneI == pruneI && g.pruneJ == pruneJ })
			if at < 0 {
				at = len(groups)
				groups = append(groups, dpGroup{pruneI: pruneI, pruneJ: pruneJ})
			}
			groups[at].plans = append(groups[at].plans, i)
		}
	}

	done := make([]bool, len(plans))
	if len(groups) > 0 {
		// One kernel serves every serial group: singleton groups still skip
		// a prefix build, and groups of two or more plans share the matrix
		// pass on top of it. Fully pruned groups on a parallel engine skip
		// the shared kernel and build per-run sub-kernels on the worker
		// pool instead.
		copts := e.opts.coreOptionsCtx(ctx)
		parallelRuns := e.workers() != 1 && s.CMin() > 1
		var kernel *core.CostKernel
		for _, grp := range groups {
			g := grp.plans
			budgets := make([]core.MultiBudget, len(g))
			for j, i := range g {
				b := plans[i].Budget
				if b.Kind() == BudgetSize {
					budgets[j] = core.MultiBudget{C: b.C()}
				} else {
					budgets[j] = core.MultiBudget{Eps: b.Eps()}
				}
			}
			var dpResults []*core.DPResult
			var err error
			if parallelRuns && grp.pruneI && grp.pruneJ {
				dpResults, err = core.DPMultiParallel(s, budgets, copts, e.workers())
			} else {
				if kernel == nil {
					if kernel, err = core.NewKernel(s, copts); err != nil {
						_, ferr := e.finish(plans[g[0]], nil, err)
						return nil, ferr
					}
				}
				dpResults, err = core.DPMultiKernel(kernel, budgets, copts, grp.pruneI, grp.pruneJ)
			}
			if err != nil {
				// Attribute the failure to the plan that caused it (an
				// infeasible size bound names its c), or to the group head.
				blame := plans[g[0]]
				var inf *core.InfeasibleSizeError
				if errors.As(err, &inf) {
					for _, i := range g {
						if b := plans[i].Budget; b.Kind() == BudgetSize && b.C() == inf.C {
							blame = plans[i]
							break
						}
					}
				}
				_, ferr := e.finish(blame, nil, err)
				return nil, ferr
			}
			for j, i := range g {
				dres, derr := fromDP(dpResults[j], nil)
				res, err := e.finish(plans[i], dres, derr)
				if err != nil {
					return nil, err
				}
				results[i] = res
				done[i] = true
			}
		}
	}

	for i, p := range plans {
		if done[i] {
			continue
		}
		res, err := e.Compress(ctx, s, p)
		if err != nil {
			return nil, err
		}
		results[i] = res
	}
	return results, nil
}

// Sink receives the rows of a compression result in (group, time) order —
// the push half of Engine.CompressStream, for serving layers that forward
// rows to clients instead of materializing series.
type Sink interface {
	// Emit receives one result row.
	Emit(row Row) error
	// Close is called exactly once after the last row with the result
	// summary; it is not called when the evaluation failed.
	Close(res *Result) error
}

// SinkFunc adapts a row function to the Sink interface with a no-op Close.
type SinkFunc func(Row) error

// Emit implements Sink.
func (f SinkFunc) Emit(row Row) error { return f(row) }

// Close implements Sink.
func (f SinkFunc) Close(*Result) error { return nil }

// CompressStream reduces a row stream under the plan with a stream-capable
// strategy, merging in bounded memory while rows arrive, then pushes the
// result rows into sink (which may be nil to only return the result). An
// error-bounded plan without Options.Estimate consults the engine's
// WithEstimator.
func (e *Engine) CompressStream(ctx context.Context, src Stream, p Plan, sink Sink) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ev, err := e.resolve(p.Strategy, p.Budget)
	if err != nil {
		return nil, err
	}
	sev, ok := ev.(StreamEvaluator)
	if !ok {
		return nil, fmt.Errorf("pta: strategy %q: %w", p.Strategy, ErrNotStreaming)
	}
	if err := ctx.Err(); err != nil {
		return nil, &CanceledError{Strategy: p.Strategy, Cause: err}
	}
	opts := e.planOptions(p)
	if p.Budget.Kind() == BudgetError && opts.Estimate == nil && e.estimator != nil {
		est, err := e.estimator(ctx, src.Sequence())
		if err != nil {
			return nil, fmt.Errorf("pta: %s: estimator: %w", p.Strategy, err)
		}
		opts.Estimate = &est
	}
	sres, serr := sev.EvaluateStream(ctx, src, p.Budget, opts)
	res, err := e.finish(p, sres, serr)
	if err != nil {
		return nil, err
	}
	if sink != nil {
		for i, row := range res.Series.Rows {
			if i%1024 == 0 {
				if err := ctx.Err(); err != nil {
					return nil, &CanceledError{Strategy: p.Strategy, Cause: err}
				}
			}
			if err := sink.Emit(row); err != nil {
				return nil, fmt.Errorf("pta: %s: sink: %w", p.Strategy, err)
			}
		}
		if err := sink.Close(res); err != nil {
			return nil, fmt.Errorf("pta: %s: sink close: %w", p.Strategy, err)
		}
	}
	return res, nil
}
