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
// evaluation defaults (weights, read-ahead, estimator) and the worker count
// of the run-decomposed exact DP. One Engine is meant to serve many
// compressions — a serving layer holds one per deployment, not one per
// request.
//
// All methods are safe for concurrent use by multiple goroutines.
type Engine struct {
	opts        Options // engine-level evaluation defaults
	parallelism int     // run-decomposition workers: n ≥ 1, or 0 = all cores
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

// WithParallelism sets how many worker goroutines the run-decomposed exact
// DP uses: 1 (the default), n > 1, or 0 for every core. It changes only
// speed, never an answer: a fully pruned exact plan ("ptac", "ptae") on a
// series of several maximal adjacent runs answers run by run at every
// parallelism (see Engine.Compress), and the runs — aggregation groups
// compress independently, Section 3 guarantees groups never merge — are
// spread over the workers.
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
// pta.New() — runs on one worker, unweighted.
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
// one worker, default options.
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
// evaluation mid-matrix. A fully pruned exact plan on a series of several
// maximal adjacent runs (a refinement of its aggregation groups) answers
// with the run-decomposed optimum: each run's error curve is computed on
// the engine's workers, and the curves are combined exactly. The answer,
// rows and error bits alike, is the same at every parallelism.
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
	res, err := e.evaluate(ctx, ev, s, p.Budget, e.planOptions(p))
	return e.finish(p, res, err)
}

// evaluate answers one budget of a resolved strategy over an in-memory
// series: an exact DP through exact, every other strategy with its own
// evaluator.
func (e *Engine) evaluate(ctx context.Context, ev Evaluator, s *Series, b Budget, opts Options) (*Result, error) {
	mode, ok := exactMode(ev)
	if !ok {
		return ev.Evaluate(ctx, s, b, opts)
	}
	res, err := e.exact(ctx, s, mode, []core.MultiBudget{multiBudget(b)}, opts)
	if err != nil {
		return nil, err
	}
	return fromDP(res[0], nil)
}

// exact is the one way into the exact DP and its routing rule. The fully
// pruned mode ("ptac", "ptae") on a series of more than one maximal
// adjacent run answers through the run-decomposed driver
// (core.DPMultiParallel) on the engine's workers, at every parallelism;
// every other mode, and every single-run series (where both drivers are
// the same program), through the whole-series driver (core.DPMulti).
// Compress, CompressMany, CompressStream and the DP evaluators' own
// Evaluate and EvaluateStream all reach it, so the entry point never
// changes the answer. Results align with budgets.
func (e *Engine) exact(ctx context.Context, s *Series, mode core.PruneMode, budgets []core.MultiBudget, opts Options) ([]*core.DPResult, error) {
	copts := opts.coreOptionsCtx(ctx)
	if mode == core.PruneBoth && s.CMin() > 1 {
		return core.DPMultiParallel(s, budgets, copts, e.parallelism)
	}
	pruneI, pruneJ := mode.Flags()
	return core.DPMulti(s, budgets, copts, pruneI, pruneJ)
}

// multiBudget converts a valid budget into the drivers' form.
func multiBudget(b Budget) core.MultiBudget {
	if b.Kind() == BudgetSize {
		return core.MultiBudget{C: b.C()}
	}
	return core.MultiBudget{Eps: b.Eps()}
}

// CompressMany evaluates several plans over the same series, amortizing
// shared work: the exact-DP plans without per-plan option overrides make
// one pass through exact per pruning mode — "ptac" and "ptae" plans pool
// together, in any order — so one filling of the matrices, or one set of
// per-run curves where exact routes the series run by run, serves every
// budget of the group (the cheap way to serve multiple resolutions of one
// series), and each answer equals Compress's for the same plan bit for
// bit. Other plans evaluate individually. Results align with plans; the
// first failure aborts the call.
func (e *Engine) CompressMany(ctx context.Context, s *Series, plans []Plan) ([]*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	results := make([]*Result, len(plans))

	// Group amortizable plans by pruning mode. Groups run in the order of
	// their first plans, so the same failing plans always yield the same
	// error.
	type dpGroup struct {
		mode  core.PruneMode
		plans []int
	}
	var groups []dpGroup
	if s.Len() > 0 {
		for i, p := range plans {
			ev, err := e.resolve(p.Strategy, p.Budget)
			if err != nil {
				return nil, err
			}
			mode, ok := exactMode(ev)
			if !ok || p.Options != nil {
				continue
			}
			at := slices.IndexFunc(groups, func(g dpGroup) bool { return g.mode == mode })
			if at < 0 {
				at = len(groups)
				groups = append(groups, dpGroup{mode: mode})
			}
			groups[at].plans = append(groups[at].plans, i)
		}
	}

	done := make([]bool, len(plans))
	for _, grp := range groups {
		g := grp.plans
		budgets := make([]core.MultiBudget, len(g))
		for j, i := range g {
			budgets[j] = multiBudget(plans[i].Budget)
		}
		dpResults, err := e.exact(ctx, s, grp.mode, budgets, e.opts)
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
// error-bounded greedy plan without Options.Estimate consults the engine's
// WithEstimator. The exact DP ("ptac", "ptae") collects the stream and
// answers as Compress does.
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
	var sres *Result
	var serr error
	if _, exact := exactMode(ev); exact {
		// The exact DP needs the whole input and computes SSEmax itself:
		// collect the stream, then answer as Compress does.
		sres, serr = e.evaluate(ctx, ev, collect(src), p.Budget, opts)
	} else {
		if p.Budget.Kind() == BudgetError && opts.Estimate == nil && e.estimator != nil {
			est, err := e.estimator(ctx, src.Sequence())
			if err != nil {
				return nil, fmt.Errorf("pta: %s: estimator: %w", p.Strategy, err)
			}
			opts.Estimate = &est
		}
		sres, serr = sev.EvaluateStream(ctx, src, p.Budget, opts)
	}
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
