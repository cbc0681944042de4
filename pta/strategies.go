package pta

import (
	"context"
	"fmt"

	"repro/internal/core"
)

// funcEvaluator adapts per-budget-kind functions to the Evaluator interface.
// A nil function means the kind is unsupported.
type funcEvaluator struct {
	name, desc string
	size       func(ctx context.Context, s *Series, c int, opts Options) (*Result, error)
	errb       func(ctx context.Context, s *Series, eps float64, opts Options) (*Result, error)
}

func (f *funcEvaluator) Name() string        { return f.name }
func (f *funcEvaluator) Description() string { return f.desc }

func (f *funcEvaluator) Supports(k BudgetKind) bool {
	switch k {
	case BudgetSize:
		return f.size != nil
	case BudgetError:
		return f.errb != nil
	}
	return false
}

func (f *funcEvaluator) Evaluate(ctx context.Context, s *Series, b Budget, opts Options) (*Result, error) {
	switch b.Kind() {
	case BudgetSize:
		if f.size == nil {
			return nil, ErrBudgetKind
		}
		return f.size(ctx, s, b.C(), opts)
	case BudgetError:
		if f.errb == nil {
			return nil, ErrBudgetKind
		}
		return f.errb(ctx, s, b.Eps(), opts)
	}
	return nil, ErrBudgetKind
}

// streamFuncEvaluator additionally serves streams.
type streamFuncEvaluator struct {
	funcEvaluator
	streamSize func(ctx context.Context, src Stream, c int, opts Options) (*Result, error)
	streamErrb func(ctx context.Context, src Stream, eps float64, opts Options) (*Result, error)
}

func (f *streamFuncEvaluator) EvaluateStream(ctx context.Context, src Stream, b Budget, opts Options) (*Result, error) {
	switch b.Kind() {
	case BudgetSize:
		if f.streamSize == nil {
			return nil, ErrBudgetKind
		}
		return f.streamSize(ctx, src, b.C(), opts)
	case BudgetError:
		if f.streamErrb == nil {
			return nil, ErrBudgetKind
		}
		return f.streamErrb(ctx, src, b.Eps(), opts)
	}
	return nil, ErrBudgetKind
}

// dpEvaluator is the exact dynamic program (Section 5) under one pruning
// mode: "ptac" and "ptae" are the fully pruned DP, the paper's PTAc/PTAe
// proper, and "dpbasic", "ptac-imax" and "ptac-jmin" the Section 5.3
// ablations. Every mode takes both budget kinds. Its own Evaluate answers
// through the default engine, so every way into the exact DP reaches
// Engine.exact and the path never changes the answer.
type dpEvaluator struct {
	name, desc string
	mode       core.PruneMode
}

func (d *dpEvaluator) Name() string        { return d.name }
func (d *dpEvaluator) Description() string { return d.desc }

func (d *dpEvaluator) Supports(k BudgetKind) bool {
	return k == BudgetSize || k == BudgetError
}

// Evaluate validates the budget first, as Engine.Compress does (the
// drivers would read a size budget of 0 as the error budget 0), then
// answers through the default engine.
func (d *dpEvaluator) Evaluate(ctx context.Context, s *Series, b Budget, opts Options) (*Result, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return defaultEngine().evaluate(ctx, d, s, b, opts)
}

// streamDPEvaluator is the stream-capable form of the fully pruned DP
// ("ptac", "ptae"), though not in bounded memory — exactness requires the
// whole input: the stream is collected and answered as Evaluate answers
// the series (Engine.CompressStream does the same on its own workers), and
// error budgets need no (N, EMax) estimate because the exact SSEmax is
// computed after collection.
type streamDPEvaluator struct {
	dpEvaluator
}

func (d *streamDPEvaluator) EvaluateStream(ctx context.Context, src Stream, b Budget, opts Options) (*Result, error) {
	return d.Evaluate(ctx, collect(src), b, opts)
}

// exactMode reports the pruning mode of an exact-DP evaluator; ok is false
// for every other strategy and for a nil evaluator.
func exactMode(ev Evaluator) (mode core.PruneMode, ok bool) {
	switch d := ev.(type) {
	case *dpEvaluator:
		return d.mode, true
	case *streamDPEvaluator:
		return d.mode, true
	}
	return 0, false
}

// collect materializes a stream into a series.
func collect(src Stream) *Series {
	var rows []Row
	for {
		row, ok := src.Next()
		if !ok {
			break
		}
		rows = append(rows, row)
	}
	return src.Sequence().WithRows(rows)
}

// fromDP packages an exact-evaluation outcome.
func fromDP(res *core.DPResult, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	return &Result{
		Series: res.Sequence,
		C:      res.C,
		Error:  res.Error,
		Stats: Stats{
			Cells:         res.Stats.Cells,
			InnerIters:    res.Stats.InnerIters,
			EnvelopeSkips: res.Stats.EnvelopeSkips,
		},
	}, nil
}

// fromGreedy packages a greedy-evaluation outcome.
func fromGreedy(res *core.GreedyResult, err error) (*Result, error) {
	if err != nil {
		return nil, err
	}
	return &Result{
		Series: res.Sequence,
		C:      res.C,
		Error:  res.Error,
		Stats:  Stats{Merges: res.Merges, MaxHeap: res.MaxHeap, ReadAhead: res.ReadAhead},
	}, nil
}

// resolveEstimate yields the (N, EMax) estimate for an error-bounded greedy
// run: the caller's override when set, the exact values otherwise.
func resolveEstimate(s *Series, opts Options) (Estimate, error) {
	if opts.Estimate != nil {
		return *opts.Estimate, nil
	}
	return core.ExactEstimate(s, opts.coreOptions())
}

func init() {
	// Exact dynamic programming (Section 5). "ptac" and "ptae" are the
	// paper's named entry points; both resolve to the same pruned DP engine
	// and accept both budget kinds.
	Register(&streamDPEvaluator{dpEvaluator{"ptac",
		"exact size-bounded DP with gap/group pruning (PTAc, Fig. 7)", core.PruneBoth}})
	Register(&streamDPEvaluator{dpEvaluator{"ptae",
		"exact error-bounded DP with gap/group pruning (PTAe, Fig. 8)", core.PruneBoth}})
	Register(&dpEvaluator{"dpbasic",
		"exact DP without search-space pruning (Section 5.1 baseline)", core.PruneNone})
	Register(&dpEvaluator{"ptac-imax",
		"exact DP, column bound imax only (Section 5.3 ablation)", core.PruneIMax})
	Register(&dpEvaluator{"ptac-jmin",
		"exact DP, split-point bound jmin only (Section 5.3 ablation)", core.PruneJMin})

	// Greedy merging strategy (Section 6.1).
	Register(&funcEvaluator{
		name: "gms",
		desc: "greedy merging of the most similar adjacent pair (GMS, Theorem 1)",
		size: func(ctx context.Context, s *Series, c int, opts Options) (*Result, error) {
			return fromGreedy(core.GMS(s, c, opts.coreOptionsCtx(ctx)))
		},
		errb: func(ctx context.Context, s *Series, eps float64, opts Options) (*Result, error) {
			return fromGreedy(core.GMSError(s, eps, opts.coreOptionsCtx(ctx)))
		},
	})

	// Gap-bridging greedy merging (the paper's first future-work item):
	// merges may cross temporal gaps within a group, so sizes below cmin
	// (down to the group count) become reachable.
	Register(&funcEvaluator{
		name: "gms-bridged",
		desc: "greedy merging that may bridge temporal gaps within a group",
		size: func(ctx context.Context, s *Series, c int, opts Options) (*Result, error) {
			return fromGreedy(core.GMSBridged(s, c, opts.coreOptionsCtx(ctx)))
		},
	})

	// Streaming greedy evaluators with δ read-ahead (Section 6.2). Both
	// accept both budget kinds; they differ in which bound they stream
	// natively and serve as each other's dual for the opposite kind.
	gptacSize := func(ctx context.Context, src Stream, c int, opts Options) (*Result, error) {
		return fromGreedy(core.GPTAc(src, c, opts.delta(), opts.coreOptionsCtx(ctx)))
	}
	gptaeErrb := func(ctx context.Context, src Stream, eps float64, opts Options) (*Result, error) {
		if opts.Estimate == nil {
			return nil, fmt.Errorf("error-bounded streaming needs Options.Estimate (N, EMax)")
		}
		return fromGreedy(core.GPTAe(src, eps, opts.delta(), *opts.Estimate, opts.coreOptionsCtx(ctx)))
	}
	memSize := func(ctx context.Context, s *Series, c int, opts Options) (*Result, error) {
		return gptacSize(ctx, NewStream(s), c, opts)
	}
	memErrb := func(ctx context.Context, s *Series, eps float64, opts Options) (*Result, error) {
		est, err := resolveEstimate(s, opts)
		if err != nil {
			return nil, err
		}
		return fromGreedy(core.GPTAe(NewStream(s), eps, opts.delta(), est, opts.coreOptionsCtx(ctx)))
	}
	Register(&streamFuncEvaluator{
		funcEvaluator: funcEvaluator{
			name: "gptac",
			desc: "streaming greedy, size-bounded, δ read-ahead (gPTAc, Fig. 11)",
			size: memSize, errb: memErrb,
		},
		streamSize: gptacSize, streamErrb: gptaeErrb,
	})
	Register(&streamFuncEvaluator{
		funcEvaluator: funcEvaluator{
			name: "gptae",
			desc: "streaming greedy, error-bounded via (N̂, Êmax) estimates (gPTAε, Fig. 13)",
			size: memSize, errb: memErrb,
		},
		streamSize: gptacSize, streamErrb: gptaeErrb,
	})
}
