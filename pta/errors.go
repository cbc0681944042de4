package pta

import (
	"errors"
	"fmt"

	"repro/internal/core"
)

// Sentinel errors of the facade. Every error the package returns matches
// exactly one of them under errors.Is; the typed errors below additionally
// carry the offending name, budget or cause for errors.As.
var (
	// ErrUnknownStrategy reports a strategy name absent from the registry.
	ErrUnknownStrategy = errors.New("unknown strategy")
	// ErrBudgetKind reports a budget kind the strategy does not support.
	ErrBudgetKind = errors.New("unsupported budget kind")
	// ErrBudgetInfeasible reports a budget no sequence of adjacent merges
	// can meet: a size bound below the input's cmin.
	ErrBudgetInfeasible = errors.New("infeasible budget")
	// ErrCanceled reports an evaluation aborted by context cancellation or
	// deadline expiry. The concrete error also matches context.Canceled or
	// context.DeadlineExceeded under errors.Is.
	ErrCanceled = errors.New("compression canceled")
	// ErrNotStreaming reports a CompressStream call on a strategy that
	// needs its whole input in memory.
	ErrNotStreaming = errors.New("strategy is not stream-capable")
	// ErrSeriesShape reports an input outside a strategy's applicability:
	// the classic time-series baselines need a single-group, gap-free,
	// one-dimensional series.
	ErrSeriesShape = errors.New("series shape unsupported by strategy")
	// ErrOverflow reports weighted error sums beyond float64's range: an
	// exact strategy found SSEmax, or the optimal error at the size a
	// budget asks for, not finite, so no budget can be judged. Smaller
	// weights or values avoid it.
	ErrOverflow = core.ErrOverflow
)

// UnknownStrategyError is the concrete error behind ErrUnknownStrategy: it
// names the strategy that failed to resolve and lists the registry at the
// time of the lookup.
type UnknownStrategyError struct {
	// Name is the strategy that was requested.
	Name string
	// Known are the registered strategy names.
	Known []string
}

func (e *UnknownStrategyError) Error() string {
	return fmt.Sprintf("pta: strategy %q: %v (have %v)", e.Name, ErrUnknownStrategy, e.Known)
}

// Is matches ErrUnknownStrategy.
func (e *UnknownStrategyError) Is(target error) bool { return target == ErrUnknownStrategy }

// InfeasibleBudgetError is the concrete error behind ErrBudgetInfeasible: a
// size budget below the smallest size any reduction of the input can reach.
type InfeasibleBudgetError struct {
	// Strategy is the evaluator that rejected the budget.
	Strategy string
	// Budget is the rejected budget.
	Budget Budget
	// CMin is the smallest reachable reduction size of the input (the
	// number of maximal adjacent runs).
	CMin int
}

func (e *InfeasibleBudgetError) Error() string {
	return fmt.Sprintf("pta: %s: budget %v: %v (smallest reachable size is cmin=%d)",
		e.Strategy, e.Budget, ErrBudgetInfeasible, e.CMin)
}

// Is matches ErrBudgetInfeasible.
func (e *InfeasibleBudgetError) Is(target error) bool { return target == ErrBudgetInfeasible }

// CanceledError is the concrete error behind ErrCanceled. Unwrap exposes
// the cause, so errors.Is also matches context.Canceled or
// context.DeadlineExceeded as appropriate.
type CanceledError struct {
	// Strategy is the evaluator that was interrupted.
	Strategy string
	// Cause is the underlying context error chain.
	Cause error
}

func (e *CanceledError) Error() string {
	return fmt.Sprintf("pta: %s: %v: %v", e.Strategy, ErrCanceled, e.Cause)
}

// Is matches ErrCanceled.
func (e *CanceledError) Is(target error) bool { return target == ErrCanceled }

// Unwrap exposes the context error.
func (e *CanceledError) Unwrap() error { return e.Cause }
