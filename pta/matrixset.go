package pta

import (
	"context"
	"fmt"

	"repro/internal/core"
)

// MatrixSet is a warm pair of DP matrices for one series and one exact-DP
// strategy class: rows of the error/split-point matrices are filled on
// demand and retained, so every later budget on the same series reuses the
// rows earlier budgets paid for — a repeated budget costs one backtrack and
// zero matrix cells. It is the unit a serving layer caches per hot series
// (see internal/serve's LRU matrix cache); Fingerprint supplies the series
// half of the cache key, DPClass the strategy half.
//
// A MatrixSet runs the whole-series DP. On a series of several maximal
// adjacent runs Engine.Compress answers "ptac"/"ptae" run by run instead:
// the two agree in C and, up to summation order, in error, but where split
// sets tie they may return different rows.
//
// A MatrixSet is NOT safe for concurrent use: callers serialize access, the
// natural fit for a cache that guards each entry with a mutex. The context
// travels per Compress call, so one cached set serves requests with
// different deadlines; an aborted call leaves the filled rows intact.
type MatrixSet struct {
	strategy string
	class    string
	sv       *core.Solver
}

// DPClass reports the canonical matrix-cache class of a strategy: exact-DP
// strategies with the same Section 5.3 pruning mode fill identical matrices
// and therefore share cached MatrixSets — "ptac" and "ptae" both map to
// "dp+imax+jmin", so a size-bounded and an error-bounded request on the same
// hot series hit the same cache entry. ok is false for strategies that are
// not an exact dynamic program (greedy, streaming, amnesic, baselines):
// their evaluations are not matrix-cacheable. The row fill is not part of
// the class: every fill writes the same matrices.
func DPClass(strategy string) (string, bool) {
	ev, _ := Lookup(strategy)
	mode, ok := exactMode(ev)
	if !ok {
		return "", false
	}
	return dpClasses[mode], true
}

// dpClasses is the DPClass of each pruning mode.
var dpClasses = [...]string{
	core.PruneNone: "dp",
	core.PruneIMax: "dp+imax",
	core.PruneJMin: "dp+jmin",
	core.PruneBoth: "dp+imax+jmin",
}

// NewMatrixSet builds a warm matrix set for the series under the named
// exact-DP strategy ("ptac", "ptae", "dpbasic" or an ablation mode; see
// DPClass). Options supply the error weights; ReadAhead/Estimate/Amnesic
// do not apply to exact DP and are ignored. The series must be non-empty,
// and the caller must not mutate it while the set is alive — the matrices
// describe the rows as they were.
func NewMatrixSet(s *Series, strategy string, opts Options) (*MatrixSet, error) {
	ev, found := Lookup(strategy)
	if !found {
		return nil, &UnknownStrategyError{Name: strategy, Known: Strategies()}
	}
	mode, ok := exactMode(ev)
	if !ok {
		return nil, fmt.Errorf("pta: strategy %q is not an exact DP: no matrices to retain", strategy)
	}
	pruneI, pruneJ := mode.Flags()
	sv, err := core.NewSolver(s, opts.coreOptions(), pruneI, pruneJ)
	if err != nil {
		return nil, fmt.Errorf("pta: %s: %w", strategy, err)
	}
	return &MatrixSet{strategy: strategy, class: dpClasses[mode], sv: sv}, nil
}

// Strategy returns the registry name the set was built for.
func (m *MatrixSet) Strategy() string { return m.strategy }

// Class returns the set's DPClass — sets of the same class over the same
// series are interchangeable.
func (m *MatrixSet) Class() string { return m.class }

// N returns the input size n.
func (m *MatrixSet) N() int { return m.sv.N() }

// Rows returns how many matrix rows are filled so far (grows monotonically
// toward the deepest budget served).
func (m *MatrixSet) Rows() int { return m.sv.Rows() }

// MemBytes estimates the retained matrix memory, for byte-bounded caches.
func (m *MatrixSet) MemBytes() int64 { return m.sv.MemBytes() }

// Fill names the row fill the set's solver picked for its series ("pruned"
// or "dc") — what /metrics reports as the kernel path production traffic
// takes.
func (m *MatrixSet) Fill() string { return m.sv.Fill().String() }

// MonotoneCoverage reports the fraction of the series' rows the monotone
// row fills accelerate (see pta.MonotoneCoverage); cached with the set's
// kernel, so per-request scrapes are free.
func (m *MatrixSet) MonotoneCoverage() float64 { return m.sv.MonotoneCoverage() }

// Compress answers one budget from the warm matrices, filling further rows
// only when the budget needs deeper ones. Errors are the typed facade
// errors (ErrBudgetInfeasible, ErrCanceled, ...); Result.Stats reports the
// cumulative fill work of the set, not a per-call share — a fully warm set
// answers with zero new cells.
func (m *MatrixSet) Compress(ctx context.Context, b Budget) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, &CanceledError{Strategy: m.strategy, Cause: err}
	}
	var (
		dres *core.DPResult
		err  error
	)
	switch b.Kind() {
	case BudgetSize:
		dres, err = m.sv.SolveSize(ctx, b.C())
	case BudgetError:
		dres, err = m.sv.SolveError(ctx, b.Eps())
	default:
		return nil, ErrBudgetKind
	}
	res, err := fromDP(dres, err)
	return finishResult(m.strategy, b, res, err)
}
