package pta

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/core"
)

// BudgetKind discriminates the two compression budgets of the paper: a size
// bound c (Definition 6) or an error bound ε (Definition 7).
type BudgetKind uint8

const (
	// BudgetSize bounds the result cardinality: at most c tuples.
	BudgetSize BudgetKind = iota + 1
	// BudgetError bounds the introduced error: at most ε·SSEmax, with
	// ε ∈ [0, 1] relative to the maximal merging error of the input.
	BudgetError
)

// String names the kind for messages and reports.
func (k BudgetKind) String() string {
	switch k {
	case BudgetSize:
		return "size"
	case BudgetError:
		return "error"
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Budget is the unified compression budget every evaluator accepts: either a
// size bound c or an error bound ε. The zero Budget is invalid; construct
// budgets with Size or ErrorBound, or parse user input with ParseBudget.
type Budget struct {
	kind BudgetKind
	c    int
	eps  float64
}

// Size returns a size-bounded budget: reduce to at most c tuples. Evaluators
// require c ≥ cmin (the number of maximal adjacent runs) for exact semantics;
// greedy evaluators stop at cmin when c is below it.
func Size(c int) Budget { return Budget{kind: BudgetSize, c: c} }

// ErrorBound returns an error-bounded budget: reduce as far as possible
// while introducing at most eps·SSEmax error, eps ∈ [0, 1].
func ErrorBound(eps float64) Budget { return Budget{kind: BudgetError, eps: eps} }

// Kind reports which bound the budget carries.
func (b Budget) Kind() BudgetKind { return b.kind }

// C returns the size bound (meaningful only when Kind() == BudgetSize).
func (b Budget) C() int { return b.c }

// Eps returns the error bound (meaningful only when Kind() == BudgetError).
func (b Budget) Eps() float64 { return b.eps }

// Validate checks the budget parameters.
func (b Budget) Validate() error {
	switch b.kind {
	case BudgetSize:
		if b.c < 1 {
			return fmt.Errorf("pta: size budget %d, want ≥ 1", b.c)
		}
	case BudgetError:
		if core.CheckErrorBound(b.eps) != nil {
			return fmt.Errorf("pta: error budget %v outside [0, 1]", b.eps)
		}
	default:
		return fmt.Errorf("pta: budget not set (use Size or ErrorBound)")
	}
	return nil
}

// String renders the budget in the form ParseBudget accepts.
func (b Budget) String() string {
	switch b.kind {
	case BudgetSize:
		return fmt.Sprintf("c=%d", b.c)
	case BudgetError:
		return fmt.Sprintf("eps=%g", b.eps)
	}
	return "unset"
}

// ParseBudget parses a budget from user input, e.g. a CLI flag. Accepted
// forms: "c=12" or "size=12" (size bound), "eps=0.05" or "error=0.05"
// (error bound), a bare integer "12" (size bound), and a bare decimal
// fraction "0.05" (error bound).
func ParseBudget(s string) (Budget, error) {
	s = strings.TrimSpace(s)
	if key, val, ok := strings.Cut(s, "="); ok {
		switch strings.TrimSpace(strings.ToLower(key)) {
		case "c", "size":
			c, err := strconv.Atoi(strings.TrimSpace(val))
			if err != nil {
				return Budget{}, fmt.Errorf("pta: bad size budget %q: %v", s, err)
			}
			b := Size(c)
			return b, b.Validate()
		case "eps", "error", "e":
			eps, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
			if err != nil {
				return Budget{}, fmt.Errorf("pta: bad error budget %q: %v", s, err)
			}
			b := ErrorBound(eps)
			return b, b.Validate()
		default:
			return Budget{}, fmt.Errorf("pta: unknown budget key %q (want c= or eps=)", key)
		}
	}
	if c, err := strconv.Atoi(s); err == nil {
		b := Size(c)
		return b, b.Validate()
	}
	if eps, err := strconv.ParseFloat(s, 64); err == nil {
		b := ErrorBound(eps)
		return b, b.Validate()
	}
	return Budget{}, fmt.Errorf("pta: cannot parse budget %q (want \"c=12\" or \"eps=0.05\")", s)
}
