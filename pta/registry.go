package pta

import (
	"context"
	"fmt"
	"io"
	"sort"
	"sync"
)

// Evaluator is a named compression strategy. Implementations are registered
// with Register and resolved by name through Engine.Compress and the
// package-level Compress; they must be safe for concurrent use.
type Evaluator interface {
	// Name is the registry key, e.g. "ptac".
	Name() string
	// Description is a one-line human-readable summary.
	Description() string
	// Supports reports whether the strategy accepts the budget kind.
	Supports(k BudgetKind) bool
	// Evaluate compresses an in-memory series under the budget. The
	// context is polled inside the evaluation loops, so long runs abort
	// promptly on cancellation. The returned Result carries the reduced
	// series and its true error; the engine stamps Strategy and Budget.
	Evaluate(ctx context.Context, s *Series, b Budget, opts Options) (*Result, error)
}

// StreamEvaluator is an Evaluator that can also compress a row stream in
// bounded memory, merging while rows are still being produced.
type StreamEvaluator interface {
	Evaluator
	// EvaluateStream compresses the stream under the budget. Error budgets
	// require Options.Estimate.
	EvaluateStream(ctx context.Context, src Stream, b Budget, opts Options) (*Result, error)
}

var (
	registryMu sync.RWMutex
	registry   = map[string]Evaluator{}
)

// Register adds a strategy to the registry. It panics on an empty or
// duplicate name — registration is a program-initialization concern.
func Register(e Evaluator) {
	name := e.Name()
	if name == "" {
		panic("pta: Register with empty strategy name")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("pta: Register called twice for strategy %q", name))
	}
	registry[name] = e
}

// Lookup resolves a strategy by name.
func Lookup(name string) (Evaluator, bool) {
	registryMu.RLock()
	defer registryMu.RUnlock()
	e, ok := registry[name]
	return e, ok
}

// Strategies returns the sorted names of every registered strategy.
func Strategies() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]string, 0, len(registry))
	for name := range registry {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// StrategyInfo describes one registry entry for listings (CLI -list,
// benchmark tables).
type StrategyInfo struct {
	// Name is the registry key.
	Name string
	// Description is the strategy's one-line summary.
	Description string
	// Size and Error report the supported budget kinds.
	Size, Error bool
	// Streaming reports StreamEvaluator capability.
	Streaming bool
}

// FormatStrategies renders the registry as the canonical aligned text table.
// It is the single human-readable description source: ptacli
// -list-strategies prints it, and GET /v1/strategies serves the same
// Describe records as JSON, so the CLI, the server and the docs cannot
// drift apart.
func FormatStrategies(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%-14s %-5s %-5s %-7s %s\n",
		"strategy", "c", "eps", "stream", "description"); err != nil {
		return err
	}
	mark := func(b bool) string {
		if b {
			return "yes"
		}
		return "-"
	}
	for _, info := range Describe() {
		if _, err := fmt.Fprintf(w, "%-14s %-5s %-5s %-7s %s\n",
			info.Name, mark(info.Size), mark(info.Error), mark(info.Streaming),
			info.Description); err != nil {
			return err
		}
	}
	return nil
}

// Describe returns the registry as sorted StrategyInfo records.
func Describe() []StrategyInfo {
	registryMu.RLock()
	defer registryMu.RUnlock()
	out := make([]StrategyInfo, 0, len(registry))
	for _, e := range registry {
		_, streaming := e.(StreamEvaluator)
		out = append(out, StrategyInfo{
			Name:        e.Name(),
			Description: e.Description(),
			Size:        e.Supports(BudgetSize),
			Error:       e.Supports(BudgetError),
			Streaming:   streaming,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
