// Package repro is a from-scratch Go reproduction of "Parsimonious Temporal
// Aggregation" (Gordevicius, Gamper, Böhlen; EDBT 2009 / VLDB Journal 2012),
// grown toward a production-scale temporal aggregation system. The layer map
// lives in docs/ARCHITECTURE.md.
//
// The public entry point is the root-level pta package, organized around a
// reusable, concurrency-safe Engine (see the Example functions of pta):
//
//	eng, _ := pta.New(
//	    pta.WithWeights([]float64{1, 25}),   // per-aggregate error weights
//	    pta.WithParallelism(4),              // run-decomposition workers
//	)
//	res, err := eng.Compress(ctx, series, pta.Plan{Strategy: "ptac", Budget: pta.Size(12)})
//
// New configures the engine with functional options (WithWeights,
// WithParallelism, WithReadAhead, WithEstimator). Engine methods take a
// context — long dynamic programs abort promptly on cancellation:
//
//   - Compress evaluates one Plan (a strategy name plus a Budget: the size
//     bound pta.Size(c) or the error bound pta.ErrorBound(eps)). The exact
//     DP ("ptac", "ptae") decomposes a series of several maximal adjacent
//     runs and combines the per-run optima exactly; parallelism only sets
//     how many workers compute the runs, so it changes speed, never the
//     answer. Every way into the exact DP — Compress, CompressMany,
//     CompressStream and a registered evaluator's own Evaluate — takes the
//     same route, so neither does the entry point.
//   - CompressMany serves several budgets of the same series; exact-DP
//     plans of one pruning mode share one pass: one filling of the
//     error/split-point matrices, or one set of per-run curves.
//   - CompressStream compresses a row stream in bounded memory and pushes
//     the result rows into a Sink, the serving-side push interface.
//
// For reuse across requests rather than within a call, pta exports the
// matrix-cache hooks: Fingerprint (a content hash of a series), MatrixSet
// (a warm, incrementally filled DP matrix pair), and DPClass (the canonical
// cache class — "ptac" and "ptae" fill identical matrices). They power the
// HTTP serving layer:
//
//	go run ./cmd/ptaserve -addr :8080 -parallel 4
//
// cmd/ptaserve (handlers in internal/serve) serves POST /v1/compress and
// /v1/compress/many through one handler, over one shared Engine and an LRU
// matrix cache, so repeated budgets of a hot series skip the DP fill
// entirely and the plans of one many-plan request amortize: plans of one
// DP class share one cache entry. GET /v1/strategies introspects the
// registry, GET /metrics and /v1/stats render one metrics registry (as
// Prometheus text and as a flat JSON object), and typed failures map onto
// HTTP statuses (400 unknown strategy, 422 infeasible budget, 504 expired
// deadline).
// examples/serveclient walks the whole protocol in one process.
//
// Failures are typed: ErrUnknownStrategy, ErrBudgetInfeasible, ErrCanceled,
// ErrBudgetKind, ErrNotStreaming and ErrSeriesShape are errors.Is-able
// sentinels, and the concrete UnknownStrategyError, InfeasibleBudgetError
// and CanceledError carry the offending name, bound or cause for errors.As.
// The pre-Engine entry points pta.Compress and pta.CompressStream remain as
// thin wrappers over a lazily-initialized serial default engine.
//
// The strategy registry behind one Evaluator interface covers the exact
// dynamic programs (PTAc, PTAe, the unpruned dpbasic and the Section 5.3
// ablation modes), the greedy strategies (GMS, gap-bridging GMS), the
// streaming evaluators with δ read-ahead (gPTAc, gPTAε), the age-weighted
// amnesic reduction ("amnesic", after Palpanas et al.), and the classic
// time-series baselines (PAA, PLA, APCA) adapted to the same interface.
// pta.FormatStrategies renders the one canonical description table (the
// CLI's -list-strategies and the server's /v1/strategies both come from
// it); docs/ARCHITECTURE.md tabulates the registry with paper references.
//
// The implementation lives under internal/: the temporal relational model
// (internal/temporal), instant and span temporal aggregation (internal/ita,
// internal/sta), the PTA merge operator, prefix matrices, evaluators and
// the incremental Solver behind the matrix cache (internal/core), the HTTP
// serving layer (internal/serve), the time-series approximation baselines
// (internal/approx), synthetic evaluation workloads (internal/dataset),
// CSV storage (internal/csvio), and the experiment harness that
// regenerates every table and figure of the paper (internal/experiments,
// driven by cmd/ptabench; README.md maps experiment ids to paper figures).
//
// bench_test.go at this root wraps one benchmark family around each paper
// artifact; integration_test.go crosses the package boundaries end to end.
package repro
