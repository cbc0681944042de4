// Package pta is the public front door of the parsimonious temporal
// aggregation library (Gordevicius, Gamper, Böhlen; EDBT 2009). It bridges
// the internal temporal data model to a small, swappable evaluator API:
//
//   - Series is a sequential relation — the output of instant temporal
//     aggregation and the input of every compression strategy.
//   - Budget unifies the paper's two compression targets: a size bound c
//     (Size) or an error bound ε relative to SSEmax (ErrorBound).
//   - Evaluator is the strategy interface; the package registry names every
//     implementation (exact dynamic programming, greedy merging, streaming
//     greedy with δ read-ahead, age-weighted amnesic reduction, and the
//     classic time-series baselines PAA, PLA and APCA behind the same
//     interface). Strategies lists the names.
//   - Engine is the session-oriented entry point: New(opts...) configures
//     weights, parallelism and estimators once, then
//     Compress/CompressMany/CompressStream evaluate any number of
//     plans under a context, concurrently safe. How the exact DP fills
//     each matrix row is not a setting: every exact path picks its row
//     fill from the input size, and every fill gives the same matrices.
//   - Fingerprint, MatrixSet and DPClass are the matrix-cache hooks: a
//     serving layer keys warm DP matrices by (series content, strategy
//     class, weights) and answers repeated budgets of a hot series without
//     refilling them. internal/serve and cmd/ptaserve build the HTTP
//     serving layer on exactly these three.
//
// A minimal end-to-end use (see the Example functions for runnable
// versions of every entry point):
//
//	seq, _ := ita.Eval(rel, query)                      // ITA result
//	eng, _ := pta.New(pta.WithParallelism(4))
//	res, err := eng.Compress(ctx, seq, pta.Plan{Strategy: "ptac", Budget: pta.Size(12)})
//	// res.Series has ≤ 12 rows, res.Error is the introduced SSE
//
// The context-free helpers Compress and CompressStream wrap a lazily
// initialized default engine of one worker, so one-shot callers stay one
// line; its answers are the same as any engine's.
//
// New backends register themselves with Register and become available to
// every consumer — the CLI, the HTTP server, the benchmark harness and the
// experiment suite all enumerate the registry instead of hard-wiring call
// sites, and FormatStrategies renders the one canonical description table
// they all share.
package pta

import (
	"context"

	"repro/internal/core"
	"repro/internal/temporal"
)

// Series is a sequential relation (Section 3 of the paper): rows hold a
// dictionary-encoded aggregation group, p aggregate values and a validity
// interval, sorted by (group, time) with non-intersecting timestamps within
// each group. It aliases the internal temporal model, so values returned by
// the internal packages flow through the facade unchanged.
type Series = temporal.Sequence

// Row is one tuple of a Series.
type Row = temporal.SeqRow

// Interval is a closed chronon interval [Start, End].
type Interval = temporal.Interval

// Chronon is a discrete time instant.
type Chronon = temporal.Chronon

// Attribute describes one grouping attribute of a Series.
type Attribute = temporal.Attribute

// Estimate carries the a-priori guesses the streaming error-bounded
// evaluator needs before its input ends: the expected input size N and the
// expected maximal error EMax (Section 6.3).
type Estimate = core.Estimate

// Stream yields the rows of a sequential relation in (group, time) order;
// ita.Iterator implements it, so streaming strategies can compress an ITA
// result while it is still being produced.
type Stream = core.Stream

// NewSeries returns an empty series with the given grouping attributes and
// aggregate attribute names.
func NewSeries(groupAttrs []Attribute, aggNames []string) *Series {
	return temporal.NewSequence(groupAttrs, aggNames)
}

// NewStream adapts an in-memory series to the Stream interface.
func NewStream(s *Series) Stream { return core.NewSliceStream(s) }

// Read-ahead settings for the streaming strategies (the δ of Section 6.2).
const (
	// ReadAheadEager is δ = 0: merge whenever possible. Smallest heap,
	// largest error.
	ReadAheadEager = -1
	// ReadAheadInf is δ = ∞, also what the Options zero value means: merges
	// happen early only when provably identical to the greedy merging
	// strategy (Theorems 2 and 3), at the price of an unbounded heap.
	ReadAheadInf = core.DeltaInf
)

// Options carries evaluation parameters shared by all strategies. The zero
// value is ready to use. Engine-level defaults are set once with the
// functional options of New (WithWeights, WithReadAhead); per-call overrides
// travel in Plan.Options.
type Options struct {
	// Weights holds one positive weight per aggregate attribute (w_d of
	// Definition 5). nil means all weights are 1.
	Weights []float64
	// ReadAhead is the δ read-ahead of the streaming strategies: 0 and
	// ReadAheadInf mean δ = ∞, ReadAheadEager means δ = 0, any positive
	// value is that δ. Non-streaming strategies ignore it.
	ReadAhead int
	// Estimate overrides the (N, EMax) estimate of the streaming
	// error-bounded strategy. nil lets in-memory evaluation compute the
	// exact values; CompressStream with an error budget requires it (or an
	// engine-level WithEstimator).
	Estimate *Estimate
	// Amnesic is the relative amnesic function RA(t) of the "amnesic"
	// strategy: how much more error a chronon tolerates than the present
	// (values must be positive; typically grows with age). nil selects
	// AmnesicLinearAge over the series' own time span. Other strategies
	// ignore it.
	Amnesic func(Chronon) float64
}

// coreOptions projects the options onto the internal evaluator options,
// without cancellation.
func (o Options) coreOptions() core.Options {
	return core.Options{Weights: o.Weights}
}

// coreOptionsCtx projects the options onto the internal evaluator options,
// carrying the call context.
func (o Options) coreOptionsCtx(ctx context.Context) core.Options {
	return core.Options{Weights: o.Weights, Ctx: ctx}
}

// delta resolves the effective δ.
func (o Options) delta() int {
	switch {
	case o.ReadAhead > 0:
		return o.ReadAhead
	case o.ReadAhead == ReadAheadEager:
		return 0
	default:
		return core.DeltaInf
	}
}

// Stats counts the work an evaluation performed. Dynamic-programming
// strategies fill Cells and InnerIters; greedy strategies fill Merges,
// MaxHeap and ReadAhead.
type Stats struct {
	// Cells is the number of DP matrix cells evaluated.
	Cells int64
	// InnerIters is the number of DP split points tried across all cells.
	InnerIters int64
	// EnvelopeSkips is the number of DP candidates discarded in O(1) range
	// skips by the envelope-pruned completion scan (zero for non-DP
	// strategies and for workloads whose cells never reach the envelope).
	EnvelopeSkips int64
	// Merges is the number of greedy merge steps performed.
	Merges int
	// MaxHeap is the largest number of tuples simultaneously held by a
	// greedy evaluator (c+β of the complexity analysis).
	MaxHeap int
	// ReadAhead is β = MaxHeap − C (never negative).
	ReadAhead int
}

// Result is the outcome of one compression: the reduced series, its size,
// the introduced sum-squared error SSE(input, Series), and which strategy
// and budget produced it.
type Result struct {
	// Series is the reduced sequential relation.
	Series *Series
	// C is the number of rows of Series.
	C int
	// Error is SSE(input, Series) under the option weights.
	Error float64
	// Strategy is the registry name of the evaluator that ran.
	Strategy string
	// Budget is the budget the evaluation was given.
	Budget Budget
	// Stats describes the work performed.
	Stats Stats
}

// Compress reduces the series under the given budget with the named
// strategy (see Strategies for the registry). It is a thin wrapper over a
// lazily-initialized default Engine — context-free and on one worker, so
// existing callers keep compiling; new code that wants cancellation, reuse
// or more workers should hold its own Engine from New.
func Compress(s *Series, strategy string, b Budget, opts Options) (*Result, error) {
	return defaultEngine().Compress(context.Background(), s,
		Plan{Strategy: strategy, Budget: b, Options: &opts})
}

// CompressStream reduces a row stream under the given budget with the named
// strategy, which must be stream-capable (a StreamEvaluator — see Describe).
// With an error budget, Options.Estimate must provide the (N, EMax) guesses,
// since the exact values are unknowable before the stream ends. Like
// Compress, it wraps the default Engine; Engine.CompressStream additionally
// pushes the result rows into a Sink.
func CompressStream(src Stream, strategy string, b Budget, opts Options) (*Result, error) {
	return defaultEngine().CompressStream(context.Background(), src,
		Plan{Strategy: strategy, Budget: b, Options: &opts}, nil)
}

// MaxError returns SSEmax(s): the error of merging every maximal adjacent
// run of the series into one tuple — the reference point of error budgets.
func MaxError(s *Series, opts Options) (float64, error) {
	px, err := core.NewKernel(s, opts.coreOptions())
	if err != nil {
		return 0, err
	}
	return px.MaxError(), nil
}

// MonotoneCoverage reports the fraction of the series' rows lying inside
// piecewise-monotone segments long enough for the exact DP's monotone row
// fill to engage — 1.0 on counter-like data, 0.0 on pure oscillating
// noise. It predicts how much of an evaluation runs at the
// monotone fill's O(n log n) per-row cost instead of the pruned scan's;
// results are bit-identical either way. The weights only validate (the
// segmentation is weight-independent).
func MonotoneCoverage(s *Series, opts Options) (float64, error) {
	px, err := core.NewKernel(s, opts.coreOptions())
	if err != nil {
		return 0, err
	}
	return px.MonotoneCoverage(), nil
}

// SSE returns the sum-squared error between a series and a reduction of it
// (Definition 5), matching aggregation groups by value.
func SSE(s, z *Series, opts Options) (float64, error) {
	return core.SSEBetween(s, z, opts.coreOptions())
}

// ErrorCurve returns the minimal error of reducing s to k tuples for every
// k = 1..kmax (+Inf where the reduction is infeasible). It costs one
// size-bounded exact evaluation with c = kmax.
func ErrorCurve(s *Series, kmax int, opts Options) ([]float64, error) {
	return core.ErrorCurve(s, kmax, opts.coreOptions())
}

// Matrices runs the exact dynamic program for k = 1..c and returns copies of
// the error matrix rows E[k] and split-point rows J[k] (the paper's
// Figs. 4-5; row k at index k−1, columns 1-based). It exists for inspection;
// Compress is the production entry point.
func Matrices(s *Series, c int, opts Options) ([][]float64, [][]int32, error) {
	return core.Matrices(s, c, opts.coreOptions())
}

// ExactEstimate computes the exact (N, EMax) of an in-memory series, for
// feeding CompressStream when the data is available locally.
func ExactEstimate(s *Series, opts Options) (Estimate, error) {
	return core.ExactEstimate(s, opts.coreOptions())
}

// SampleEstimate estimates (N, EMax) for the ITA result of a relation of
// inputSize tuples from a prefix sample holding the given fraction of its
// rows (Section 6.3).
func SampleEstimate(sample *Series, inputSize int, fraction float64, opts Options) (Estimate, error) {
	return core.SampleEstimate(sample, inputSize, fraction, opts.coreOptions())
}

// RandomSampleEstimate estimates (N, EMax) from a uniform random sample of
// the series' rows — markedly less biased than a prefix sample on
// non-stationary data.
func RandomSampleEstimate(s *Series, fraction float64, seed int64, opts Options) (Estimate, error) {
	return core.RandomSampleEstimate(s, fraction, seed, opts.coreOptions())
}

// GroupCount returns the number of maximal same-group runs of the series —
// the floor reachable by the gap-bridging strategy.
func GroupCount(s *Series) int { return core.GroupCount(s) }
