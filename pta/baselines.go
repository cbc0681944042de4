package pta

import (
	"context"
	"fmt"

	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/temporal"
)

// This file adapts the classic time-series approximation baselines (PAA,
// PLA, APCA) to the Evaluator interface, so consumers can swap them against
// the PTA strategies under the same Budget. Like the paper observes, these
// techniques "cannot cope with multiple aggregation groups and temporal
// gaps": they require a single-group, gap-free, one-dimensional series and
// report ErrSeriesShape otherwise.
//
// Each baseline picks segment boundaries its own way; segment values are the
// true means of the covered data (the merge operator ⊕ restricted to one
// dimension), the returned Series is that step function over the input's
// timeline, and Error is SSE(input, Series) — directly comparable with the
// PTA results. Error budgets are served by searching the smallest segment
// count whose error fits the bound. No answer has more rows than the
// input: a size budget of at least one segment per row over longer rows,
// or an error budget no smaller size fits, answers with the exact step
// segmentation, as ptac returns its input at c ≥ n.

// maxBaselineSamples caps the expansion to one sample per chronon: a series
// that covers more chronons is refused with ErrSeriesShape, so a few rows
// spanning a long time range cannot exhaust memory. The largest series the
// experiments hand these strategies (Tide) has 8 746 samples.
const maxBaselineSamples = 1 << 20

// baseline adapts one boundary-picking method to the Evaluator interface.
type baseline struct {
	name, desc string
	// segments reduces the expanded sample vector to at most c constant
	// segments anchored at start. A method that searches polls ctx.
	segments func(ctx context.Context, vals []float64, c int, start Chronon) ([]approx.Segment, error)
}

func (b *baseline) Name() string             { return b.name }
func (b *baseline) Description() string      { return b.desc }
func (b *baseline) Supports(BudgetKind) bool { return true }

// prep validates the series shape and expands it to one sample per chronon.
func (b *baseline) prep(s *Series) (*approx.Series, error) {
	if s.P() != 1 {
		return nil, fmt.Errorf("%w: %s needs exactly one aggregate attribute, have %d",
			ErrSeriesShape, b.name, s.P())
	}
	if err := temporal.CheckLengths(s.Rows); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSeriesShape, err)
	}
	if n := s.TotalLen(); n > maxBaselineSamples {
		return nil, fmt.Errorf("%w: %s expands a series to one sample per chronon; this one covers %d chronons, at most %d",
			ErrSeriesShape, b.name, n, maxBaselineSamples)
	}
	series, err := approx.FromSequence(s)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSeriesShape, err)
	}
	return series, nil
}

// evalSize runs the method at one segment budget and scores it. A budget
// of at least one segment per row answers exactly when the rows cover
// more samples than that (on a unit-length series the method runs).
func (b *baseline) evalSize(ctx context.Context, s *Series, series *approx.Series, c int, opts Options) (*Result, error) {
	if c >= s.Len() && series.Len() > s.Len() {
		return b.exact(s, series, opts)
	}
	segs, err := b.segments(ctx, series.Dims[0], c, series.Start)
	if err != nil {
		return nil, err
	}
	return b.score(s, segs, opts)
}

// score packages a segmentation as a Result with its true error.
func (b *baseline) score(s *Series, segs []approx.Segment, opts Options) (*Result, error) {
	rows := make([]Row, len(segs))
	gid := s.Rows[0].Group
	for i, sg := range segs {
		rows[i] = Row{Group: gid, Aggs: append([]float64(nil), sg.Vals...), T: sg.T}
	}
	z := s.WithRows(rows)
	sse, err := core.SSEBetween(s, z, opts.coreOptions())
	if err != nil {
		return nil, err
	}
	return &Result{Series: z, C: len(rows), Error: sse}, nil
}

func (b *baseline) Evaluate(ctx context.Context, s *Series, bud Budget, opts Options) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	series, err := b.prep(s)
	if err != nil {
		return nil, err
	}
	switch bud.Kind() {
	case BudgetSize:
		return b.evalSize(ctx, s, series, bud.C(), opts)
	case BudgetError:
		emax, err := MaxError(s, opts)
		if err != nil {
			return nil, err
		}
		return b.evalError(ctx, s, series, bud.Eps()*emax, opts)
	}
	return nil, ErrBudgetKind
}

// exact is the exact step segmentation: one segment per maximal constant
// run of samples, at zero error and at most one segment per row.
func (b *baseline) exact(s *Series, series *approx.Series, opts Options) (*Result, error) {
	return b.score(s, approx.PlateausToSegments(series.Dims[0], series.Start), opts)
}

// evalError finds the smallest segment count up to the row count whose
// error fits the bound: a binary search assuming the error shrinks with the
// budget, then a linear verification pass to absorb local
// non-monotonicity. It polls ctx before every evaluation.
func (b *baseline) evalError(ctx context.Context, s *Series, series *approx.Series, bound float64, opts Options) (*Result, error) {
	accept := bound*(1+1e-9) + 1e-9
	n := s.Len()
	cache := map[int]*Result{}
	at := func(c int) (*Result, error) {
		if r, ok := cache[c]; ok {
			return r, nil
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r, err := b.evalSize(ctx, s, series, c, opts)
		if err != nil {
			return nil, err
		}
		cache[c] = r
		return r, nil
	}
	lo, hi := 1, n
	for lo < hi {
		mid := lo + (hi-lo)/2
		r, err := at(mid)
		if err != nil {
			return nil, err
		}
		if r.Error <= accept {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	for c := lo; c <= n; c++ {
		r, err := at(c)
		if err != nil {
			return nil, err
		}
		if r.Error <= accept {
			return r, nil
		}
	}
	// Some methods cannot reproduce the series exactly at any budget (APCA
	// inherits boundaries from a padded wavelet decomposition).
	return b.exact(s, series, opts)
}

// plaSegments picks boundaries with the online swing filter (piecewise
// linear approximation with an L∞ guarantee): the smallest tolerance whose
// segment count fits the budget is found by bisection, and when the
// tolerance-0 segmentation still has fewer segments than the budget allows,
// the worst segments are split at their best split points until the budget
// is used — this drives the error to zero as c approaches the sample count,
// which the error-budget search relies on. Values are the true segment
// means. The bisection polls ctx before every swing-filter pass, the
// splitting before every split.
func plaSegments(ctx context.Context, vals []float64, c int, start Chronon) ([]approx.Segment, error) {
	n := len(vals)
	if n == 0 {
		return nil, fmt.Errorf("pla of an empty series")
	}
	if c < 1 {
		return nil, fmt.Errorf("pla segment count %d, want ≥ 1", c)
	}
	c = min(c, n)

	// Prefix sums for O(1) mean-fit SSE of any sample range.
	sum := make([]float64, n+1)
	sq := make([]float64, n+1)
	for i, v := range vals {
		sum[i+1] = sum[i] + v
		sq[i+1] = sq[i] + v*v
	}
	rangeSSE := func(a, b int) float64 { // half-open [a, b)
		l := float64(b - a)
		sv := sum[b] - sum[a]
		e := sq[b] - sq[a] - sv*sv/l
		if e < 0 {
			return 0
		}
		return e
	}

	countAt := func(tol float64) (int, []approx.LinearSegment, error) {
		segs, err := approx.PLA(vals, tol, start)
		return len(segs), segs, err
	}
	lo, hi := 0.0, 0.0
	for _, v := range vals {
		hi = max(hi, v)
		lo = min(lo, v)
	}
	span := hi - lo // tolerance that always yields one segment
	cnt, segs, err := countAt(0)
	if err != nil {
		return nil, err
	}
	if cnt > c {
		tlo, thi := 0.0, span
		for i := 0; i < 64 && thi-tlo > 1e-12*(1+span); i++ {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			mid := (tlo + thi) / 2
			k, _, err := countAt(mid)
			if err != nil {
				return nil, err
			}
			if k <= c {
				thi = mid
			} else {
				tlo = mid
			}
		}
		if cnt, segs, err = countAt(thi); err != nil {
			return nil, err
		}
		if cnt > c { // swing-filter counts are only near-monotone in tol
			if _, segs, err = countAt(span); err != nil {
				return nil, err
			}
		}
	}

	// Convert to half-open sample ranges, then spend any leftover budget on
	// splitting the ranges with the largest mean-fit error.
	type rng struct{ a, b int }
	ranges := make([]rng, len(segs))
	for i, sg := range segs {
		ranges[i] = rng{int(sg.T.Start - start), int(sg.T.End-start) + 1}
	}
	for len(ranges) < c {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		worst, worstSSE := -1, 0.0
		for i, r := range ranges {
			if r.b-r.a < 2 {
				continue
			}
			if e := rangeSSE(r.a, r.b); e > worstSSE {
				worst, worstSSE = i, e
			}
		}
		if worst < 0 {
			break // every range is a single sample or already exact
		}
		r := ranges[worst]
		bestCut, bestErr := r.a+1, core.Inf
		for cut := r.a + 1; cut < r.b; cut++ {
			if e := rangeSSE(r.a, cut) + rangeSSE(cut, r.b); e < bestErr {
				bestCut, bestErr = cut, e
			}
		}
		ranges = append(ranges[:worst+1], append([]rng{{bestCut, r.b}}, ranges[worst+1:]...)...)
		ranges[worst] = rng{r.a, bestCut}
	}

	out := make([]approx.Segment, len(ranges))
	for i, r := range ranges {
		out[i] = approx.Segment{
			T: temporal.Interval{
				Start: start + Chronon(r.a),
				End:   start + Chronon(r.b-1),
			},
			Vals: []float64{(sum[r.b] - sum[r.a]) / float64(r.b-r.a)},
		}
	}
	return out, nil
}

func init() {
	Register(&baseline{
		name: "paa",
		desc: "piecewise aggregate approximation: equal-length segment means (Keogh & Pazzani)",
		segments: func(_ context.Context, vals []float64, c int, start Chronon) ([]approx.Segment, error) {
			return approx.PAA(vals, c, start)
		},
	})
	Register(&baseline{
		name: "apca",
		desc: "adaptive piecewise constant approximation from top wavelet coefficients (Chakrabarti et al.)",
		segments: func(_ context.Context, vals []float64, c int, start Chronon) ([]approx.Segment, error) {
			return approx.APCA(vals, c, start)
		},
	})
	Register(&baseline{
		name:     "pla",
		desc:     "swing-filter piecewise linear boundaries with constant mean fit (Elmeleegy et al.)",
		segments: plaSegments,
	})
}
