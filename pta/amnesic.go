package pta

import (
	"context"

	"repro/internal/amnesic"
	"repro/internal/core"
)

// This file registers the age-weighted amnesic reduction (Palpanas et al.,
// ICDE 2004; discussed in Section 2.2 of the paper) as the "amnesic"
// strategy: a size-bounded online reduction in which older chronons
// tolerate more error than recent ones, controlled by a relative amnesic
// function RA(t). With RA ≡ 1 it degenerates to gPTAc with δ = 0.
//
// The function travels in Options.Amnesic; when nil, AmnesicLinearAge over
// the series' own time span applies, so the strategy works out of the box
// from the CLI and the registry sweep. Only size budgets are supported (an
// error budget has no amnesic reading: the paper notes that a constant
// absolute allowance already eliminates the amnesic effect).

// AmnesicConstant returns the amnesic function that ignores time; RA ≡ 1
// reproduces plain greedy streaming compression.
func AmnesicConstant(v float64) func(Chronon) float64 {
	return amnesic.Constant(v)
}

// AmnesicLinearAge returns a relative amnesic function growing linearly
// with age: RA(t) = 1 + slope·(now − t), clamped at 1 for t beyond now.
// Older chronons tolerate proportionally more error.
func AmnesicLinearAge(now Chronon, slope float64) func(Chronon) float64 {
	return amnesic.LinearAge(now, slope)
}

// defaultAmnesic derives the nil-Options amnesic function of a series:
// linear age relative to the newest chronon, sloped so the oldest chronon
// tolerates roughly double the error of the newest.
func defaultAmnesic(s *Series) func(Chronon) float64 {
	if s.Len() == 0 {
		return AmnesicConstant(1)
	}
	var lo, hi Chronon
	for i, r := range s.Rows {
		if i == 0 || r.T.Start < lo {
			lo = r.T.Start
		}
		if i == 0 || r.T.End > hi {
			hi = r.T.End
		}
	}
	span := float64(hi - lo)
	if span <= 0 {
		return AmnesicConstant(1)
	}
	return AmnesicLinearAge(hi, 1/span)
}

func init() {
	Register(&funcEvaluator{
		name: "amnesic",
		desc: "age-weighted online reduction: older chronons tolerate more error (Palpanas et al.)",
		size: func(ctx context.Context, s *Series, c int, opts Options) (*Result, error) {
			ra := opts.Amnesic
			if ra == nil {
				ra = defaultAmnesic(s)
			}
			res, err := core.Amnesic(s, c, ra, opts.coreOptionsCtx(ctx))
			if err != nil {
				return nil, err
			}
			return &Result{
				Series: res.Sequence,
				C:      res.C,
				Error:  res.Error,
				Stats:  Stats{MaxHeap: res.MaxHeap},
			}, nil
		},
	})
}
