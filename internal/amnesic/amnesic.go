// Package amnesic holds the amnesic functions of the user-defined amnesic
// approximation framework of Palpanas, Vlachos, Keogh, Gunopulos and
// Truppel ("Online amnesic approximation of streaming time series", ICDE
// 2004), which the paper discusses at length in Section 2.2: older entries
// of a series may be approximated with a higher error than recent ones,
// controlled by an amnesic function over time.
//
// Two variants exist, mirroring the PTA pair:
//
//   - a *relative* amnesic function RA(t) scales how much error each time
//     point tolerates; the result size is bounded and the (scaled) error is
//     minimized greedily. The paper: "the problem is equivalent to
//     size-bounded PTA when a relative amnesic function is used with
//     RA(t) = 1 ... For time series data and parameter δ = 0 for gPTAc, the
//     two algorithms are equivalent." The reduction runs on the greedy
//     merge engine as core.Amnesic, which ranks pairs by dsim/RA;
//     TestReduceSizeEquivalentToGPTAc in internal/core pins the
//     equivalence.
//
//   - an *absolute* amnesic function AA(t) bounds the error each segment may
//     carry; the result size is minimized in one pass (ReduceError). The
//     paper: "For an absolute amnesic function AA(t) = ε the amnesic effect
//     is eliminated and the problem becomes equivalent to ATC."
//     TestReduceErrorEquivalentToATC pins this against internal/approx.
package amnesic

import (
	"fmt"

	"repro/internal/temporal"
)

// Func is an amnesic function over chronons. For relative amnesia the value
// scales the tolerated error at t (≥ 1 means "older, forget more" when it
// grows with age); for absolute amnesia it is the error allowance at t.
// Values must be positive.
type Func func(t temporal.Chronon) float64

// Constant returns the amnesic function that ignores time.
func Constant(v float64) Func { return func(temporal.Chronon) float64 { return v } }

// LinearAge returns a relative amnesic function that grows linearly with
// age: RA(t) = 1 + slope·(now − t) for t ≤ now (clamped at 1).
func LinearAge(now temporal.Chronon, slope float64) Func {
	return func(t temporal.Chronon) float64 {
		age := float64(now - t)
		if age < 0 {
			age = 0
		}
		return 1 + slope*age
	}
}

// ReduceError runs the one-pass size-minimizing absolute-amnesic reduction:
// a segment absorbs the next adjacent row as long as its internal sum
// squared error stays within the smallest allowance AA(t) over the chronons
// it covers. With AA ≡ ε the pass is exactly approximate temporal
// coalescing.
func ReduceError(seq *temporal.Sequence, aa Func) (*temporal.Sequence, error) {
	if aa == nil {
		return nil, fmt.Errorf("amnesic: nil absolute amnesic function")
	}
	p := seq.P()
	out := seq.WithRows(nil)
	var (
		open      bool
		group     int32
		iv        temporal.Interval
		length    float64
		allowance float64
		sv        = make([]float64, p)
		ssv       = make([]float64, p)
	)
	emit := func() {
		aggs := make([]float64, p)
		for d := 0; d < p; d++ {
			aggs[d] = sv[d] / length
		}
		out.Rows = append(out.Rows, temporal.SeqRow{Group: group, Aggs: aggs, T: iv})
	}
	for _, row := range seq.Rows {
		l := float64(row.T.Len())
		rowAllow := aa(row.T.Start)
		if end := aa(row.T.End); end < rowAllow {
			rowAllow = end
		}
		if open && row.Group == group && iv.Meets(row.T) {
			newAllow := min(allowance, rowAllow)
			newLen := length + l
			var cand float64
			for d := 0; d < p; d++ {
				nsv := sv[d] + l*row.Aggs[d]
				nssv := ssv[d] + l*row.Aggs[d]*row.Aggs[d]
				cand += nssv - nsv*nsv/newLen
			}
			if cand < 0 {
				cand = 0
			}
			if cand <= newAllow {
				for d := 0; d < p; d++ {
					sv[d] += l * row.Aggs[d]
					ssv[d] += l * row.Aggs[d] * row.Aggs[d]
				}
				length = newLen
				iv.End = row.T.End
				allowance = newAllow
				continue
			}
		}
		if open {
			emit()
		}
		open = true
		group = row.Group
		iv = row.T
		length = l
		allowance = rowAllow
		for d := 0; d < p; d++ {
			sv[d] = l * row.Aggs[d]
			ssv[d] = l * row.Aggs[d] * row.Aggs[d]
		}
	}
	if open {
		emit()
	}
	return out, nil
}
