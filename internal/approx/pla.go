package approx

import (
	"fmt"

	"repro/internal/temporal"
)

// PLA implements online piecewise linear approximation with a per-point
// precision guarantee in the spirit of Elmeleegy, Elmagarmid, Cecchet, Aref
// and Zwaenepoel ("Online piece-wise linear approximation of numerical
// streams with precision guarantees", PVLDB 2009), which the paper contrasts
// with PTA in Section 2.2: segments are linear functions, the error measure
// is the infinity norm (every point within ±eps of its segment), and a new
// segment starts only when the incoming point cannot be covered.
//
// The construction is the classic swing filter: a segment keeps a cone of
// feasible slopes anchored at its first point; every new point narrows the
// cone by intersecting it with the slopes that pass within ±eps of the
// point, and the segment closes when the cone empties.

// LinearSegment is y = Value0 + Slope·(t − T.Start) over T.
type LinearSegment struct {
	T      temporal.Interval
	Value0 float64
	Slope  float64
}

// PLA compresses the series (one value per chronon starting at `start`) into
// linear segments whose pointwise deviation never exceeds eps.
func PLA(vals []float64, eps float64, start temporal.Chronon) ([]LinearSegment, error) {
	if eps < 0 {
		return nil, fmt.Errorf("approx: PLA tolerance %v, want ≥ 0", eps)
	}
	if len(vals) == 0 {
		return nil, fmt.Errorf("approx: PLA of an empty series")
	}
	var out []LinearSegment
	i := 0
	for i < len(vals) {
		anchor := vals[i]
		lo, hi := -1e308, 1e308 // feasible slope cone
		j := i + 1
		for ; j < len(vals); j++ {
			dt := float64(j - i)
			upper := (vals[j] + eps - anchor) / dt
			lower := (vals[j] - eps - anchor) / dt
			// Tentatively narrow the cone; if it empties, the segment
			// closes before j and the cone reverts to the feasible one.
			nhi, nlo := hi, lo
			if upper < nhi {
				nhi = upper
			}
			if lower > nlo {
				nlo = lower
			}
			if nlo > nhi {
				break // cone empty: close the segment before j
			}
			lo, hi = nlo, nhi
		}
		slope := 0.0
		if j > i+1 {
			slope = (lo + hi) / 2
		}
		out = append(out, LinearSegment{
			T: temporal.Interval{
				Start: start + temporal.Chronon(i),
				End:   start + temporal.Chronon(j-1),
			},
			Value0: anchor,
			Slope:  slope,
		})
		i = j
	}
	return out, nil
}
