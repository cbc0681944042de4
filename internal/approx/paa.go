package approx

import (
	"fmt"

	"repro/internal/temporal"
)

// PAA computes the piecewise aggregate approximation (Keogh & Pazzani 2000;
// "segmented means" of Yi & Faloutsos 2000) of a one-dimensional series: the
// series is cut into c segments of (near-)equal length and each segment is
// represented by its mean. PAA ignores the data distribution entirely — the
// property the paper contrasts with PTA's data-adaptive segments.
func PAA(vals []float64, c int, start temporal.Chronon) ([]Segment, error) {
	n := len(vals)
	if n == 0 {
		return nil, fmt.Errorf("approx: PAA of an empty series")
	}
	if c < 1 {
		return nil, fmt.Errorf("approx: PAA segment count %d, want ≥ 1", c)
	}
	c = min(c, n)
	out := make([]Segment, 0, c)
	for k := 0; k < c; k++ {
		lo := k * n / c
		hi := (k + 1) * n / c
		if hi <= lo {
			continue
		}
		out = append(out, Segment{
			T: temporal.Interval{
				Start: start + temporal.Chronon(lo),
				End:   start + temporal.Chronon(hi-1),
			},
			Vals: []float64{meanRange(vals, lo, hi)},
		})
	}
	return out, nil
}
