// Package approx implements the time-series approximation baselines the
// paper compares PTA against (Sections 2.2 and 7): approximate temporal
// coalescing (ATC), piecewise aggregate approximation (PAA), adaptive
// piecewise constant approximation (APCA), discrete Haar wavelet transform
// (DWT), discrete Fourier transform (DFT), Chebyshev polynomial
// approximation, and symbolic aggregate approximation (SAX).
//
// Except for ATC — which operates on full sequential relations with
// aggregation groups and temporal gaps — the baselines work on Series: a
// gap-free, single-group time series with one sample per chronon, obtained
// from an ITA result via FromSequence. This mirrors the paper's observation
// that classic time-series techniques "cannot cope with multiple aggregation
// groups and temporal gaps".
package approx

import (
	"fmt"

	"repro/internal/temporal"
)

// Series is a regular, gap-free time series: sample t of dimension d lives
// at chronon Start+t with value Dims[d][t].
type Series struct {
	Start temporal.Chronon
	Dims  [][]float64
}

// Len returns the number of samples.
func (s *Series) Len() int {
	if len(s.Dims) == 0 {
		return 0
	}
	return len(s.Dims[0])
}

// P returns the number of dimensions.
func (s *Series) P() int { return len(s.Dims) }

// FromSequence expands a single-group, gap-free sequential relation into a
// regular series with one sample per chronon. It reports an error when the
// relation spans several aggregation groups or contains temporal gaps.
func FromSequence(seq *temporal.Sequence) (*Series, error) {
	if seq.Len() == 0 {
		return nil, fmt.Errorf("approx: empty sequence")
	}
	if seq.Groups.Len() > 1 {
		return nil, fmt.Errorf("approx: sequence has %d aggregation groups; time-series methods need exactly one", seq.Groups.Len())
	}
	if gaps := seq.GapPositions(); len(gaps) > 0 {
		return nil, fmt.Errorf("approx: sequence has %d temporal gaps; time-series methods need none", len(gaps))
	}
	p := seq.P()
	n := int(seq.TotalLen())
	out := &Series{Start: seq.Rows[0].T.Start, Dims: make([][]float64, p)}
	for d := 0; d < p; d++ {
		out.Dims[d] = make([]float64, 0, n)
	}
	for _, row := range seq.Rows {
		for k := int64(0); k < row.T.Len(); k++ {
			for d := 0; d < p; d++ {
				out.Dims[d] = append(out.Dims[d], row.Aggs[d])
			}
		}
	}
	return out, nil
}

// Segment is one constant piece of a step-function approximation.
type Segment struct {
	T    temporal.Interval
	Vals []float64
}

// SSESegments returns the sum squared error of a step function against the
// series.
func (s *Series) SSESegments(segs []Segment, w2 []float64) float64 {
	var total float64
	for _, sg := range segs {
		for t := sg.T.Start; t <= sg.T.End; t++ {
			idx := int(t - s.Start)
			if idx < 0 || idx >= s.Len() {
				continue
			}
			for d := range s.Dims {
				w := 1.0
				if w2 != nil {
					w = w2[d]
				}
				diff := s.Dims[d][idx] - sg.Vals[d]
				total += w * diff * diff
			}
		}
	}
	return total
}

// CountPlateaus returns the number of maximal constant runs in vals — the
// "segments" of a reconstructed step signal (used to size DWT results).
func CountPlateaus(vals []float64) int {
	if len(vals) == 0 {
		return 0
	}
	n := 1
	for i := 1; i < len(vals); i++ {
		if vals[i] != vals[i-1] {
			n++
		}
	}
	return n
}

// PlateausToSegments converts a full-resolution step reconstruction into
// explicit segments anchored at chronon start.
func PlateausToSegments(vals []float64, start temporal.Chronon) []Segment {
	if len(vals) == 0 {
		return nil
	}
	var out []Segment
	lo := 0
	for i := 1; i <= len(vals); i++ {
		if i == len(vals) || vals[i] != vals[lo] {
			out = append(out, Segment{
				T:    temporal.Interval{Start: start + temporal.Chronon(lo), End: start + temporal.Chronon(i-1)},
				Vals: []float64{vals[lo]},
			})
			lo = i
		}
	}
	return out
}

// meanRange is a helper returning the mean of vals[lo:hi].
func meanRange(vals []float64, lo, hi int) float64 {
	var s float64
	for _, v := range vals[lo:hi] {
		s += v
	}
	return s / float64(hi-lo)
}
