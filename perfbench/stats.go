package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile: a
// percentile with fewer samples behind it is one or two outliers, not a tail.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of sorted (ascending) and the
// number of samples strictly beyond its rank. ok is false when fewer than
// minBeyond samples lie beyond it; callers must then not report it.
func percentile(sorted []float64, q float64) (v float64, beyond int, ok bool) {
	n := len(sorted)
	if n == 0 || q <= 0 || q > 1 {
		return 0, 0, false
	}
	rank := int(math.Ceil(q * float64(n)))
	beyond = n - rank
	return sorted[rank-1], beyond, beyond >= minBeyond
}

// latencySummary is the latency distribution of one timed phase in
// milliseconds.
type latencySummary struct {
	n             int
	p50, p90, p99 float64
	hasP90        bool
	hasP99        bool
}

func summarize(lat []time.Duration) (latencySummary, error) {
	ms := make([]float64, len(lat))
	for i, d := range lat {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	slices.Sort(ms)
	s := latencySummary{n: len(ms)}
	var ok bool
	if s.p50, _, ok = percentile(ms, 0.50); !ok {
		return s, fmt.Errorf("%d latency samples: too few for a median", len(ms))
	}
	s.p90, _, s.hasP90 = percentile(ms, 0.90)
	s.p99, _, s.hasP99 = percentile(ms, 0.99)
	return s, nil
}

// median of a small sample (the mean of the middle pair when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
