package approx

import (
	"fmt"
	"math"
)

// SAX implements symbolic aggregate approximation (Lin, Keogh, Wei & Lonardi
// 2007): the series is z-normalized, reduced to c segments with PAA, and
// each segment mean is mapped to one of w symbols chosen so that every
// symbol is equiprobable under a standard normal distribution. The paper
// lists SAX among the PAA-derived techniques whose limitations carry over
// (Section 2.2); it is provided for completeness of the baseline suite.

// SAXWord is a symbolic series representation.
type SAXWord struct {
	// Symbols holds one letter per segment, 'a' + bin index.
	Symbols []byte
}

// String returns the word as text, e.g. "accbba".
func (w *SAXWord) String() string { return string(w.Symbols) }

// saxBreakpoints returns the w−1 boundaries splitting the standard normal
// into w equiprobable bins.
func saxBreakpoints(w int) []float64 {
	bps := make([]float64, w-1)
	for i := 1; i < w; i++ {
		bps[i-1] = normalQuantile(float64(i) / float64(w))
	}
	return bps
}

// normalQuantile computes the standard normal inverse CDF with the
// Beasley-Springer-Moro / Acklam rational approximation (|ε| < 1.15e-9),
// refined by one Halley step — ample for symbol boundaries.
func normalQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		return math.NaN()
	}
	a := []float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := []float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := []float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := []float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	pLow, pHigh := 0.02425, 1-0.02425
	var x float64
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		x = (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p <= pHigh:
		q := p - 0.5
		r := q * q
		x = (((((a[0]*r+a[1])*r+a[2])*r+a[3])*r+a[4])*r + a[5]) * q /
			(((((b[0]*r+b[1])*r+b[2])*r+b[3])*r+b[4])*r + 1)
	default:
		q := math.Sqrt(-2 * math.Log(1-p))
		x = -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	}
	// One Halley refinement using the CDF error.
	e := 0.5*math.Erfc(-x/math.Sqrt2) - p
	u := e * math.Sqrt(2*math.Pi) * math.Exp(x*x/2)
	return x - u/(1+x*u/2)
}

// SAX converts vals into a word of c symbols over an alphabet of w letters.
func SAX(vals []float64, c, w int) (*SAXWord, error) {
	n := len(vals)
	if n == 0 {
		return nil, fmt.Errorf("approx: SAX of an empty series")
	}
	if c < 1 || c > n {
		return nil, fmt.Errorf("approx: SAX word length %d outside 1..%d", c, n)
	}
	if w < 2 || w > 26 {
		return nil, fmt.Errorf("approx: SAX alphabet size %d outside 2..26", w)
	}
	var mean float64
	for _, v := range vals {
		mean += v
	}
	mean /= float64(n)
	var variance float64
	for _, v := range vals {
		variance += (v - mean) * (v - mean)
	}
	std := math.Sqrt(variance / float64(n))
	if std == 0 {
		std = 1 // constant series: all symbols map to the middle bin
	}

	segs, err := PAA(vals, c, 0)
	if err != nil {
		return nil, err
	}
	bps := saxBreakpoints(w)
	word := &SAXWord{}
	for _, sg := range segs {
		z := (sg.Vals[0] - mean) / std
		bin := 0
		for bin < len(bps) && z > bps[bin] {
			bin++
		}
		word.Symbols = append(word.Symbols, byte('a'+bin))
	}
	return word, nil
}
