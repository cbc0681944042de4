package approx

import (
	"fmt"
	"math"
	"sort"
)

// The discrete Fourier transform baseline (Li, Yu & Castelli 1996): the
// series is approximated by the inverse transform of its c
// largest-magnitude frequency coefficients (kept in conjugate-symmetric
// pairs so the reconstruction stays real). Unlike PTA the result is a
// continuous curve, not a step function — Fig. 2(c).

// FFT computes the in-place radix-2 Cooley-Tukey fast Fourier transform of
// the complex signal (re, im). The length must be a power of two.
func FFT(re, im []float64) error {
	n := len(re)
	if len(im) != n {
		return fmt.Errorf("approx: FFT real/imaginary length mismatch %d vs %d", n, len(im))
	}
	if n == 0 || n&(n-1) != 0 {
		return fmt.Errorf("approx: FFT needs a power-of-two length, got %d", n)
	}
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			re[i], re[j] = re[j], re[i]
			im[i], im[j] = im[j], im[i]
		}
	}
	for length := 2; length <= n; length <<= 1 {
		ang := -2 * math.Pi / float64(length)
		wRe, wIm := math.Cos(ang), math.Sin(ang)
		for i := 0; i < n; i += length {
			curRe, curIm := 1.0, 0.0
			for j := 0; j < length/2; j++ {
				uRe, uIm := re[i+j], im[i+j]
				vRe := re[i+j+length/2]*curRe - im[i+j+length/2]*curIm
				vIm := re[i+j+length/2]*curIm + im[i+j+length/2]*curRe
				re[i+j], im[i+j] = uRe+vRe, uIm+vIm
				re[i+j+length/2], im[i+j+length/2] = uRe-vRe, uIm-vIm
				curRe, curIm = curRe*wRe-curIm*wIm, curRe*wIm+curIm*wRe
			}
		}
	}
	return nil
}

// IFFT computes the inverse transform of FFT.
func IFFT(re, im []float64) error {
	for i := range im {
		im[i] = -im[i]
	}
	if err := FFT(re, im); err != nil {
		return err
	}
	n := float64(len(re))
	for i := range re {
		re[i] /= n
		im[i] = -im[i] / n
	}
	return nil
}

// DFTTopK reconstructs vals from its c largest-magnitude Fourier
// coefficients. Conjugate-symmetric partners count as one retained
// coefficient pair, matching the usual accounting in similarity-search work.
// The input is zero padded to a power of two and the reconstruction
// truncated back to the original length.
func DFTTopK(vals []float64, c int) ([]float64, error) {
	n := len(vals)
	if n == 0 {
		return nil, fmt.Errorf("approx: DFT of an empty series")
	}
	if c < 1 {
		return nil, fmt.Errorf("approx: DFT coefficient count %d, want ≥ 1", c)
	}
	m := NextPow2(n)
	re := make([]float64, m)
	im := make([]float64, m)
	copy(re, vals)
	if err := FFT(re, im); err != nil {
		return nil, err
	}
	// Rank frequencies 0..m/2 by magnitude (conjugate halves are mirrors).
	half := m/2 + 1
	idx := make([]int, half)
	for i := range idx {
		idx[i] = i
	}
	mag := func(k int) float64 { return re[k]*re[k] + im[k]*im[k] }
	sort.Slice(idx, func(a, b int) bool { return mag(idx[a]) > mag(idx[b]) })
	keep := make([]bool, m)
	for i := 0; i < min(c, half); i++ {
		k := idx[i]
		keep[k] = true
		if k != 0 && k != m/2 {
			keep[m-k] = true // conjugate partner
		}
	}
	for k := range keep {
		if !keep[k] {
			re[k], im[k] = 0, 0
		}
	}
	if err := IFFT(re, im); err != nil {
		return nil, err
	}
	return re[:n], nil
}
