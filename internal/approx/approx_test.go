package approx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/temporal"
)

func almost(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (±%v)", what, got, want, tol)
	}
}

func lineSeries(n int) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = float64(i)
	}
	return vals
}

func randSeries(rng *rand.Rand, n int) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = math.Round(rng.Float64()*1000) / 8
	}
	return vals
}

// --- Series conversions ---

func unitSequence(vals []float64) *temporal.Sequence {
	seq := temporal.NewSequence(nil, []string{"v"})
	gid := seq.Groups.Intern(nil)
	for i, v := range vals {
		seq.Rows = append(seq.Rows, temporal.SeqRow{Group: gid, Aggs: []float64{v},
			T: temporal.Inst(temporal.Chronon(i))})
	}
	return seq
}

func TestFromSequenceExpandsRuns(t *testing.T) {
	seq := temporal.NewSequence(nil, []string{"v"})
	gid := seq.Groups.Intern(nil)
	seq.Rows = []temporal.SeqRow{
		{Group: gid, Aggs: []float64{5}, T: temporal.Interval{Start: 0, End: 2}},
		{Group: gid, Aggs: []float64{7}, T: temporal.Interval{Start: 3, End: 3}},
	}
	s, err := FromSequence(seq)
	if err != nil {
		t.Fatalf("FromSequence: %v", err)
	}
	want := []float64{5, 5, 5, 7}
	if s.Len() != 4 || s.P() != 1 {
		t.Fatalf("series %dx%d", s.P(), s.Len())
	}
	for i, v := range want {
		if s.Dims[0][i] != v {
			t.Errorf("sample %d = %v, want %v", i, s.Dims[0][i], v)
		}
	}
}

func TestFromSequenceRejectsGapsAndGroups(t *testing.T) {
	seq := temporal.NewSequence(nil, []string{"v"})
	gid := seq.Groups.Intern(nil)
	seq.Rows = []temporal.SeqRow{
		{Group: gid, Aggs: []float64{1}, T: temporal.Interval{Start: 0, End: 0}},
		{Group: gid, Aggs: []float64{2}, T: temporal.Interval{Start: 5, End: 5}},
	}
	if _, err := FromSequence(seq); err == nil {
		t.Error("gap should be rejected")
	}
	multi := temporal.NewSequence([]temporal.Attribute{{Name: "g", Kind: temporal.KindString}}, []string{"v"})
	a := multi.Groups.Intern([]temporal.Datum{temporal.String("a")})
	b := multi.Groups.Intern([]temporal.Datum{temporal.String("b")})
	multi.Rows = []temporal.SeqRow{
		{Group: a, Aggs: []float64{1}, T: temporal.Inst(0)},
		{Group: b, Aggs: []float64{2}, T: temporal.Inst(0)},
	}
	if _, err := FromSequence(multi); err == nil {
		t.Error("multiple groups should be rejected")
	}
	if _, err := FromSequence(temporal.NewSequence(nil, []string{"v"})); err == nil {
		t.Error("empty sequence should be rejected")
	}
}

// --- PAA ---

func TestPAAEqualSegments(t *testing.T) {
	segs, err := PAA([]float64{1, 1, 5, 5, 9, 9}, 3, 10)
	if err != nil {
		t.Fatalf("PAA: %v", err)
	}
	if len(segs) != 3 {
		t.Fatalf("segments = %d", len(segs))
	}
	wantVals := []float64{1, 5, 9}
	for i, sg := range segs {
		if sg.Vals[0] != wantVals[i] {
			t.Errorf("segment %d mean = %v, want %v", i, sg.Vals[0], wantVals[i])
		}
	}
	if segs[0].T != (temporal.Interval{Start: 10, End: 11}) {
		t.Errorf("segment 0 interval = %v", segs[0].T)
	}
}

func TestPAAPropCoversSeries(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(50)
		c := 1 + rng.Intn(n+3)
		segs, err := PAA(randSeries(rng, n), c, 0)
		if err != nil {
			return false
		}
		// Segments must tile [0, n−1] without holes or overlaps.
		var at temporal.Chronon
		for _, sg := range segs {
			if sg.T.Start != at {
				return false
			}
			at = sg.T.End + 1
		}
		return at == temporal.Chronon(n) && len(segs) == min(c, n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// --- DWT ---

func TestHaarRoundTrip(t *testing.T) {
	vals := []float64{9, 7, 3, 5}
	coefs, err := HaarForward(vals)
	if err != nil {
		t.Fatalf("HaarForward: %v", err)
	}
	// Orthonormal Haar of (9,7,3,5): overall average = 6 scaled by 2.
	almost(t, coefs[0], 12, 1e-9, "c0")
	back, err := HaarInverse(coefs)
	if err != nil {
		t.Fatalf("HaarInverse: %v", err)
	}
	for i := range vals {
		almost(t, back[i], vals[i], 1e-9, "roundtrip")
	}
	if _, err := HaarForward([]float64{1, 2, 3}); err == nil {
		t.Error("non-power-of-two length should fail")
	}
}

func TestHaarPropParseval(t *testing.T) {
	// Orthonormality: energy is preserved.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (1 + rng.Intn(6))
		vals := randSeries(rng, n)
		coefs, err := HaarForward(vals)
		if err != nil {
			return false
		}
		var e1, e2 float64
		for i := range vals {
			e1 += vals[i] * vals[i]
			e2 += coefs[i] * coefs[i]
		}
		return math.Abs(e1-e2) <= 1e-6*(1+e1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDWTTopKAllCoefficientsIsExact(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := randSeries(rng, 16)
	rec, err := DWTTopK(vals, 16)
	if err != nil {
		t.Fatalf("DWTTopK: %v", err)
	}
	for i := range vals {
		almost(t, rec[i], vals[i], 1e-9, "exact reconstruction")
	}
}

func TestDWTTopKPropErrorDecreases(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vals := randSeries(rng, 32)
		prev := math.Inf(1)
		for _, k := range []int{1, 4, 8, 16, 32} {
			rec, err := DWTTopK(vals, k)
			if err != nil {
				return false
			}
			var sse float64
			for i := range vals {
				d := vals[i] - rec[i]
				sse += d * d
			}
			if sse > prev+1e-9 {
				return false
			}
			prev = sse
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestDWTWithSegments(t *testing.T) {
	vals := []float64{1, 1, 1, 1, 9, 9, 9, 9}
	rec, k, err := DWTWithSegments(vals, 2)
	if err != nil {
		t.Fatalf("DWTWithSegments: %v", err)
	}
	if CountPlateaus(rec) != 2 || k < 1 {
		t.Errorf("plateaus = %d (k=%d)", CountPlateaus(rec), k)
	}
	almost(t, rec[0], 1, 1e-9, "left plateau")
	almost(t, rec[7], 9, 1e-9, "right plateau")
}

// --- FFT / DFT ---

// DFTNaive is the O(n²) direct transform, used to cross-check FFT.
func DFTNaive(re, im []float64) ([]float64, []float64) {
	n := len(re)
	outRe := make([]float64, n)
	outIm := make([]float64, n)
	for k := 0; k < n; k++ {
		for t := 0; t < n; t++ {
			ang := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			c, s := math.Cos(ang), math.Sin(ang)
			outRe[k] += re[t]*c - im[t]*s
			outIm[k] += re[t]*s + im[t]*c
		}
	}
	return outRe, outIm
}

func TestFFTMatchesNaiveDFT(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (1 + rng.Intn(5))
		re := randSeries(rng, n)
		im := randSeries(rng, n)
		wantRe, wantIm := DFTNaive(re, im)
		gotRe := append([]float64(nil), re...)
		gotIm := append([]float64(nil), im...)
		if err := FFT(gotRe, gotIm); err != nil {
			return false
		}
		for i := range re {
			if math.Abs(gotRe[i]-wantRe[i]) > 1e-6*(1+math.Abs(wantRe[i])) ||
				math.Abs(gotIm[i]-wantIm[i]) > 1e-6*(1+math.Abs(wantIm[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestFFTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	re := randSeries(rng, 64)
	im := make([]float64, 64)
	orig := append([]float64(nil), re...)
	if err := FFT(re, im); err != nil {
		t.Fatalf("FFT: %v", err)
	}
	if err := IFFT(re, im); err != nil {
		t.Fatalf("IFFT: %v", err)
	}
	for i := range orig {
		almost(t, re[i], orig[i], 1e-9, "fft roundtrip")
	}
}

func TestDFTTopKConstantAndErrors(t *testing.T) {
	rec, err := DFTTopK([]float64{4, 4, 4, 4}, 1)
	if err != nil {
		t.Fatalf("DFTTopK: %v", err)
	}
	for i := range rec {
		almost(t, rec[i], 4, 1e-9, "constant series")
	}
	if _, err := DFTTopK(nil, 1); err == nil {
		t.Error("empty series should fail")
	}
	if _, err := DFTTopK([]float64{1}, 0); err == nil {
		t.Error("c = 0 should fail")
	}
}

func TestFFTRejectsBadLength(t *testing.T) {
	if err := FFT(make([]float64, 3), make([]float64, 3)); err == nil {
		t.Error("length 3 should fail")
	}
	if err := FFT(make([]float64, 4), make([]float64, 2)); err == nil {
		t.Error("mismatched lengths should fail")
	}
}

// --- Chebyshev ---

func TestChebyshevConstant(t *testing.T) {
	rec, err := Chebyshev([]float64{3, 3, 3, 3, 3}, 1)
	if err != nil {
		t.Fatalf("Chebyshev: %v", err)
	}
	for i := range rec {
		almost(t, rec[i], 3, 1e-9, "constant")
	}
}

func TestChebyshevLinear(t *testing.T) {
	// T1(x) = x reproduces a linear ramp with 2 coefficients; the nearest-
	// sample interpolation of the step input adds a small quantization
	// error, so allow a loose tolerance away from the edges.
	vals := lineSeries(129)
	rec, err := Chebyshev(vals, 2)
	if err != nil {
		t.Fatalf("Chebyshev: %v", err)
	}
	for i := 5; i < len(vals)-5; i++ {
		if math.Abs(rec[i]-vals[i]) > 1.5 {
			t.Fatalf("linear reconstruction off at %d: %v vs %v", i, rec[i], vals[i])
		}
	}
}

func TestChebyshevMoreCoefficientsHelp(t *testing.T) {
	// A smooth signal: a generous coefficient budget must beat a tiny one
	// by a wide margin. (Error is not strictly monotone in m because the
	// step-interpolated quadrature aliases, so only the endpoints are
	// compared.)
	vals := make([]float64, 60)
	for i := range vals {
		vals[i] = math.Sin(float64(i)/8) * 10
	}
	sseFor := func(m int) float64 {
		rec, err := Chebyshev(vals, m)
		if err != nil {
			t.Fatalf("Chebyshev(%d): %v", m, err)
		}
		var sse float64
		for i := range vals {
			d := vals[i] - rec[i]
			sse += d * d
		}
		return sse
	}
	lo, hi := sseFor(24), sseFor(2)
	if lo > hi/10 {
		t.Errorf("m=24 error %v not ≪ m=2 error %v", lo, hi)
	}
}

// --- APCA ---

func TestAPCASegmentCountAndMeans(t *testing.T) {
	vals := []float64{1, 1, 1, 1, 9, 9, 9, 9}
	segs, err := APCA(vals, 2, 0)
	if err != nil {
		t.Fatalf("APCA: %v", err)
	}
	if len(segs) != 2 {
		t.Fatalf("segments = %d, want 2", len(segs))
	}
	almost(t, segs[0].Vals[0], 1, 1e-9, "left mean")
	almost(t, segs[1].Vals[0], 9, 1e-9, "right mean")
}

func TestAPCAPropValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 4 + rng.Intn(60)
		vals := randSeries(rng, n)
		c := 1 + rng.Intn(n/2+1)
		segs, err := APCA(vals, c, 0)
		if err != nil {
			return false
		}
		if len(segs) > c {
			return false
		}
		var at temporal.Chronon
		for _, sg := range segs {
			if sg.T.Start != at {
				return false
			}
			at = sg.T.End + 1
		}
		return at == temporal.Chronon(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// --- ATC ---

func TestATCZeroThresholdCoalescesOnlyEqual(t *testing.T) {
	seq := unitSequence([]float64{5, 5, 5, 7, 7, 5})
	z, err := ATC(seq, 0, nil)
	if err != nil {
		t.Fatalf("ATC: %v", err)
	}
	if z.Len() != 3 {
		t.Fatalf("segments = %d, want 3:\n%v", z.Len(), z)
	}
}

func TestATCLargeThresholdMergesAll(t *testing.T) {
	seq := unitSequence([]float64{1, 2, 3, 4})
	z, err := ATC(seq, 1e12, nil)
	if err != nil {
		t.Fatalf("ATC: %v", err)
	}
	if z.Len() != 1 {
		t.Fatalf("segments = %d, want 1", z.Len())
	}
	almost(t, z.Rows[0].Aggs[0], 2.5, 1e-9, "merged mean")
}

func TestATCRespectsGapsAndGroups(t *testing.T) {
	seq := temporal.NewSequence([]temporal.Attribute{{Name: "g", Kind: temporal.KindString}}, []string{"v"})
	a := seq.Groups.Intern([]temporal.Datum{temporal.String("a")})
	b := seq.Groups.Intern([]temporal.Datum{temporal.String("b")})
	seq.Rows = []temporal.SeqRow{
		{Group: a, Aggs: []float64{1}, T: temporal.Inst(0)},
		{Group: a, Aggs: []float64{1}, T: temporal.Inst(2)}, // gap
		{Group: b, Aggs: []float64{1}, T: temporal.Inst(3)}, // group change
	}
	z, err := ATC(seq, 1e12, nil)
	if err != nil {
		t.Fatalf("ATC: %v", err)
	}
	if z.Len() != 3 {
		t.Fatalf("segments = %d, want 3 (no merging across gaps/groups)", z.Len())
	}
}

func TestATCValidation(t *testing.T) {
	seq := unitSequence([]float64{1, 2})
	if _, err := ATC(seq, -1, nil); err == nil {
		t.Error("negative threshold should fail")
	}
	if _, err := ATC(seq, 0, []float64{1, 2}); err == nil {
		t.Error("weight arity mismatch should fail")
	}
	if _, err := ATC(seq, 0, []float64{0}); err == nil {
		t.Error("zero weight should fail")
	}
}

func TestATCPropLocalErrorBounded(t *testing.T) {
	// Every ATC segment's internal SSE stays within the threshold.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vals := randSeries(rng, 5+rng.Intn(60))
		th := rng.Float64() * 500
		seq := unitSequence(vals)
		z, err := ATC(seq, th, nil)
		if err != nil {
			return false
		}
		for _, row := range z.Rows {
			var sum, sq float64
			for t := row.T.Start; t <= row.T.End; t++ {
				v := vals[t]
				sum += v
				sq += v * v
			}
			l := float64(row.T.Len())
			if sq-sum*sum/l > th+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestATCThresholds(t *testing.T) {
	ths, err := ATCThresholds(1, 1000, 4)
	if err != nil {
		t.Fatalf("ATCThresholds: %v", err)
	}
	want := []float64{1000, 100, 10, 1}
	for i := range want {
		almost(t, ths[i], want[i], 1e-6, "threshold")
	}
	if _, err := ATCThresholds(0, 10, 3); err == nil {
		t.Error("lo = 0 should fail")
	}
	if _, err := ATCThresholds(10, 1, 3); err == nil {
		t.Error("hi < lo should fail")
	}
}

// --- SAX ---

func TestSAXWordShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	vals := randSeries(rng, 64)
	word, err := SAX(vals, 8, 4)
	if err != nil {
		t.Fatalf("SAX: %v", err)
	}
	if len(word.Symbols) != 8 {
		t.Fatalf("word length = %d", len(word.Symbols))
	}
	for _, s := range word.Symbols {
		if s < 'a' || s >= 'a'+4 {
			t.Fatalf("symbol %c outside alphabet", s)
		}
	}
}

func TestSAXBreakpointsEquiprobable(t *testing.T) {
	// Standard table values for w = 4: ±0.6745 and 0.
	bps := saxBreakpoints(4)
	almost(t, bps[0], -0.67449, 1e-3, "bp0")
	almost(t, bps[1], 0, 1e-9, "bp1")
	almost(t, bps[2], 0.67449, 1e-3, "bp2")
}

func TestNormalQuantile(t *testing.T) {
	almost(t, normalQuantile(0.5), 0, 1e-9, "median")
	almost(t, normalQuantile(0.975), 1.95996, 1e-4, "97.5%")
	almost(t, normalQuantile(0.025), -1.95996, 1e-4, "2.5%")
	if !math.IsNaN(normalQuantile(0)) || !math.IsNaN(normalQuantile(1)) {
		t.Error("quantile at 0/1 should be NaN")
	}
}

func TestSAXValidation(t *testing.T) {
	if _, err := SAX(nil, 1, 4); err == nil {
		t.Error("empty series should fail")
	}
	if _, err := SAX([]float64{1, 2}, 3, 4); err == nil {
		t.Error("c > n should fail")
	}
	if _, err := SAX([]float64{1, 2}, 1, 1); err == nil {
		t.Error("w < 2 should fail")
	}
}

func TestSAXConstantSeries(t *testing.T) {
	word, err := SAX([]float64{5, 5, 5, 5}, 2, 4)
	if err != nil {
		t.Fatalf("SAX: %v", err)
	}
	if word.Symbols[0] != word.Symbols[1] {
		t.Error("constant series should map to one symbol")
	}
}

// --- Cross-method sanity on a plateau signal ---

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

func TestPlateauSignalRanking(t *testing.T) {
	// A signal of clear plateaus: data-adaptive segmentations (APCA) must
	// fit it at least as well as the fixed grid (PAA) given equal budgets
	// that do not divide the plateau boundaries evenly.
	vals := []float64{1, 1, 1, 1, 1, 9, 9, 2, 2, 2, 2, 2, 2, 2}
	c := 3
	paaSegs, err := PAA(vals, c, 0)
	if err != nil {
		t.Fatal(err)
	}
	apcaSegs, err := APCA(vals, c, 0)
	if err != nil {
		t.Fatal(err)
	}
	s := &Series{Dims: [][]float64{vals}}
	paaErr := s.SSESegments(paaSegs, nil)
	apcaErr := s.SSESegments(apcaSegs, nil)
	if apcaErr > paaErr+1e-9 {
		t.Errorf("APCA (%v) should not lose to PAA (%v) on plateau data", apcaErr, paaErr)
	}
}

func TestCountPlateausAndSegments(t *testing.T) {
	if CountPlateaus(nil) != 0 {
		t.Error("empty series has 0 plateaus")
	}
	if CountPlateaus([]float64{1, 1, 2, 2, 1}) != 3 {
		t.Error("plateau count wrong")
	}
	segs := PlateausToSegments([]float64{1, 1, 2}, 5)
	if len(segs) != 2 || segs[0].T != (temporal.Interval{Start: 5, End: 6}) {
		t.Errorf("segments = %+v", segs)
	}
}
