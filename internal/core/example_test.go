package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/temporal"
)

// figure1c builds the ITA result of the running example (Fig. 1(c)):
//
//	s1 A 800 [1,2]; s2 A 600 [3,3]; s3 A 500 [4,4]; s4 A 350 [5,6];
//	s5 A 300 [7,7]; s6 B 500 [4,5]; s7 B 500 [7,8]
func figure1c() *temporal.Sequence {
	s := temporal.NewSequence(
		[]temporal.Attribute{{Name: "Proj", Kind: temporal.KindString}},
		[]string{"AvgSal"},
	)
	a := s.Groups.Intern([]temporal.Datum{temporal.String("A")})
	b := s.Groups.Intern([]temporal.Datum{temporal.String("B")})
	s.Rows = []temporal.SeqRow{
		{Group: a, Aggs: []float64{800}, T: temporal.Interval{Start: 1, End: 2}},
		{Group: a, Aggs: []float64{600}, T: temporal.Interval{Start: 3, End: 3}},
		{Group: a, Aggs: []float64{500}, T: temporal.Interval{Start: 4, End: 4}},
		{Group: a, Aggs: []float64{350}, T: temporal.Interval{Start: 5, End: 6}},
		{Group: a, Aggs: []float64{300}, T: temporal.Interval{Start: 7, End: 7}},
		{Group: b, Aggs: []float64{500}, T: temporal.Interval{Start: 4, End: 5}},
		{Group: b, Aggs: []float64{500}, T: temporal.Interval{Start: 7, End: 8}},
	}
	return s
}

func approx(t *testing.T, got, want, tol float64, what string) {
	t.Helper()
	if math.IsInf(want, 1) {
		if !math.IsInf(got, 1) {
			t.Errorf("%s = %v, want +Inf", what, got)
		}
		return
	}
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want %v (±%v)", what, got, want, tol)
	}
}

// TestPrefixExample12 reproduces Example 12: S, SS, L prefixes and the error
// of merging {s2, s3}.
func TestPrefixExample12(t *testing.T) {
	px, err := NewKernel(figure1c(), Options{})
	if err != nil {
		t.Fatalf("NewPrefix: %v", err)
	}
	wantS := []float64{1600, 2200, 2700, 3400}
	wantSS := []float64{1280000, 1640000, 1890000, 2135000}
	wantL := []int64{2, 3, 4, 6}
	for i := 1; i <= 4; i++ {
		approx(t, px.s[i], wantS[i-1], 1e-6, "S")
		approx(t, px.ss[i], wantSS[i-1], 1e-6, "SS")
		if px.l[i] != wantL[i-1] {
			t.Errorf("L[%d] = %d, want %d", i, px.l[i], wantL[i-1])
		}
	}
	// SSE({s2, s3}) = 1890000 − 1280000 − (2700−1600)²/(4−2) = 5000.
	approx(t, px.MergeErr(2, 3), 5000, 1e-6, "SSE(s2..s3)")
}

func TestPrefixGapsAndCMin(t *testing.T) {
	px, _ := NewKernel(figure1c(), Options{})
	gaps := px.Gaps()
	if len(gaps) != 2 || gaps[0] != 5 || gaps[1] != 6 {
		t.Fatalf("Gaps = %v, want [5 6]", gaps)
	}
	if px.CMin() != 3 {
		t.Errorf("CMin = %d, want 3", px.CMin())
	}
	if !px.HasGap(1, 6) || px.HasGap(1, 5) || !px.HasGap(6, 7) || px.HasGap(6, 6) {
		t.Error("HasGap boundaries wrong")
	}
	if px.RightmostGapBefore(7) != 6 || px.RightmostGapBefore(6) != 5 || px.RightmostGapBefore(5) != 0 {
		t.Error("RightmostGapBefore wrong")
	}
}

// TestPrefixMaxError checks SSEmax = 269285.714... (the value E[1][5] of
// Fig. 4 is the group-A run error; group-B runs are singletons with zero
// error, so SSEmax equals it).
func TestPrefixMaxError(t *testing.T) {
	px, _ := NewKernel(figure1c(), Options{})
	approx(t, px.MaxError(), 269285.714285714, 1e-3, "MaxError")
}

// TestErrorMatrixFig4 fills the DP matrix for the running example and
// compares every cell against Fig. 4 (values are floor-rounded in the
// paper; we use a ±1 tolerance).
func TestErrorMatrixFig4(t *testing.T) {
	px, _ := NewKernel(figure1c(), Options{})
	want := [][]float64{
		{0, 26666, 67500, 208333, 269285, Inf, Inf},
		{Inf, 0, 5000, 41666, 49166, 269285, Inf},
		{Inf, Inf, 0, 5000, 6666, 49166, 269285},
		{Inf, Inf, Inf, 0, 1666, 6666, 49166},
	}
	for _, pruned := range []bool{true, false} {
		st := newDPState(px, Options{}, pruned, pruned, true)
		for k := 1; k <= 4; k++ {
			st.fillRow(k)
			for i := 1; i <= 7; i++ {
				w := want[k-1][i-1]
				if math.IsInf(w, 1) {
					if !math.IsInf(st.curE[i], 1) {
						t.Errorf("pruned=%v E[%d][%d] = %v, want Inf", pruned, k, i, st.curE[i])
					}
					continue
				}
				if math.Abs(st.curE[i]-w) > 1 {
					t.Errorf("pruned=%v E[%d][%d] = %v, want ≈%v", pruned, k, i, st.curE[i], w)
				}
			}
		}
	}
}

// TestSplitMatrixFig5 checks the split points on the optimal path of Fig. 5:
// J[4][7]=6, J[3][6]=5, J[2][5]=2, J[1][2]=0.
func TestSplitMatrixFig5(t *testing.T) {
	px, _ := NewKernel(figure1c(), Options{})
	st := newDPState(px, Options{}, true, true, true)
	for k := 1; k <= 4; k++ {
		st.fillRow(k)
	}
	checks := []struct{ k, i, want int }{
		{4, 7, 6}, {3, 6, 5}, {2, 5, 2}, {1, 2, 0},
		// Additional cells from Fig. 5.
		{2, 4, 2}, {3, 5, 3}, {4, 5, 3}, {2, 6, 5}, {3, 7, 6},
	}
	for _, c := range checks {
		if got := int(st.splits[c.k-1][c.i]); got != c.want {
			t.Errorf("J[%d][%d] = %d, want %d", c.k, c.i, got, c.want)
		}
	}
}

// TestPTAcFigure1d reduces the running example to 4 tuples and checks the
// result of Fig. 1(d) and the optimal error 49 166.67 of Example 6.
func TestPTAcFigure1d(t *testing.T) {
	seq := figure1c()
	res, err := PTAc(seq, 4, Options{})
	if err != nil {
		t.Fatalf("PTAc: %v", err)
	}
	approx(t, res.Error, 49166.666, 1e-2, "PTA error")
	z := res.Sequence
	if z.Len() != 4 {
		t.Fatalf("result size %d, want 4:\n%v", z.Len(), z)
	}
	type want struct {
		proj string
		avg  float64
		iv   temporal.Interval
	}
	wants := []want{
		{"A", 733.3333, temporal.Interval{Start: 1, End: 3}},
		{"A", 375, temporal.Interval{Start: 4, End: 7}},
		{"B", 500, temporal.Interval{Start: 4, End: 5}},
		{"B", 500, temporal.Interval{Start: 7, End: 8}},
	}
	for i, w := range wants {
		r := z.Rows[i]
		if g := z.Groups.Values(r.Group)[0].Text(); g != w.proj {
			t.Errorf("row %d group = %q, want %q", i, g, w.proj)
		}
		approx(t, r.Aggs[0], w.avg, 1e-3, "avg")
		if r.T != w.iv {
			t.Errorf("row %d interval = %v, want %v", i, r.T, w.iv)
		}
	}
	if err := z.Validate(); err != nil {
		t.Errorf("PTA result not sequential: %v", err)
	}
}

// TestPTAcMatchesDPBasic checks that pruning does not change the result.
func TestPTAcMatchesDPBasic(t *testing.T) {
	seq := figure1c()
	for c := 3; c <= 7; c++ {
		a, err := PTAc(seq, c, Options{})
		if err != nil {
			t.Fatalf("PTAc(%d): %v", c, err)
		}
		b, err := DPBasic(seq, c, Options{})
		if err != nil {
			t.Fatalf("DPBasic(%d): %v", c, err)
		}
		approx(t, a.Error, b.Error, 1e-6, "error")
		if !a.Sequence.Equal(b.Sequence, 1e-9) {
			t.Errorf("c=%d: pruned and basic DP disagree:\n%v\nvs\n%v", c, a.Sequence, b.Sequence)
		}
		if a.Stats.InnerIters > b.Stats.InnerIters {
			t.Errorf("c=%d: pruned DP did more inner work (%d > %d)", c, a.Stats.InnerIters, b.Stats.InnerIters)
		}
	}
}

// TestPTAcBounds checks argument validation.
func TestPTAcBounds(t *testing.T) {
	seq := figure1c()
	if _, err := PTAc(seq, 2, Options{}); err == nil {
		t.Error("c below cmin should fail")
	}
	res, err := PTAc(seq, 7, Options{})
	if err != nil || res.Error != 0 || res.C != 7 {
		t.Errorf("c = n should return the input unchanged: %+v, %v", res, err)
	}
	res, err = PTAc(seq, 100, Options{})
	if err != nil || res.C != 7 {
		t.Errorf("c > n should return the input unchanged: %+v, %v", res, err)
	}
	empty := temporal.NewSequence(nil, []string{"v"})
	if _, err := PTAc(empty, 0, Options{}); err != nil {
		t.Errorf("empty relation with c=0 should succeed: %v", err)
	}
	if _, err := PTAc(empty, 1, Options{}); err == nil {
		t.Error("empty relation with c=1 should fail")
	}
	if _, err := PTAc(seq, 4, Options{Weights: []float64{1, 2}}); err == nil {
		t.Error("wrong weight count should fail")
	}
	if _, err := PTAc(seq, 4, Options{Weights: []float64{-1}}); err == nil {
		t.Error("non-positive weight should fail")
	}
}

// TestErrorBoundRejectsNaN: every error-bounded evaluator rejects a NaN
// bound up front. No size fits a NaN bound, so without the check the exact
// searches never end and the greedy ones answer wrongly or crash.
func TestErrorBoundRejectsNaN(t *testing.T) {
	seq := figure1c()
	nan := math.NaN()
	est, err := ExactEstimate(seq, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sv, err := NewSolver(seq, Options{}, true, true)
	if err != nil {
		t.Fatal(err)
	}
	evaluators := map[string]func() error{
		"PTAe": func() error { _, err := PTAe(seq, nan, Options{}); return err },
		"PTAeParallel": func() error {
			_, err := PTAeParallel(seq, nan, Options{}, 2)
			return err
		},
		"DPMultiParallel": func() error {
			_, err := DPMultiParallel(seq, []MultiBudget{{C: 4}, {Eps: nan}}, Options{}, 2)
			return err
		},
		"DPMulti": func() error {
			_, err := DPMulti(seq, []MultiBudget{{Eps: nan}}, Options{}, true, true)
			return err
		},
		"SolveError": func() error { _, err := sv.SolveError(context.Background(), nan); return err },
		"GPTAe": func() error {
			_, err := GPTAe(NewSliceStream(seq), nan, 1, est, Options{})
			return err
		},
		"GMSError": func() error { _, err := GMSError(seq, nan, Options{}); return err },
	}
	for name, eval := range evaluators {
		if err := eval(); err == nil {
			t.Errorf("%s accepted a NaN error bound", name)
		}
	}
}

// TestPTAeExample7: ε = 1 reduces to cmin = 3 tuples, and ε = 0.2 yields
// the 4-tuple result of Fig. 1(d).
//
// Note: the paper's Example 7 says "allowing 2% error yields 4 result
// tuples", but by the paper's own Fig. 4, E[4][7] = 49 166 is 18.3% of
// SSEmax = 269 285 while E[6][7] = 1 666 is 0.6%; with a literal 2% bound
// the minimal size is therefore 6, and the 4-tuple result needs ε ≈ 0.2.
// We assert the values consistent with Fig. 4.
func TestPTAeExample7(t *testing.T) {
	seq := figure1c()
	res, err := PTAe(seq, 1, Options{})
	if err != nil {
		t.Fatalf("PTAe(1): %v", err)
	}
	if res.C != 3 {
		t.Errorf("ε=1 result size = %d, want 3", res.C)
	}
	res, err = PTAe(seq, 0.2, Options{})
	if err != nil {
		t.Fatalf("PTAe(0.2): %v", err)
	}
	if res.C != 4 {
		t.Errorf("ε=0.2 result size = %d, want 4", res.C)
	}
	approx(t, res.Error, 49166.666, 1e-2, "ε=0.2 error")
	res, err = PTAe(seq, 0.02, Options{})
	if err != nil {
		t.Fatalf("PTAe(0.02): %v", err)
	}
	if res.C != 6 {
		t.Errorf("ε=0.02 result size = %d, want 6", res.C)
	}
	approx(t, res.Error, 1666.666, 1e-2, "ε=0.02 error")
	// ε = 0 keeps the relation intact.
	res, err = PTAe(seq, 0, Options{})
	if err != nil || res.C != 7 || res.Error != 0 {
		t.Errorf("ε=0 should reduce nothing: C=%d err=%v (%v)", res.C, res.Error, err)
	}
	if _, err := PTAe(seq, 1.5, Options{}); err == nil {
		t.Error("ε > 1 should fail")
	}
	if _, err := PTAe(seq, -0.1, Options{}); err == nil {
		t.Error("ε < 0 should fail")
	}
}

// TestGMSFigure9 reproduces the greedy dendrogram of Fig. 9/Example 17:
// greedy reduction to 4 tuples merges s4⊕s5, then s2⊕s3, then the two
// results, giving error 63 000 and error ratio 1.28 against the optimum.
func TestGMSFigure9(t *testing.T) {
	seq := figure1c()
	res, err := GMS(seq, 4, Options{})
	if err != nil {
		t.Fatalf("GMS: %v", err)
	}
	approx(t, res.Error, 63000, 1e-6, "greedy error")
	z := res.Sequence
	if z.Len() != 4 {
		t.Fatalf("greedy result size = %d, want 4:\n%v", z.Len(), z)
	}
	// z1 = (A,800,[1,2]), z2 = (A,420,[3,7]), z3 = s6, z4 = s7.
	approx(t, z.Rows[0].Aggs[0], 800, 1e-9, "z1")
	approx(t, z.Rows[1].Aggs[0], 420, 1e-9, "z2")
	if z.Rows[1].T != (temporal.Interval{Start: 3, End: 7}) {
		t.Errorf("z2 interval = %v, want [3, 7]", z.Rows[1].T)
	}
	opt, _ := PTAc(seq, 4, Options{})
	ratio := res.Error / opt.Error
	approx(t, ratio, 1.28, 0.005, "error ratio")
}

// TestGMSReducesToCMin: with c = 1 the greedy stops at cmin = 3.
func TestGMSReducesToCMin(t *testing.T) {
	res, err := GMS(figure1c(), 1, Options{})
	if err != nil {
		t.Fatalf("GMS: %v", err)
	}
	if res.C != 3 {
		t.Errorf("C = %d, want cmin = 3", res.C)
	}
	approx(t, res.Error, 269285.714, 1e-2, "max error")
}

// TestGPTAcExample21 runs gPTAc with c=3, δ=1 over the running example and
// checks the final state of Fig. 12(h): {s1⊕...⊕s5, s6, s7}, with the heap
// never exceeding five tuples.
func TestGPTAcExample21(t *testing.T) {
	res, err := GPTAc(NewSliceStream(figure1c()), 3, 1, Options{})
	if err != nil {
		t.Fatalf("GPTAc: %v", err)
	}
	z := res.Sequence
	if z.Len() != 3 {
		t.Fatalf("result size = %d, want 3:\n%v", z.Len(), z)
	}
	// s1⊕...⊕s5 = (A, 3700/7, [1,7]).
	approx(t, z.Rows[0].Aggs[0], 3700.0/7.0, 1e-9, "merged value")
	if z.Rows[0].T != (temporal.Interval{Start: 1, End: 7}) {
		t.Errorf("merged interval = %v, want [1, 7]", z.Rows[0].T)
	}
	if res.MaxHeap != 5 {
		t.Errorf("MaxHeap = %d, want 5 (Example 21)", res.MaxHeap)
	}
}

// TestGPTAcDeltaInfEqualsGMS is Theorem 2 on the running example.
func TestGPTAcDeltaInfEqualsGMS(t *testing.T) {
	for c := 3; c <= 6; c++ {
		g, err := GPTAc(NewSliceStream(figure1c()), c, DeltaInf, Options{})
		if err != nil {
			t.Fatalf("GPTAc: %v", err)
		}
		m, err := GMS(figure1c(), c, Options{})
		if err != nil {
			t.Fatalf("GMS: %v", err)
		}
		if !g.Sequence.Equal(m.Sequence, 1e-9) {
			t.Errorf("c=%d: gPTAc(δ=∞) ≠ GMS:\n%v\nvs\n%v", c, g.Sequence, m.Sequence)
		}
		approx(t, g.Error, m.Error, 1e-6, "error")
	}
}

// TestGPTAeExample22 runs gPTAε with ε=0.5, δ=1 and the exact estimates on
// the running example and cross-checks against error-bounded GMS.
func TestGPTAeExample22(t *testing.T) {
	seq := figure1c()
	est, err := ExactEstimate(seq, Options{})
	if err != nil {
		t.Fatalf("ExactEstimate: %v", err)
	}
	approx(t, est.EMax, 269285.714, 1e-2, "estimate EMax")
	if est.N != 7 {
		t.Errorf("estimate N = %d, want 7", est.N)
	}
	res, err := GPTAe(NewSliceStream(seq), 0.5, 1, est, Options{})
	if err != nil {
		t.Fatalf("GPTAe: %v", err)
	}
	if res.Error > 0.5*est.EMax {
		t.Errorf("error %v exceeds bound %v", res.Error, 0.5*est.EMax)
	}
	gms, err := GMSError(seq, 0.5, Options{})
	if err != nil {
		t.Fatalf("GMSError: %v", err)
	}
	if res.C != gms.C {
		t.Errorf("gPTAε C = %d, GMS C = %d", res.C, gms.C)
	}
}

// leaf is a node holding row r alone, as the greedy engine inserts it.
func leaf(r temporal.SeqRow) *node {
	return &node{row: r.CloneAggs(), cov: float64(r.T.Len())}
}

// merged returns a ⊕ b through the greedy engine's in-place merge.
func merged(a, b temporal.SeqRow) temporal.SeqRow {
	n := leaf(a)
	n.absorb(leaf(b))
	return n.row
}

// TestDissimilarityMatchesSSE checks Proposition 2 on Fig. 10's key values.
func TestDissimilarityMatchesSSE(t *testing.T) {
	w2 := []float64{1}
	s4 := temporal.SeqRow{Aggs: []float64{350}, T: temporal.Interval{Start: 5, End: 6}}
	s5 := temporal.SeqRow{Aggs: []float64{300}, T: temporal.Interval{Start: 7, End: 7}}
	approx(t, dsim(leaf(s4), leaf(s5), w2), 1666.666, 1e-2, "dsim(s4,s5)")
	s2 := temporal.SeqRow{Aggs: []float64{600}, T: temporal.Interval{Start: 3, End: 3}}
	s3 := temporal.SeqRow{Aggs: []float64{500}, T: temporal.Interval{Start: 4, End: 4}}
	approx(t, dsim(leaf(s2), leaf(s3), w2), 5000, 1e-6, "dsim(s2,s3)")
	s1 := temporal.SeqRow{Aggs: []float64{800}, T: temporal.Interval{Start: 1, End: 2}}
	approx(t, dsim(leaf(s1), leaf(s2), w2), 26666.666, 1e-2, "dsim(s1,s2)")
	// Fig. 10(b): key of s4⊕s5 against s2⊕s3 after both merges.
	s45 := merged(s4, s5)
	s23 := merged(s2, s3)
	approx(t, dsim(leaf(s23), leaf(s45), w2), 56333.333, 1e-2, "dsim(s2⊕s3, s4⊕s5)")
}

// TestMergeRowsExample3 checks s1 ⊕ s2 = (A, 733.33, [1,3]).
func TestMergeRowsExample3(t *testing.T) {
	s1 := temporal.SeqRow{Aggs: []float64{800}, T: temporal.Interval{Start: 1, End: 2}}
	s2 := temporal.SeqRow{Aggs: []float64{600}, T: temporal.Interval{Start: 3, End: 3}}
	z := merged(s1, s2)
	approx(t, z.Aggs[0], 733.3333, 1e-3, "merged value")
	if z.T != (temporal.Interval{Start: 1, End: 3}) {
		t.Errorf("merged interval = %v", z.T)
	}
}

// TestSSEBetweenExample5 checks SSE(s, z) for the merge of s1, s2 into
// (A, 733.33, [1,3]): 26 666.67.
func TestSSEBetweenExample5(t *testing.T) {
	seq := figure1c()
	z := seq.WithRows([]temporal.SeqRow{
		merged(seq.Rows[0], seq.Rows[1]),
		seq.Rows[2], seq.Rows[3], seq.Rows[4], seq.Rows[5], seq.Rows[6],
	})
	got, err := SSEBetween(seq, z, Options{})
	if err != nil {
		t.Fatalf("SSEBetween: %v", err)
	}
	approx(t, got, 26666.666, 1e-2, "SSE")
}

// TestSSEBetweenFullReduction: SSE of the Fig. 1(d) result equals the DP's
// reported error.
func TestSSEBetweenFullReduction(t *testing.T) {
	seq := figure1c()
	res, _ := PTAc(seq, 4, Options{})
	got, err := SSEBetween(seq, res.Sequence, Options{})
	if err != nil {
		t.Fatalf("SSEBetween: %v", err)
	}
	approx(t, got, res.Error, 1e-6, "SSE vs DP error")
}

// TestWeightsScaleError: doubling the weight quadruples the error.
func TestWeightsScaleError(t *testing.T) {
	seq := figure1c()
	base, _ := PTAc(seq, 4, Options{})
	scaled, err := PTAc(seq, 4, Options{Weights: []float64{2}})
	if err != nil {
		t.Fatalf("PTAc: %v", err)
	}
	approx(t, scaled.Error, 4*base.Error, 1e-6, "scaled error")
}
