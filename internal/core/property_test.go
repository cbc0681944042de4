package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/temporal"
)

// randomSequence builds a valid sequential relation with the given number of
// rows, aggregate dimensions, and a gap/group-change probability.
func randomSequence(rng *rand.Rand, n, p int, gapProb float64) *temporal.Sequence {
	attrs := []temporal.Attribute{{Name: "g", Kind: temporal.KindInt}}
	names := make([]string, p)
	for d := range names {
		names[d] = "v" + string(rune('0'+d))
	}
	s := temporal.NewSequence(attrs, names)
	group := int64(0)
	gid := s.Groups.Intern([]temporal.Datum{temporal.Int(group)})
	tcur := temporal.Chronon(0)
	for i := 0; i < n; i++ {
		if i > 0 && rng.Float64() < gapProb {
			if rng.Intn(2) == 0 {
				group++ // group change
				gid = s.Groups.Intern([]temporal.Datum{temporal.Int(group)})
				tcur = 0
			} else {
				tcur += temporal.Chronon(1 + rng.Intn(3)) // temporal gap
			}
		}
		length := temporal.Chronon(1 + rng.Intn(4))
		aggs := make([]float64, p)
		for d := range aggs {
			aggs[d] = math.Round(rng.Float64()*1000) / 10 // 0.0 .. 100.0
		}
		s.Rows = append(s.Rows, temporal.SeqRow{Group: gid, Aggs: aggs,
			T: temporal.Interval{Start: tcur, End: tcur + length - 1}})
		tcur += length
	}
	return s
}

// naiveSSE computes the error of merging rows i..j (1-based) directly from
// Definition 5: merge, then sum length-weighted squared deviations.
func naiveSSE(seq *temporal.Sequence, i, j int, w2 []float64) float64 {
	var totalLen float64
	p := seq.P()
	mean := make([]float64, p)
	for k := i; k <= j; k++ {
		l := float64(seq.Rows[k-1].T.Len())
		totalLen += l
		for d := 0; d < p; d++ {
			mean[d] += l * seq.Rows[k-1].Aggs[d]
		}
	}
	for d := range mean {
		mean[d] /= totalLen
	}
	var sse float64
	for k := i; k <= j; k++ {
		l := float64(seq.Rows[k-1].T.Len())
		for d := 0; d < p; d++ {
			diff := seq.Rows[k-1].Aggs[d] - mean[d]
			sse += w2[d] * l * diff * diff
		}
	}
	return sse
}

// TestPrefixPropSSEMatchesNaive: the O(p) prefix formula of Proposition 1
// agrees with the direct Definition 5 computation on every run.
func TestPrefixPropSSEMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		seq := randomSequence(rng, 2+rng.Intn(12), 1+rng.Intn(3), 0)
		px, err := NewKernel(seq, Options{})
		if err != nil {
			return false
		}
		for i := 1; i <= seq.Len(); i++ {
			for j := i; j <= seq.Len(); j++ {
				want := naiveSSE(seq, i, j, px.w2)
				got := px.MergeErr(i, j)
				if math.Abs(got-want) > 1e-6*(1+want) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// bruteForceOptimal enumerates every contiguous partition of the sequence
// into c blocks and returns the minimal total merge error — the semantics of
// Definition 6 stated directly.
func bruteForceOptimal(px *CostKernel, c int) float64 {
	n := px.N()
	best := Inf
	// splits[k] is the index (1-based, exclusive) where block k ends.
	var rec func(start, blocksLeft int, acc float64)
	rec = func(start, blocksLeft int, acc float64) {
		if acc >= best {
			return
		}
		if blocksLeft == 1 {
			e := px.MergeErrAll(start, n)
			if acc+e < best {
				best = acc + e
			}
			return
		}
		for end := start; end <= n-blocksLeft+1; end++ {
			e := px.MergeErrAll(start, end)
			if math.IsInf(e, 1) {
				break // further extension keeps the gap
			}
			rec(end+1, blocksLeft-1, acc+e)
		}
	}
	rec(1, c, 0)
	return best
}

// TestPTAcPropOptimal: the DP error equals the brute-force optimum on small
// random inputs, with and without gaps.
func TestPTAcPropOptimal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		seq := randomSequence(rng, 2+rng.Intn(9), 1+rng.Intn(2), 0.25)
		px, err := NewKernel(seq, Options{})
		if err != nil {
			return false
		}
		cmin := px.CMin()
		for c := cmin; c <= seq.Len(); c++ {
			res, err := PTAc(seq, c, Options{})
			if err != nil {
				return false
			}
			want := bruteForceOptimal(px, c)
			if math.Abs(res.Error-want) > 1e-6*(1+want) {
				t.Logf("seed %d c=%d: DP error %v, brute force %v", seed, c, res.Error, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestExactEntryPointsMatchBruteForce anchors every exact entry point to
// Definitions 6 and 7 stated directly, on small gapped inputs: the reported
// error is the brute-force optimum at the returned size, a size budget
// returns its size (n at most), and for an error budget no smaller size has
// a brute-force optimum within the bound. The boundary tolerance is
// relative to SSEmax, the scale of every error here.
func TestExactEntryPointsMatchBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		seq := randomSequence(rng, 1+rng.Intn(10), 1+rng.Intn(2), 0.3)
		px, err := NewKernel(seq, Options{})
		if err != nil {
			return false
		}
		n, cmin, maxErr := seq.Len(), px.CMin(), px.MaxError()
		opt := make([]float64, n+1)
		for c := cmin; c <= n; c++ {
			opt[c] = bruteForceOptimal(px, c)
		}
		slack := 1e-9 * (1 + maxErr)
		var budgets []MultiBudget
		for c := cmin; c <= n+1; c++ {
			budgets = append(budgets, MultiBudget{C: c})
		}
		for _, eps := range []float64{0, rng.Float64(), 1} {
			budgets = append(budgets, MultiBudget{Eps: eps})
		}
		fits := func(b MultiBudget, res *DPResult) bool {
			if res.C < cmin || res.C > n || math.Abs(res.Error-opt[res.C]) > slack {
				return false
			}
			if b.C > 0 {
				return res.C == min(b.C, n)
			}
			bound := b.Eps * maxErr
			for j := cmin; j < res.C; j++ {
				if opt[j] <= bound-slack {
					return false
				}
			}
			return opt[res.C] <= bound+slack
		}
		results, err := runExactEntryPoints(seq, budgets)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for i, b := range budgets {
			for name, res := range results[i] {
				if !fits(b, res) {
					t.Logf("seed %d %+v: %s returned C=%d error %v; brute force %v", seed, b, name, res.C, res.Error, opt)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// runExactEntryPoints answers every budget with every exact entry point:
// DPMulti and DPMultiParallel over all budgets at once, then PTAc or PTAe,
// PTAcParallel or PTAeParallel, and one retained Solver, budget by budget.
// results[i] maps each entry point's name to its answer to budgets[i].
func runExactEntryPoints(seq *temporal.Sequence, budgets []MultiBudget) ([]map[string]*DPResult, error) {
	ctx := context.Background()
	multi, err1 := DPMulti(seq, budgets, Options{}, true, true)
	parallel, err2 := DPMultiParallel(seq, budgets, Options{}, 2)
	sv, err3 := NewSolver(seq, Options{}, true, true)
	if err := errors.Join(err1, err2, err3); err != nil {
		return nil, err
	}
	results := make([]map[string]*DPResult, len(budgets))
	for i, b := range budgets {
		got := map[string]*DPResult{"DPMulti": multi[i], "DPMultiParallel": parallel[i]}
		if b.C > 0 {
			got["PTAc/PTAe"], err1 = PTAc(seq, b.C, Options{})
			got["PTAcParallel/PTAeParallel"], err2 = PTAcParallel(seq, b.C, Options{}, 2)
			got["Solver"], err3 = sv.SolveSize(ctx, b.C)
		} else {
			got["PTAc/PTAe"], err1 = PTAe(seq, b.Eps, Options{})
			got["PTAcParallel/PTAeParallel"], err2 = PTAeParallel(seq, b.Eps, Options{}, 2)
			got["Solver"], err3 = sv.SolveError(ctx, b.Eps)
		}
		if err := errors.Join(err1, err2, err3); err != nil {
			return nil, fmt.Errorf("%+v: %w", b, err)
		}
		results[i] = got
	}
	return results, nil
}

// TestOverflowBudgetsTypedError: weights that overflow the error sums
// (SSEmax is +Inf over 1, 5, 2, 9, 3 at weight 1e160) make every exact
// entry point of TestExactEntryPointsMatchBruteForce and every greedy one
// answer eps = 0, eps = 0.5 and c = 3 with ErrOverflow: no panic, no +Inf
// answer, no walk over split rows that were never written, no greedy
// answer that stopped merging above the size bound.
func TestOverflowBudgetsTypedError(t *testing.T) {
	ctx := context.Background()
	seq := temporal.NewSequence(nil, []string{"v"})
	gid := seq.Groups.Intern(nil)
	for i, v := range []float64{1, 5, 2, 9, 3} {
		seq.Rows = append(seq.Rows, temporal.SeqRow{Group: gid, Aggs: []float64{v}, T: temporal.Inst(temporal.Chronon(i))})
	}
	opts := Options{Weights: []float64{1e160}}
	for _, b := range []MultiBudget{{Eps: 0}, {Eps: 0.5}, {C: 3}} {
		sv, err := NewSolver(seq, opts, true, true)
		if err != nil {
			t.Fatal(err)
		}
		errs := map[string]error{}
		_, errs["DPMulti"] = DPMulti(seq, []MultiBudget{b}, opts, true, true)
		_, errs["DPMultiParallel"] = DPMultiParallel(seq, []MultiBudget{b}, opts, 2)
		if b.C > 0 {
			_, errs["PTAc/PTAe"] = PTAc(seq, b.C, opts)
			_, errs["PTAcParallel/PTAeParallel"] = PTAcParallel(seq, b.C, opts, 2)
			_, errs["Solver"] = sv.SolveSize(ctx, b.C)
			_, errs["GMS"] = GMS(seq, b.C, opts)
			_, errs["GPTAc"] = GPTAc(NewSliceStream(seq), b.C, 1, opts)
			_, errs["GMSBridged"] = GMSBridged(seq, b.C, opts)
			_, errs["Amnesic"] = Amnesic(seq, b.C, nil, opts)
		} else {
			_, errs["PTAc/PTAe"] = PTAe(seq, b.Eps, opts)
			_, errs["PTAcParallel/PTAeParallel"] = PTAeParallel(seq, b.Eps, opts, 2)
			_, errs["Solver"] = sv.SolveError(ctx, b.Eps)
			_, errs["GMSError"] = GMSError(seq, b.Eps, opts)
			for _, est := range []Estimate{{N: 5, EMax: 100}, {N: 5, EMax: Inf}} {
				_, errs[fmt.Sprintf("GPTAe(EMax=%v)", est.EMax)] = GPTAe(NewSliceStream(seq), b.Eps, 1, est, opts)
			}
		}
		for name, err := range errs {
			if !errors.Is(err, ErrOverflow) {
				t.Errorf("%+v: %s returned %v, want ErrOverflow", b, name, err)
			}
		}
	}
}

// TestLengthOverflowTypedError: rows [−2⁶³, 0] = 1 and [1, 2⁶³−1] = 3 cover
// more chronons than an int64 counts, so the kernel's prefix lengths would
// wrap; the single row [−2⁶³, 2⁶³−1] wraps its own length to 0. NewKernel
// and every exact entry point refuse both with ErrLengthOverflow instead
// of answering a null or NaN aggregate at error 0.
func TestLengthOverflowTypedError(t *testing.T) {
	for _, spans := range [][]temporal.Interval{
		{{Start: math.MinInt64, End: 0}, {Start: 1, End: math.MaxInt64}},
		{{Start: math.MinInt64, End: math.MaxInt64}},
	} {
		seq := temporal.NewSequence(nil, []string{"v"})
		gid := seq.Groups.Intern(nil)
		for i, iv := range spans {
			seq.Rows = append(seq.Rows, temporal.SeqRow{Group: gid, Aggs: []float64{float64(1 + 2*i)}, T: iv})
		}
		errs := map[string]error{}
		_, errs["NewKernel"] = NewKernel(seq, Options{})
		_, errs["NewSolver"] = NewSolver(seq, Options{}, true, true)
		_, errs["PTAc"] = PTAc(seq, 1, Options{})
		_, errs["PTAe"] = PTAe(seq, 0.5, Options{})
		_, errs["DPMulti"] = DPMulti(seq, []MultiBudget{{C: 1}, {Eps: 0.5}}, Options{}, true, true)
		_, errs["DPMultiParallel"] = DPMultiParallel(seq, []MultiBudget{{C: 1}, {Eps: 0.5}}, Options{}, 2)
		_, errs["PTAeParallel"] = PTAeParallel(seq, 0.5, Options{}, 2)
		_, errs["ErrorCurve"] = ErrorCurve(seq, 1, Options{})
		for name, err := range errs {
			if !errors.Is(err, temporal.ErrLengthOverflow) {
				t.Errorf("%v: %s returned %v, want ErrLengthOverflow", spans, name, err)
			}
		}
	}
}

// TestPTAcPropMatchesBasic: pruning never changes the DP result.
func TestPTAcPropMatchesBasic(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		seq := randomSequence(rng, 2+rng.Intn(25), 1+rng.Intn(3), 0.2)
		cmin := seq.CMin()
		c := cmin + rng.Intn(seq.Len()-cmin+1)
		a, err1 := PTAc(seq, c, Options{})
		b, err2 := DPBasic(seq, c, Options{})
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(a.Error-b.Error) <= 1e-6*(1+b.Error) &&
			a.Sequence.Equal(b.Sequence, 1e-6) &&
			a.Stats.InnerIters <= b.Stats.InnerIters
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPTAcPropReductionInvariants: the result is a valid sequential
// relation of exactly c rows that tiles the original cover, and every output
// value is the length-weighted mean of its constituents.
func TestPTAcPropReductionInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		seq := randomSequence(rng, 2+rng.Intn(20), 1+rng.Intn(3), 0.2)
		cmin := seq.CMin()
		c := cmin + rng.Intn(seq.Len()-cmin+1)
		res, err := PTAc(seq, c, Options{})
		if err != nil {
			return false
		}
		z := res.Sequence
		if z.Len() != c || z.Validate() != nil {
			return false
		}
		if z.TotalLen() != seq.TotalLen() {
			return false
		}
		// The reported error must equal the independently computed SSE.
		sse, err := SSEBetween(seq, z, Options{})
		if err != nil {
			return false
		}
		return math.Abs(sse-res.Error) <= 1e-6*(1+sse)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestErrorCurveProp: the error curve is non-increasing in k, infinite
// exactly below cmin, zero at k = n, and consistent with PTAc.
func TestErrorCurveProp(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		seq := randomSequence(rng, 2+rng.Intn(15), 1, 0.25)
		n := seq.Len()
		curve, err := ErrorCurve(seq, n, Options{})
		if err != nil {
			return false
		}
		cmin := seq.CMin()
		for k := 1; k <= n; k++ {
			e := curve[k-1]
			if k < cmin && !math.IsInf(e, 1) {
				return false
			}
			if k >= cmin && math.IsInf(e, 1) {
				return false
			}
			if k > 1 && e > curve[k-2]+1e-9 {
				return false
			}
		}
		if curve[n-1] != 0 {
			return false
		}
		res, err := PTAc(seq, cmin, Options{})
		if err != nil {
			return false
		}
		return math.Abs(curve[cmin-1]-res.Error) <= 1e-6*(1+res.Error)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestPTAePropMinimality: PTAe returns the smallest k whose optimal error
// fits the bound, per the error curve.
func TestPTAePropMinimality(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		seq := randomSequence(rng, 2+rng.Intn(15), 1+rng.Intn(2), 0.2)
		eps := rng.Float64()
		res, err := PTAe(seq, eps, Options{})
		if err != nil {
			return false
		}
		curve, err := ErrorCurve(seq, seq.Len(), Options{})
		if err != nil {
			return false
		}
		px, _ := NewKernel(seq, Options{})
		bound := eps * px.MaxError()
		wantC := seq.Len()
		for k := 1; k <= seq.Len(); k++ {
			if curve[k-1] <= bound {
				wantC = k
				break
			}
		}
		return res.C == wantC && res.Error <= bound+1e-9*(1+bound)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestGreedyPropNeverBeatsOptimal: SSE(greedy) ≥ SSE(optimal), and the
// greedy result is a valid reduction with consistent reported error.
func TestGreedyPropNeverBeatsOptimal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		seq := randomSequence(rng, 2+rng.Intn(20), 1+rng.Intn(3), 0.2)
		cmin := seq.CMin()
		c := cmin + rng.Intn(seq.Len()-cmin+1)
		greedy, err1 := GMS(seq, c, Options{})
		opt, err2 := PTAc(seq, c, Options{})
		if err1 != nil || err2 != nil {
			return false
		}
		if greedy.C != c || greedy.Sequence.Validate() != nil {
			return false
		}
		sse, err := SSEBetween(seq, greedy.Sequence, Options{})
		if err != nil || math.Abs(sse-greedy.Error) > 1e-6*(1+sse) {
			return false
		}
		return greedy.Error >= opt.Error-1e-9*(1+opt.Error)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestGPTAcPropTheorem2GapFree: on gap-free streams gPTAc with δ=∞ never
// merges before the stream ends (Proposition 3 cannot trigger without gaps),
// so its drain phase is exactly GMS and the outputs are identical — the
// setting in which Theorem 2 holds unconditionally.
func TestGPTAcPropTheorem2GapFree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		seq := randomSequence(rng, 2+rng.Intn(40), 1+rng.Intn(2), 0)
		c := 1 + rng.Intn(seq.Len())
		gms, err1 := GMS(seq, c, Options{})
		gptac, err2 := GPTAc(NewSliceStream(seq), c, DeltaInf, Options{})
		if err1 != nil || err2 != nil {
			return false
		}
		return gptac.Sequence.Equal(gms.Sequence, 1e-9) &&
			math.Abs(gptac.Error-gms.Error) <= 1e-9*(1+gms.Error)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestGPTAcPropNearGMS: with gaps present, the published Fig. 11 conditions
// can commit to an early merge of already-merged nodes whose key exceeds a
// cheaper pair that only arrives later in the stream — a case outside the
// literal premises of Proposition 3 (which speaks of original tuple pairs).
// The outputs then deviate from GMS (see TestGPTAcKnownDeviationFromGMS for
// a pinned instance). The deviation is bounded: both runs share all merges
// cheaper than the divergence point, so we assert size, validity, and an
// error within a factor 2 of GMS either way.
func TestGPTAcPropNearGMS(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		seq := randomSequence(rng, 2+rng.Intn(40), 1+rng.Intn(2), 0.25)
		cmin := seq.CMin()
		c := cmin + rng.Intn(seq.Len()-cmin+1)
		gms, err1 := GMS(seq, c, Options{})
		gptac, err2 := GPTAc(NewSliceStream(seq), c, DeltaInf, Options{})
		if err1 != nil || err2 != nil {
			return false
		}
		if gptac.C != gms.C || gptac.Sequence.Validate() != nil {
			return false
		}
		lo, hi := gms.Error/2-1e-9, gms.Error*2+1e-9
		return gptac.Error >= lo && gptac.Error <= hi
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestGPTAcKnownDeviationFromGMS pins the counterexample found during
// development: 39 rows, 12 gaps, c = 14. gPTAc's BG ≥ c rule (Fig. 11)
// forces the merge of two already-merged nodes (key ≈ 10 621) before a
// cheaper pair (key ≈ 5 008) arrives later in the stream; GMS, with the
// whole relation in view, reaches size c without gPTAc's final drain merge.
// The deviation is tiny (gPTAc's total error is even lower here) and both
// remain valid reductions to c — documenting that the paper's Theorem 2 is
// exact only when early merges involve original tuple pairs.
func TestGPTAcKnownDeviationFromGMS(t *testing.T) {
	rng := rand.New(rand.NewSource(7179853928203044407))
	seq := randomSequence(rng, 2+rng.Intn(40), 1+rng.Intn(2), 0.25)
	cmin := seq.CMin()
	c := cmin + rng.Intn(seq.Len()-cmin+1)
	if seq.Len() != 39 || c != 14 {
		t.Skip("math/rand stream changed; counterexample no longer reproducible")
	}
	gms, err1 := GMS(seq, c, Options{})
	gptac, err2 := GPTAc(NewSliceStream(seq), c, DeltaInf, Options{})
	if err1 != nil || err2 != nil {
		t.Fatalf("errors: %v %v", err1, err2)
	}
	if gptac.C != gms.C {
		t.Fatalf("sizes differ: %d vs %d", gptac.C, gms.C)
	}
	if gptac.Sequence.Equal(gms.Sequence, 1e-9) {
		t.Fatal("expected the pinned deviation; results are identical")
	}
	if math.Abs(gptac.Error-gms.Error) > 200 {
		t.Errorf("deviation grew: gPTAc %v vs GMS %v", gptac.Error, gms.Error)
	}
}

// TestGPTAePropTheorem3GapFree: on gap-free streams gPTAε with δ=∞ and
// exact estimates produces the GMS error-bounded result (Theorem 3).
func TestGPTAePropTheorem3GapFree(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		seq := randomSequence(rng, 2+rng.Intn(40), 1+rng.Intn(2), 0)
		eps := rng.Float64()
		est, err := ExactEstimate(seq, Options{})
		if err != nil {
			return false
		}
		gms, err1 := GMSError(seq, eps, Options{})
		gptae, err2 := GPTAe(NewSliceStream(seq), eps, DeltaInf, est, Options{})
		if err1 != nil || err2 != nil {
			return false
		}
		return gptae.Sequence.Equal(gms.Sequence, 1e-9) &&
			gptae.C == gms.C
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestGPTAePropBoundRespected: with gaps and any δ, gPTAε never exceeds the
// error bound when the estimates are exact.
func TestGPTAePropBoundRespected(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		seq := randomSequence(rng, 2+rng.Intn(40), 1+rng.Intn(2), 0.25)
		eps := rng.Float64()
		est, err := ExactEstimate(seq, Options{})
		if err != nil {
			return false
		}
		for _, delta := range []int{0, 1, DeltaInf} {
			res, err := GPTAe(NewSliceStream(seq), eps, delta, est, Options{})
			if err != nil {
				return false
			}
			bound := eps * est.EMax
			if res.Error > bound+1e-9*(1+bound) || res.Sequence.Validate() != nil {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestGPTAcPropDeltaHeapBound: with δ=0 the heap never exceeds c+1 entries
// (a row is inserted, then merging shrinks the heap back to c).
func TestGPTAcPropDeltaHeapBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		seq := randomSequence(rng, 5+rng.Intn(40), 1, 0) // gap free
		c := 1 + rng.Intn(seq.Len())
		res, err := GPTAc(NewSliceStream(seq), c, 0, Options{})
		if err != nil {
			return false
		}
		return res.MaxHeap <= c+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestGPTAcPropDeltaMonotone: larger δ cannot increase the greedy error
// below... precisely: δ=∞ (GMS) error is the best greedy error, δ=0 the
// most constrained; all δ results must stay within a factor of the GMS
// result's error plus tolerance — here we simply check every δ result is a
// valid reduction to c and its error is consistent.
func TestGPTAcPropDeltaValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		seq := randomSequence(rng, 5+rng.Intn(30), 1+rng.Intn(2), 0.15)
		cmin := seq.CMin()
		c := cmin + rng.Intn(seq.Len()-cmin+1)
		for _, delta := range []int{0, 1, 2, DeltaInf} {
			res, err := GPTAc(NewSliceStream(seq), c, delta, Options{})
			if err != nil {
				return false
			}
			if res.C > seq.Len() || res.Sequence.Validate() != nil {
				return false
			}
			if res.C != c && res.C != cmin && res.C > c {
				return false
			}
			sse, err := SSEBetween(seq, res.Sequence, Options{})
			if err != nil || math.Abs(sse-res.Error) > 1e-6*(1+sse) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestGMSErrorPropRespectsBound: the error-bounded greedy stays within the
// bound and cannot merge further without exceeding it.
func TestGMSErrorPropRespectsBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		seq := randomSequence(rng, 2+rng.Intn(25), 1, 0.2)
		eps := rng.Float64()
		px, _ := NewKernel(seq, Options{})
		bound := eps * px.MaxError()
		res, err := GMSError(seq, eps, Options{})
		if err != nil {
			return false
		}
		return res.Error <= bound+1e-9*(1+bound)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestMergeHeapProp: pushing random keys and repeatedly removing the top
// yields keys in non-decreasing order, with fix() after random key changes.
func TestMergeHeapProp(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var h mergeHeap
		n := 3 + rng.Intn(60)
		nodes := make([]*node, n)
		for i := range nodes {
			nodes[i] = &node{
				id:  i + 1,
				key: math.Round(rng.Float64()*100) / 4,
				row: temporal.SeqRow{T: temporal.Interval{Start: temporal.Chronon(i), End: temporal.Chronon(i)}},
			}
			h.push(nodes[i])
		}
		// Random key updates.
		for k := 0; k < n/2; k++ {
			nd := nodes[rng.Intn(n)]
			if nd.hpos < 0 {
				continue
			}
			nd.key = math.Round(rng.Float64()*100) / 4
			h.fix(nd)
		}
		// Random removals.
		for k := 0; k < n/4; k++ {
			nd := nodes[rng.Intn(n)]
			if nd.hpos >= 0 {
				h.remove(nd)
			}
		}
		prev := math.Inf(-1)
		for h.len() > 0 {
			top := h.peek()
			if top.key < prev {
				return false
			}
			prev = top.key
			h.remove(top)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestGreedyPropLogBound is a sanity check of Theorem 1's O(log n) error
// ratio: on gap-free random data the ratio stays below a generous
// C·(1 + ln n) envelope.
func TestGreedyPropLogBound(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		seq := randomSequence(rng, 10+rng.Intn(40), 1, 0)
		c := 1 + rng.Intn(seq.Len()/2)
		greedy, err1 := GMS(seq, c, Options{})
		opt, err2 := PTAc(seq, c, Options{})
		if err1 != nil || err2 != nil {
			return false
		}
		if opt.Error == 0 {
			return greedy.Error <= 1e-9
		}
		ratio := greedy.Error / opt.Error
		return ratio <= 20*(1+math.Log(float64(seq.Len())))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestSliceStream exercises the Stream adapter.
func TestSliceStream(t *testing.T) {
	seq := figure1c()
	st := NewSliceStream(seq)
	if st.Sequence().Len() != 0 {
		t.Error("Sequence() must be row-less metadata")
	}
	count := 0
	for {
		_, ok := st.Next()
		if !ok {
			break
		}
		count++
	}
	if count != seq.Len() {
		t.Errorf("streamed %d rows, want %d", count, seq.Len())
	}
}

// TestSampleEstimate checks scaling and validation.
func TestSampleEstimate(t *testing.T) {
	seq := figure1c()
	est, err := SampleEstimate(seq, 100, 0.5, Options{})
	if err != nil {
		t.Fatalf("SampleEstimate: %v", err)
	}
	if est.N != 199 {
		t.Errorf("N = %d, want 199", est.N)
	}
	px, _ := NewKernel(seq, Options{})
	if math.Abs(est.EMax-2*px.MaxError()) > 1e-6 {
		t.Errorf("EMax = %v, want %v", est.EMax, 2*px.MaxError())
	}
	if _, err := SampleEstimate(seq, 100, 0, Options{}); err == nil {
		t.Error("fraction 0 should fail")
	}
	if _, err := SampleEstimate(seq, 100, 1.5, Options{}); err == nil {
		t.Error("fraction > 1 should fail")
	}
}
