package core

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/temporal"
)

// monotoneFills are the row-fill algorithms that must reproduce the pruned
// scan's matrices bit for bit.
var monotoneFills = []FillAlgo{FillDC}

// monotoneSequence builds a random gap-ful sequence and then sorts each
// aggregate dimension within every maximal run (ascending or descending per
// run and dimension) — the counter-like shape the kernel certifies, so the
// monotone fills genuinely run instead of falling back to the scan.
func monotoneSequence(rng *rand.Rand, n, p int, gapProb float64) *temporal.Sequence {
	seq := randomSequence(rng, n, p, gapProb)
	kn, err := NewKernel(seq, Options{})
	if err != nil {
		panic(err)
	}
	runEnds := append(append([]int(nil), kn.Gaps()...), n)
	start := 0
	for _, end := range runEnds {
		for d := 0; d < p; d++ {
			vals := make([]float64, 0, end-start)
			for r := start; r < end; r++ {
				vals = append(vals, seq.Rows[r].Aggs[d])
			}
			sort.Float64s(vals)
			if rng.Intn(2) == 0 {
				for a, b := 0, len(vals)-1; a < b; a, b = a+1, b-1 {
					vals[a], vals[b] = vals[b], vals[a]
				}
			}
			for r := start; r < end; r++ {
				seq.Rows[r].Aggs[d] = vals[r-start]
			}
		}
		start = end
	}
	return seq
}

// tieSequence builds a kernel over a sequence engineered for exact
// floating-point ties: unit-length intervals and non-decreasing plateau
// values (long stretches of exactly equal costs), so many candidate splits
// produce identical totals and the rightmost-argmin tie handling is
// exercised on every row while the kernel still certifies monotone runs.
func tieSequence(rng *rand.Rand, n, p int, gapProb float64) *CostKernel {
	attrs := []temporal.Attribute{{Name: "g", Kind: temporal.KindInt}}
	names := make([]string, p)
	for d := range names {
		names[d] = "v" + string(rune('0'+d))
	}
	seq := temporal.NewSequence(attrs, names)
	gid := seq.Groups.Intern([]temporal.Datum{temporal.Int(0)})
	tcur := temporal.Chronon(0)
	levels := make([]float64, p)
	for d := range levels {
		levels[d] = 10
	}
	for i := 0; i < n; i++ {
		if i > 0 && rng.Float64() < gapProb {
			tcur += 2 // temporal gap; levels may reset direction next run
			for d := range levels {
				levels[d] = float64(10 * (1 + rng.Intn(2)))
			}
		}
		aggs := make([]float64, p)
		for d := range aggs {
			if rng.Float64() < 0.3 {
				levels[d] += 10 // step up, keeping the run non-decreasing
			}
			aggs[d] = levels[d]
		}
		seq.Rows = append(seq.Rows, temporal.SeqRow{Group: gid, Aggs: aggs,
			T: temporal.Interval{Start: tcur, End: tcur}})
		tcur++
	}
	kn, err := NewKernel(seq, Options{})
	if err != nil {
		panic(err)
	}
	return kn
}

// fillMatrices fills c rows of E and J with the given prune flags and fill
// algorithm and returns copies of every row.
func fillMatrices(t *testing.T, kn *CostKernel, opts Options, pruneI, pruneJ bool, c int) ([][]float64, [][]int32) {
	t.Helper()
	st := newDPState(kn, opts, pruneI, pruneJ, true)
	st.ownSplits = true
	em := make([][]float64, c)
	for k := 1; k <= c; k++ {
		if _, err := st.fillRow(k); err != nil {
			t.Fatalf("fillRow(%d): %v", k, err)
		}
		em[k-1] = append([]float64(nil), st.curE...)
	}
	return em, st.splits
}

// matricesBitwiseEqual reports the first differing cell of two E/J matrix
// pairs, comparing E cells bit for bit (NaN-free by construction).
func matricesBitwiseEqual(t *testing.T, label string, e1, e2 [][]float64, j1, j2 [][]int32) bool {
	t.Helper()
	for k := range e1 {
		for i := range e1[k] {
			a, b := e1[k][i], e2[k][i]
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Errorf("%s: E[%d][%d] = %v (bits %x), want %v (bits %x)",
					label, k+1, i, b, math.Float64bits(b), a, math.Float64bits(a))
				return false
			}
			if j1[k][i] != j2[k][i] {
				t.Errorf("%s: J[%d][%d] = %d, want %d", label, k+1, i, j2[k][i], j1[k][i])
				return false
			}
		}
	}
	return true
}

// TestFillPropBitwiseIdentical: FillDC reproduces the pruned scan's E and
// J matrices bit for bit on random gap-ful, weighted, multi-attribute
// monotone-run sequences (the shape the kernel certifies, so the monotone
// code paths genuinely execute), under every pruning-flag combination.
func TestFillPropBitwiseIdentical(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		p := 1 + rng.Intn(3)
		seq := monotoneSequence(rng, n, p, []float64{0, 0.1, 0.35}[rng.Intn(3)])
		opts := Options{}
		if rng.Intn(2) == 0 {
			w := make([]float64, p)
			for d := range w {
				w[d] = 0.25 + rng.Float64()*3
			}
			opts.Weights = w
		}
		kn, err := NewKernel(seq, opts)
		if err != nil {
			t.Fatal(err)
		}
		if !kn.MonotoneRuns() {
			t.Fatalf("seed %d: monotoneSequence not certified", seed)
		}
		c := 1 + rng.Intn(n)
		ok := true
		for _, flags := range [][2]bool{{true, true}, {true, false}, {false, true}, {false, false}} {
			baseOpts := opts
			baseOpts.Fill = FillPruned
			wantE, wantJ := fillMatrices(t, kn, baseOpts, flags[0], flags[1], c)
			for _, algo := range monotoneFills {
				algoOpts := opts
				algoOpts.Fill = algo
				gotE, gotJ := fillMatrices(t, kn, algoOpts, flags[0], flags[1], c)
				if !matricesBitwiseEqual(t, algo.String(), wantE, gotE, wantJ, gotJ) {
					t.Logf("seed=%d n=%d p=%d c=%d pruneI=%v pruneJ=%v", seed, n, p, c, flags[0], flags[1])
					ok = false
				}
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestFillPropBitwiseIdenticalOnTies repeats the bitwise check on inputs
// engineered for exact cost ties (unit lengths, two-valued aggregates): the
// rightmost-argmin convention of every algorithm must agree on every tie.
func TestFillPropBitwiseIdenticalOnTies(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(30)
		p := 1 + rng.Intn(2)
		kn := tieSequence(rng, n, p, []float64{0, 0.25}[rng.Intn(2)])
		if !kn.MonotoneRuns() {
			t.Fatalf("seed %d: tieSequence not certified", seed)
		}
		c := 1 + rng.Intn(n)
		base := Options{Fill: FillPruned}
		wantE, wantJ := fillMatrices(t, kn, base, true, true, c)
		ok := true
		for _, algo := range monotoneFills {
			gotE, gotJ := fillMatrices(t, kn, Options{Fill: algo}, true, true, c)
			if !matricesBitwiseEqual(t, algo.String(), wantE, gotE, wantJ, gotJ) {
				t.Logf("ties: seed=%d n=%d p=%d c=%d", seed, n, p, c)
				ok = false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestFillPropReconstructionsIdentical: the full evaluators produce
// identical Result rows and errors under every fill algorithm, including
// exact error-bound ties (eps = 0 and eps = 1 sit exactly on row errors).
func TestFillPropReconstructionsIdentical(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(32)
		p := 1 + rng.Intn(3)
		seq := monotoneSequence(rng, n, p, 0.3)
		kn, _ := NewKernel(seq, Options{})
		cmin := kn.CMin()
		c := cmin + rng.Intn(n-cmin+1)
		for _, eps := range []float64{0, rng.Float64(), 1} {
			want, err := PTAe(seq, eps, Options{Fill: FillPruned})
			if err != nil {
				t.Fatalf("PTAe: %v", err)
			}
			for _, algo := range monotoneFills {
				got, err := PTAe(seq, eps, Options{Fill: algo})
				if err != nil {
					t.Fatalf("PTAe(%v): %v", algo, err)
				}
				if got.C != want.C || math.Float64bits(got.Error) != math.Float64bits(want.Error) ||
					!reflect.DeepEqual(got.Sequence.Rows, want.Sequence.Rows) {
					t.Errorf("PTAe eps=%v algo=%v: C=%d err=%v, want C=%d err=%v (seed %d)",
						eps, algo, got.C, got.Error, want.C, want.Error, seed)
					return false
				}
			}
		}
		want, err := PTAc(seq, c, Options{Fill: FillPruned})
		if err != nil {
			t.Fatalf("PTAc: %v", err)
		}
		for _, algo := range monotoneFills {
			got, err := PTAc(seq, c, Options{Fill: algo})
			if err != nil {
				t.Fatalf("PTAc(%v): %v", algo, err)
			}
			if got.C != want.C || math.Float64bits(got.Error) != math.Float64bits(want.Error) ||
				!reflect.DeepEqual(got.Sequence.Rows, want.Sequence.Rows) {
				t.Errorf("PTAc c=%d algo=%v diverged (seed %d)", c, algo, seed)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestFillSolverAlgos: the incremental Solver answers size and error budgets
// identically under every fill algorithm (the matrix-cache bit-compat
// contract behind per-algo DP classes).
func TestFillSolverAlgos(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 20; trial++ {
		seq := monotoneSequence(rng, 3+rng.Intn(40), 1+rng.Intn(2), 0.3)
		kn, _ := NewKernel(seq, Options{})
		cmin := kn.CMin()
		budgetsC := []int{cmin, min(cmin+2, seq.Len()), seq.Len()}
		budgetsEps := []float64{0, 0.05, 0.5, 1}
		var want []*DPResult
		for ai, algo := range []FillAlgo{FillPruned, FillDC} {
			sv, err := NewSolver(seq, Options{Fill: algo}, true, true)
			if err != nil {
				t.Fatal(err)
			}
			var got []*DPResult
			for _, c := range budgetsC {
				res, err := sv.SolveSize(nil, c)
				if err != nil {
					t.Fatalf("SolveSize(%d): %v", c, err)
				}
				got = append(got, res)
			}
			for _, eps := range budgetsEps {
				res, err := sv.SolveError(nil, eps)
				if err != nil {
					t.Fatalf("SolveError(%v): %v", eps, err)
				}
				got = append(got, res)
			}
			if ai == 0 {
				want = got
				continue
			}
			for bi := range want {
				if got[bi].C != want[bi].C ||
					math.Float64bits(got[bi].Error) != math.Float64bits(want[bi].Error) ||
					!reflect.DeepEqual(got[bi].Sequence.Rows, want[bi].Sequence.Rows) {
					t.Fatalf("trial %d algo %v budget %d: C=%d err=%v, want C=%d err=%v",
						trial, algo, bi, got[bi].C, got[bi].Error, want[bi].C, want[bi].Error)
				}
			}
		}
	}
}

// TestFillFallbackOnOscillating: on data where no monotone segment is long
// enough for the per-segment dispatch to engage (MonotoneCoverage = 0 —
// short random oscillating sequences decompose into two-to-three-row
// segments), a pinned monotone fill falls back to the scan outright and the
// full evaluators stay exact.
func TestFillFallbackOnOscillating(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	fallbacks := 0
	for trial := 0; trial < 25; trial++ {
		seq := randomSequence(rng, 3+rng.Intn(30), 1+rng.Intn(3), 0.25)
		kn, err := NewKernel(seq, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if kn.MonotoneCoverage() == 0 {
			fallbacks++
			for _, algo := range monotoneFills {
				st := newDPState(kn, Options{Fill: algo}, true, true, true)
				if st.algo != FillPruned {
					t.Fatalf("trial %d: algo %v did not fall back with zero segment coverage", trial, algo)
				}
			}
		}
		c := kn.CMin() + rng.Intn(seq.Len()-kn.CMin()+1)
		want, err := PTAc(seq, c, Options{Fill: FillPruned})
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range monotoneFills {
			got, err := PTAc(seq, c, Options{Fill: algo})
			if err != nil {
				t.Fatal(err)
			}
			if got.C != want.C || math.Float64bits(got.Error) != math.Float64bits(want.Error) ||
				!reflect.DeepEqual(got.Sequence.Rows, want.Sequence.Rows) {
				t.Fatalf("trial %d algo %v: fallback result diverged", trial, algo)
			}
		}
	}
	if fallbacks == 0 {
		t.Fatal("no oscillating input generated; the fallback path was never exercised")
	}
}

// TestFillAutoResolution pins the auto heuristic: scan below the threshold,
// divide and conquer at or above it, and explicit choices pass through.
func TestFillAutoResolution(t *testing.T) {
	if got := FillAuto.resolve(fillAutoThreshold - 1); got != FillPruned {
		t.Errorf("auto below threshold = %v, want pruned", got)
	}
	if got := FillAuto.resolve(fillAutoThreshold); got != FillDC {
		t.Errorf("auto at threshold = %v, want dc", got)
	}
	for _, a := range []FillAlgo{FillPruned, FillDC} {
		if got := a.resolve(1); got != a {
			t.Errorf("resolve(%v) = %v", a, got)
		}
	}
}

// TestParseFillAlgo covers the name round trip and the unknown-name error.
func TestParseFillAlgo(t *testing.T) {
	for _, name := range FillAlgoNames() {
		a, err := ParseFillAlgo(name)
		if err != nil {
			t.Fatalf("ParseFillAlgo(%q): %v", name, err)
		}
		if a.String() != name {
			t.Errorf("round trip %q → %v", name, a)
		}
	}
	if a, err := ParseFillAlgo(""); err != nil || a != FillAuto {
		t.Errorf("empty name: %v, %v", a, err)
	}
	if _, err := ParseFillAlgo("bogus"); err == nil {
		t.Error("unknown name must fail")
	}
}

// FuzzParseFillAlgo: ParseFillAlgo, the name check behind the serve wire's
// fill_algo field, never panics; a name it accepts yields a valid fill
// whose String re-parses to the same value; the retired names resolve to
// FillAuto; every rejection lists the recognized names.
func FuzzParseFillAlgo(f *testing.F) {
	for _, s := range []string{"", "auto", "pruned", "dc", "smawk", "online", "bogus", "DC", " dc",
		"fill(3)", "fill(9)", "auto\x00", "pruned,dc"} {
		f.Add(s)
	}
	names := fmt.Sprint(FillAlgoNames())
	f.Fuzz(func(t *testing.T, s string) {
		a, err := ParseFillAlgo(s)
		if err != nil {
			if !strings.Contains(err.Error(), names) {
				t.Fatalf("ParseFillAlgo(%q) error %q does not list %s", s, err, names)
			}
			return
		}
		if !a.Valid() {
			t.Fatalf("ParseFillAlgo(%q) accepted %v, which is not a valid fill", s, a)
		}
		if again, err := ParseFillAlgo(a.String()); err != nil || again != a {
			t.Fatalf("ParseFillAlgo(%q) = %v, but its String %q re-parses to %v, %v", s, a, a.String(), again, err)
		}
		if (s == "smawk" || s == "online") && a != FillAuto {
			t.Fatalf("retired name %q parsed to %v, want auto", s, a)
		}
	})
}

// TestFillParallelAlgos: the run-decomposed parallel evaluators agree with
// the serial ones under every fill algorithm (exercised with -race in CI).
func TestFillParallelAlgos(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 12; trial++ {
		seq := monotoneSequence(rng, 8+rng.Intn(60), 1+rng.Intn(2), 0.3)
		kn, _ := NewKernel(seq, Options{})
		c := kn.CMin() + rng.Intn(seq.Len()-kn.CMin()+1)
		eps := rng.Float64()
		for _, algo := range []FillAlgo{FillPruned, FillDC} {
			opts := Options{Fill: algo}
			want, err := PTAc(seq, c, opts)
			if err != nil {
				t.Fatal(err)
			}
			got, err := PTAcParallel(seq, c, opts, 4)
			if err != nil {
				t.Fatal(err)
			}
			if got.C != want.C || math.Abs(got.Error-want.Error) > 1e-9*(1+want.Error) ||
				!reflect.DeepEqual(got.Sequence.Rows, want.Sequence.Rows) {
				t.Fatalf("trial %d algo %v: parallel size diverged", trial, algo)
			}
			wantE, err := PTAe(seq, eps, opts)
			if err != nil {
				t.Fatal(err)
			}
			gotE, err := PTAeParallel(seq, eps, opts, 4)
			if err != nil {
				t.Fatal(err)
			}
			if gotE.C != wantE.C {
				t.Fatalf("trial %d algo %v: parallel error-bounded C=%d, want %d",
					trial, algo, gotE.C, wantE.C)
			}
		}
	}
}

// TestFillExtremeWeights: merge costs near the float64 limit (huge but
// legitimate user-supplied weights, reachable through untrusted serve
// requests) saturate some candidates to +Inf mid-row. Both fills must
// agree, not panic, and never emit out-of-range split points.
func TestFillExtremeWeights(t *testing.T) {
	attrs := []temporal.Attribute(nil)
	seq := temporal.NewSequence(attrs, []string{"v"})
	gid := seq.Groups.Intern(nil)
	for i := 0; i < 10; i++ {
		seq.Rows = append(seq.Rows, temporal.SeqRow{Group: gid,
			Aggs: []float64{float64(i) * 1000},
			T:    temporal.Inst(temporal.Chronon(i))})
	}
	w := []float64{1.4e151} // pair-merge cost ≈ 9.8e307, finite; triples saturate to +Inf
	kn, err := NewKernel(seq, Options{Weights: w})
	if err != nil {
		t.Fatal(err)
	}
	if !kn.MonotoneRuns() {
		t.Fatal("ramp not certified")
	}
	// The full matrices must stay bitwise identical even with saturated
	// (+Inf) cells interleaving finite ones mid-row.
	wantE, wantJ := fillMatrices(t, kn, Options{Weights: w, Fill: FillPruned}, true, true, 9)
	for _, algo := range monotoneFills {
		gotE, gotJ := fillMatrices(t, kn, Options{Weights: w, Fill: algo}, true, true, 9)
		matricesBitwiseEqual(t, algo.String(), wantE, gotE, wantJ, gotJ)
	}
	// Only c = 9 keeps the total error finite (two merged pairs already
	// overflow float64); smaller budgets are out of float range regardless
	// of the fill algorithm.
	want, err := PTAc(seq, 9, Options{Weights: w, Fill: FillPruned})
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range monotoneFills {
		got, err := PTAc(seq, 9, Options{Weights: w, Fill: algo})
		if err != nil {
			t.Fatalf("c=9 algo=%v: %v", algo, err)
		}
		if got.C != want.C || math.Float64bits(got.Error) != math.Float64bits(want.Error) ||
			!reflect.DeepEqual(got.Sequence.Rows, want.Sequence.Rows) {
			t.Fatalf("c=9 algo=%v: diverged (err=%v, want %v)", algo, got.Error, want.Error)
		}
	}
}

// TestFillAutoKeepsAblationScan: FillAuto never swaps the ablation modes'
// fill (their Stats measure the scan's pruning bounds in isolation), while
// the fully pruned DP auto-upgrades and explicit pins are honored.
func TestFillAutoKeepsAblationScan(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	seq := monotoneSequence(rng, fillAutoThreshold, 1, 0)
	kn, err := NewKernel(seq, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !kn.MonotoneRuns() {
		t.Fatal("workload not certified")
	}
	for _, flags := range [][2]bool{{false, false}, {true, false}, {false, true}} {
		if st := newDPState(kn, Options{}, flags[0], flags[1], false); st.algo != FillPruned {
			t.Errorf("ablation pruneI=%v pruneJ=%v: auto resolved to %v, want pruned", flags[0], flags[1], st.algo)
		}
		if st := newDPState(kn, Options{Fill: FillDC}, flags[0], flags[1], false); st.algo != FillDC {
			t.Errorf("ablation pin: got %v, want dc honored", st.algo)
		}
	}
	if st := newDPState(kn, Options{}, true, true, false); st.algo != FillDC {
		t.Errorf("pruned DP at threshold: auto resolved to %v, want dc", st.algo)
	}
}
