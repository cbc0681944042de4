package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"repro/internal/temporal"
)

// mixedSequence builds long monotone stretches (sorted per dimension, each
// comfortably above fillSegmentMin) interleaved with short strictly
// alternating stretches, with optional temporal gaps between blocks:
// whole-run certification fails on every run containing noise, while the
// piecewise segmentation recovers the monotone stretches, so the
// per-segment dispatch genuinely engages next to in-row scan completion.
func mixedSequence(rng *rand.Rand, blocks, p int, gapProb float64) *temporal.Sequence {
	names := make([]string, p)
	for d := range names {
		names[d] = "v" + string(rune('0'+d))
	}
	seq := temporal.NewSequence(nil, names)
	gid := seq.Groups.Intern(nil)
	tcur := temporal.Chronon(0)
	emit := func(aggs []float64) {
		length := temporal.Chronon(1 + rng.Intn(3))
		seq.Rows = append(seq.Rows, temporal.SeqRow{Group: gid, Aggs: aggs,
			T: temporal.Interval{Start: tcur, End: tcur + length - 1}})
		tcur += length
	}
	for bl := 0; bl < blocks; bl++ {
		if bl > 0 && rng.Float64() < gapProb {
			tcur += temporal.Chronon(1 + rng.Intn(3))
		}
		if bl%2 == 0 {
			// Monotone block: sorted random values, direction per dimension.
			m := fillSegmentMin + 4 + rng.Intn(20)
			vals := make([][]float64, p)
			for d := range vals {
				vs := make([]float64, m)
				for r := range vs {
					vs[r] = math.Round(rng.Float64()*1000) / 10
				}
				sortFloat64s(vs)
				if rng.Intn(2) == 0 {
					for a, b := 0, m-1; a < b; a, b = a+1, b-1 {
						vs[a], vs[b] = vs[b], vs[a]
					}
				}
				vals[d] = vs
			}
			for r := 0; r < m; r++ {
				aggs := make([]float64, p)
				for d := range aggs {
					aggs[d] = vals[d][r]
				}
				emit(aggs)
			}
			continue
		}
		// Noise block: strictly alternating excursions in every dimension,
		// so no three consecutive rows are monotone.
		m := 3 + rng.Intn(5)
		sign := 1.0
		for r := 0; r < m; r++ {
			aggs := make([]float64, p)
			for d := range aggs {
				aggs[d] = math.Round((50+sign*(10+rng.Float64()*30))*10) / 10
			}
			sign = -sign
			emit(aggs)
		}
	}
	return seq
}

// flipSequence builds adversarial direction-flip data: back-to-back ramps of
// alternating direction with no noise or gaps in between, so every ramp
// boundary is exactly one direction change and the segmentation must cut at
// each of them.
func flipSequence(rng *rand.Rand, ramps, p int) *temporal.Sequence {
	names := make([]string, p)
	for d := range names {
		names[d] = "v" + string(rune('0'+d))
	}
	seq := temporal.NewSequence(nil, names)
	gid := seq.Groups.Intern(nil)
	t := temporal.Chronon(0)
	level := 500.0
	up := true
	for rp := 0; rp < ramps; rp++ {
		m := fillSegmentMin + rng.Intn(24)
		for r := 0; r < m; r++ {
			step := 1 + math.Round(rng.Float64()*90)/10
			if up {
				level += step
			} else {
				level -= step
			}
			aggs := make([]float64, p)
			for d := range aggs {
				aggs[d] = level + float64(d)
			}
			seq.Rows = append(seq.Rows, temporal.SeqRow{Group: gid, Aggs: aggs,
				T: temporal.Inst(t)})
			t++
		}
		up = !up
	}
	return seq
}

func sortFloat64s(vs []float64) {
	for i := 1; i < len(vs); i++ {
		for j := i; j > 0 && vs[j] < vs[j-1]; j-- {
			vs[j], vs[j-1] = vs[j-1], vs[j]
		}
	}
}

// TestMonotoneSegmentsUnit pins the segmentation on hand-built shapes:
// direction changes split, plateaus extend either direction, gaps always
// start a new segment, and MonotoneRuns is exactly "one segment per run".
func TestMonotoneSegmentsUnit(t *testing.T) {
	build := func(vals []float64, gapAfter int) *CostKernel {
		seq := temporal.NewSequence(nil, []string{"v"})
		gid := seq.Groups.Intern(nil)
		tcur := temporal.Chronon(0)
		for i, v := range vals {
			if i == gapAfter {
				tcur += 2
			}
			seq.Rows = append(seq.Rows, temporal.SeqRow{Group: gid,
				Aggs: []float64{v}, T: temporal.Inst(tcur)})
			tcur++
		}
		kn, err := NewKernel(seq, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return kn
	}
	cases := []struct {
		name     string
		vals     []float64
		gapAfter int // 0-based row index that starts after a gap; -1 for none
		want     []int32
		runs     bool
	}{
		{"ascending", []float64{1, 2, 3, 4}, -1, []int32{1}, true},
		{"peak", []float64{1, 2, 3, 2, 1, 5}, -1, []int32{1, 4, 6}, false},
		{"plateau", []float64{1, 5, 5, 2, 3}, -1, []int32{1, 4}, false},
		{"flat", []float64{5, 5, 5}, -1, []int32{1}, true},
		{"gap-starts-segment", []float64{1, 2, 3, 3, 2, 5}, 3, []int32{1, 4, 6}, false},
		{"monotone-runs-with-gap", []float64{1, 2, 3, 9, 7, 5}, 3, []int32{1, 4}, true},
	}
	for _, tc := range cases {
		kn := build(tc.vals, tc.gapAfter)
		if got := kn.MonotoneSegments(); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: segments = %v, want %v", tc.name, got, tc.want)
		}
		if got := kn.MonotoneRuns(); got != tc.runs {
			t.Errorf("%s: MonotoneRuns = %v, want %v", tc.name, got, tc.runs)
		}
	}
}

// TestMonotoneCoverage pins the coverage metric against fillSegmentMin: only
// segments long enough for the dispatch to engage count as covered.
func TestMonotoneCoverage(t *testing.T) {
	seq := temporal.NewSequence(nil, []string{"v"})
	gid := seq.Groups.Intern(nil)
	// 2·fillSegmentMin ascending rows, then strict alternation for
	// fillSegmentMin rows: exactly the first segment is covered. The first
	// alternation row still extends the ascending segment (it rises above
	// the ramp), so the covered segment has 2·fillSegmentMin+1 rows.
	n := 0
	add := func(v float64) {
		seq.Rows = append(seq.Rows, temporal.SeqRow{Group: gid,
			Aggs: []float64{v}, T: temporal.Inst(temporal.Chronon(n))})
		n++
	}
	for i := 0; i < 2*fillSegmentMin; i++ {
		add(float64(i))
	}
	for i := 0; i < fillSegmentMin; i++ {
		if i%2 == 0 {
			add(1000)
		} else {
			add(-1000)
		}
	}
	kn, err := NewKernel(seq, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := float64(2*fillSegmentMin+1) / float64(n)
	if got := kn.MonotoneCoverage(); got != want {
		t.Fatalf("coverage = %v, want %v (segments %v)", got, want, kn.MonotoneSegments())
	}
	if kn.MonotoneRuns() {
		t.Fatal("mixed shape certified as whole-run monotone")
	}
}

// TestMonotoneSegmentsConcurrent is the -race regression test for lazy
// certification: many goroutines share one kernel — some through a
// solver's multi-budget pass over it (DPMulti's pass), some calling the
// certification accessors directly — and must observe one consistent
// segmentation with no data race (the kernel computes it under a
// sync.Once).
func TestMonotoneSegmentsConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	seq := mixedSequence(rng, 9, 2, 0.4)
	kn, err := NewKernel(seq, Options{Fill: FillDC})
	if err != nil {
		t.Fatal(err)
	}
	budgets := []MultiBudget{{C: kn.CMin()}, {Eps: 0.2}, {C: min(kn.CMin()+8, kn.N())}}
	want, err := newSolver(kn, Options{Fill: FillDC}, true, true).solveBudgets(context.Background(), budgets)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 0 {
				segs := kn.MonotoneSegments()
				_ = kn.MonotoneRuns()
				if kn.MonotoneCoverage() == 0 || len(segs) == 0 {
					errs <- errMixedNotCovered
					return
				}
				return
			}
			got, err := newSolver(kn, Options{Fill: FillDC}, true, true).solveBudgets(context.Background(), budgets)
			if err != nil {
				errs <- err
				return
			}
			for i := range want {
				if got[i].C != want[i].C ||
					math.Float64bits(got[i].Error) != math.Float64bits(want[i].Error) {
					errs <- errMultiDiverged
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

var (
	errMixedNotCovered = errors.New("shared kernel: mixed data lost its certified segments")
	errMultiDiverged   = errors.New("shared kernel: concurrent solver passes diverged")
)

// TestFillPropPiecewiseBitwiseIdentical: on mixed-shape data — where
// whole-run certification fails but segments qualify — the per-segment
// monotone fills must genuinely engage (no demotion to the scan) and still
// reproduce the pruned scan's E and J matrices bit for bit, under every
// pruning-flag combination.
func TestFillPropPiecewiseBitwiseIdentical(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		blocks := 3 + rng.Intn(4)
		p := 1 + rng.Intn(3)
		seq := mixedSequence(rng, blocks, p, []float64{0, 0.3, 0.6}[rng.Intn(3)])
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
		if kn.MonotoneRuns() {
			t.Fatalf("seed %d: mixedSequence certified whole-run monotone", seed)
		}
		if kn.MonotoneCoverage() == 0 {
			t.Fatalf("seed %d: mixedSequence has no eligible segment", seed)
		}
		n := seq.Len()
		c := 1 + rng.Intn(n)
		ok := true
		for _, flags := range [][2]bool{{true, true}, {true, false}, {false, true}, {false, false}} {
			baseOpts := opts
			baseOpts.Fill = FillPruned
			wantE, wantJ := fillMatrices(t, kn, baseOpts, flags[0], flags[1], c)
			for _, algo := range monotoneFills {
				algoOpts := opts
				algoOpts.Fill = algo
				if st := newDPState(kn, algoOpts, flags[0], flags[1], false); st.algo != algo {
					t.Fatalf("seed %d: %v demoted to %v on covered mixed data", seed, algo, st.algo)
				}
				gotE, gotJ := fillMatrices(t, kn, algoOpts, flags[0], flags[1], c)
				if !matricesBitwiseEqual(t, "piecewise "+algo.String(), wantE, gotE, wantJ, gotJ) {
					t.Logf("seed=%d n=%d p=%d c=%d pruneI=%v pruneJ=%v", seed, n, p, c, flags[0], flags[1])
					ok = false
				}
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestFillPropAdversarialFlips repeats the bitwise check on back-to-back
// ramps of alternating direction — every block boundary is a direction flip,
// the worst case for the segment-boundary completion scan.
func TestFillPropAdversarialFlips(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		seq := flipSequence(rng, 2+rng.Intn(4), 1+rng.Intn(2))
		kn, err := NewKernel(seq, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if kn.MonotoneRuns() {
			t.Fatalf("seed %d: flipSequence certified whole-run monotone", seed)
		}
		if kn.MonotoneCoverage() == 0 {
			t.Fatalf("seed %d: flipSequence has no eligible segment", seed)
		}
		n := seq.Len()
		c := 1 + rng.Intn(n)
		wantE, wantJ := fillMatrices(t, kn, Options{Fill: FillPruned}, true, true, c)
		ok := true
		for _, algo := range monotoneFills {
			gotE, gotJ := fillMatrices(t, kn, Options{Fill: algo}, true, true, c)
			if !matricesBitwiseEqual(t, "flips "+algo.String(), wantE, gotE, wantJ, gotJ) {
				t.Logf("seed=%d n=%d c=%d segments=%v", seed, n, c, kn.MonotoneSegments())
				ok = false
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestFillPiecewiseReconstructions: the full evaluators agree on mixed-shape
// data under every fill algorithm — reconstructions, sizes, and bit-equal
// errors, including the exact tie bounds eps = 0 and eps = 1.
func TestFillPiecewiseReconstructions(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		seq := mixedSequence(rng, 3+rng.Intn(3), 1+rng.Intn(2), 0.3)
		kn, _ := NewKernel(seq, Options{})
		cmin := kn.CMin()
		n := seq.Len()
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
					t.Errorf("PTAe eps=%v algo=%v diverged (seed %d)", eps, algo, seed)
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
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestFillPiecewiseParallel: the run-decomposed parallel evaluators agree
// with the serial ones on mixed-shape data under every fill algorithm
// (exercised with -race in CI — each worker builds and certifies its own
// run kernel concurrently).
func TestFillPiecewiseParallel(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 8; trial++ {
		seq := mixedSequence(rng, 4+rng.Intn(4), 1+rng.Intn(2), 0.5)
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
