package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/temporal"
)

// mixedShapeSequence builds the workload the envelope-pruned completion scan
// exists for: monotone ramps of at least fillSegmentMin rows interleaved
// with short strictly-oscillating noise blocks inside the same gap-free run.
// The kernel certifies several segments per run with at least one
// dispatch-eligible ramp starting mid-run, so completeSegment faces
// non-empty out-of-segment candidate windows — the path monotoneSequence
// (one segment per run) never reaches. The first two blocks are pinned
// (noise, then a ramp with no gap between them) so the shape guarantee
// holds for every seed; gapProb places temporal gaps before later blocks,
// which saturate whole cell ranges to +Inf in the shallow rows.
func mixedShapeSequence(rng *rand.Rand, blocks, p int, gapProb float64) *temporal.Sequence {
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
		levels[d] = 50 + rng.Float64()*50
	}
	emit := func(aggs []float64) {
		length := temporal.Chronon(1 + rng.Intn(3))
		seq.Rows = append(seq.Rows, temporal.SeqRow{Group: gid, Aggs: aggs,
			T: temporal.Interval{Start: tcur, End: tcur + length - 1}})
		tcur += length
	}
	for b := 0; b < blocks; b++ {
		if b >= 2 && rng.Float64() < gapProb {
			tcur += temporal.Chronon(1 + rng.Intn(3))
		}
		ramp := b == 1 || (b >= 2 && rng.Float64() < 0.6)
		if ramp {
			// One row past the dispatch minimum: the segmentation may hand
			// the ramp's first row to the block before it.
			m := fillSegmentMin + 1 + rng.Intn(25)
			dir := make([]float64, p)
			for d := range dir {
				dir[d] = 1
				if rng.Intn(2) == 0 {
					dir[d] = -1
				}
			}
			for r := 0; r < m; r++ {
				aggs := make([]float64, p)
				for d := range aggs {
					levels[d] += dir[d] * math.Round(rng.Float64()*100) / 10
					aggs[d] = levels[d]
				}
				emit(aggs)
			}
		} else {
			m := 4 + rng.Intn(7)
			for r := 0; r < m; r++ {
				aggs := make([]float64, p)
				for d := range aggs {
					amp := 5 + math.Round(rng.Float64()*200)/10
					if r%2 == 1 {
						amp = -amp
					}
					aggs[d] = levels[d] + amp
				}
				emit(aggs)
			}
		}
	}
	return seq
}

// assertMixedShape verifies the generator's contract: at least one
// dispatch-eligible certified segment starts mid-run, so the monotone fill
// handles its in-segment candidates and completeSegment genuinely searches
// a non-empty out-of-segment window.
func assertMixedShape(t *testing.T, kn *CostKernel) bool {
	t.Helper()
	runStart := map[int]bool{1: true}
	for _, g := range kn.Gaps() {
		runStart[g+1] = true
	}
	segs := kn.MonotoneSegments()
	for si, s := range segs {
		end := kn.N()
		if si+1 < len(segs) {
			end = int(segs[si+1]) - 1
		}
		if end-int(s)+1 >= fillSegmentMin && !runStart[int(s)] {
			return true
		}
	}
	t.Errorf("no dispatch-eligible mid-run segment: segs=%v gaps=%v n=%d", segs, kn.Gaps(), kn.N())
	return false
}

// TestFillPropEnvelopeMixedShapes: on ramps-plus-oscillation shapes — where
// the per-segment dispatch runs a monotone fill inside each long ramp and
// the envelope-pruned completion scan over everything to its left — every
// monotone fill reproduces the pruned scan's E and J matrices bit for bit,
// under every pruning-flag combination, with gaps (whole +Inf-saturated
// cell ranges in shallow rows) and random weights. This is the property
// that pins the envelope's O(1) block skips: a skipped candidate range must
// never change a cell value or displace a rightmost-tie split point.
func TestFillPropEnvelopeMixedShapes(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		blocks := 3 + rng.Intn(4)
		p := 1 + rng.Intn(3)
		gapProb := []float64{0, 0.25, 0.6}[rng.Intn(3)]
		seq := mixedShapeSequence(rng, blocks, p, gapProb)
		n := seq.Len()
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
		if !assertMixedShape(t, kn) {
			return false
		}
		if kn.MonotoneRuns() {
			t.Errorf("seed %d: mixed shape certified fully monotone", seed)
			return false
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
					t.Logf("seed=%d n=%d p=%d c=%d gapProb=%v pruneI=%v pruneJ=%v",
						seed, n, p, c, gapProb, flags[0], flags[1])
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

// TestFillEnvelopeExtremeWeightsMixed: the extreme-weight saturation
// regression on the mixed shape — merge costs overflow to +Inf mid-row
// while the envelope carries its block bounds across ramp boundaries. The
// completion scan must neither let a bound built from saturated candidates
// skip a finite improvement nor move a split point off an Inf-saturated
// cell's sentinel, so all fills agree bit for bit on every row.
func TestFillEnvelopeExtremeWeightsMixed(t *testing.T) {
	seq := temporal.NewSequence(nil, []string{"v"})
	gid := seq.Groups.Intern(nil)
	emit := func(v float64) {
		i := len(seq.Rows)
		seq.Rows = append(seq.Rows, temporal.SeqRow{Group: gid,
			Aggs: []float64{v}, T: temporal.Inst(temporal.Chronon(i))})
	}
	// ramp, oscillation, ramp: two dispatch-eligible segments, the second
	// mid-run with a non-empty completion window over the noise and the
	// first ramp.
	v := 0.0
	for i := 0; i < fillSegmentMin+4; i++ {
		v += 1000
		emit(v)
	}
	for i := 0; i < 6; i++ {
		if i%2 == 0 {
			emit(v + 500)
		} else {
			emit(v - 500)
		}
	}
	for i := 0; i < fillSegmentMin+4; i++ {
		v += 1000
		emit(v)
	}
	w := []float64{1.4e151} // pair merges stay finite, wider merges saturate to +Inf
	kn, err := NewKernel(seq, Options{Weights: w})
	if err != nil {
		t.Fatal(err)
	}
	if !assertMixedShape(t, kn) {
		t.Fatal("extreme-weight shape missed the completion path")
	}
	n := seq.Len()
	for _, flags := range [][2]bool{{true, true}, {false, false}} {
		wantE, wantJ := fillMatrices(t, kn, Options{Weights: w, Fill: FillPruned}, flags[0], flags[1], n)
		for _, algo := range monotoneFills {
			gotE, gotJ := fillMatrices(t, kn, Options{Weights: w, Fill: algo}, flags[0], flags[1], n)
			matricesBitwiseEqual(t, algo.String(), wantE, gotE, wantJ, gotJ)
		}
		saturated := false
		for k := range wantE {
			for i := range wantE[k] {
				if math.IsInf(wantE[k][i], 1) {
					saturated = true
				}
			}
		}
		if !saturated {
			t.Error("extreme weights produced no +Inf-saturated cells; regression shape lost")
		}
	}
}
