package core

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/amnesic"
	"repro/internal/temporal"
)

func unitSequence(vals []float64) *temporal.Sequence {
	seq := temporal.NewSequence(nil, []string{"v"})
	gid := seq.Groups.Intern(nil)
	for i, v := range vals {
		seq.Rows = append(seq.Rows, temporal.SeqRow{Group: gid, Aggs: []float64{v},
			T: temporal.Inst(temporal.Chronon(i))})
	}
	return seq
}

func randVals(rng *rand.Rand, n int) []float64 {
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = math.Round(rng.Float64()*1000) / 8
	}
	return vals
}

// TestReduceSizeEquivalentToGPTAc pins the paper's Section 2.2 claim: "For
// time series data and parameter δ = 0 for gPTAc, the two algorithms are
// equivalent" (with the amnesic effect disabled, RA ≡ 1).
func TestReduceSizeEquivalentToGPTAc(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		seq := unitSequence(randVals(rng, 5+rng.Intn(60)))
		c := 1 + rng.Intn(seq.Len())
		am, err1 := Amnesic(seq, c, amnesic.Constant(1), Options{})
		gp, err2 := GPTAc(NewSliceStream(seq), c, 0, Options{})
		if err1 != nil || err2 != nil {
			return false
		}
		return am.Sequence.Equal(gp.Sequence, 1e-9) &&
			math.Abs(am.Error-gp.Error) <= 1e-9*(1+gp.Error)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestReduceSizeAmnesiaPrefersOldMerges: with a relative amnesic function
// that forgives old errors, merges concentrate on the old half of the
// series.
func TestReduceSizeAmnesiaPrefersOldMerges(t *testing.T) {
	// Alternating values: any merge costs the same raw error everywhere, so
	// only the amnesic scaling decides where merges happen.
	vals := make([]float64, 64)
	for i := range vals {
		vals[i] = float64((i % 2) * 10)
	}
	seq := unitSequence(vals)
	now := temporal.Chronon(len(vals) - 1)
	res, err := Amnesic(seq, 40, amnesic.LinearAge(now, 5), Options{})
	if err != nil {
		t.Fatalf("Amnesic: %v", err)
	}
	if res.Sequence.Len() != 40 {
		t.Fatalf("C = %d, want 40", res.Sequence.Len())
	}
	// The first (oldest) rows should be merged into longer segments than
	// the last (newest) rows.
	firstLen := res.Sequence.Rows[0].T.Len()
	lastLen := res.Sequence.Rows[res.Sequence.Len()-1].T.Len()
	if firstLen <= lastLen {
		t.Errorf("oldest segment length %d should exceed newest %d", firstLen, lastLen)
	}
}

func TestReduceSizeValidation(t *testing.T) {
	seq := unitSequence([]float64{1, 2})
	if _, err := Amnesic(seq, 0, nil, Options{}); err == nil {
		t.Error("c = 0 should fail")
	}
	res, err := Amnesic(seq, 5, nil, Options{})
	if err != nil || res.Sequence.Len() != 2 {
		t.Errorf("c ≥ n should keep the input: %v, %v", res, err)
	}
}

// TestReduceSizeRespectsGapsAndGroups: non-adjacent pairs never merge.
func TestReduceSizeRespectsGapsAndGroups(t *testing.T) {
	seq := temporal.NewSequence(nil, []string{"v"})
	gid := seq.Groups.Intern(nil)
	seq.Rows = []temporal.SeqRow{
		{Group: gid, Aggs: []float64{1}, T: temporal.Inst(0)},
		{Group: gid, Aggs: []float64{1}, T: temporal.Inst(5)}, // gap
	}
	res, err := Amnesic(seq, 1, amnesic.Constant(1), Options{})
	if err != nil {
		t.Fatalf("Amnesic: %v", err)
	}
	if res.Sequence.Len() != 2 {
		t.Errorf("C = %d; merging across the gap must be impossible", res.Sequence.Len())
	}
}
