package amnesic

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/approx"
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

// TestReduceErrorEquivalentToATC pins the second equivalence: "For an
// absolute amnesic function AA(t) = ε ... the problem becomes equivalent to
// ATC."
func TestReduceErrorEquivalentToATC(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		seq := unitSequence(randVals(rng, 5+rng.Intn(60)))
		eps := rng.Float64() * 500
		am, err1 := ReduceError(seq, Constant(eps))
		atc, err2 := approx.ATC(seq, eps, nil)
		if err1 != nil || err2 != nil {
			return false
		}
		return am.Equal(atc, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestReduceErrorTighterRecentBound: an absolute amnesic function with a
// small allowance on recent data yields finer recent segments.
func TestReduceErrorTighterRecentBound(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	vals := randVals(rng, 200)
	seq := unitSequence(vals)
	aa := func(t temporal.Chronon) float64 {
		if t >= 150 {
			return 1 // recent: almost exact
		}
		return 1e6 // old: anything goes
	}
	res, err := ReduceError(seq, aa)
	if err != nil {
		t.Fatalf("ReduceError: %v", err)
	}
	var oldRows, newRows int
	for _, r := range res.Rows {
		if r.T.Start >= 150 {
			newRows++
		} else {
			oldRows++
		}
	}
	if oldRows >= newRows {
		t.Errorf("old rows %d should be far fewer than recent rows %d", oldRows, newRows)
	}
}

func TestReduceErrorValidation(t *testing.T) {
	if _, err := ReduceError(unitSequence([]float64{1}), nil); err == nil {
		t.Error("nil amnesic function should fail")
	}
}
