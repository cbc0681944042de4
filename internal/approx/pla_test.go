package approx

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/temporal"
)

func TestPLAExactLine(t *testing.T) {
	vals := make([]float64, 50)
	for i := range vals {
		vals[i] = 3 + 0.5*float64(i)
	}
	segs, err := PLA(vals, 1e-9, 7)
	if err != nil {
		t.Fatalf("PLA: %v", err)
	}
	if len(segs) != 1 {
		t.Fatalf("a straight line needs 1 segment, got %d", len(segs))
	}
	if segs[0].T != (temporal.Interval{Start: 7, End: 56}) {
		t.Errorf("segment span = %v", segs[0].T)
	}
	if math.Abs(segs[0].Slope-0.5) > 1e-9 {
		t.Errorf("slope = %v, want 0.5", segs[0].Slope)
	}
}

func TestPLAPropInfinityNormGuarantee(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vals := randSeries(rng, 10+rng.Intn(100))
		eps := 1 + rng.Float64()*20
		segs, err := PLA(vals, eps, 0)
		if err != nil {
			return false
		}
		rec := PLAReconstruct(segs, len(vals), 0)
		for i := range vals {
			if math.Abs(vals[i]-rec[i]) > eps+1e-6 {
				return false
			}
		}
		// Segments must tile the domain.
		var at temporal.Chronon
		for _, s := range segs {
			if s.T.Start != at {
				return false
			}
			at = s.T.End + 1
		}
		return at == temporal.Chronon(len(vals))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPLAPropLooserToleranceFewerSegments(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		vals := randSeries(rng, 80)
		tight, err1 := PLA(vals, 1, 0)
		loose, err2 := PLA(vals, 50, 0)
		if err1 != nil || err2 != nil {
			return false
		}
		return len(loose) <= len(tight)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestPLAValidation(t *testing.T) {
	if _, err := PLA(nil, 1, 0); err == nil {
		t.Error("empty series should fail")
	}
	if _, err := PLA([]float64{1}, -1, 0); err == nil {
		t.Error("negative tolerance should fail")
	}
	segs, err := PLA([]float64{42}, 0, 5)
	if err != nil || len(segs) != 1 || segs[0].At(5) != 42 {
		t.Errorf("single point: %v, %v", segs, err)
	}
}
