package temporal

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestIntervalLen(t *testing.T) {
	tests := []struct {
		iv   Interval
		want int64
	}{
		{Interval{1, 4}, 4},
		{Interval{3, 3}, 1},
		{Interval{-2, 2}, 5},
		{Interval{5, 4}, 0},
	}
	for _, tt := range tests {
		if got := tt.iv.Len(); got != tt.want {
			t.Errorf("%v.Len() = %d, want %d", tt.iv, got, tt.want)
		}
	}
}

func TestIntervalOverlaps(t *testing.T) {
	tests := []struct {
		a, b Interval
		want bool
	}{
		{Interval{1, 4}, Interval{3, 6}, true},
		{Interval{1, 4}, Interval{4, 7}, true},
		{Interval{1, 4}, Interval{5, 8}, false},
		{Interval{5, 8}, Interval{1, 4}, false},
		{Interval{2, 2}, Interval{2, 2}, true},
	}
	for _, tt := range tests {
		if got := tt.a.Overlaps(tt.b); got != tt.want {
			t.Errorf("%v.Overlaps(%v) = %v, want %v", tt.a, tt.b, got, tt.want)
		}
		if got := tt.b.Overlaps(tt.a); got != tt.want {
			t.Errorf("Overlaps not symmetric for %v, %v", tt.a, tt.b)
		}
	}
}

func TestIntervalIntersect(t *testing.T) {
	got, ok := Interval{1, 4}.Intersect(Interval{3, 6})
	if !ok || got != (Interval{3, 4}) {
		t.Errorf("[1,4] ∩ [3,6] = %v, %v", got, ok)
	}
	if _, ok := (Interval{1, 2}).Intersect(Interval{4, 6}); ok {
		t.Error("[1,2] ∩ [4,6] should be empty")
	}
}

func TestIntervalMeets(t *testing.T) {
	if !(Interval{1, 2}).Meets(Interval{3, 3}) {
		t.Error("[1,2] should meet [3,3]")
	}
	if (Interval{1, 2}).Meets(Interval{4, 5}) {
		t.Error("[1,2] should not meet [4,5]")
	}
	if (Interval{1, 2}).Meets(Interval{2, 5}) {
		t.Error("[1,2] should not meet [2,5] (overlap, not meet)")
	}
}

func TestIntervalCompare(t *testing.T) {
	if (Interval{1, 2}).Compare(Interval{1, 2}) != 0 {
		t.Error("equal intervals should compare 0")
	}
	if (Interval{1, 2}).Compare(Interval{1, 3}) >= 0 {
		t.Error("[1,2] should sort before [1,3]")
	}
	if (Interval{2, 2}).Compare(Interval{1, 9}) <= 0 {
		t.Error("[2,2] should sort after [1,9]")
	}
}

func TestIntervalString(t *testing.T) {
	if got := (Interval{1, 4}).String(); got != "[1, 4]" {
		t.Errorf("String() = %q", got)
	}
}

// randomInterval yields small intervals so that overlap cases are frequent.
func randomInterval(r *rand.Rand) Interval {
	s := Chronon(r.Intn(40) - 20)
	return Interval{Start: s, End: s + Chronon(r.Intn(10))}
}

func TestIntervalPropOverlapIffIntersect(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a, b := randomInterval(r), randomInterval(r)
		_, ok := a.Intersect(b)
		return ok == a.Overlaps(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
