package temporal

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// figure1cSequence builds the ITA result of Fig. 1(c) by hand:
//
//	s1 A 800 [1,2]; s2 A 600 [3,3]; s3 A 500 [4,4]; s4 A 350 [5,6];
//	s5 A 300 [7,7]; s6 B 500 [4,5]; s7 B 500 [7,8]
func figure1cSequence() *Sequence {
	s := NewSequence([]Attribute{{Name: "Proj", Kind: KindString}}, []string{"AvgSal"})
	a := s.Groups.Intern([]Datum{String("A")})
	b := s.Groups.Intern([]Datum{String("B")})
	s.Rows = []SeqRow{
		{Group: a, Aggs: []float64{800}, T: Interval{1, 2}},
		{Group: a, Aggs: []float64{600}, T: Interval{3, 3}},
		{Group: a, Aggs: []float64{500}, T: Interval{4, 4}},
		{Group: a, Aggs: []float64{350}, T: Interval{5, 6}},
		{Group: a, Aggs: []float64{300}, T: Interval{7, 7}},
		{Group: b, Aggs: []float64{500}, T: Interval{4, 5}},
		{Group: b, Aggs: []float64{500}, T: Interval{7, 8}},
	}
	return s
}

func TestSequenceAdjacency(t *testing.T) {
	s := figure1cSequence()
	// Example 2: s1 ≺ s2 ≺ s3 ≺ s4 ≺ s5; s5 ⊀ s6; s6 ⊀ s7.
	for i := 0; i < 4; i++ {
		if !s.Adjacent(i) {
			t.Errorf("rows %d,%d should be adjacent", i, i+1)
		}
	}
	if s.Adjacent(4) {
		t.Error("s5 and s6 are in different groups; not adjacent")
	}
	if s.Adjacent(5) {
		t.Error("s6 and s7 are separated by a gap; not adjacent")
	}
	if s.Adjacent(-1) || s.Adjacent(6) {
		t.Error("out-of-range adjacency should be false")
	}
}

func TestSequenceGapPositionsAndCMin(t *testing.T) {
	s := figure1cSequence()
	gaps := s.GapPositions()
	// Example 13: G = ⟨5, 6⟩.
	if len(gaps) != 2 || gaps[0] != 5 || gaps[1] != 6 {
		t.Errorf("GapPositions = %v, want [5 6]", gaps)
	}
	// Running example: cmin = 7 − 4 = 3.
	if got := s.CMin(); got != 3 {
		t.Errorf("CMin = %d, want 3", got)
	}
	empty := NewSequence(nil, []string{"v"})
	if empty.CMin() != 0 {
		t.Error("CMin of empty sequence should be 0")
	}
}

func TestSequenceValidate(t *testing.T) {
	s := figure1cSequence()
	if err := s.Validate(); err != nil {
		t.Fatalf("valid sequence rejected: %v", err)
	}
	bad := figure1cSequence()
	bad.Rows[1].T = Interval{2, 3} // overlaps row 0
	if err := bad.Validate(); err == nil {
		t.Error("overlapping rows should be rejected")
	}
	bad2 := figure1cSequence()
	bad2.Rows[0].Aggs = []float64{1, 2}
	if err := bad2.Validate(); err == nil {
		t.Error("wrong arity should be rejected")
	}
	bad3 := figure1cSequence()
	bad3.Rows[0].T = Interval{5, 2}
	if err := bad3.Validate(); err == nil {
		t.Error("invalid interval should be rejected")
	}
	bad4 := figure1cSequence()
	bad4.Rows[0].Group = 99
	if err := bad4.Validate(); err == nil {
		t.Error("unknown group should be rejected")
	}
}

// TestSequenceValidateLengthOverflow: a row that spans more than 2⁶³−1
// chronons, or rows whose lengths sum past it, fail Validate with
// ErrLengthOverflow; lengths that fit pass.
func TestSequenceValidateLengthOverflow(t *testing.T) {
	const lo, hi = math.MinInt64, math.MaxInt64
	for _, tc := range []struct {
		name  string
		spans []Interval
		ok    bool
	}{
		{"row past int64", []Interval{{lo, 0}, {1, hi}}, false},
		{"whole chronon range", []Interval{{lo, hi}}, false},
		{"sum past int64", []Interval{{0, 1 << 62}, {1<<62 + 1, hi}}, false},
		{"sum past int64 across a gap", []Interval{{lo, -2}, {5, 5}}, false},
		{"longest row", []Interval{{lo, -2}}, true},
		{"int64 extremes", []Interval{{lo, lo}, {hi, hi}}, true},
	} {
		s := NewSequence(nil, []string{"v"})
		gid := s.Groups.Intern(nil)
		for i, iv := range tc.spans {
			s.Rows = append(s.Rows, SeqRow{Group: gid, Aggs: []float64{float64(i)}, T: iv})
		}
		err := s.Validate()
		if tc.ok != (err == nil) || (err != nil && !errors.Is(err, ErrLengthOverflow)) {
			t.Errorf("%s: Validate() = %v, want ok = %v or ErrLengthOverflow", tc.name, err, tc.ok)
		}
	}
}

func TestSequenceSort(t *testing.T) {
	s := figure1cSequence()
	// Shuffle and re-sort; must restore the canonical order.
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(s.Rows), func(i, j int) { s.Rows[i], s.Rows[j] = s.Rows[j], s.Rows[i] })
	s.Sort()
	if err := s.Validate(); err != nil {
		t.Fatalf("sorted sequence invalid: %v", err)
	}
	if !s.Equal(figure1cSequence(), 0) {
		t.Error("sort did not restore canonical order")
	}
}

func TestSequenceTotalLen(t *testing.T) {
	s := figure1cSequence()
	if got := s.TotalLen(); got != 2+1+1+2+1+2+2 {
		t.Errorf("TotalLen = %d, want 11", got)
	}
}

func TestSequenceCloneIndependence(t *testing.T) {
	s := figure1cSequence()
	c := s.Clone()
	c.Rows[0].Aggs[0] = -1
	c.Rows = c.Rows[:2]
	if s.Rows[0].Aggs[0] != 800 || s.Len() != 7 {
		t.Error("clone mutated the original")
	}
}

func TestSequenceWithRowsSharesMeta(t *testing.T) {
	s := figure1cSequence()
	w := s.WithRows(s.Rows[:2])
	if w.Len() != 2 || w.Groups != s.Groups || w.P() != 1 {
		t.Error("WithRows metadata sharing broken")
	}
}

func TestGroupDict(t *testing.T) {
	g := NewGroupDict()
	a := g.Intern([]Datum{String("A")})
	b := g.Intern([]Datum{String("B")})
	a2 := g.Intern([]Datum{String("A")})
	if a != a2 || a == b || g.Len() != 2 {
		t.Fatalf("Intern ids: a=%d a2=%d b=%d len=%d", a, a2, b, g.Len())
	}
	if id, ok := g.Lookup([]Datum{String("B")}); !ok || id != b {
		t.Errorf("Lookup(B) = %d, %v", id, ok)
	}
	if _, ok := g.Lookup([]Datum{String("C")}); ok {
		t.Error("Lookup(C) should miss")
	}
	if !DatumsEqual(g.Values(a), []Datum{String("A")}) {
		t.Error("Values(a) wrong")
	}
}

func TestGroupDictSortedIDs(t *testing.T) {
	g := NewGroupDict()
	zc := g.Intern([]Datum{String("c")})
	za := g.Intern([]Datum{String("a")})
	zb := g.Intern([]Datum{String("b")})
	ids := g.SortedIDs()
	want := []int32{za, zb, zc}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("SortedIDs = %v, want %v", ids, want)
		}
	}
}

func TestGroupDictPropInternStable(t *testing.T) {
	f := func(names []string) bool {
		g := NewGroupDict()
		ids := make(map[string]int32)
		for _, n := range names {
			id := g.Intern([]Datum{String(n)})
			if prev, seen := ids[n]; seen && prev != id {
				return false
			}
			ids[n] = id
		}
		return g.Len() == len(ids)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSequenceCMinPropEqualsRuns(t *testing.T) {
	// cmin must equal the number of maximal adjacent runs.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSequence(nil, []string{"v"})
		id := s.Groups.Intern(nil)
		tcur := Chronon(0)
		n := 1 + rng.Intn(20)
		for i := 0; i < n; i++ {
			if rng.Intn(3) == 0 {
				tcur += Chronon(1 + rng.Intn(3)) // inject a gap
			}
			length := Chronon(1 + rng.Intn(3))
			s.Rows = append(s.Rows, SeqRow{Group: id, Aggs: []float64{float64(i)},
				T: Interval{tcur, tcur + length - 1}})
			tcur += length
		}
		runs := 1
		for i := 0; i+1 < s.Len(); i++ {
			if !s.Adjacent(i) {
				runs++
			}
		}
		return s.CMin() == runs && s.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
