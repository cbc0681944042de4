package temporal

import (
	"strings"
	"testing"
)

func projSchema(t *testing.T) *Schema {
	t.Helper()
	s, err := NewSchema(
		Attribute{Name: "Empl", Kind: KindString},
		Attribute{Name: "Proj", Kind: KindString},
		Attribute{Name: "Sal", Kind: KindFloat},
	)
	if err != nil {
		t.Fatalf("NewSchema: %v", err)
	}
	return s
}

func TestSchemaBasics(t *testing.T) {
	s := projSchema(t)
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	if i, ok := s.Index("Proj"); !ok || i != 1 {
		t.Errorf("Index(Proj) = %d, %v", i, ok)
	}
	if _, ok := s.Index("Nope"); ok {
		t.Error("Index(Nope) should not exist")
	}
	idx, err := s.Indices([]string{"Sal", "Empl"})
	if err != nil || idx[0] != 2 || idx[1] != 0 {
		t.Errorf("Indices = %v, %v", idx, err)
	}
	if _, err := s.Indices([]string{"Nope"}); err == nil {
		t.Error("Indices(Nope) should fail")
	}
	if got := s.String(); got != "(Empl:string, Proj:string, Sal:float, T)" {
		t.Errorf("String() = %q", got)
	}
}

func TestSchemaErrors(t *testing.T) {
	if _, err := NewSchema(Attribute{Name: "", Kind: KindInt}); err == nil {
		t.Error("empty attribute name should fail")
	}
	if _, err := NewSchema(Attribute{Name: "a"}, Attribute{Name: "a"}); err == nil {
		t.Error("duplicate attribute should fail")
	}
}

func TestRelationAppendValidation(t *testing.T) {
	r := NewRelation(projSchema(t))
	if err := r.Append([]Datum{String("John"), String("A")}, Interval{1, 4}); err == nil {
		t.Error("arity mismatch should fail")
	}
	if err := r.Append([]Datum{String("John"), String("A"), String("800")}, Interval{1, 4}); err == nil {
		t.Error("kind mismatch should fail")
	}
	if err := r.Append([]Datum{String("John"), String("A"), Float(800)}, Interval{4, 1}); err == nil {
		t.Error("invalid interval should fail")
	}
	if err := r.Append([]Datum{String("John"), String("A"), Float(800)}, Interval{1, 4}); err != nil {
		t.Errorf("valid append failed: %v", err)
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d", r.Len())
	}
}

func TestRelationTimeSpan(t *testing.T) {
	r := NewRelation(projSchema(t))
	if _, ok := r.TimeSpan(); ok {
		t.Error("empty relation should have no time span")
	}
	r.MustAppend([]Datum{String("a"), String("A"), Float(1)}, Interval{3, 6})
	r.MustAppend([]Datum{String("b"), String("B"), Float(2)}, Interval{1, 2})
	span, ok := r.TimeSpan()
	if !ok || span != (Interval{1, 6}) {
		t.Errorf("TimeSpan = %v, %v", span, ok)
	}
}

func TestRelationCloneIndependence(t *testing.T) {
	r := NewRelation(projSchema(t))
	r.MustAppend([]Datum{String("a"), String("A"), Float(1)}, Interval{1, 2})
	c := r.Clone()
	c.MustAppend([]Datum{String("b"), String("B"), Float(2)}, Interval{3, 4})
	if r.Len() != 1 || c.Len() != 2 {
		t.Error("clone is not independent")
	}
}

func TestRelationString(t *testing.T) {
	r := NewRelation(projSchema(t))
	r.MustAppend([]Datum{String("John"), String("A"), Float(800)}, Interval{1, 4})
	got := r.String()
	if !strings.Contains(got, "John, A, 800, [1, 4]") {
		t.Errorf("String() = %q", got)
	}
}
