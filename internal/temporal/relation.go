package temporal

import (
	"fmt"
	"sort"
	"strings"
)

// Tuple is one row of a temporal relation: a vector of attribute values plus
// a validity interval.
type Tuple struct {
	Vals []Datum
	T    Interval
}

// String renders the tuple as "(v1, v2, ..., [s, e])".
func (t Tuple) String() string {
	parts := make([]string, 0, len(t.Vals)+1)
	for _, v := range t.Vals {
		parts = append(parts, v.String())
	}
	parts = append(parts, t.T.String())
	return "(" + strings.Join(parts, ", ") + ")"
}

// Relation is a temporal relation: a finite multiset of tuples over a schema.
// (Duplicate tuples are permitted in the input of temporal aggregation.)
type Relation struct {
	schema *Schema
	tuples []Tuple
}

// NewRelation returns an empty relation over the given schema.
func NewRelation(schema *Schema) *Relation {
	return &Relation{schema: schema}
}

// Schema returns the relation's schema.
func (r *Relation) Schema() *Schema { return r.schema }

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.tuples) }

// Tuple returns the i-th tuple. The returned value shares the datum slice
// with the relation; callers must not mutate it.
func (r *Relation) Tuple(i int) Tuple { return r.tuples[i] }

// Append validates and adds one tuple. The value vector must match the
// schema in arity and kinds, and the interval must be non-empty.
func (r *Relation) Append(vals []Datum, t Interval) error {
	if len(vals) != r.schema.Len() {
		return fmt.Errorf("temporal: tuple arity %d does not match schema arity %d", len(vals), r.schema.Len())
	}
	for i, v := range vals {
		if want := r.schema.Attr(i).Kind; v.Kind() != want {
			return fmt.Errorf("temporal: attribute %q expects kind %v, got %v", r.schema.Attr(i).Name, want, v.Kind())
		}
	}
	if !t.Valid() {
		return fmt.Errorf("temporal: invalid interval %v", t)
	}
	r.tuples = append(r.tuples, Tuple{Vals: append([]Datum(nil), vals...), T: t})
	return nil
}

// MustAppend is like Append but panics on error. It is intended for
// statically known data in tests and examples.
func (r *Relation) MustAppend(vals []Datum, t Interval) {
	if err := r.Append(vals, t); err != nil {
		panic(err)
	}
}

// TimeSpan returns the smallest interval covering every tuple's timestamp,
// and ok=false for an empty relation.
func (r *Relation) TimeSpan() (_ Interval, ok bool) {
	if len(r.tuples) == 0 {
		return Interval{}, false
	}
	span := r.tuples[0].T
	for _, t := range r.tuples[1:] {
		span.Start = min(span.Start, t.T.Start)
		span.End = max(span.End, t.T.End)
	}
	return span, true
}

// Clone returns a deep copy of the relation (the schema is shared; schemas
// are immutable after construction).
func (r *Relation) Clone() *Relation {
	out := &Relation{schema: r.schema, tuples: make([]Tuple, len(r.tuples))}
	for i, t := range r.tuples {
		out.tuples[i] = Tuple{Vals: append([]Datum(nil), t.Vals...), T: t.T}
	}
	return out
}

// SortByValsTime sorts the tuples lexicographically by their attribute
// values and then chronologically. The order is total, making relation
// formatting and comparisons deterministic.
func (r *Relation) SortByValsTime() {
	sort.SliceStable(r.tuples, func(i, j int) bool {
		if c := CompareDatums(r.tuples[i].Vals, r.tuples[j].Vals); c != 0 {
			return c < 0
		}
		return r.tuples[i].T.Compare(r.tuples[j].T) < 0
	})
}

// Equal reports whether two relations have the same schema signature and,
// after sorting, identical tuples. It is intended for tests.
func (r *Relation) Equal(o *Relation) bool {
	if r.schema.String() != o.schema.String() || len(r.tuples) != len(o.tuples) {
		return false
	}
	a, b := r.Clone(), o.Clone()
	a.SortByValsTime()
	b.SortByValsTime()
	for i := range a.tuples {
		if !DatumsEqual(a.tuples[i].Vals, b.tuples[i].Vals) || a.tuples[i].T != b.tuples[i].T {
			return false
		}
	}
	return true
}

// String renders the relation one tuple per line, preceded by the schema.
func (r *Relation) String() string {
	var sb strings.Builder
	sb.WriteString(r.schema.String())
	sb.WriteByte('\n')
	for _, t := range r.tuples {
		sb.WriteString(t.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}
