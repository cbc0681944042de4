// Package temporal implements the temporal relational model of Section 3 of
// the paper: a discrete time domain of chronons, inclusive time intervals,
// typed attribute values (datums), relation schemas, temporal relations and
// sequential relations (the exchange format between instant temporal
// aggregation and parsimonious temporal aggregation).
package temporal

import "fmt"

// Chronon is a time instant of the discrete time domain. The domain carries
// the usual total order of int64. Applications map calendar granularities
// (months, days, seconds, ...) onto chronons before loading data.
type Chronon = int64

// Interval is a timestamp: a convex set of chronons represented by its
// inclusive start and end points [Start, End]. The zero value is the single
// chronon interval [0, 0].
type Interval struct {
	Start Chronon
	End   Chronon
}

// Inst returns the instantaneous interval [t, t].
func Inst(t Chronon) Interval { return Interval{Start: t, End: t} }

// Valid reports whether the interval contains at least one chronon.
func (iv Interval) Valid() bool { return iv.Start <= iv.End }

// Len returns the number of chronons in the interval, |T| = End − Start + 1.
func (iv Interval) Len() int64 {
	if !iv.Valid() {
		return 0
	}
	return iv.End - iv.Start + 1
}

// Overlaps reports whether the two intervals share at least one chronon.
func (iv Interval) Overlaps(o Interval) bool {
	return iv.Start <= o.End && o.Start <= iv.End
}

// Intersect returns the common chronons of the two intervals. ok is false if
// they are disjoint.
func (iv Interval) Intersect(o Interval) (_ Interval, ok bool) {
	s := max(iv.Start, o.Start)
	e := min(iv.End, o.End)
	if s > e {
		return Interval{}, false
	}
	return Interval{Start: s, End: e}, true
}

// Meets reports whether iv ends immediately before o starts, i.e. the
// concatenation iv·o is gap free. This is condition (2) of tuple adjacency
// (Definition 2).
func (iv Interval) Meets(o Interval) bool { return iv.End+1 == o.Start }

// Compare orders intervals by start point, then end point. It returns a
// negative number, zero, or a positive number as iv sorts before, equal to,
// or after o.
func (iv Interval) Compare(o Interval) int {
	switch {
	case iv.Start < o.Start:
		return -1
	case iv.Start > o.Start:
		return 1
	case iv.End < o.End:
		return -1
	case iv.End > o.End:
		return 1
	}
	return 0
}

// String renders the interval in the paper's notation, e.g. "[1, 4]".
func (iv Interval) String() string { return fmt.Sprintf("[%d, %d]", iv.Start, iv.End) }
