package temporal

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
)

// SeqRow is one tuple of a sequential relation: a dictionary-encoded
// aggregation group, p aggregate values B1..Bp, and a validity interval.
type SeqRow struct {
	Group int32
	Aggs  []float64
	T     Interval
}

// CloneAggs returns a copy of the row with its own aggregate-value slice.
func (r SeqRow) CloneAggs() SeqRow {
	r.Aggs = append([]float64(nil), r.Aggs...)
	return r
}

// Sequence is a sequential relation (Section 3): a temporal relation in
// which the timestamps of tuples within one aggregation group never
// intersect. Instant temporal aggregation always produces a sequential
// relation, and parsimonious temporal aggregation preserves the property.
//
// Rows are kept sorted by aggregation group and, within each group,
// chronologically — the order required by the merging algorithms.
type Sequence struct {
	// GroupAttrs describes the grouping attributes A1..Ak (may be empty).
	GroupAttrs []Attribute
	// AggNames names the aggregate attributes B1..Bp.
	AggNames []string
	// Groups maps row group ids to grouping attribute values.
	Groups *GroupDict
	// Rows holds the tuples in (group, time) order.
	Rows []SeqRow
}

// NewSequence returns an empty sequence with the given grouping attributes
// and aggregate attribute names.
func NewSequence(groupAttrs []Attribute, aggNames []string) *Sequence {
	return &Sequence{
		GroupAttrs: append([]Attribute(nil), groupAttrs...),
		AggNames:   append([]string(nil), aggNames...),
		Groups:     NewGroupDict(),
	}
}

// WithRows returns a sequence sharing this sequence's metadata (grouping
// attributes, aggregate names, group dictionary) but holding the given rows.
func (s *Sequence) WithRows(rows []SeqRow) *Sequence {
	return &Sequence{
		GroupAttrs: s.GroupAttrs,
		AggNames:   s.AggNames,
		Groups:     s.Groups,
		Rows:       rows,
	}
}

// P returns the number of aggregate attributes p.
func (s *Sequence) P() int { return len(s.AggNames) }

// Len returns the number of rows n.
func (s *Sequence) Len() int { return len(s.Rows) }

// Adjacent reports whether rows i and i+1 are adjacent per Definition 2:
// same aggregation group and no temporal gap between them.
func (s *Sequence) Adjacent(i int) bool {
	if i < 0 || i+1 >= len(s.Rows) {
		return false
	}
	a, b := s.Rows[i], s.Rows[i+1]
	return a.Group == b.Group && a.T.Meets(b.T)
}

// GapPositions returns the 1-based positions l (vector G of Section 5.3) at
// which row l and row l+1 are non-adjacent.
func (s *Sequence) GapPositions() []int {
	var gaps []int
	for i := 0; i+1 < len(s.Rows); i++ {
		if !s.Adjacent(i) {
			gaps = append(gaps, i+1)
		}
	}
	return gaps
}

// CMin returns the smallest size any reduction of the sequence can reach:
// cmin = |s| − #adjacent pairs, which equals the number of maximal adjacent
// runs. CMin of an empty sequence is 0.
func (s *Sequence) CMin() int {
	if len(s.Rows) == 0 {
		return 0
	}
	return len(s.GapPositions()) + 1
}

// Sort orders the rows canonically: by the grouping attribute values of
// their groups, then chronologically. Instant temporal aggregation emits
// rows already in this order; Sort is for sequences assembled by hand.
func (s *Sequence) Sort() {
	sort.SliceStable(s.Rows, func(i, j int) bool {
		a, b := s.Rows[i], s.Rows[j]
		if a.Group != b.Group {
			return CompareDatums(s.Groups.Values(a.Group), s.Groups.Values(b.Group)) < 0
		}
		return a.T.Compare(b.T) < 0
	})
}

// Validate checks the sequential-relation invariants: every row has p
// aggregate values and a valid interval, rows are sorted by (group, time),
// and timestamps within a group do not intersect. It also checks, in the
// same pass, that the covered lengths fit in an int64 (CheckLengths).
func (s *Sequence) Validate() error {
	p, groups := s.P(), s.Groups.Len()
	var total int64
	for i := range s.Rows {
		r := &s.Rows[i]
		if len(r.Aggs) != p {
			return fmt.Errorf("temporal: row %d has %d aggregate values, want %d", i, len(r.Aggs), p)
		}
		if !r.T.Valid() {
			return fmt.Errorf("temporal: row %d has invalid interval %v", i, r.T)
		}
		l := r.T.End - r.T.Start + 1 // wraps to ≤ 0 past 2⁶³−1
		if l <= 0 || total > math.MaxInt64-l {
			return lengthOverflow(i, r.T, l)
		}
		total += l
		if int(r.Group) < 0 || int(r.Group) >= groups {
			return fmt.Errorf("temporal: row %d references unknown group %d", i, r.Group)
		}
		if i == 0 {
			continue
		}
		prev := &s.Rows[i-1]
		if prev.Group == r.Group {
			if prev.T.End >= r.T.Start {
				return fmt.Errorf("temporal: rows %d and %d of group %d are unordered or overlapping (%v, %v)",
					i-1, i, r.Group, prev.T, r.T)
			}
		} else if CompareDatums(s.Groups.Values(prev.Group), s.Groups.Values(r.Group)) > 0 {
			return fmt.Errorf("temporal: groups of rows %d and %d are out of order", i-1, i)
		}
	}
	return nil
}

// ErrLengthOverflow reports covered lengths beyond int64: a row that spans
// more than 2⁶³−1 chronons, or rows whose lengths sum past that. Every
// length-weighted sum, mean and error would wrap.
var ErrLengthOverflow = errors.New("covered length overflows int64")

// CheckLengths returns an error wrapping ErrLengthOverflow unless every
// valid row's length |T| and the sum Σ|T| over rows fit in an int64.
func CheckLengths(rows []SeqRow) error {
	var total int64
	for i := range rows {
		t := rows[i].T
		if !t.Valid() {
			continue
		}
		l := t.End - t.Start + 1 // wraps to ≤ 0 past 2⁶³−1
		if l <= 0 || total > math.MaxInt64-l {
			return lengthOverflow(i, t, l)
		}
		total += l
	}
	return nil
}

// lengthOverflow is the error for row i, whose interval t has the computed
// length l, when l wrapped or pushed the running Σ|T| past 2⁶³−1.
func lengthOverflow(i int, t Interval, l int64) error {
	if l <= 0 {
		return fmt.Errorf("temporal: row %d, %v: %w", i, t, ErrLengthOverflow)
	}
	return fmt.Errorf("temporal: rows 0..%d cover more than 2⁶³−1 chronons: %w", i, ErrLengthOverflow)
}

// TotalLen returns Σ|row.T| over all rows: the number of (group, chronon)
// cells the sequence covers.
func (s *Sequence) TotalLen() int64 {
	var total int64
	for _, r := range s.Rows {
		total += r.T.Len()
	}
	return total
}

// Clone returns a deep copy of the sequence.
func (s *Sequence) Clone() *Sequence {
	out := &Sequence{
		GroupAttrs: append([]Attribute(nil), s.GroupAttrs...),
		AggNames:   append([]string(nil), s.AggNames...),
		Groups:     s.Groups.Clone(),
		Rows:       make([]SeqRow, len(s.Rows)),
	}
	for i, r := range s.Rows {
		out.Rows[i] = r.CloneAggs()
	}
	return out
}

// Equal reports whether two sequences hold the same rows with the same
// grouping values and aggregate values within tol. It is intended for tests.
func (s *Sequence) Equal(o *Sequence, tol float64) bool {
	if len(s.Rows) != len(o.Rows) || s.P() != o.P() {
		return false
	}
	for i := range s.Rows {
		a, b := s.Rows[i], o.Rows[i]
		if a.T != b.T {
			return false
		}
		if !DatumsEqual(s.Groups.Values(a.Group), o.Groups.Values(b.Group)) {
			return false
		}
		for d := range a.Aggs {
			diff := a.Aggs[d] - b.Aggs[d]
			if diff < -tol || diff > tol {
				return false
			}
		}
	}
	return true
}

// String renders the sequence one row per line, e.g. "A | 733.33 | [1, 3]".
func (s *Sequence) String() string {
	var sb strings.Builder
	for _, r := range s.Rows {
		parts := make([]string, 0, len(s.GroupAttrs)+s.P()+1)
		for _, v := range s.Groups.Values(r.Group) {
			parts = append(parts, v.String())
		}
		for _, a := range r.Aggs {
			parts = append(parts, fmt.Sprintf("%.4g", a))
		}
		parts = append(parts, r.T.String())
		sb.WriteString(strings.Join(parts, " | "))
		sb.WriteByte('\n')
	}
	return sb.String()
}
