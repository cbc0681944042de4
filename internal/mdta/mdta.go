// Package mdta implements (a faithful core of) multi-dimensional temporal
// aggregation after Böhlen, Gamper and Jensen ("Multi-dimensional
// aggregation for temporal data", EDBT 2006) — reference [4] of the paper,
// the operator that generalizes instant and span temporal aggregation
// "towards more flexibility for the specification of aggregation groups"
// (Section 2.1).
//
// The query supplies explicit group specifications: each result group names
// the grouping-attribute values it stands for (or matches every tuple when
// none are given) and the time interval it reports on. An argument tuple
// contributes to a group when its grouping attributes equal the group's
// values and its timestamp overlaps the group's interval. ITA is the
// special case of one group per (value combination, instant) followed by
// coalescing; STA is the special case of regular spans per value
// combination — both equivalences are property-tested.
package mdta

import (
	"fmt"
	"math"

	"repro/internal/ita"
	"repro/internal/temporal"
)

// GroupSpec is one user-defined aggregation group.
type GroupSpec struct {
	// Vals are the grouping-attribute values tuples must match, aligned
	// with Query.GroupBy. A nil Vals matches every tuple — an aggregation
	// across all value combinations, which neither ITA nor STA can express.
	Vals []temporal.Datum
	// T is the interval the group reports on; tuples qualify by overlap.
	T temporal.Interval
}

// Query is an MDTA query: the grouping attributes that specs constrain and
// the aggregate functions.
type Query struct {
	GroupBy []string
	Aggs    []ita.AggSpec
}

// Eval evaluates the group specifications over the relation. The result
// holds one row per spec with a non-empty qualifying set, timestamped with
// the spec's interval, in the given spec order (specs for equal values and
// ascending disjoint intervals therefore yield a valid sequential relation;
// overlapping specs yield a general temporal relation that must not be fed
// to PTA).
func Eval(r *temporal.Relation, q Query, specs []GroupSpec) (*temporal.Sequence, error) {
	if len(q.Aggs) == 0 {
		return nil, fmt.Errorf("mdta: query needs at least one aggregate function")
	}
	schema := r.Schema()
	groupIdx, err := schema.Indices(q.GroupBy)
	if err != nil {
		return nil, err
	}
	attrIdx := make([]int, len(q.Aggs))
	names := make([]string, len(q.Aggs))
	seen := make(map[string]bool)
	for i, a := range q.Aggs {
		names[i] = a.Name()
		if seen[names[i]] {
			return nil, fmt.Errorf("mdta: duplicate output attribute %q", names[i])
		}
		seen[names[i]] = true
		if a.Attr == "" {
			if a.Func != ita.Count {
				return nil, fmt.Errorf("mdta: %v needs an input attribute", a.Func)
			}
			attrIdx[i] = -1
			continue
		}
		idx, ok := schema.Index(a.Attr)
		if !ok {
			return nil, fmt.Errorf("mdta: unknown attribute %q", a.Attr)
		}
		if k := schema.Attr(idx).Kind; a.Func != ita.Count && k != temporal.KindInt && k != temporal.KindFloat {
			return nil, fmt.Errorf("mdta: attribute %q of kind %v is not numeric", a.Attr, k)
		}
		attrIdx[i] = idx
	}

	groupAttrs := make([]temporal.Attribute, len(groupIdx))
	for i, gi := range groupIdx {
		groupAttrs[i] = schema.Attr(gi)
	}
	out := temporal.NewSequence(groupAttrs, names)

	for si, spec := range specs {
		if !spec.T.Valid() {
			return nil, fmt.Errorf("mdta: group spec %d has invalid interval %v", si, spec.T)
		}
		if spec.Vals != nil && len(spec.Vals) != len(groupIdx) {
			return nil, fmt.Errorf("mdta: group spec %d has %d values for %d grouping attributes",
				si, len(spec.Vals), len(groupIdx))
		}
		var members []temporal.Tuple
		for i := 0; i < r.Len(); i++ {
			tp := r.Tuple(i)
			if !tp.T.Overlaps(spec.T) {
				continue
			}
			if spec.Vals != nil {
				match := true
				for gi, idx := range groupIdx {
					if !tp.Vals[idx].Equal(spec.Vals[gi]) {
						match = false
						break
					}
				}
				if !match {
					continue
				}
			}
			members = append(members, tp)
		}
		if len(members) == 0 {
			continue
		}
		gid := out.Groups.Intern(spec.Vals)
		aggs := make([]float64, len(q.Aggs))
		for d, a := range q.Aggs {
			aggs[d] = aggregate(a.Func, attrIdx[d], members)
		}
		out.Rows = append(out.Rows, temporal.SeqRow{Group: gid, Aggs: aggs, T: spec.T})
	}
	return out, nil
}

// SpanSpecs builds one group spec per (value combination, span) — the
// decomposition equal to STA.
func SpanSpecs(valueCombos [][]temporal.Datum, spans []temporal.Interval) []GroupSpec {
	var out []GroupSpec
	for _, vals := range valueCombos {
		for _, sp := range spans {
			out = append(out, GroupSpec{Vals: vals, T: sp})
		}
	}
	return out
}

// ValueCombos lists the distinct grouping-attribute value combinations in
// the relation, in canonical order.
func ValueCombos(r *temporal.Relation, groupBy []string) ([][]temporal.Datum, error) {
	idx, err := r.Schema().Indices(groupBy)
	if err != nil {
		return nil, err
	}
	dict := temporal.NewGroupDict()
	buf := make([]temporal.Datum, len(idx))
	for i := 0; i < r.Len(); i++ {
		tp := r.Tuple(i)
		for gi, id := range idx {
			buf[gi] = tp.Vals[id]
		}
		dict.Intern(buf)
	}
	var out [][]temporal.Datum
	for _, id := range dict.SortedIDs() {
		out = append(out, dict.Values(id))
	}
	return out, nil
}

func aggregate(f ita.Func, attrIdx int, members []temporal.Tuple) float64 {
	if f == ita.Count {
		return float64(len(members))
	}
	var sum float64
	mn, mx := math.Inf(1), math.Inf(-1)
	for _, tp := range members {
		v, _ := tp.Vals[attrIdx].Numeric()
		sum += v
		mn = math.Min(mn, v)
		mx = math.Max(mx, v)
	}
	switch f {
	case ita.Sum:
		return sum
	case ita.Avg:
		return sum / float64(len(members))
	case ita.Min:
		return mn
	case ita.Max:
		return mx
	}
	panic("mdta: unknown aggregate function")
}
