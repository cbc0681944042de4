package pta

import (
	"fmt"

	"repro/internal/mdta"
	"repro/internal/temporal"
)

// Relation is a general temporal relation — the raw input of the
// aggregation operators (ITA, STA, MDTA) whose results PTA compresses.
type Relation = temporal.Relation

// MDTAQuery is a multi-dimensional temporal aggregation query (Böhlen,
// Gamper, Jensen; EDBT 2006 — reference [4] of the paper): the grouping
// attributes its group specifications constrain and the aggregate
// functions to evaluate.
type MDTAQuery = mdta.Query

// MDTAGroupSpec is one user-defined MDTA aggregation group: the
// grouping-attribute values tuples must match (nil matches every tuple —
// an aggregation no ITA or STA query can express) and the time interval
// the group reports on.
type MDTAGroupSpec = mdta.GroupSpec

// SeriesFromMDTA evaluates MDTA group specifications over a temporal
// relation and returns the result as a Series ready for compression — the
// bridge from "aggregate with fully flexible groups" to "reduce to a
// budget". The specs must form a valid sequential relation (per value
// combination: disjoint, chronologically ordered intervals); overlapping
// specs yield a general temporal relation that PTA cannot reduce, reported
// as ErrSeriesShape.
//
// The helper MDTASpanSpecs builds the regular decomposition with one group
// per span (the STA special case); hand-written specs cover the irregular
// cases, e.g. business quarters of differing lengths or per-group reporting
// calendars.
func SeriesFromMDTA(r *Relation, q MDTAQuery, specs []MDTAGroupSpec) (*Series, error) {
	seq, err := mdta.Eval(r, q, specs)
	if err != nil {
		return nil, fmt.Errorf("pta: mdta: %w", err)
	}
	seq.Sort()
	if err := seq.Validate(); err != nil {
		return nil, fmt.Errorf("pta: mdta result is not a sequential relation: %v: %w", err, ErrSeriesShape)
	}
	return seq, nil
}

// MDTASpanSpecs builds one MDTA group per (value combination, span) — the
// decomposition equal to span temporal aggregation (STA).
func MDTASpanSpecs(valueCombos [][]temporal.Datum, spans []Interval) []MDTAGroupSpec {
	return mdta.SpanSpecs(valueCombos, spans)
}

// MDTAValueCombos lists the distinct grouping-attribute value combinations
// of the relation in canonical order, for feeding the spec builders.
func MDTAValueCombos(r *Relation, groupBy []string) ([][]temporal.Datum, error) {
	return mdta.ValueCombos(r, groupBy)
}
