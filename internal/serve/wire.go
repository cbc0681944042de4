package serve

import "repro/pta"

// This file exports the wire schema to sibling packages that speak the
// ptaserve protocol as clients — internal/dist's scatter/gather coordinator
// builds shard requests and decodes worker responses with the very structs
// the handlers decode and encode, so the two ends of the wire cannot drift.

// Exported aliases of the wire types (see codec.go for field semantics).
type (
	// AttrWire is one grouping attribute of the wire schema.
	AttrWire = attrWire
	// RowWire is one series tuple on the wire.
	RowWire = rowWire
	// SeriesWire is the wire form of a pta.Series.
	SeriesWire = seriesWire
	// PlanWire names one compression on the wire.
	PlanWire = planWire
	// CompressManyRequest is the body of POST /v1/compress/many.
	CompressManyRequest = compressManyRequest
	// ResultWire is one compression outcome on the wire.
	ResultWire = resultWire
	// ErrorWire is the payload of the uniform error envelope.
	ErrorWire = errorWire
)

// ManyResponse is the body of a /v1/compress/many success response.
type ManyResponse struct {
	Results []ResultWire `json:"results"`
}

// ErrorEnvelope is the uniform error body: {"error": {...}}.
type ErrorEnvelope struct {
	Error ErrorWire `json:"error"`
}

// EncodeSeries renders a facade series onto the wire — the inverse of the
// handlers' decodeSeries. Aggregate values and float group values survive a
// JSON round trip bit-exactly (encoding/json emits the shortest form that
// re-parses to the same float64), so a decoded copy fingerprints and
// evaluates identically to the original.
func EncodeSeries(s *pta.Series) SeriesWire {
	w := SeriesWire{
		AggNames: s.AggNames,
		Rows:     make([]RowWire, len(s.Rows)),
	}
	if len(s.GroupAttrs) > 0 {
		w.GroupAttrs = make([]AttrWire, len(s.GroupAttrs))
		for i, a := range s.GroupAttrs {
			w.GroupAttrs[i] = AttrWire{Name: a.Name, Kind: a.Kind.String()}
		}
	}
	for i, r := range s.Rows {
		vals := s.Groups.Values(r.Group)
		var group []any
		if len(vals) > 0 {
			group = make([]any, len(vals))
			for j, v := range vals {
				group[j] = encodeDatum(v)
			}
		}
		w.Rows[i] = RowWire{
			Group: group,
			Aggs:  r.Aggs,
			Start: int64(r.T.Start),
			End:   int64(r.T.End),
		}
	}
	return w
}
