// Package serve is the HTTP/JSON serving layer over the public pta Engine:
// cmd/ptaserve wires it to a listener. It adds what a network boundary
// needs on top of the in-process API — a JSON codec for series and plans, a
// shared LRU matrix cache so repeated budgets of a hot series skip the DP
// fill entirely, per-request deadlines mapped onto the typed pta errors as
// HTTP status codes, and a bounded in-flight pool.
//
// Endpoints:
//
//	POST /v1/compress       one series, one plan
//	POST /v1/compress/many  one series, several plans (amortized: plans of
//	                        one DP class share one cache entry)
//	GET  /v1/strategies     the strategy registry (pta.Describe)
//	GET  /v1/stats          the /metrics samples as one JSON object
//	GET  /metrics           Prometheus text-format exposition
//	GET  /v1/matrix/{hash}  one spill blob, for peer workers
//	GET  /healthz           liveness
//
// See docs/ARCHITECTURE.md for the cache design and its invalidation rules.
package serve

import (
	"fmt"
	"math"
	"strconv"
	"sync"
	"unicode/utf8"

	"repro/internal/temporal"
	"repro/pta"
)

// attrWire is one grouping attribute of the wire schema.
type attrWire struct {
	Name string `json:"name"`
	Kind string `json:"kind"` // "string", "int" or "float"
}

// rowWire is one series tuple on the wire. Group values align with the
// series' group_attrs; start/end are the closed chronon interval.
type rowWire struct {
	Group []any     `json:"group,omitempty"`
	Aggs  []float64 `json:"aggs"`
	Start int64     `json:"start"`
	End   int64     `json:"end"`
}

// seriesWire is the wire form of a pta.Series.
type seriesWire struct {
	GroupAttrs []attrWire `json:"group_attrs,omitempty"`
	AggNames   []string   `json:"agg_names"`
	Rows       []rowWire  `json:"rows"`
}

// planWire names one compression: a registry strategy, a budget in the
// ParseBudget syntax ("c=12" or "eps=0.05"), and optional per-plan options.
// FillAlgo is read for compatibility and ignored: the server picks the
// exact DP's row fill from the series size (the pruned scan below 256 rows,
// the monotone dc fill at or above). Every name it once accepted — "",
// "auto", "pruned", "dc" and the retired "smawk" and "online" — answers as
// the unpinned plan does, from the same cache entry; any other name is a
// 400. A plan that pinned "pruned" at n ≥ 256 thus gets the dc answer,
// which can differ from the scan's in its last bits when values sit at
// offsets of 10⁶ or more, where the kernel's raw prefix sums lose
// precision.
type planWire struct {
	Strategy  string    `json:"strategy"`
	Budget    string    `json:"budget"`
	Weights   []float64 `json:"weights,omitempty"`
	ReadAhead int       `json:"read_ahead,omitempty"`
	FillAlgo  string    `json:"fill_algo,omitempty"`
}

// compressRequest is the body of POST /v1/compress.
type compressRequest struct {
	Series seriesWire `json:"series"`
	Plan   planWire   `json:"plan"`
	// TimeoutMS optionally tightens the server's per-request deadline; it
	// can never extend it.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// compressManyRequest is the body of POST /v1/compress/many.
type compressManyRequest struct {
	Series    seriesWire `json:"series"`
	Plans     []planWire `json:"plans"`
	TimeoutMS int64      `json:"timeout_ms,omitempty"`
}

// statsWire mirrors pta.Stats.
type statsWire struct {
	Cells         int64 `json:"cells,omitempty"`
	InnerIters    int64 `json:"inner_iters,omitempty"`
	EnvelopeSkips int64 `json:"envelope_skips,omitempty"`
	Merges        int   `json:"merges,omitempty"`
	MaxHeap       int   `json:"max_heap,omitempty"`
	ReadAhead     int   `json:"read_ahead,omitempty"`
}

// resultWire is one compression outcome. Cache reports how the matrix cache
// served the plan: "hit", "miss" (entry built by this request) or "bypass"
// (strategy not matrix-cacheable).
type resultWire struct {
	Strategy string    `json:"strategy"`
	Budget   string    `json:"budget"`
	C        int       `json:"c"`
	Error    float64   `json:"error"`
	Cache    string    `json:"cache,omitempty"`
	Stats    statsWire `json:"stats"`
	Rows     []rowWire `json:"rows"`
}

// errorWire is the uniform error envelope: {"error": {...}}.
type errorWire struct {
	Status  int      `json:"status"`
	Code    string   `json:"code"`
	Message string   `json:"message"`
	CMin    int      `json:"cmin,omitempty"`  // budget_infeasible: smallest reachable size
	Known   []string `json:"known,omitempty"` // unknown_strategy: the registry

	// admission_rejected: the cost model's verdict, so clients can split
	// the request or pick a smaller budget instead of blind retries.
	EstimatedCells int64 `json:"estimated_cells,omitempty"`
	MaxCells       int64 `json:"max_cells,omitempty"`
}

// decodeSeries validates and converts a wire series into the facade model:
// group values are interned into a fresh dictionary, rows are sorted into
// the canonical (group, time) order and the sequential-relation invariants
// are checked.
func decodeSeries(w seriesWire) (*pta.Series, error) {
	if len(w.AggNames) == 0 {
		return nil, fmt.Errorf("series: need at least one aggregate attribute name")
	}
	if len(w.Rows) == 0 {
		return nil, fmt.Errorf("series: need at least one row")
	}
	attrs := make([]temporal.Attribute, len(w.GroupAttrs))
	for i, a := range w.GroupAttrs {
		kind, err := temporal.ParseKind(a.Kind)
		if err != nil {
			return nil, fmt.Errorf("series: group attribute %q: %v", a.Name, err)
		}
		if a.Name == "" {
			return nil, fmt.Errorf("series: group attribute %d has no name", i)
		}
		attrs[i] = temporal.Attribute{Name: a.Name, Kind: kind}
	}
	s := pta.NewSeries(attrs, w.AggNames)
	p := len(w.AggNames)
	vals := make([]temporal.Datum, len(attrs))
	for i, r := range w.Rows {
		if len(r.Group) != len(attrs) {
			return nil, fmt.Errorf("series: row %d has %d group values, schema has %d attributes",
				i, len(r.Group), len(attrs))
		}
		if len(r.Aggs) != p {
			return nil, fmt.Errorf("series: row %d has %d aggregate values, want %d", i, len(r.Aggs), p)
		}
		for j, v := range r.Group {
			d, err := decodeDatum(attrs[j].Kind, v)
			if err != nil {
				return nil, fmt.Errorf("series: row %d, attribute %q: %v", i, attrs[j].Name, err)
			}
			vals[j] = d
		}
		s.Rows = append(s.Rows, pta.Row{
			Group: s.Groups.Intern(vals),
			Aggs:  append([]float64(nil), r.Aggs...),
			T:     pta.Interval{Start: pta.Chronon(r.Start), End: pta.Chronon(r.End)},
		})
	}
	s.Sort()
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("series: %v", err)
	}
	return s, nil
}

// decodeDatum converts one JSON group value to the attribute's domain.
func decodeDatum(kind temporal.Kind, v any) (temporal.Datum, error) {
	switch kind {
	case temporal.KindString:
		s, ok := v.(string)
		if !ok {
			return temporal.Datum{}, fmt.Errorf("want a string, have %T", v)
		}
		return temporal.String(s), nil
	case temporal.KindInt:
		f, ok := v.(float64)
		if !ok || f != math.Trunc(f) {
			return temporal.Datum{}, fmt.Errorf("want an integer, have %v (%T)", v, v)
		}
		return temporal.Int(int64(f)), nil
	case temporal.KindFloat:
		f, ok := v.(float64)
		if !ok {
			return temporal.Datum{}, fmt.Errorf("want a number, have %T", v)
		}
		return temporal.Float(f), nil
	}
	return temporal.Datum{}, fmt.Errorf("unsupported kind %v", kind)
}

// encodeDatum renders one group value for the wire, preserving the domain.
func encodeDatum(d temporal.Datum) any {
	switch d.Kind() {
	case temporal.KindInt:
		return d.IntVal()
	case temporal.KindFloat:
		return d.FloatVal()
	default:
		return d.Text()
	}
}

// encodeResult packages a facade result with its cache disposition. It is
// the reference implementation of the result wire format: the hot handlers
// encode through appendResult instead (same bytes, no reflection, no
// allocation), and TestAppendResultMatchesEncodingJSON pins the two to each
// other.
func encodeResult(res *pta.Result, cache string) resultWire {
	rows := make([]rowWire, len(res.Series.Rows))
	for i, r := range res.Series.Rows {
		vals := res.Series.Groups.Values(r.Group)
		var group []any
		if len(vals) > 0 {
			group = make([]any, len(vals))
			for j, v := range vals {
				group[j] = encodeDatum(v)
			}
		}
		rows[i] = rowWire{
			Group: group,
			Aggs:  r.Aggs,
			Start: int64(r.T.Start),
			End:   int64(r.T.End),
		}
	}
	return resultWire{
		Strategy: res.Strategy,
		Budget:   res.Budget.String(),
		C:        res.C,
		Error:    res.Error,
		Cache:    cache,
		Stats: statsWire{
			Cells:         res.Stats.Cells,
			InnerIters:    res.Stats.InnerIters,
			EnvelopeSkips: res.Stats.EnvelopeSkips,
			Merges:        res.Stats.Merges,
			MaxHeap:       res.Stats.MaxHeap,
			ReadAhead:     res.Stats.ReadAhead,
		},
		Rows: rows,
	}
}

// --- allocation-free result encoding ---
//
// The compress handlers answer cache hits without filling a single matrix
// cell, so on the hot path the response encoding used to dominate the
// allocation profile: encoding/json walks resultWire reflectively and
// allocates per row. appendResult renders the identical bytes (field order,
// omitempty behavior, float and string formatting) straight into a pooled
// byte buffer — zero allocations per request once the pool is warm.

// codecBufPool recycles request- and response-body buffers across requests.
// Buffers that grew beyond codecBufMax (a giant series) are dropped instead
// of pooled so one outlier does not pin its worst-case footprint forever.
var codecBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4096)
		return &b
	},
}

const codecBufMax = 1 << 20

// putCodecBuf returns a pooled buffer, now b, unless b grew beyond
// codecBufMax.
func putCodecBuf(bp *[]byte, b []byte) {
	if cap(b) <= codecBufMax {
		*bp = b[:0]
		codecBufPool.Put(bp)
	}
}

// appendResult appends the JSON of one compression outcome, byte-identical
// to encoding/json over encodeResult(res, cache) with HTML escaping off.
func appendResult(b []byte, res *pta.Result, cache string) []byte {
	b = append(b, `{"strategy":`...)
	b = appendJSONString(b, res.Strategy)
	b = append(b, `,"budget":`...)
	b = appendJSONString(b, res.Budget.String())
	b = append(b, `,"c":`...)
	b = strconv.AppendInt(b, int64(res.C), 10)
	b = append(b, `,"error":`...)
	b = appendJSONFloat(b, res.Error)
	if cache != "" {
		b = append(b, `,"cache":`...)
		b = appendJSONString(b, cache)
	}
	b = append(b, `,"stats":{`...)
	b = appendStatField(b, `"cells":`, res.Stats.Cells)
	b = appendStatField(b, `"inner_iters":`, res.Stats.InnerIters)
	b = appendStatField(b, `"envelope_skips":`, res.Stats.EnvelopeSkips)
	b = appendStatField(b, `"merges":`, int64(res.Stats.Merges))
	b = appendStatField(b, `"max_heap":`, int64(res.Stats.MaxHeap))
	b = appendStatField(b, `"read_ahead":`, int64(res.Stats.ReadAhead))
	b = append(b, `},"rows":[`...)
	for i := range res.Series.Rows {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendRow(b, res.Series, &res.Series.Rows[i])
	}
	return append(b, `]}`...)
}

// appendStatField appends one omitempty stats field (name includes the
// quoted key and colon); zero values are omitted like the statsWire tags.
func appendStatField(b []byte, name string, v int64) []byte {
	if v == 0 {
		return b
	}
	if b[len(b)-1] != '{' {
		b = append(b, ',')
	}
	b = append(b, name...)
	return strconv.AppendInt(b, v, 10)
}

// appendRow appends one rowWire: group (omitted when the series has no
// grouping attributes), aggs, start, end.
func appendRow(b []byte, s *pta.Series, r *pta.Row) []byte {
	b = append(b, '{')
	if vals := s.Groups.Values(r.Group); len(vals) > 0 {
		b = append(b, `"group":[`...)
		for j, v := range vals {
			if j > 0 {
				b = append(b, ',')
			}
			b = appendDatum(b, v)
		}
		b = append(b, `],`...)
	}
	b = append(b, `"aggs":[`...)
	for j, v := range r.Aggs {
		if j > 0 {
			b = append(b, ',')
		}
		b = appendJSONFloat(b, v)
	}
	b = append(b, `],"start":`...)
	b = strconv.AppendInt(b, int64(r.T.Start), 10)
	b = append(b, `,"end":`...)
	b = strconv.AppendInt(b, int64(r.T.End), 10)
	return append(b, '}')
}

// appendDatum appends one group value, preserving the domain like
// encodeDatum.
func appendDatum(b []byte, d temporal.Datum) []byte {
	switch d.Kind() {
	case temporal.KindInt:
		return strconv.AppendInt(b, d.IntVal(), 10)
	case temporal.KindFloat:
		return appendJSONFloat(b, d.FloatVal())
	}
	return appendJSONString(b, d.Text())
}

// appendJSONFloat appends a float64 with encoding/json's exact formatting:
// shortest 'f' form normally, 'e' form with a cleaned exponent for very
// small or very large magnitudes. Non-finite values (which encoding/json
// refuses, truncating the response mid-body) render as null — strictly more
// useful to a client than a broken body.
func appendJSONFloat(b []byte, f float64) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return append(b, "null"...)
	}
	abs := math.Abs(f)
	format := byte('f')
	if abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// encoding/json trims a zero-padded exponent: 1e-07 → 1e-7.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends a quoted JSON string with encoding/json's
// escaping rules under SetEscapeHTML(false): quote, backslash and control
// characters are escaped (\b, \f, \n, \r, \t short forms, \u00xx otherwise),
// invalid UTF-8 becomes U+FFFD, and the JavaScript line separators U+2028
// and U+2029 are escaped; everything else is copied verbatim in spans.
func appendJSONString(b []byte, s string) []byte {
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if r == utf8.RuneError && size == 1 {
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', byte('8'+r-'\u2028'))
			i += size
			start = i
			continue
		}
		i += size
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
