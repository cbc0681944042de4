package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"unicode/utf8"

	"repro/internal/temporal"
	"repro/pta"
)

// --- single-pass request decoding ---
//
// The decode half of the hot-path codec. A warm request is answered by a
// backtrack over cached matrices, so parsing its body is most of its cost.
// encoding/json's reflective decoder built a rowWire per row, an []any per
// group and a []float64 per aggregate vector, and decodeSeries then copied
// all of it again into the facade model. decodeFast parses the body once,
// straight into a *pta.Series.
//
// Its contract with the reference path (encoding/json + decodeSeries):
// whenever decodeFast returns a request, it is the request the reference
// returns for the same bytes. On anything it does not own it declines, and
// the reference decodes the body and reports every 400. It declines on a
// key that is not the exact lowercase name of a field (encoding/json
// matches keys case-insensitively and skips unknown ones), a duplicate key,
// a null, an escape inside a key, a series whose rows precede its schema,
// and any series decodeSeries would reject. FuzzDecodeCompressBody checks
// the contract.
//
// A series the body resends byte for byte is not parsed at all: when the
// matrix cache's resident-series memo holds bytes that open the rest of the
// body at "series", the decoder skips them and takes the series they
// decoded to before (seriesValue; the memo is in cache.go). The contract
// holds with the memo too, and the fuzz target checks it that way as well.

// compressBody is one decoded /v1/compress or /v1/compress/many body.
type compressBody struct {
	series *pta.Series // set by decodeFast
	// wire is the reference decoder's form of the series. Series converts it
	// on first use, so a bad plan still reports before a bad series.
	wire      seriesWire
	plans     []planWire // exactly one for /v1/compress
	timeoutMS int64

	// fingerprint is the series' content hash once known: from the memo
	// record on a hit, else from Server.fingerprint.
	fingerprint string
	// rec is the resident series record whose bytes the body resent; raw is
	// the series' bytes in the body when decodeFast decoded them instead.
	// Either one lets remember give a cache entry its record.
	rec *seriesRecord
	raw []byte
	// buf is the pooled buffer the body was read into. raw aliases it, so it
	// goes back to the pool only when release is called after the answer.
	buf *[]byte
}

// Series returns the decoded series.
func (b *compressBody) Series() (*pta.Series, error) {
	if b.series == nil {
		s, err := decodeSeries(b.wire)
		if err != nil {
			return nil, badRequest(err)
		}
		b.series = s
	}
	return b.series, nil
}

// readCompressBody reads one compress body, bounded by MaxBodyBytes, into a
// pooled buffer and decodes it: by the fast decoder, which consults the
// resident-series memo, when it accepts the bytes, by decodeReference
// otherwise. Only the fast path's raw aliases the buffer, so a fast-decoded
// request keeps it until the caller releases the request, once answered.
func (s *Server) readCompressBody(w http.ResponseWriter, r *http.Request, many bool) (compressBody, error) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	bp := codecBufPool.Get().(*[]byte)
	buf := bytes.NewBuffer((*bp)[:0])
	_, err := buf.ReadFrom(r.Body)
	body := buf.Bytes()
	*bp = body
	if err != nil {
		putCodecBuf(bp, body)
		// %w keeps an *http.MaxBytesError visible to statusFor: 413.
		return compressBody{}, badRequest(fmt.Errorf("body: %w", err))
	}
	d := fastDecoder{b: body, memo: s.cache}
	if req, ok := d.request(many); ok {
		s.decodedRows.Add(int64(d.rowsRead))
		if req.rec != nil {
			s.cache.memoHits.Add(1)
		} else {
			s.cache.memoMisses.Add(1)
		}
		req.buf = bp
		return req, nil
	}
	// The reference decoder reads the buffer, so it goes back to the pool
	// only once decodeReference has returned; nothing it builds aliases it.
	defer putCodecBuf(bp, body)
	req, err := decodeReference(body, many)
	if err != nil {
		return compressBody{}, badRequest(err)
	}
	return req, nil
}

// release returns the body's pooled buffer; the request's raw series bytes
// are gone with it.
func (b *compressBody) release() {
	if b.buf != nil {
		putCodecBuf(b.buf, *b.buf)
		b.buf, b.raw = nil, nil
	}
}

// decodeReference decodes a compress body with encoding/json, as strictly as
// json.Unmarshal: data after the JSON value is an error.
func decodeReference(body []byte, many bool) (compressBody, error) {
	var out compressBody
	var err error
	if many {
		var req compressManyRequest
		err = json.Unmarshal(body, &req)
		out = compressBody{wire: req.Series, plans: req.Plans, timeoutMS: req.TimeoutMS}
	} else {
		var req compressRequest
		err = json.Unmarshal(body, &req)
		out = compressBody{wire: req.Series, plans: []planWire{req.Plan}, timeoutMS: req.TimeoutMS}
	}
	if err != nil {
		return compressBody{}, fmt.Errorf("body: %v", err)
	}
	return out, nil
}

// decodeFast parses a compress body in one pass, straight into the facade
// model, without the memo. ok is false when the body holds anything the
// decoder does not own.
func decodeFast(body []byte, many bool) (compressBody, bool) {
	d := fastDecoder{b: body}
	return d.request(many)
}

// request decodes the whole body as one compress request.
func (d *fastDecoder) request(many bool) (req compressBody, ok bool) {
	var seen fieldSet
	ok = d.object(func(key []byte) bool {
		switch string(key) {
		case "series":
			return seen.first(0) && d.seriesValue(&req)
		case "timeout_ms":
			return seen.first(1) && d.integer(&req.timeoutMS, 64)
		case "plan":
			if many || !seen.first(2) {
				return false
			}
			req.plans = make([]planWire, 1)
			return d.plan(&req.plans[0])
		case "plans":
			if !many || !seen.first(2) {
				return false
			}
			req.plans = []planWire{}
			return d.array(func() bool {
				req.plans = append(req.plans, planWire{})
				return d.plan(&req.plans[len(req.plans)-1])
			})
		}
		return false
	})
	d.ws()
	if !ok || d.i != len(d.b) || d.s == nil || (!many && req.plans == nil) {
		return compressBody{}, false
	}
	req.series = d.s
	return req, true
}

// fieldSet records the keys an object has shown, so a duplicate declines.
type fieldSet uint8

func (f *fieldSet) first(i uint) bool {
	if f.has(i) {
		return false
	}
	*f |= 1 << i
	return true
}

func (f fieldSet) has(i uint) bool { return f&(1<<i) != 0 }

// fastDecoder is decodeFast's cursor over one body, with the series it
// builds and its scratch.
type fastDecoder struct {
	b    []byte
	i    int
	memo *matrixCache // resident series a body may resend; nil for none

	s      *pta.Series
	aggs   []float64        // the aggregate slab, cut into rows once all are read
	toks   []groupTok       // one group array's value tokens
	vals   []temporal.Datum // their values, on a group's first row
	groups map[string]int32 // raw group array → interned group id

	fallbacks int // number tokens converted by strconv rather than as scanned
	rowsRead  int // series rows decoded
}

// ws skips insignificant whitespace.
func (d *fastDecoder) ws() {
	for d.i < len(d.b) && d.b[d.i] <= ' ' {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// consume skips whitespace and then c, reporting whether c was there.
func (d *fastDecoder) consume(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// open consumes the bracket c that opens an array or object and reports
// whether an element follows before its closing bracket end.
func (d *fastDecoder) open(c, end byte) (more, ok bool) {
	if !d.consume(c) {
		return false, false
	}
	return !d.consume(end), true
}

// next consumes what follows an element: a comma, when another element
// follows, or the closing bracket end.
func (d *fastDecoder) next(end byte) (more, ok bool) {
	if d.consume(',') {
		return true, true
	}
	return false, d.consume(end)
}

// object walks one JSON object, handing each key to field, which parses the
// value. Keys holding an escape decline.
func (d *fastDecoder) object(field func(key []byte) bool) bool {
	more, ok := d.open('{', '}')
	for ; more; more, ok = d.next('}') {
		key, escaped, kok := d.strToken()
		if !kok || escaped || !d.consume(':') || !field(key[1:len(key)-1]) {
			return false
		}
	}
	return ok
}

// array walks one JSON array, calling elem to parse each element.
func (d *fastDecoder) array(elem func() bool) bool {
	more, ok := d.open('[', ']')
	for ; more; more, ok = d.next(']') {
		if !elem() {
			return false
		}
	}
	return ok
}

// strToken scans one string token, quotes included, and reports whether it
// holds an escape. Escapes are only skipped here; unquote checks them.
func (d *fastDecoder) strToken() (tok []byte, escaped, ok bool) {
	d.ws()
	b := d.b
	if d.i >= len(b) || b[d.i] != '"' {
		return nil, false, false
	}
	for j := d.i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			tok, d.i = b[d.i:j+1], j+1
			return tok, escaped, true
		case c == '\\':
			escaped = true
			j++
		case c < 0x20:
			return nil, false, false
		}
	}
	return nil, false, false
}

// unquote returns the content of a string token. A token without escapes
// that is valid UTF-8 is its own content; any other is unquoted by
// encoding/json, so escapes, surrogates and invalid UTF-8 decode exactly as
// the reference decodes them.
func unquote(tok []byte) (string, bool) {
	if bytes.IndexByte(tok, '\\') < 0 && utf8.Valid(tok) {
		return string(tok[1 : len(tok)-1]), true
	}
	var s string
	return s, json.Unmarshal(tok, &s) == nil
}

func (d *fastDecoder) str() (string, bool) {
	tok, _, ok := d.strToken()
	if !ok {
		return "", false
	}
	return unquote(tok)
}

// number scans the number token at the cursor by the RFC 8259 grammar,
// which is stricter than strconv (no "0x1p-2", "Inf", "NaN", "1_0", "+1"
// or "01"), and builds its value in the same pass: the token is
// ±m·10^exp, exactly, as long as m has at most 19 digits (m saturates
// past them), and whole when it has neither a fraction nor an exponent.
func (d *fastDecoder) number() (m uint64, exp int, neg, whole, ok bool) {
	b, i := d.b, d.i
	if neg = i < len(b) && b[i] == '-'; neg {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i, m = digits(b, i, 0)
	default:
		return 0, 0, false, false, false
	}
	whole = true
	if i < len(b) && b[i] == '.' {
		whole = false
		j := i + 1
		if i, m = digits(b, j, m); i == j {
			return 0, 0, false, false, false
		}
		exp = j - i
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		whole = false
		i++
		eneg := i < len(b) && b[i] == '-'
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i == len(b) || !isDigit(b[i]) {
			return 0, 0, false, false, false
		}
		// The exponent stops growing once it passes len(b)+22: no fraction
		// in the body is long enough to bring the scale back within 10^±22,
		// so the token still falls back to strconv.
		e := 0
		for ; i < len(b) && isDigit(b[i]); i++ {
			if e <= len(b)+22 {
				e = e*10 + int(b[i]-'0')
			}
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	d.i = i
	return m, exp, neg, whole, true
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// digits appends the digits from b[i] on to the mantissa m and returns the
// index of the first non-digit. Leading zeros leave m at 0; past 19 digits
// m saturates at MaxUint64, above every exact path's bound.
func digits(b []byte, i int, m uint64) (int, uint64) {
	for ; i < len(b); i++ {
		c := b[i] - '0'
		if c > 9 {
			break
		}
		if m < 1e18 {
			m = m*10 + uint64(c)
		} else {
			m = math.MaxUint64
		}
	}
	return i, m
}

// pow10 holds the powers of ten that are exact float64s.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// value returns the float64 strconv.ParseFloat reads from tok, scanned as
// ±m·10^exp. A mantissa below 2^53 and a power of ten up to 10^22 are both
// exact float64s, so one multiply or divide rounds their exact product or
// quotient once, correctly, as ParseFloat rounds the decimal: Clinger's
// fast path, the one strconv itself takes in atof64exact. Every other
// token falls back to strconv on the same bytes.
func (d *fastDecoder) value(tok []byte, m uint64, exp int, neg bool) (float64, bool) {
	if m < 1<<53 && -22 <= exp && exp <= 22 {
		f := float64(m)
		if neg {
			f = -f
		}
		if exp < 0 {
			return f / pow10[-exp], true
		}
		return f * pow10[exp], true
	}
	d.fallbacks++
	f, err := strconv.ParseFloat(string(tok), 64)
	return f, err == nil
}

// float reads a number the way encoding/json stores one into a float64.
func (d *fastDecoder) float() (float64, bool) {
	d.ws()
	start := d.i
	m, exp, neg, _, ok := d.number()
	if !ok {
		return 0, false
	}
	return d.value(d.b[start:d.i], m, exp, neg)
}

// integer reads a number the way encoding/json stores one into an integer
// field of the given bit size: a fraction or an exponent is an error. Up to
// 18 digits always fit in 64 bits; longer tokens fall back to strconv.
func (d *fastDecoder) integer(dst *int64, bits int) bool {
	d.ws()
	start := d.i
	m, _, neg, whole, ok := d.number()
	if !ok || !whole {
		return false
	}
	if m < 1e18 && bits == 64 {
		*dst = int64(m)
		if neg {
			*dst = -*dst
		}
		return true
	}
	d.fallbacks++
	v, err := strconv.ParseInt(string(d.b[start:d.i]), 10, bits)
	*dst = v
	return err == nil
}

func (d *fastDecoder) plan(pw *planWire) bool {
	var seen fieldSet
	return d.object(func(key []byte) bool {
		ok := false
		switch string(key) {
		case "strategy":
			if seen.first(0) {
				pw.Strategy, ok = d.str()
			}
		case "budget":
			if seen.first(1) {
				pw.Budget, ok = d.str()
			}
		case "fill_algo":
			if seen.first(2) {
				pw.FillAlgo, ok = d.str()
			}
		case "read_ahead":
			var v int64
			ok = seen.first(3) && d.integer(&v, strconv.IntSize)
			pw.ReadAhead = int(v)
		case "weights":
			// An empty array is a non-nil empty vector, as in encoding/json:
			// it overrides the engine's default weights.
			pw.Weights = []float64{}
			ok = seen.first(4) && d.array(func() bool {
				f, ok := d.float()
				pw.Weights = append(pw.Weights, f)
				return ok
			})
		}
		return ok
	})
}

// seriesValue reads the "series" value into req. When the memo holds a
// series whose bytes open the rest of the body, those bytes are the whole
// value and decode to that series, so the decoder skips them and takes the
// record's series and fingerprint.
func (d *fastDecoder) seriesValue(req *compressBody) bool {
	d.ws()
	if rec := d.memo.lookupSeries(d.b[d.i:]); rec != nil {
		d.i += len(rec.raw)
		d.s, req.rec, req.fingerprint = rec.series, rec, rec.fingerprint
		return true
	}
	start := d.i
	if !d.series() {
		return false
	}
	req.raw = d.b[start:d.i]
	return true
}

// series reads the series object. Rows are converted as they stream past,
// so group_attrs and agg_names must precede them, as json.Marshal orders
// them.
func (d *fastDecoder) series() bool {
	var attrs []temporal.Attribute
	var names []string
	var seen fieldSet
	return d.object(func(key []byte) bool {
		if seen.has(2) {
			return false
		}
		switch string(key) {
		case "group_attrs":
			return seen.first(0) && d.array(func() bool {
				a, ok := d.attr()
				attrs = append(attrs, a)
				return ok
			})
		case "agg_names":
			return seen.first(1) && d.array(func() bool {
				name, ok := d.str()
				names = append(names, name)
				return ok
			})
		case "rows":
			return seen.first(2) && len(names) > 0 && d.rows(pta.NewSeries(attrs, names))
		}
		return false
	}) && seen.has(2)
}

func (d *fastDecoder) attr() (temporal.Attribute, bool) {
	var name, kind string
	var seen fieldSet
	ok := d.object(func(key []byte) bool {
		ok := false
		switch string(key) {
		case "name":
			if seen.first(0) {
				name, ok = d.str()
			}
		case "kind":
			if seen.first(1) {
				kind, ok = d.str()
			}
		}
		return ok
	})
	k, err := temporal.ParseKind(kind)
	return temporal.Attribute{Name: name, Kind: k}, ok && err == nil && name != ""
}

// rows reads the rows array into s. Rows that arrive in canonical order
// skip the sort (a stable sort of sorted rows is the identity); Validate
// still runs.
func (d *fastDecoder) rows(s *pta.Series) bool {
	// Every row is an object, and one with p aggregates takes at least
	// 10+2p bytes ({"aggs":[0,…,0]}), so both bounds below cap the row
	// count: the rows and the slab are allocated once, and the slab holds
	// at most about four times the body's bytes whatever p the client sent.
	p := s.P()
	rest := d.b[d.i:]
	hint := min(bytes.Count(rest, []byte{'{'}), len(rest)/(10+2*p)+1)
	rows := make([]pta.Row, 0, hint)
	d.aggs = make([]float64, 0, hint*p)
	ungrouped := int32(-1)
	if len(s.GroupAttrs) == 0 {
		ungrouped = s.Groups.Intern(nil)
	}
	more, ok := d.open('[', ']')
	for ; more; more, ok = d.next(']') {
		rows = append(rows, pta.Row{Group: ungrouped})
		if !d.row(&rows[len(rows)-1], s) {
			return false
		}
	}
	if !ok || len(rows) == 0 {
		return false
	}
	for i := range rows {
		rows[i].Aggs = d.aggs[i*p : (i+1)*p : (i+1)*p]
	}
	s.Rows = rows
	d.rowsRead += len(rows)
	if !strictlySorted(s) {
		s.Sort()
	}
	if s.Validate() != nil {
		return false
	}
	d.s = s
	return true
}

// The keys of a row, in rowWire's order.
const (
	keyGroup = iota
	keyAggs
	keyStart
	keyEnd
)

// rowKey reads one row key and its colon and returns its key constant. A
// key is matched as the literal bytes json.Marshal writes; any other key,
// an escaped spelling included, is -1 and declines.
func (d *fastDecoder) rowKey() int {
	d.ws()
	k, n := -1, 0
	// A valid body holds at least 8 bytes from any row key on ("end":1}]}}).
	if rest := d.b[d.i:]; len(rest) >= 8 {
		switch {
		case string(rest[:6]) == `"aggs"`:
			k, n = keyAggs, 6
		case string(rest[:7]) == `"start"`:
			k, n = keyStart, 7
		case string(rest[:5]) == `"end"`:
			k, n = keyEnd, 5
		case string(rest[:7]) == `"group"`:
			k, n = keyGroup, 7
		}
	}
	d.i += n
	if !d.consume(':') {
		return -1
	}
	return k
}

// row reads one row into r, appending its aggregates to the slab. A row
// without a group array keeps r's group: the ungrouped group, or -1 when
// the schema has groups.
func (d *fastDecoder) row(r *pta.Row, s *pta.Series) bool {
	from := len(d.aggs)
	var seen fieldSet
	more, ok := d.open('{', '}')
	for ; more; more, ok = d.next('}') {
		k := d.rowKey()
		if k < 0 || !seen.first(uint(k)) {
			return false
		}
		var vok bool
		switch k {
		case keyGroup:
			r.Group, vok = d.group(s)
		case keyAggs:
			vok = d.aggVector(from + s.P())
		case keyStart:
			vok = d.integer(&r.T.Start, 64)
		case keyEnd:
			vok = d.integer(&r.T.End, 64)
		}
		if !vok {
			return false
		}
	}
	return ok && seen.has(keyAggs) && r.Group >= 0
}

// aggVector appends one row's aggregate array to the slab, which must then
// hold exactly to values.
func (d *fastDecoder) aggVector(to int) bool {
	more, ok := d.open('[', ']')
	for ; more; more, ok = d.next(']') {
		f, fok := d.float()
		if !fok || len(d.aggs) == to {
			return false
		}
		d.aggs = append(d.aggs, f)
	}
	return ok && len(d.aggs) == to
}

// group reads one row's group array and returns its interned id. The rows
// of a group repeat the same bytes, so ids are memoized by the raw array:
// only a group's first row converts and interns its values.
func (d *fastDecoder) group(s *pta.Series) (int32, bool) {
	d.ws()
	start := d.i
	d.toks = d.toks[:0]
	more, ok := d.open('[', ']')
	for ; more; more, ok = d.next(']') {
		j := len(d.toks)
		if j == len(s.GroupAttrs) {
			return 0, false
		}
		d.ws()
		tok := groupTok{start: d.i}
		var vok bool
		if s.GroupAttrs[j].Kind == temporal.KindString {
			_, _, vok = d.strToken()
		} else {
			tok.m, tok.exp, tok.neg, _, vok = d.number()
		}
		if !vok {
			return 0, false
		}
		tok.end = d.i
		d.toks = append(d.toks, tok)
	}
	if !ok || len(d.toks) != len(s.GroupAttrs) {
		return 0, false
	}
	raw := d.b[start:d.i]
	if id, ok := d.groups[string(raw)]; ok {
		return id, true
	}
	d.vals = d.vals[:0]
	for j, tok := range d.toks {
		v, ok := d.datum(s.GroupAttrs[j].Kind, tok)
		if !ok {
			return 0, false
		}
		d.vals = append(d.vals, v)
	}
	id := s.Groups.Intern(d.vals)
	if d.groups == nil {
		d.groups = make(map[string]int32)
	}
	d.groups[string(raw)] = id
	return id, true
}

// groupTok is one scanned group value: its token d.b[start:end] and, for a
// number, the value number scanned.
type groupTok struct {
	start, end int
	m          uint64
	exp        int
	neg        bool
}

// datum converts one scanned group value with decodeDatum's rules: an int
// must be a whole number, converted from its float64 like the reference.
func (d *fastDecoder) datum(kind temporal.Kind, t groupTok) (temporal.Datum, bool) {
	tok := d.b[t.start:t.end]
	if kind == temporal.KindString {
		s, ok := unquote(tok)
		return temporal.String(s), ok
	}
	f, ok := d.value(tok, t.m, t.exp, t.neg)
	switch {
	case !ok:
		return temporal.Datum{}, false
	case kind == temporal.KindFloat:
		return temporal.Float(f), true
	case kind == temporal.KindInt && f == math.Trunc(f):
		return temporal.Int(int64(f)), true
	}
	return temporal.Datum{}, false
}

// strictlySorted reports whether every row orders strictly after the one
// before it: by group values when the group changes, by interval within a
// group. Such rows form one chain under Sort's comparison, so Sort would
// leave them in place. Ties (say groups whose float values are 0 and -0)
// are left to Sort itself.
func strictlySorted(s *pta.Series) bool {
	for i := 1; i < len(s.Rows); i++ {
		a, b := &s.Rows[i-1], &s.Rows[i]
		if a.Group == b.Group {
			if a.T.Compare(b.T) >= 0 {
				return false
			}
		} else if temporal.CompareDatums(s.Groups.Values(a.Group), s.Groups.Values(b.Group)) >= 0 {
			return false
		}
	}
	return true
}
