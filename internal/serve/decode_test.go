package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"os"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/temporal"
	"repro/pta"
)

// sameRequest reports how a fast decode differs from the reference decode of
// the same body, or nil: schema, plans and timeout_ms, then the rows one by
// one (group ids and values, aggregate bits, intervals).
func sameRequest(fast, ref compressBody) error {
	if fast.timeoutMS != ref.timeoutMS {
		return fmt.Errorf("timeout_ms %d, reference %d", fast.timeoutMS, ref.timeoutMS)
	}
	if len(fast.plans) != len(ref.plans) || (fast.plans == nil) != (ref.plans == nil) {
		return fmt.Errorf("plans %#v, reference %#v", fast.plans, ref.plans)
	}
	for i, p := range fast.plans {
		q := ref.plans[i]
		if p.Strategy != q.Strategy || p.Budget != q.Budget || p.FillAlgo != q.FillAlgo ||
			p.ReadAhead != q.ReadAhead || !sameFloats(p.Weights, q.Weights) {
			return fmt.Errorf("plan %d %#v, reference %#v", i, p, q)
		}
	}
	want, err := decodeSeries(ref.wire)
	if err != nil {
		return fmt.Errorf("reference rejects the series: %v", err)
	}
	got := fast.series
	if !reflect.DeepEqual(got.GroupAttrs, want.GroupAttrs) || !reflect.DeepEqual(got.AggNames, want.AggNames) {
		return fmt.Errorf("schema %v %q, reference %v %q", got.GroupAttrs, got.AggNames, want.GroupAttrs, want.AggNames)
	}
	if got.Groups.Len() != want.Groups.Len() || len(got.Rows) != len(want.Rows) {
		return fmt.Errorf("%d groups, %d rows; reference %d, %d",
			got.Groups.Len(), len(got.Rows), want.Groups.Len(), len(want.Rows))
	}
	for i, r := range got.Rows {
		w := want.Rows[i]
		if r.Group != w.Group || !sameDatums(got.Groups.Values(r.Group), want.Groups.Values(w.Group)) ||
			r.T != w.T || !sameFloats(r.Aggs, w.Aggs) {
			return fmt.Errorf("row %d: %v %v %v, reference %v %v %v", i,
				got.Groups.Values(r.Group), r.Aggs, r.T, want.Groups.Values(w.Group), w.Aggs, w.T)
		}
	}
	return nil
}

// sameFloats compares bit for bit, and keeps nil and empty apart.
func sameFloats(a, b []float64) bool {
	if len(a) != len(b) || (a == nil) != (b == nil) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameDatums(a, b []temporal.Datum) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind() != b[i].Kind() || a[i].Text() != b[i].Text() || a[i].IntVal() != b[i].IntVal() ||
			math.Float64bits(a[i].FloatVal()) != math.Float64bits(b[i].FloatVal()) {
			return false
		}
	}
	return true
}

// checkDecode runs both decoders over one body and fails if the fast one
// accepted something the reference decodes differently, then checks the
// memo on an accepted body (checkMemoDecode). It reports whether the fast
// decoder accepted.
func checkDecode(t *testing.T, body []byte, many bool) bool {
	t.Helper()
	fast, ok := decodeFast(body, many)
	ref, err := decodeReference(body, many)
	if !ok {
		return false
	}
	if err != nil {
		t.Fatalf("fast path accepted a body the reference rejects (%v):\n%s", err, body)
	}
	if err := sameRequest(fast, ref); err != nil {
		t.Fatalf("fast path disagrees with the reference: %v\n%s", err, body)
	}
	checkMemoDecode(t, body, fast, many)
	return true
}

func mustMarshal(t testing.TB, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// decodeCase is one body with the verdict the fast path must give it.
type decodeCase struct {
	name string
	body string
	many bool
	fast bool // accepted by decodeFast, else declined to the reference
}

// decodeCases are the bodies TestDecodeFastAcceptsAndDeclines pins and
// FuzzDecodeCompressBody starts from: the testdata request, projWire bodies
// of both shapes, and the edge cases the fast path declines.
func decodeCases(tb testing.TB) []decodeCase {
	testdata, err := os.ReadFile("testdata/compress_request.json")
	if err != nil {
		tb.Fatal(err)
	}
	proj := string(mustMarshal(tb, projWire()))
	unsorted := projWire()
	unsorted.Rows[0], unsorted.Rows[6] = unsorted.Rows[6], unsorted.Rows[0]
	plan := `"plan":{"strategy":"ptac","budget":"c=4"}`
	row := func(s string) string {
		return `{"series":{"agg_names":["v"],"rows":[` + s + `]},` + plan + `}`
	}
	grouped := func(kind, rows string) string {
		return `{"series":{"group_attrs":[{"name":"g","kind":"` + kind + `"}],"agg_names":["v"],"rows":[` +
			rows + `]},` + plan + `}`
	}
	// Groups -0 and 0 are distinct but compare equal, so no order of their
	// rows is strictly sorted. Every adjacent pair below is in order and the
	// order is valid, yet Sort's merge of its 20-row insertion blocks moves
	// the last row ahead of start 100.
	var tied []string
	tiedRow := func(group string, start int) {
		tied = append(tied, fmt.Sprintf(`{"group":[%s],"aggs":[1],"start":%d,"end":%d}`, group, start, start))
	}
	for i := 1; i <= 10; i++ {
		tiedRow("-0", i)
	}
	for i := 100; i < 109; i++ {
		tiedRow("0", i)
	}
	tiedRow("-0", 20)
	tiedRow("0", 1)
	cases := []decodeCase{
		{"testdata", string(testdata), false, true},
		{"proj", `{"series":` + proj + `,` + plan + `,"timeout_ms":100}`, false, true},
		{"many", `{"series":` + proj + `,"plans":[{"strategy":"ptac","budget":"c=4"},{"strategy":"ptae",` +
			`"budget":"eps=0.2","weights":[2],"read_ahead":3,"fill_algo":"dc"}],"timeout_ms":50}`, true, true},
		{"bench series", string(mustMarshal(tb, compressRequest{Series: benchSeriesWire(20),
			Plan: planWire{Strategy: "ptac", Budget: "c=4"}})), false, true},
		{"unsorted rows", string(mustMarshal(tb, compressRequest{Series: unsorted,
			Plan: planWire{Strategy: "ptac", Budget: "c=4"}})), false, true},
		{"empty weights", `{"series":` + proj + `,"plan":{"strategy":"ptac","budget":"c=4","weights":[]}}`, false, true},
		{"minus zero", row(`{"aggs":[-0],"start":-0,"end":0}`), false, true},
		{"spaced row keys", row("{ \"aggs\" : [ 1 ] , \"start\"\t:1,\n\"end\" :1 }"), false, true},
		{"escaped group value", grouped("string", `{"group":["A\n"],"aggs":[1],"start":1,"end":1}`), false, true},
		{"invalid utf-8 group value", grouped("string", "{\"group\":[\"a\xffb\"],\"aggs\":[1],\"start\":1,\"end\":1}"), false, true},
		{"float groups 0 and -0", grouped("float", `{"group":[0],"aggs":[1],"start":1,"end":1},`+
			`{"group":[-0],"aggs":[2],"start":1,"end":1}`), false, true},
		{"tied groups across sort blocks", grouped("float", strings.Join(tied, ",")), false, true},
		{"int64 extremes", row(`{"aggs":[1],"start":-9223372036854775808,"end":9223372036854775807}`), false, true},
		{"plans on /compress", `{"series":` + proj + `,"plans":[]}`, false, false},
		{"plan on /many", `{"series":` + proj + `,` + plan + `}`, true, false},
		{"capitalized key", `{"Series":` + proj + `,` + plan + `}`, false, false},
		{"duplicate key", `{"series":` + proj + `,` + plan + `,` + plan + `}`, false, false},
		{"duplicate series key", `{"series":{"agg_names":["v"],"agg_names":["w"],"rows":[{"aggs":[1]}]},` + plan + `}`, false, false},
		{"escaped key", `{"ser\u0069es":` + proj + `,` + plan + `}`, false, false},
		{"unknown key", `{"series":` + proj + `,` + plan + `,"extra":1}`, false, false},
		{"null", `{"series":` + proj + `,` + plan + `,"timeout_ms":null}`, false, false},
		{"null series", `{"series":null,` + plan + `}`, false, false},
		{"out of range float", row(`{"aggs":[1e400],"start":1,"end":1}`), false, false},
		{"fraction in start", row(`{"aggs":[1],"start":1.0,"end":1}`), false, false},
		{"int64 overflow", row(`{"aggs":[1],"start":9223372036854775808,"end":9223372036854775808}`), false, false},
		{"exponent in end", row(`{"aggs":[1],"start":1,"end":1e0}`), false, false},
		{"hex float", row(`{"aggs":[0x1p-2],"start":1,"end":1}`), false, false},
		{"leading zero", row(`{"aggs":[01],"start":1,"end":1}`), false, false},
		{"overlapping rows", row(`{"aggs":[1],"start":1,"end":2},{"aggs":[1],"start":2,"end":3}`), false, false},
		{"rows before schema", `{"series":{"rows":[{"aggs":[1],"start":1,"end":1}],"agg_names":["v"]},` + plan + `}`, false, false},
		{"trailing bracket", `{"series":` + proj + `,` + plan + `}]`, false, false},
		{"missing plan", `{"series":` + proj + `}`, false, false},
	}
	// Each boundary number as an aggregate, a float group value and an
	// interval: the fast path owns exactly the tokens strconv converts.
	for _, tok := range boundaryNumbers {
		_, ferr := strconv.ParseFloat(tok, 64)
		_, ierr := strconv.ParseInt(tok, 10, 64)
		cases = append(cases,
			decodeCase{"aggregate " + tok, row(`{"aggs":[` + tok + `],"start":1,"end":1}`), false, ferr == nil},
			decodeCase{"float group " + tok, grouped("float", `{"group":[`+tok+`],"aggs":[1],"start":1,"end":1}`), false, ferr == nil},
			decodeCase{"interval " + tok, row(`{"aggs":[1],"start":` + tok + `,"end":` + tok + `}`), false, ierr == nil})
	}
	return cases
}

// boundaryNumbers are number tokens at the edges of the scanner's exact
// paths: 2^53 and its neighbours, 18-, 19- and 20-digit mantissas,
// fractions with 22 and 23 leading zeros, signed zeros, 10^22 and 10^23,
// the float64 extremes, the int64 extremes and their neighbours, 2^64, a
// long fraction an exponent brings back to 1, and exponents past any body,
// one of them 2^64+5.
var boundaryNumbers = []string{
	"9007199254740991", "9007199254740992", "9007199254740993", "-9007199254740993",
	"900719925474099.3", "0.9007199254740993",
	"123456789012345678", "999999999999999999", "-999999999999999999",
	"1234567890123456789", "9999999999999999999", "12345678901234567890", "18446744073709551616",
	"1.23456789012345678", "0.1234567890123456789", "1234567890.1234567890",
	"0." + strings.Repeat("0", 21) + "1", "0." + strings.Repeat("0", 22) + "1",
	"0." + strings.Repeat("0", 21) + "12345", "-0." + strings.Repeat("0", 22) + "9",
	"-0", "-0.0", "0", "0.0", "-0e5", "0e-400",
	"1e22", "1e23", "1E+22", "-9e22", "1e-22", "1e-23", "123456789e-22", "0.5e-21",
	"4.9e-324", "5e-324", "2.2250738585072014e-308", "1.7976931348623157e308",
	"-9223372036854775808", "9223372036854775807", "9223372036854775808", "-9223372036854775809",
	"0." + strings.Repeat("0", 40) + "1e41", "1e0000000000000000000000022",
	"1e99999999999999999999", "1e-99999999999999999999", "1e18446744073709551621",
}

// checkNumber compares the scanner with strconv on one valid JSON number:
// float with ParseFloat and integer with ParseInt, by verdict, value bits
// and the cursor left just past the token.
func checkNumber(tok string) error {
	body := []byte(tok + ",")
	d := fastDecoder{b: body}
	f, ok := d.float()
	want, err := strconv.ParseFloat(tok, 64)
	if ok != (err == nil) || ok && math.Float64bits(f) != math.Float64bits(want) {
		return fmt.Errorf("float(%s) = %v, %v; ParseFloat %v, %v", tok, f, ok, want, err)
	}
	if d.i != len(tok) {
		return fmt.Errorf("float(%s) left the cursor at %d, want %d", tok, d.i, len(tok))
	}
	d = fastDecoder{b: body}
	var n int64
	ok = d.integer(&n, 64)
	wantN, err := strconv.ParseInt(tok, 10, 64)
	if ok != (err == nil) || ok && n != wantN {
		return fmt.Errorf("integer(%s) = %d, %v; ParseInt %d, %v", tok, n, ok, wantN, err)
	}
	if d.i != len(tok) {
		return fmt.Errorf("integer(%s) left the cursor at %d, want %d", tok, d.i, len(tok))
	}
	return nil
}

// randomNumber draws a valid JSON number: a sign, an integer part of up to
// 25 digits, a fraction that may start with a run of zeros, an exponent.
func randomNumber(rng *rand.Rand) string {
	var sb strings.Builder
	digits := func(n int) {
		for ; n > 0; n-- {
			sb.WriteByte(byte('0' + rng.Intn(10)))
		}
	}
	if rng.Intn(2) == 0 {
		sb.WriteByte('-')
	}
	if rng.Intn(4) == 0 {
		sb.WriteByte('0')
	} else {
		sb.WriteByte(byte('1' + rng.Intn(9)))
		digits(rng.Intn(25))
	}
	if rng.Intn(2) == 0 {
		sb.WriteByte('.')
		if rng.Intn(3) == 0 {
			sb.WriteString(strings.Repeat("0", rng.Intn(30)))
		}
		digits(1 + rng.Intn(20))
	}
	if rng.Intn(2) == 0 {
		sb.WriteString([]string{"e", "E", "e+", "e-", "E-"}[rng.Intn(5)])
		digits(1 + rng.Intn(3))
	}
	return sb.String()
}

// randomFormatted formats a float64 as strconv does for JSON: random bits,
// normal draws across 60 decades and two-decimal values, in every finite
// format and precision.
func randomFormatted(rng *rand.Rand) string {
	var f float64
	switch rng.Intn(3) {
	case 0:
		f = math.Float64frombits(rng.Uint64())
	case 1:
		f = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30))
	default:
		f = math.Round(rng.Float64()*1e8) / 100
	}
	if math.IsNaN(f) || math.IsInf(f, 0) {
		f = 0
	}
	return strconv.FormatFloat(f, "eEfgG"[rng.Intn(5)], rng.Intn(20)-1, 64)
}

// TestNumberMatchesStrconv is the number scanner's differential test: the
// boundary table, then quick.Check over FormatFloat outputs and random
// digit strings.
func TestNumberMatchesStrconv(t *testing.T) {
	for _, tok := range boundaryNumbers {
		if err := checkNumber(tok); err != nil {
			t.Error(err)
		}
	}
	for name, gen := range map[string]func(*rand.Rand) string{
		"FormatFloat": randomFormatted, "digits": randomNumber,
	} {
		check := func(seed int64) bool {
			if err := checkNumber(gen(rand.New(rand.NewSource(seed)))); err != nil {
				t.Errorf("%s: %v", name, err)
				return false
			}
			return true
		}
		if err := quick.Check(check, &quick.Config{MaxCount: 20000}); err != nil {
			t.Error(err)
		}
	}
}

// TestDecodeFastAcceptsAndDeclines pins which bodies the fast path owns;
// every body it accepts must decode exactly as the reference decodes it.
func TestDecodeFastAcceptsAndDeclines(t *testing.T) {
	for _, tc := range decodeCases(t) {
		t.Run(tc.name, func(t *testing.T) {
			if got := checkDecode(t, []byte(tc.body), tc.many); got != tc.fast {
				t.Errorf("fast path accepted = %v, want %v", got, tc.fast)
			}
		})
	}
}

// TestTrailingDataIsRejected: the reference path is as strict as
// json.Unmarshal, so closing brackets or garbage after a complete body are a
// 400 on both endpoints instead of being silently ignored.
func TestTrailingDataIsRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	one := mustMarshal(t, compressRequest{Series: projWire(), Plan: planWire{Strategy: "ptac", Budget: "c=4"}})
	many := mustMarshal(t, compressManyRequest{Series: projWire(), Plans: []planWire{{Strategy: "ptac", Budget: "c=4"}}})
	for _, ep := range []struct {
		path string
		body []byte
	}{{"/v1/compress", one}, {"/v1/compress/many", many}} {
		for _, tail := range []string{"", "}", "]", " ] garbage", "\n"} {
			body := append(append([]byte(nil), ep.body...), tail...)
			resp, err := http.Post(ts.URL+ep.path, "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			want := http.StatusBadRequest
			if strings.TrimSpace(tail) == "" {
				want = http.StatusOK
			}
			if resp.StatusCode != want {
				t.Errorf("%s with trailing %q: status %d, want %d", ep.path, tail, resp.StatusCode, want)
			}
		}
	}
}

// TestOversizeBodyIs413: a body over MaxBodyBytes is reported as too
// large, not as malformed, on both compress endpoints.
func TestOversizeBodyIs413(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 64})
	for path, body := range map[string]any{
		"/v1/compress":      compressRequest{Series: projWire(), Plan: planWire{Strategy: "ptac", Budget: "c=4"}},
		"/v1/compress/many": compressManyRequest{Series: projWire(), Plans: []planWire{{Strategy: "ptac", Budget: "c=4"}}},
	} {
		status, out := post(t, ts.URL+path, body)
		if status != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413: %v", path, status, out)
			continue
		}
		if code := errorField(t, out, "code"); code != "body_too_large" {
			t.Errorf("%s: code %v, want body_too_large", path, code)
		}
	}
}

// FuzzDecodeCompressBody fuzzes the request trust boundary over both body
// shapes. Neither decoder may panic, and whenever the fast path accepts a
// body, the reference must accept it too and decode the same request.
func FuzzDecodeCompressBody(f *testing.F) {
	for _, tc := range decodeCases(f) {
		f.Add([]byte(tc.body), false)
		f.Add([]byte(tc.body), true)
	}
	f.Fuzz(func(t *testing.T, body []byte, many bool) {
		checkDecode(t, body, many)
	})
}

// randomRequest builds a valid request of the shape dist, ptaload and
// perfbench send: groups of every kind, p = 1..4, weights, fill_algo,
// read_ahead and timeout_ms, rows in canonical order or shuffled.
func randomRequest(rng *rand.Rand, many bool) any {
	kinds := []temporal.Kind{temporal.KindString, temporal.KindInt, temporal.KindFloat}
	attrs := make([]temporal.Attribute, rng.Intn(4))
	for i := range attrs {
		attrs[i] = temporal.Attribute{Name: fmt.Sprintf("a%d", i), Kind: kinds[rng.Intn(len(kinds))]}
	}
	p := 1 + rng.Intn(4)
	names := make([]string, p)
	for i := range names {
		names[i] = fmt.Sprintf("b%d <&> \u2028", i)
	}
	strs := []string{"", "A", "b", "héllo", `q"uote\back`, "tab\tnew\nline", "<b>&amp;</b>", "sep\u2028\u2029", "日本"}
	floats := []float64{0, math.Copysign(0, -1), 0.25, -1.5e21, 1e-7, 12345.678, -3}
	s := pta.NewSeries(attrs, names)
	vals := make([]temporal.Datum, len(attrs))
	// One clock across groups: two groups drawn with equal values are one
	// group whose rows still do not overlap.
	at := int64(rng.Intn(100)) - 50
	for g := 0; g < 1+rng.Intn(4); g++ {
		for j, a := range attrs {
			switch a.Kind {
			case temporal.KindString:
				vals[j] = temporal.String(strs[rng.Intn(len(strs))])
			case temporal.KindInt:
				vals[j] = temporal.Int(rng.Int63n(1<<53) - 1<<52)
			default:
				vals[j] = temporal.Float(floats[rng.Intn(len(floats))])
			}
		}
		id := s.Groups.Intern(vals)
		for i := 0; i < 1+rng.Intn(12); i++ {
			aggs := make([]float64, p)
			for d := range aggs {
				aggs[d] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
			}
			start := at + int64(rng.Intn(3))
			at = start + int64(rng.Intn(4))
			s.Rows = append(s.Rows, pta.Row{Group: id, Aggs: aggs, T: pta.Interval{Start: start, End: at}})
			at++
		}
	}
	s.Sort()
	w := EncodeSeries(s)
	if rng.Intn(3) == 0 {
		rng.Shuffle(len(w.Rows), func(i, j int) { w.Rows[i], w.Rows[j] = w.Rows[j], w.Rows[i] })
	}
	strategies := []string{"ptac", "ptae", "gms", "gptac"}
	fills := []string{"", "auto", "pruned", "dc", "smawk", "online"}
	plan := func() planWire {
		pw := planWire{
			Strategy:  strategies[rng.Intn(len(strategies))],
			Budget:    fmt.Sprintf("c=%d", 1+rng.Intn(10)),
			FillAlgo:  fills[rng.Intn(len(fills))],
			ReadAhead: rng.Intn(5) - 1,
		}
		if rng.Intn(2) == 0 {
			pw.Budget = fmt.Sprintf("eps=%g", rng.Float64())
		}
		if rng.Intn(2) == 0 {
			pw.Weights = make([]float64, p)
			for i := range pw.Weights {
				pw.Weights[i] = rng.ExpFloat64()
			}
		}
		return pw
	}
	timeout := int64(0)
	if rng.Intn(2) == 0 {
		timeout = rng.Int63()
	}
	if !many {
		return compressRequest{Series: w, Plan: plan(), TimeoutMS: timeout}
	}
	plans := make([]planWire, 1+rng.Intn(4))
	for i := range plans {
		plans[i] = plan()
	}
	return compressManyRequest{Series: w, Plans: plans, TimeoutMS: timeout}
}

// TestFastDecodeCoversMarshalledBodies: every body json.Marshal makes from a
// valid request takes the fast path, and decodes as the reference decodes it.
func TestFastDecodeCoversMarshalledBodies(t *testing.T) {
	check := func(seed int64, many bool) bool {
		body := mustMarshal(t, randomRequest(rand.New(rand.NewSource(seed)), many))
		if !checkDecode(t, body, many) {
			t.Logf("fast path declined:\n%s", body)
			return false
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// groupedBody is an n-row /v1/compress body over four string groups and two
// aggregates, rows in canonical order, the shape a dist shard request has.
func groupedBody(tb testing.TB, n int) []byte {
	attrs := []temporal.Attribute{{Name: "tenant", Kind: temporal.KindString}}
	s := pta.NewSeries(attrs, []string{"v1", "v2"})
	for g := 0; g < 4; g++ {
		id := s.Groups.Intern([]temporal.Datum{temporal.String(fmt.Sprintf("tenant-%d", g))})
		for i := 0; i < n/4; i++ {
			s.Rows = append(s.Rows, pta.Row{
				Group: id,
				Aggs:  []float64{float64(i%17) + 0.25*float64(i%5), float64(i) * 1.5},
				T:     pta.Interval{Start: pta.Chronon(i * 2), End: pta.Chronon(i*2 + 1)},
			})
		}
	}
	return mustMarshal(tb, compressRequest{
		Series: EncodeSeries(s),
		Plan:   planWire{Strategy: "ptac", Budget: "c=24", Weights: []float64{1, 2}},
	})
}

// workloadBody is a serve workload's /v1/compress body: a single-group,
// p = 1 series of n rows drawn by gen (dataset.Mixed or dataset.Counter),
// as json.Marshal writes it.
func workloadBody(tb testing.TB, gen func(groups, perGroup, p int, seed int64) (*pta.Series, error), n int) []byte {
	s, err := gen(1, n, 1, 7)
	if err != nil {
		tb.Fatal(err)
	}
	return mustMarshal(tb, compressRequest{
		Series: EncodeSeries(s),
		Plan:   planWire{Strategy: "ptac", Budget: fmt.Sprintf("c=%d", n/10)},
	})
}

// TestDecodeFallbackCount counts tokens instead of timing them: the
// two-decimal values of the Mixed and Counter series the serve workloads
// send all take the scanner's exact paths, while a body of full-precision
// values falls back to strconv for some tokens and still decodes as the
// reference does.
func TestDecodeFallbackCount(t *testing.T) {
	gens := map[string]func(int, int, int, int64) (*pta.Series, error){
		"Mixed": dataset.Mixed, "Counter": dataset.Counter,
	}
	for name, gen := range gens {
		d := fastDecoder{b: workloadBody(t, gen, 2048)}
		if _, ok := d.request(false); !ok {
			t.Fatalf("%s: fast path declined", name)
		}
		if d.fallbacks != 0 {
			t.Errorf("%s: %d tokens fell back to strconv, want 0", name, d.fallbacks)
		}
	}
	body := mustMarshal(t, randomRequest(rand.New(rand.NewSource(1)), false))
	d := fastDecoder{b: body}
	if _, ok := d.request(false); !ok || d.fallbacks == 0 {
		t.Errorf("full-precision body: accepted %v with %d fallbacks, want accepted with some", ok, d.fallbacks)
	}
	if !checkDecode(t, body, false) {
		t.Error("fast path declined the full-precision body")
	}
}

// TestDecodeAllocCeiling gates the fast path's allocations: a fixed number
// per request and per distinct group, none per row, so sixteen times the
// rows costs no more (47 with Go 1.24 at both sizes, against about 4 000
// and 66 000 on the reference path).
func TestDecodeAllocCeiling(t *testing.T) {
	const ceiling = 52
	for _, n := range []int{512, 8192} {
		body := groupedBody(t, n)
		allocs := testing.AllocsPerRun(20, func() {
			if _, ok := decodeFast(body, false); !ok {
				t.Fatal("fast path declined")
			}
		})
		t.Logf("n=%d: %.0f allocs", n, allocs)
		if allocs > ceiling {
			t.Errorf("n=%d: %.0f allocs per decode, ceiling %d", n, allocs, ceiling)
		}
	}
}

// TestDecodeMemoryBoundedByBody: the fast path sizes its row and aggregate
// buffers before it reads a row, so a body with many aggregate names and a
// long run of '{' must be declined without allocating more than a small
// multiple of its own size. Sizing the slab by one aggregate per row would
// take about 67 MB here, and grows with the square of the body.
func TestDecodeMemoryBoundedByBody(t *testing.T) {
	body := []byte(`{"series":{"agg_names":[""` + strings.Repeat(`,""`, 999) +
		`],"rows":[` + strings.Repeat("{", 100_000))
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	_, ok := decodeFast(body, false)
	runtime.ReadMemStats(&after)
	if ok {
		t.Fatal("fast path accepted a malformed body")
	}
	const factor = 8
	if got := after.TotalAlloc - before.TotalAlloc; got > factor*uint64(len(body)) {
		t.Errorf("declining a %d-byte body allocated %d bytes, over %d times its size", len(body), got, factor)
	}
}

// TestDecodedFingerprintGolden pins the fingerprint of the decoded testdata
// request, which is the paper's running example: spill file names and
// /v1/matrix/{hash} addresses derive from it.
func TestDecodedFingerprintGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/compress_request.json")
	if err != nil {
		t.Fatal(err)
	}
	req, ok := decodeFast(raw, false)
	if !ok {
		t.Fatal("fast path declined the testdata request")
	}
	const want = "adfbfa4c3ec63670d8b82ae5555aa0d4acb95c389a9cc34a83d2a949af97608e"
	if got := pta.Fingerprint(req.series); got != want {
		t.Errorf("fingerprint %s, want %s", got, want)
	}
}

// BenchmarkDecodeRequest is the decode rung of the per-layer ladder: one
// /v1/compress body through the fast path and through the reference
// (encoding/json + decodeSeries). The bodies are grouped ones of n rows and
// the serve_hot request: one Mixed group, p = 1, n = 2048. Its memo case is
// what a resent serve_hot body costs: the compare against the resident
// series bytes and the plan.
func BenchmarkDecodeRequest(b *testing.B) {
	mixed := workloadBody(b, dataset.Mixed, 2048)
	req, ok := decodeFast(mixed, false)
	if !ok {
		b.Fatal("fast path declined")
	}
	memo := memoHolding(req)
	bodies := []struct {
		name string
		body []byte
	}{
		{"n=512", groupedBody(b, 512)},
		{"n=8192", groupedBody(b, 8192)},
		{"mixed/n=2048", mixed},
	}
	for _, bc := range bodies {
		body := bc.body
		b.Run(bc.name+"/fast", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				if _, ok := decodeFast(body, false); !ok {
					b.Fatal("fast path declined")
				}
			}
		})
		b.Run(bc.name+"/reference", func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				req, err := decodeReference(body, false)
				if err == nil {
					_, err = req.Series()
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("mixed/n=2048/memo", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(mixed)))
		for i := 0; i < b.N; i++ {
			d := fastDecoder{b: mixed, memo: memo}
			if req, ok := d.request(false); !ok || req.rec == nil {
				b.Fatal("memo missed")
			}
		}
	})
}
