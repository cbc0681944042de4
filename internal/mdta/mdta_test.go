package mdta

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/ita"
	"repro/internal/sta"
	"repro/internal/temporal"
)

func projRelation() *temporal.Relation {
	s := temporal.MustSchema(
		temporal.Attribute{Name: "Empl", Kind: temporal.KindString},
		temporal.Attribute{Name: "Proj", Kind: temporal.KindString},
		temporal.Attribute{Name: "Sal", Kind: temporal.KindFloat},
	)
	r := temporal.NewRelation(s)
	add := func(e, p string, sal float64, a, b temporal.Chronon) {
		r.MustAppend([]temporal.Datum{temporal.String(e), temporal.String(p), temporal.Float(sal)},
			temporal.Interval{Start: a, End: b})
	}
	add("John", "A", 800, 1, 4)
	add("Ann", "A", 400, 3, 6)
	add("Tom", "A", 300, 4, 7)
	add("John", "B", 500, 4, 5)
	add("John", "B", 500, 7, 8)
	return r
}

func avgQuery() Query {
	return Query{GroupBy: []string{"Proj"}, Aggs: []ita.AggSpec{{Func: ita.Avg, Attr: "Sal", As: "AvgSal"}}}
}

// TestMDTASubsumesSTA: span specs reproduce the STA result exactly.
func TestMDTASubsumesSTA(t *testing.T) {
	r := projRelation()
	spans, _ := sta.Spans(1, 8, 4)
	combos, err := ValueCombos(r, []string{"Proj"})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Eval(r, avgQuery(), SpanSpecs(combos, spans))
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	want, err := sta.Eval(r, ita.Query{GroupBy: []string{"Proj"}, Aggs: avgQuery().Aggs}, spans)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want, 1e-9) {
		t.Errorf("MDTA span specs differ from STA:\n%v\nvs\n%v", got, want)
	}
}

// InstantSpecs builds one group spec per (value combination, instant) over
// the span — the decomposition whose coalesced evaluation is ITA.
func InstantSpecs(valueCombos [][]temporal.Datum, span temporal.Interval) []GroupSpec {
	var out []GroupSpec
	for _, vals := range valueCombos {
		for t := span.Start; t <= span.End; t++ {
			out = append(out, GroupSpec{Vals: vals, T: temporal.Inst(t)})
		}
	}
	return out
}

// TestMDTASubsumesITA: instant specs plus coalescing reproduce ITA.
func TestMDTASubsumesITA(t *testing.T) {
	r := projRelation()
	combos, err := ValueCombos(r, []string{"Proj"})
	if err != nil {
		t.Fatal(err)
	}
	span, _ := r.TimeSpan()
	raw, err := Eval(r, avgQuery(), InstantSpecs(combos, span))
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	// Coalesce value-equivalent instants, as ITA's final step does.
	coalesced := raw.WithRows(nil)
	for _, row := range raw.Rows {
		n := len(coalesced.Rows)
		if n > 0 {
			last := &coalesced.Rows[n-1]
			if last.Group == row.Group && last.T.End+1 == row.T.Start && last.Aggs[0] == row.Aggs[0] {
				last.T.End = row.T.End
				continue
			}
		}
		coalesced.Rows = append(coalesced.Rows, row.CloneAggs())
	}
	want, err := ita.Eval(r, ita.Query{GroupBy: []string{"Proj"}, Aggs: avgQuery().Aggs})
	if err != nil {
		t.Fatal(err)
	}
	if !coalesced.Equal(want, 1e-9) {
		t.Errorf("MDTA instant specs + coalescing differ from ITA:\n%v\nvs\n%v", coalesced, want)
	}
}

// TestMDTAWildcardGroups: a nil-Vals spec aggregates across every value
// combination, which ITA/STA cannot express.
func TestMDTAWildcardGroups(t *testing.T) {
	r := projRelation()
	specs := []GroupSpec{{Vals: nil, T: temporal.Interval{Start: 1, End: 8}}}
	got, err := Eval(r, avgQuery(), specs)
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if got.Len() != 1 {
		t.Fatalf("rows = %d, want 1", got.Len())
	}
	// avg over all five tuples: (800+400+300+500+500)/5 = 500.
	if math.Abs(got.Rows[0].Aggs[0]-500) > 1e-9 {
		t.Errorf("wildcard avg = %v, want 500", got.Rows[0].Aggs[0])
	}
}

// TestMDTAOverlappingSpecs: result groups may overlap in time — a shape no
// previous operator produces.
func TestMDTAOverlappingSpecs(t *testing.T) {
	r := projRelation()
	a := []temporal.Datum{temporal.String("A")}
	specs := []GroupSpec{
		{Vals: a, T: temporal.Interval{Start: 1, End: 5}},
		{Vals: a, T: temporal.Interval{Start: 3, End: 8}},
	}
	got, err := Eval(r, avgQuery(), specs)
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if got.Len() != 2 {
		t.Fatalf("rows = %d, want 2", got.Len())
	}
	if got.Rows[0].T.Overlaps(got.Rows[1].T) == false {
		t.Error("expected overlapping result timestamps")
	}
}

func TestMDTAValidation(t *testing.T) {
	r := projRelation()
	if _, err := Eval(r, Query{}, nil); err == nil {
		t.Error("no aggregates should fail")
	}
	bad := Query{GroupBy: []string{"Nope"}, Aggs: avgQuery().Aggs}
	if _, err := Eval(r, bad, nil); err == nil {
		t.Error("unknown grouping attribute should fail")
	}
	if _, err := Eval(r, avgQuery(), []GroupSpec{{T: temporal.Interval{Start: 5, End: 1}}}); err == nil {
		t.Error("invalid spec interval should fail")
	}
	if _, err := Eval(r, avgQuery(), []GroupSpec{
		{Vals: []temporal.Datum{temporal.String("A"), temporal.String("x")}, T: temporal.Inst(1)},
	}); err == nil {
		t.Error("arity-mismatched spec values should fail")
	}
	dupe := Query{GroupBy: []string{"Proj"}, Aggs: []ita.AggSpec{
		{Func: ita.Avg, Attr: "Sal"}, {Func: ita.Avg, Attr: "Sal"},
	}}
	if _, err := Eval(r, dupe, nil); err == nil {
		t.Error("duplicate output names should fail")
	}
	nonNum := Query{Aggs: []ita.AggSpec{{Func: ita.Avg, Attr: "Empl"}}}
	if _, err := Eval(r, nonNum, nil); err == nil {
		t.Error("non-numeric aggregate should fail")
	}
}

// TestMDTAPropSubsumesSTA cross-checks MDTA against STA on random relations
// and random span widths.
func TestMDTAPropSubsumesSTA(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		schema := temporal.MustSchema(
			temporal.Attribute{Name: "g", Kind: temporal.KindString},
			temporal.Attribute{Name: "v", Kind: temporal.KindInt},
		)
		r := temporal.NewRelation(schema)
		for i := 0; i < 1+rng.Intn(15); i++ {
			start := temporal.Chronon(rng.Intn(20))
			r.MustAppend([]temporal.Datum{
				temporal.String(string(rune('A' + rng.Intn(2)))),
				temporal.Int(int64(rng.Intn(100))),
			}, temporal.Interval{Start: start, End: start + temporal.Chronon(rng.Intn(6))})
		}
		span, _ := r.TimeSpan()
		width := int64(1 + rng.Intn(6))
		spans, err := sta.Spans(span.Start, span.End, width)
		if err != nil {
			return false
		}
		q := Query{GroupBy: []string{"g"}, Aggs: []ita.AggSpec{
			{Func: ita.Sum, Attr: "v"}, {Func: ita.Count}, {Func: ita.Min, Attr: "v"}, {Func: ita.Max, Attr: "v"},
		}}
		combos, err := ValueCombos(r, []string{"g"})
		if err != nil {
			return false
		}
		got, err1 := Eval(r, q, SpanSpecs(combos, spans))
		want, err2 := sta.Eval(r, ita.Query{GroupBy: q.GroupBy, Aggs: q.Aggs}, spans)
		if err1 != nil || err2 != nil {
			return false
		}
		return got.Equal(want, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
