package ita

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/temporal"
)

// projRelation builds the running-example relation of Fig. 1(a).
func projRelation() *temporal.Relation {
	s := temporal.MustSchema(
		temporal.Attribute{Name: "Empl", Kind: temporal.KindString},
		temporal.Attribute{Name: "Proj", Kind: temporal.KindString},
		temporal.Attribute{Name: "Sal", Kind: temporal.KindFloat},
	)
	r := temporal.NewRelation(s)
	r.MustAppend([]temporal.Datum{temporal.String("John"), temporal.String("A"), temporal.Float(800)}, temporal.Interval{Start: 1, End: 4})
	r.MustAppend([]temporal.Datum{temporal.String("Ann"), temporal.String("A"), temporal.Float(400)}, temporal.Interval{Start: 3, End: 6})
	r.MustAppend([]temporal.Datum{temporal.String("Tom"), temporal.String("A"), temporal.Float(300)}, temporal.Interval{Start: 4, End: 7})
	r.MustAppend([]temporal.Datum{temporal.String("John"), temporal.String("B"), temporal.Float(500)}, temporal.Interval{Start: 4, End: 5})
	r.MustAppend([]temporal.Datum{temporal.String("John"), temporal.String("B"), temporal.Float(500)}, temporal.Interval{Start: 7, End: 8})
	return r
}

func avgSalQuery() Query {
	return Query{
		GroupBy: []string{"Proj"},
		Aggs:    []AggSpec{{Func: Avg, Attr: "Sal", As: "AvgSal"}},
	}
}

// TestEvalFigure1c checks the ITA result of the running example against
// Fig. 1(c) tuple by tuple.
func TestEvalFigure1c(t *testing.T) {
	got, err := Eval(projRelation(), avgSalQuery())
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	type want struct {
		proj string
		avg  float64
		iv   temporal.Interval
	}
	wants := []want{
		{"A", 800, temporal.Interval{Start: 1, End: 2}},
		{"A", 600, temporal.Interval{Start: 3, End: 3}},
		{"A", 500, temporal.Interval{Start: 4, End: 4}},
		{"A", 350, temporal.Interval{Start: 5, End: 6}},
		{"A", 300, temporal.Interval{Start: 7, End: 7}},
		{"B", 500, temporal.Interval{Start: 4, End: 5}},
		{"B", 500, temporal.Interval{Start: 7, End: 8}},
	}
	if got.Len() != len(wants) {
		t.Fatalf("ITA result has %d rows, want %d:\n%v", got.Len(), len(wants), got)
	}
	for i, w := range wants {
		r := got.Rows[i]
		if g := got.Groups.Values(r.Group)[0].Text(); g != w.proj {
			t.Errorf("row %d group = %q, want %q", i, g, w.proj)
		}
		if math.Abs(r.Aggs[0]-w.avg) > 1e-9 {
			t.Errorf("row %d avg = %v, want %v", i, r.Aggs[0], w.avg)
		}
		if r.T != w.iv {
			t.Errorf("row %d interval = %v, want %v", i, r.T, w.iv)
		}
	}
	if err := got.Validate(); err != nil {
		t.Errorf("result is not a valid sequential relation: %v", err)
	}
	if got.CMin() != 3 {
		t.Errorf("CMin = %d, want 3", got.CMin())
	}
	if got.AggNames[0] != "AvgSal" || got.GroupAttrs[0].Name != "Proj" {
		t.Errorf("result metadata wrong: %v %v", got.AggNames, got.GroupAttrs)
	}
}

func TestEvalMultipleAggregates(t *testing.T) {
	q := Query{
		GroupBy: []string{"Proj"},
		Aggs: []AggSpec{
			{Func: Min, Attr: "Sal"},
			{Func: Max, Attr: "Sal"},
			{Func: Sum, Attr: "Sal"},
			{Func: Count},
		},
	}
	got, err := Eval(projRelation(), q)
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	// Group A at month 4 holds {800, 400, 300}.
	var at4 *temporal.SeqRow
	for i := range got.Rows {
		r := &got.Rows[i]
		if got.Groups.Values(r.Group)[0].Text() == "A" && r.T.Start <= 4 && 4 <= r.T.End {
			at4 = r
			break
		}
	}
	if at4 == nil {
		t.Fatal("no group-A row containing month 4")
	}
	if at4.Aggs[0] != 300 || at4.Aggs[1] != 800 || at4.Aggs[2] != 1500 || at4.Aggs[3] != 3 {
		t.Errorf("month-4 aggregates = %v, want [300 800 1500 3]", at4.Aggs)
	}
	if err := got.Validate(); err != nil {
		t.Errorf("invalid result: %v", err)
	}
}

func TestEvalNoGrouping(t *testing.T) {
	q := Query{Aggs: []AggSpec{{Func: Sum, Attr: "Sal"}}}
	got, err := Eval(projRelation(), q)
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	// Month 1-2: 800; month 3: 800+400; month 4: 800+400+300+500;
	// month 5: 400+300+500; month 6: 400+300; month 7: 300+500; month 8: 500.
	wantVals := []float64{800, 1200, 2000, 1200, 700, 800, 500}
	wantIvs := []temporal.Interval{{Start: 1, End: 2}, {Start: 3, End: 3}, {Start: 4, End: 4},
		{Start: 5, End: 5}, {Start: 6, End: 6}, {Start: 7, End: 7}, {Start: 8, End: 8}}
	if got.Len() != len(wantVals) {
		t.Fatalf("rows = %d, want %d:\n%v", got.Len(), len(wantVals), got)
	}
	for i := range wantVals {
		if got.Rows[i].Aggs[0] != wantVals[i] || got.Rows[i].T != wantIvs[i] {
			t.Errorf("row %d = %v %v, want %v %v", i, got.Rows[i].Aggs[0], got.Rows[i].T, wantVals[i], wantIvs[i])
		}
	}
	if got.Groups.Len() != 1 {
		t.Errorf("expected a single implicit group, got %d", got.Groups.Len())
	}
}

func TestEvalEmptyRelation(t *testing.T) {
	r := temporal.NewRelation(temporal.MustSchema(temporal.Attribute{Name: "v", Kind: temporal.KindFloat}))
	got, err := Eval(r, Query{Aggs: []AggSpec{{Func: Avg, Attr: "v"}}})
	if err != nil {
		t.Fatalf("Eval: %v", err)
	}
	if got.Len() != 0 {
		t.Errorf("expected empty result, got %d rows", got.Len())
	}
}

func TestQueryValidation(t *testing.T) {
	r := projRelation()
	cases := []Query{
		{}, // no aggregates
		{Aggs: []AggSpec{{Func: Avg, Attr: "Nope"}}},                          // unknown attribute
		{Aggs: []AggSpec{{Func: Avg, Attr: "Empl"}}},                          // non-numeric attribute
		{Aggs: []AggSpec{{Func: Avg}}},                                        // avg without attribute
		{GroupBy: []string{"Nope"}, Aggs: []AggSpec{{Func: Count}}},           // unknown group
		{Aggs: []AggSpec{{Func: Avg, Attr: "Sal"}, {Func: Avg, Attr: "Sal"}}}, // duplicate name
	}
	for i, q := range cases {
		if _, err := Eval(r, q); err == nil {
			t.Errorf("case %d: expected error for %+v", i, q)
		}
	}
}

func TestFuncStringParse(t *testing.T) {
	for _, f := range []Func{Avg, Sum, Count, Min, Max} {
		got, err := ParseFunc(f.String())
		if err != nil || got != f {
			t.Errorf("ParseFunc(%v) = %v, %v", f.String(), got, err)
		}
	}
	if _, err := ParseFunc("median"); err == nil {
		t.Error("ParseFunc(median) should fail")
	}
}

func TestAggSpecName(t *testing.T) {
	if (AggSpec{Func: Avg, Attr: "Sal"}).Name() != "avg_Sal" {
		t.Error("default name wrong")
	}
	if (AggSpec{Func: Count}).Name() != "count" {
		t.Error("count default name wrong")
	}
	if (AggSpec{Func: Avg, Attr: "Sal", As: "x"}).Name() != "x" {
		t.Error("explicit name not honored")
	}
}

func TestIteratorMatchesEval(t *testing.T) {
	it, err := NewIterator(projRelation(), avgSalQuery())
	if err != nil {
		t.Fatalf("NewIterator: %v", err)
	}
	batch, _ := Eval(projRelation(), avgSalQuery())
	var i int
	for {
		row, ok := it.Next()
		if !ok {
			break
		}
		if i >= batch.Len() {
			t.Fatal("iterator yields more rows than Eval")
		}
		want := batch.Rows[i]
		if row.T != want.T || row.Group != want.Group || !floatsEqual(row.Aggs, want.Aggs) {
			t.Errorf("row %d = %+v, want %+v", i, row, want)
		}
		i++
	}
	if i != batch.Len() {
		t.Errorf("iterator yielded %d rows, Eval %d", i, batch.Len())
	}
	if p := it.Sequence().P(); p != 1 {
		t.Errorf("Sequence().P() = %d", p)
	}
}

// bruteForceITA evaluates the query instant by instant with fresh
// aggregations — the semantics of Definition 1 stated directly.
func bruteForceITA(t *testing.T, r *temporal.Relation, q Query) *temporal.Sequence {
	t.Helper()
	c, err := compile(r.Schema(), q)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	meta := c.resultMeta(r.Schema())
	span, ok := r.TimeSpan()
	if !ok {
		return meta
	}
	gvbuf := make([]temporal.Datum, len(c.groupIdx))
	for i := 0; i < r.Len(); i++ {
		tp := r.Tuple(i)
		for gi, idx := range c.groupIdx {
			gvbuf[gi] = tp.Vals[idx]
		}
		meta.Groups.Intern(gvbuf)
	}
	type instantRow struct {
		group int32
		aggs  []float64
	}
	var rows []temporal.SeqRow
	emit := func(group int32, aggs []float64, at temporal.Chronon) {
		n := len(rows)
		if n > 0 && rows[n-1].Group == group && rows[n-1].T.End+1 == at && floatsEqual(rows[n-1].Aggs, aggs) {
			rows[n-1].T.End = at
			return
		}
		rows = append(rows, temporal.SeqRow{Group: group, Aggs: append([]float64(nil), aggs...), T: temporal.Inst(at)})
	}
	for _, gid := range meta.Groups.SortedIDs() {
		gvals := meta.Groups.Values(gid)
		for at := span.Start; at <= span.End; at++ {
			var members []temporal.Tuple
			for i := 0; i < r.Len(); i++ {
				tp := r.Tuple(i)
				if at < tp.T.Start || at > tp.T.End {
					continue
				}
				match := true
				for gi, idx := range c.groupIdx {
					if !tp.Vals[idx].Equal(gvals[gi]) {
						match = false
						break
					}
				}
				if match {
					members = append(members, tp)
				}
			}
			if len(members) == 0 {
				continue
			}
			aggs := make([]float64, len(c.specs))
			for d, spec := range c.specs {
				var vals []float64
				for _, m := range members {
					if c.attrIdx[d] >= 0 {
						v, _ := m.Vals[c.attrIdx[d]].Numeric()
						vals = append(vals, v)
					} else {
						vals = append(vals, 0)
					}
				}
				switch spec.Func {
				case Count:
					aggs[d] = float64(len(vals))
				case Sum:
					for _, v := range vals {
						aggs[d] += v
					}
				case Avg:
					for _, v := range vals {
						aggs[d] += v
					}
					aggs[d] /= float64(len(vals))
				case Min:
					aggs[d] = vals[0]
					for _, v := range vals[1:] {
						aggs[d] = math.Min(aggs[d], v)
					}
				case Max:
					aggs[d] = vals[0]
					for _, v := range vals[1:] {
						aggs[d] = math.Max(aggs[d], v)
					}
				}
			}
			emit(gid, aggs, at)
		}
	}
	meta.Rows = rows
	_ = instantRow{}
	return meta
}

// TestEvalPropMatchesBruteForce cross-checks the sweep against the
// instant-by-instant semantics on random relations with integer values
// (exact float arithmetic, so results must agree to the bit).
func TestEvalPropMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		schema := temporal.MustSchema(
			temporal.Attribute{Name: "g", Kind: temporal.KindString},
			temporal.Attribute{Name: "v", Kind: temporal.KindInt},
		)
		r := temporal.NewRelation(schema)
		n := 1 + rng.Intn(14)
		for i := 0; i < n; i++ {
			start := temporal.Chronon(rng.Intn(16))
			r.MustAppend([]temporal.Datum{
				temporal.String(string(rune('A' + rng.Intn(2)))),
				temporal.Int(int64(rng.Intn(8)) * 4), // multiples keep avg of ≤4 values exact often; equality still exact as both sides divide identically
			}, temporal.Interval{Start: start, End: start + temporal.Chronon(rng.Intn(5))})
		}
		q := Query{
			GroupBy: []string{"g"},
			Aggs: []AggSpec{
				{Func: Sum, Attr: "v"},
				{Func: Count},
				{Func: Min, Attr: "v"},
				{Func: Max, Attr: "v"},
			},
		}
		got, err := Eval(r, q)
		if err != nil {
			return false
		}
		want := bruteForceITA(t, r, q)
		return got.Equal(want, 0) && got.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestEvalPropResultBounded checks the classic bound |ITA(r)| ≤ 2n − 1 per
// aggregation group partition (Section 3).
func TestEvalPropResultBounded(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		schema := temporal.MustSchema(temporal.Attribute{Name: "v", Kind: temporal.KindInt})
		r := temporal.NewRelation(schema)
		n := 1 + rng.Intn(20)
		for i := 0; i < n; i++ {
			start := temporal.Chronon(rng.Intn(30))
			r.MustAppend([]temporal.Datum{temporal.Int(int64(rng.Intn(100)))},
				temporal.Interval{Start: start, End: start + temporal.Chronon(rng.Intn(8))})
		}
		got, err := Eval(r, Query{Aggs: []AggSpec{{Func: Sum, Attr: "v"}}})
		return err == nil && got.Len() <= 2*n-1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func BenchmarkEvalSweep(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	schema := temporal.MustSchema(
		temporal.Attribute{Name: "g", Kind: temporal.KindInt},
		temporal.Attribute{Name: "v", Kind: temporal.KindFloat},
	)
	r := temporal.NewRelation(schema)
	for i := 0; i < 20000; i++ {
		start := temporal.Chronon(rng.Intn(50000))
		r.MustAppend([]temporal.Datum{
			temporal.Int(int64(rng.Intn(10))),
			temporal.Float(rng.Float64() * 1000),
		}, temporal.Interval{Start: start, End: start + temporal.Chronon(rng.Intn(100))})
	}
	q := Query{GroupBy: []string{"g"}, Aggs: []AggSpec{{Func: Avg, Attr: "v"}, {Func: Max, Attr: "v"}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Eval(r, q); err != nil {
			b.Fatal(err)
		}
	}
}
