package main

import (
	"math"
	"testing"
	"time"

	"repro/pta"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	sorted := make([]float64, 100)
	for i := range sorted {
		sorted[i] = float64(i + 1)
	}
	cases := []struct {
		q      float64
		want   float64
		beyond int
		ok     bool
	}{
		{0.50, 50, 50, true},
		{0.90, 90, 10, true},
		{0.91, 91, 9, false}, // nine samples behind it: not a tail
		{0.99, 99, 1, false},
		{1.00, 100, 0, false},
	}
	for _, c := range cases {
		v, beyond, ok := percentile(sorted, c.q)
		if v != c.want || beyond != c.beyond || ok != c.ok {
			t.Errorf("q=%v: got (%v, %d, %v), want (%v, %d, %v)", c.q, v, beyond, ok, c.want, c.beyond, c.ok)
		}
	}
	if _, _, ok := percentile(sorted[:19], 0.5); ok {
		t.Error("median of 19 samples has only 9 beyond it, want refused")
	}
	if _, _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported")
	}
}

func TestSummarizeP99OnlyWithThousandSamples(t *testing.T) {
	lat := make([]time.Duration, 999)
	for i := range lat {
		lat[i] = time.Duration(i+1) * time.Millisecond
	}
	s, err := summarize(lat)
	if err != nil || !s.hasP90 || s.hasP99 || s.n != 999 {
		t.Fatalf("999 samples: %+v, %v; want p90 but no p99", s, err)
	}
	s, err = summarize(append(lat, time.Second))
	if err != nil || !s.hasP99 || s.p99 != 990 {
		t.Fatalf("1000 samples: %+v, %v; want p99 = 990 ms", s, err)
	}
}

func at(ms float64) time.Time {
	return time.Unix(0, 0).Add(time.Duration(ms * float64(time.Millisecond)))
}

func TestAccountSelfTimes(t *testing.T) {
	// Two ops. Op 1: a 10 ms round trip around an 8 ms handler whose
	// fingerprint took 1 ms and whose restore took 5 ms, 4 of them in a
	// core call under it. Op 2: 6 ms around a 5 ms handler, with no children.
	spans := []span{
		{Name: "client.op", Op: 1, Start: at(0), End: at(10), Weight: 1},
		{Name: "serve.handler", Op: 1, Parent: "client.op", Start: at(1), End: at(9), Weight: 1},
		{Name: "pta.fingerprint", Op: 1, Parent: "serve.handler", Start: at(1), End: at(2), Weight: 1},
		{Name: "pta.restore", Op: 1, Parent: "serve.handler", Start: at(2), End: at(7), Weight: 1},
		{Name: "core.dp", Op: 1, Parent: "pta.restore", Start: at(2), End: at(6), Weight: 1},
		{Name: "client.op", Op: 2, Start: at(20), End: at(26), Weight: 1},
		{Name: "serve.handler", Op: 2, Parent: "client.op", Start: at(20.5), End: at(25.5), Weight: 1},
	}
	b := account(spans, "client.op", 2)
	want := map[string]float64{
		"client": (2 + 1) / 2.0, // 10-8 and 6-5
		"serve":  (8 - 1 - 5 + 5) / 2.0,
		"pta":    (1 + 5 - 4) / 2.0, // fingerprint + restore minus its core call
		"core":   4 / 2.0,
	}
	for l, v := range want {
		if math.Abs(b.layers[l]-v) > 1e-9 {
			t.Errorf("layer %s: %v ms per op, want %v", l, b.layers[l], v)
		}
	}
	if b.opMS != 8 || b.reconcileErr() > 1e-12 {
		t.Errorf("op %v ms, reconcile error %v; want 8 ms and 0", b.opMS, b.reconcileErr())
	}
}

func TestAccountWeightsReplays(t *testing.T) {
	// Four 4 ms ops; one 2 ms replay stands for the four calls the ops
	// made, so the handler keeps 4 - 2 ms of its own per op.
	tr := &tracer{}
	for op := int64(1); op <= 4; op++ {
		tr.add(span{Name: "client.op", Op: op, Start: at(0), End: at(4)})
		tr.add(span{Name: "serve.handler", Op: op, Parent: "client.op", Start: at(0), End: at(4)})
	}
	tr.add(span{Name: "pta.restore", Parent: "serve.handler", Start: at(0), End: at(2)})
	tr.scale("pta.restore", 4)
	b := account(tr.spans, "client.op", 4)
	if b.total["pta.restore"] != 2 || b.layers["serve"] != 2 || b.layers["client"] != 0 {
		t.Fatalf("totals %v layers %v; want restore 2, serve 2, client 0", b.total, b.layers)
	}
	// A replay longer than its parent leaves a negative self time, which
	// the clamped sum exposes.
	tr.scale("pta.restore", 12)
	b = account(tr.spans, "client.op", 4)
	if got := b.reconcileErr(); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("reconcile error %v, want 0.5 (6 ms of layers against a 4 ms op)", got)
	}
}

func TestWorkTrackerFlagsExtensionsCalledHits(t *testing.T) {
	tr := newWorkTracker()
	full := dpWork{Cells: 400, InnerIters: 4000, EnvelopeSkips: 10}
	steps := []struct {
		cache    string
		st       dpWork
		work     int64
		extended bool
	}{
		{"miss", full, 400, false},                               // cold fill
		{"hit", full, 0, false},                                  // a true hit
		{"hit", dpWork{Cells: 750, InnerIters: 7000}, 350, true}, // a deeper plan extended the set
		{"hit", dpWork{}, 0, false},                              // restored from spill: stats restart at 0
		{"hit", dpWork{Cells: 350, InnerIters: 3000}, 350, true}, // the restored set extended
		{"hit", dpWork{Cells: 300}, 300, true},                   // shrank yet non-zero: rebuilt and extended
		{"miss", full, 400, false},                               // cold rebuild
	}
	for i, s := range steps {
		work, ext := tr.observe(7, s.cache, s.st)
		if work.Cells != s.work || ext != s.extended {
			t.Errorf("step %d: work %d extended %v, want %d %v", i, work.Cells, ext, s.work, s.extended)
		}
	}
	if work, _ := tr.observe(8, "hit", full); work.Cells != 400 {
		t.Errorf("first sight of a key: work %d, want its full stats", work.Cells)
	}
}

func TestParseHeadHashIgnoresDisposition(t *testing.T) {
	a := []byte(`{"strategy":"ptac","budget":"c=2","c":2,"error":1.5,"cache":"miss","stats":{"cells":9},"rows":[{"aggs":[1],"start":0,"end":1}]}`)
	b := []byte(`{"strategy":"ptac","budget":"c=2","c":2,"error":1.5,"cache":"hit","stats":{"cells":12},"rows":[{"aggs":[1],"start":0,"end":1}]}`)
	c := []byte(`{"strategy":"ptac","budget":"c=2","c":2,"error":1.5,"cache":"hit","stats":{"cells":12},"rows":[{"aggs":[2],"start":0,"end":1}]}`)
	ha, hashA, err := parseHead(a)
	if err != nil || ha.C != 2 || ha.Cache != "miss" || ha.Stats.Cells != 9 {
		t.Fatalf("head %+v, %v", ha, err)
	}
	_, hashB, _ := parseHead(b)
	_, hashC, _ := parseHead(c)
	if hashA != hashB || hashA == hashC {
		t.Fatal("answer hash must ignore cache and stats and cover rows")
	}
}

func TestSameAnswerErrorTolerance(t *testing.T) {
	s := pta.NewSeries(nil, []string{"v"})
	g := s.Groups.Intern(nil)
	s.Rows = []pta.Row{{Group: g, Aggs: []float64{2}, T: pta.Interval{Start: 0, End: 3}}}
	ref := &pta.Result{C: 1, Error: 1e7, Series: s}
	rows := []respRow{{Aggs: []float64{2}, Start: 0, End: 3}}
	if err := sameAnswer(1, 1e7, rows, ref, 0); err != nil {
		t.Errorf("identical answer rejected: %v", err)
	}
	if err := sameAnswer(1, 1e7*(1+1e-14), rows, ref, 0); err == nil {
		t.Error("exact comparison accepted an error that differs in its last digits")
	}
	if err := sameAnswer(1, 1e7*(1+1e-14), rows, ref, serialErrTol); err != nil {
		t.Errorf("a summation-order difference rejected under the serial tolerance: %v", err)
	}
	if err := sameAnswer(1, 1e7*(1+1e-6), rows, ref, serialErrTol); err == nil {
		t.Error("a different error accepted under the serial tolerance")
	}
	if err := sameAnswer(1, math.NaN(), rows, ref, serialErrTol); err == nil {
		t.Error("a NaN error accepted")
	}
	moved := []respRow{{Aggs: []float64{2}, Start: 0, End: 2}}
	if err := sameAnswer(1, 1e7, moved, ref, serialErrTol); err == nil {
		t.Error("a different row accepted: the tolerance covers only the error")
	}
}

func TestMemRowsHandsOutCopies(t *testing.T) {
	m := &memRows{n: 2, splits: []int32{0, 1, 2, 0, 0, 1}}
	row, err := m.SplitRow(2)
	if err != nil || len(row) != 3 || row[2] != 1 {
		t.Fatalf("row 2: %v, %v", row, err)
	}
	row[0] = 9
	if m.splits[3] != 0 {
		t.Error("SplitRow returned the snapshot's own memory")
	}
	if _, err := m.SplitRow(3); err == nil {
		t.Error("row beyond the snapshot returned")
	}
}
