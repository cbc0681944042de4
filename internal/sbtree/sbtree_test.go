package sbtree

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dataset"
	"repro/internal/ita"
	"repro/internal/temporal"
)

func defaultCols() []Column {
	return []Column{
		{Fn: "sum", Attr: 0, Name: "sum_v"},
		{Fn: "count", Name: "count"},
		{Fn: "avg", Attr: 0, Name: "avg_v"},
	}
}

// TestSequenceMatchesITAProj: the incrementally maintained result equals
// the batch ITA result on the running example (ungrouped).
func TestSequenceMatchesITAProj(t *testing.T) {
	tr, err := New(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	proj := dataset.Proj()
	salIdx, _ := proj.Schema().Index("Sal")
	for i := 0; i < proj.Len(); i++ {
		tp := proj.Tuple(i)
		v, _ := tp.Vals[salIdx].Numeric()
		if err := tr.Insert(tp.T, []float64{v}); err != nil {
			t.Fatal(err)
		}
	}
	got, err := tr.Sequence(defaultCols())
	if err != nil {
		t.Fatal(err)
	}
	want, err := ita.Eval(proj, ita.Query{Aggs: []ita.AggSpec{
		{Func: ita.Sum, Attr: "Sal", As: "sum_v"},
		{Func: ita.Count, As: "count"},
		{Func: ita.Avg, Attr: "Sal", As: "avg_v"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(want, 1e-9) {
		t.Errorf("sbtree differs from ITA:\n%v\nvs\n%v", got, want)
	}
}

type tup struct {
	iv temporal.Interval
	v  float64
}

func randomTuples(rng *rand.Rand, n int) []tup {
	out := make([]tup, n)
	for i := range out {
		start := temporal.Chronon(rng.Intn(30))
		out[i] = tup{
			iv: temporal.Interval{Start: start, End: start + temporal.Chronon(rng.Intn(8))},
			v:  float64(rng.Intn(50) * 2),
		}
	}
	return out
}

// TestPropMatchesBruteForce: At() agrees with a direct scan at every
// instant, and Sequence() with instant-by-instant reconstruction.
func TestPropMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tuples := randomTuples(rng, 1+rng.Intn(20))
		tr, err := New(1, seed)
		if err != nil {
			return false
		}
		for _, tp := range tuples {
			if err := tr.Insert(tp.iv, []float64{tp.v}); err != nil {
				return false
			}
		}
		for ts := temporal.Chronon(-2); ts < 42; ts++ {
			var count, sum float64
			for _, tp := range tuples {
				if tp.iv.Start <= ts && ts <= tp.iv.End {
					count++
					sum += tp.v
				}
			}
			gotCount, gotSums := tr.At(ts)
			if gotCount != count || math.Abs(gotSums[0]-sum) > 1e-9 {
				return false
			}
		}
		seq, err := tr.Sequence(defaultCols())
		return err == nil && seq.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestPropIncrementalDeleteUndo: inserting a batch and deleting a subset
// leaves exactly the state of inserting the complement.
func TestPropIncrementalDeleteUndo(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tuples := randomTuples(rng, 2+rng.Intn(20))
		keep := rng.Intn(len(tuples))

		full, err := New(1, seed)
		if err != nil {
			return false
		}
		for _, tp := range tuples {
			if err := full.Insert(tp.iv, []float64{tp.v}); err != nil {
				return false
			}
		}
		for _, tp := range tuples[keep:] {
			if err := full.Delete(tp.iv, []float64{tp.v}); err != nil {
				return false
			}
		}

		fresh, err := New(1, seed+1)
		if err != nil {
			return false
		}
		for _, tp := range tuples[:keep] {
			if err := fresh.Insert(tp.iv, []float64{tp.v}); err != nil {
				return false
			}
		}
		a, err1 := full.Sequence(defaultCols())
		b, err2 := fresh.Sequence(defaultCols())
		if err1 != nil || err2 != nil {
			return false
		}
		return a.Equal(b, 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestDeleteAllEmpties: removing everything leaves an empty tree (deltas
// cancel and nodes vanish).
func TestDeleteAllEmpties(t *testing.T) {
	tr, _ := New(1, 3)
	iv := temporal.Interval{Start: 2, End: 9}
	if err := tr.Insert(iv, []float64{5}); err != nil {
		t.Fatal(err)
	}
	if tr.Len() == 0 {
		t.Fatal("expected endpoints after insert")
	}
	if err := tr.Delete(iv, []float64{5}); err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 0 {
		t.Errorf("Len = %d after full delete, want 0", tr.Len())
	}
	seq, err := tr.Sequence(defaultCols())
	if err != nil || seq.Len() != 0 {
		t.Errorf("sequence after full delete: %d rows, %v", seq.Len(), err)
	}
}

func TestValidation(t *testing.T) {
	if _, err := New(-1, 1); err == nil {
		t.Error("negative p should fail")
	}
	tr, _ := New(1, 1)
	if err := tr.Insert(temporal.Interval{Start: 5, End: 2}, []float64{1}); err == nil {
		t.Error("invalid interval should fail")
	}
	if err := tr.Insert(temporal.Inst(1), []float64{1, 2}); err == nil {
		t.Error("arity mismatch should fail")
	}
	if err := tr.Delete(temporal.Interval{Start: 5, End: 2}, []float64{1}); err == nil {
		t.Error("invalid delete interval should fail")
	}
	if err := tr.Delete(temporal.Inst(1), nil); err == nil {
		t.Error("delete arity mismatch should fail")
	}
	if _, err := tr.Sequence([]Column{{Fn: "median", Attr: 0}}); err == nil {
		t.Error("unsupported column should fail")
	}
	if _, err := tr.Sequence([]Column{{Fn: "sum", Attr: 7}}); err == nil {
		t.Error("out-of-range attribute should fail")
	}
}

// TestSequenceFeedsPTA: the maintained aggregate can flow straight into the
// PTA reduction — the end-to-end incremental pipeline.
func TestSequenceFeedsPTA(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tr, _ := New(1, 11)
	for _, tp := range randomTuples(rng, 40) {
		if err := tr.Insert(tp.iv, []float64{tp.v}); err != nil {
			t.Fatal(err)
		}
	}
	seq, err := tr.Sequence([]Column{{Fn: "avg", Attr: 0, Name: "avg_v"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := seq.Validate(); err != nil {
		t.Fatalf("invalid sequence: %v", err)
	}
}

func BenchmarkInsertQuery(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	tr, _ := New(1, 5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		start := temporal.Chronon(rng.Intn(100000))
		if err := tr.Insert(temporal.Interval{Start: start, End: start + 50}, []float64{rng.Float64()}); err != nil {
			b.Fatal(err)
		}
		tr.At(start + 10)
	}
}
