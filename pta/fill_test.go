package pta_test

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/temporal"
	"repro/pta"
)

// fillSeries builds a small two-group series with a counter-like ramp, the
// shape the kernel certifies for the monotone fills.
func fillSeries(t *testing.T) *pta.Series {
	t.Helper()
	s := pta.NewSeries([]pta.Attribute{{Name: "g", Kind: temporal.KindString}}, []string{"v"})
	for gi, g := range []string{"a", "b"} {
		gid := s.Groups.Intern([]temporal.Datum{temporal.String(g)})
		base := 10 + 190*float64(gi)
		for i := 0; i < 24; i++ {
			v := base + float64(i*i) // convex ramp: monotone, distinct costs
			s.Rows = append(s.Rows, pta.Row{Group: gid, Aggs: []float64{v},
				T: pta.Interval{Start: pta.Chronon(i * 2), End: pta.Chronon(i*2 + 1)}})
		}
	}
	s.Sort()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFillAlgoResultsIdentical: pta picks its own row fill, and a plan
// answered through the engine or a matrix set returns bit for bit the
// reduction core computes under each fill pinned.
func TestFillAlgoResultsIdentical(t *testing.T) {
	s := fillSeries(t)
	ctx := context.Background()
	eng, err := pta.New()
	if err != nil {
		t.Fatal(err)
	}
	got, err := eng.Compress(ctx, s, pta.Plan{Strategy: "ptac", Budget: pta.Size(7)})
	if err != nil {
		t.Fatal(err)
	}
	set, err := pta.NewMatrixSet(s, "ptac", pta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := set.Compress(ctx, pta.Size(7))
	if err != nil {
		t.Fatal(err)
	}
	for _, fill := range []core.FillAlgo{core.FillPruned, core.FillDC} {
		want, err := core.PTAc(s, 7, core.Options{Fill: fill})
		if err != nil {
			t.Fatal(err)
		}
		for name, res := range map[string]*pta.Result{"engine": got, "matrix set": warm} {
			if res.C != want.C || math.Float64bits(res.Error) != math.Float64bits(want.Error) ||
				!reflect.DeepEqual(res.Series.Rows, want.Sequence.Rows) {
				t.Fatalf("%s: C=%d err=%v, want the %v fill's C=%d err=%v",
					name, res.C, res.Error, fill, want.C, want.Error)
			}
		}
	}
}

// TestMatrixSetClassReflectsFill: the fill a set picks shows in Fill, never
// in its class. The class is the strategy's DPClass at every size, and Fill
// names the pruned scan below 256 rows and dc at or above.
func TestMatrixSetClassReflectsFill(t *testing.T) {
	big := pta.NewSeries(nil, []string{"v"})
	for i := 0; i < 300; i++ {
		big.Rows = append(big.Rows, pta.Row{Aggs: []float64{float64(i * i)},
			T: pta.Interval{Start: pta.Chronon(i), End: pta.Chronon(i)}})
	}
	class, _ := pta.DPClass("ptac")
	for _, tc := range []struct {
		s    *pta.Series
		fill string
	}{{fillSeries(t), "pruned"}, {big, "dc"}} {
		set, err := pta.NewMatrixSet(tc.s, "ptac", pta.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if set.Class() != class || set.Fill() != tc.fill {
			t.Errorf("n=%d: Class() = %q, Fill() = %q; want %q, %q", tc.s.Len(), set.Class(), set.Fill(), class, tc.fill)
		}
	}
}

// TestInvalidFillAlgoRejected: a fill outside FillAuto, FillPruned and
// FillDC — the retired values 3 and 4 included — fails core's exact entry
// points, and a snapshot under a per-fill class ("dp+imax+jmin/fill=dc",
// what a pinned plan was once cached under) does not restore.
func TestInvalidFillAlgoRejected(t *testing.T) {
	s := fillSeries(t)
	ctx := context.Background()
	for _, fill := range []core.FillAlgo{3, 4, 9} {
		if _, err := core.PTAc(s, 6, core.Options{Fill: fill}); err == nil {
			t.Errorf("core.PTAc with fill %d answered", fill)
		}
	}
	warm, err := pta.NewMatrixSet(s, "ptac", pta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Compress(ctx, pta.Size(6)); err != nil {
		t.Fatal(err)
	}
	for _, fill := range []string{"pruned", "dc", "smawk", "online"} {
		snap, err := warm.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		snap.Class += "/fill=" + fill
		src := &memRowSource{n: snap.N, splits: snap.Splits}
		if _, err := pta.RestoreMatrixSetLazy(s, "ptac", pta.Options{}, snap, src); err == nil {
			t.Errorf("RestoreMatrixSetLazy took class %q", snap.Class)
		}
	}
}

// TestCompressManySharedKernel: a mixed batch — two DP classes plus a
// non-DP strategy — returns exactly the per-plan Compress results (the
// shared-kernel amortization must be invisible).
func TestCompressManySharedKernel(t *testing.T) {
	s := fillSeries(t)
	ctx := context.Background()
	eng, err := pta.New()
	if err != nil {
		t.Fatal(err)
	}
	plans := []pta.Plan{
		{Strategy: "ptac", Budget: pta.Size(8)},
		{Strategy: "ptae", Budget: pta.ErrorBound(0.05)},
		{Strategy: "dpbasic", Budget: pta.Size(6)},
		{Strategy: "gms", Budget: pta.Size(8)},
		{Strategy: "ptac", Budget: pta.Size(5)},
	}
	got, err := eng.CompressMany(ctx, s, plans)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range plans {
		want, err := eng.Compress(ctx, s, p)
		if err != nil {
			t.Fatal(err)
		}
		if got[i].C != want.C || !reflect.DeepEqual(got[i].Series.Rows, want.Series.Rows) {
			t.Fatalf("plan %d (%s %v): CompressMany diverged from Compress", i, p.Strategy, p.Budget)
		}
		if got[i].Strategy != p.Strategy {
			t.Fatalf("plan %d: stamped strategy %q", i, got[i].Strategy)
		}
	}
}
