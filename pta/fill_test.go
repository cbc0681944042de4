package pta_test

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"strings"
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

// TestFillAlgoResultsIdentical: the same plan evaluated under every fill
// algorithm — engine default via pta.WithFillAlgo and per-plan override via
// pta.Options.FillAlgo — returns identical reductions.
func TestFillAlgoResultsIdentical(t *testing.T) {
	s := fillSeries(t)
	ctx := context.Background()
	base, err := pta.New()
	if err != nil {
		t.Fatal(err)
	}
	plan := pta.Plan{Strategy: "ptac", Budget: pta.Size(7)}
	want, err := base.Compress(ctx, s, plan)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []pta.FillAlgo{pta.FillPruned, pta.FillDC} {
		eng, err := pta.New(pta.WithFillAlgo(algo))
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.Compress(ctx, s, plan)
		if err != nil {
			t.Fatalf("algo %v: %v", algo, err)
		}
		if got.C != want.C || math.Float64bits(got.Error) != math.Float64bits(want.Error) ||
			!reflect.DeepEqual(got.Series.Rows, want.Series.Rows) {
			t.Fatalf("algo %v: result diverged (C=%d err=%v, want C=%d err=%v)",
				algo, got.C, got.Error, want.C, want.Error)
		}
		override := plan
		override.Options = &pta.Options{FillAlgo: algo}
		got, err = base.Compress(ctx, s, override)
		if err != nil {
			t.Fatalf("override %v: %v", algo, err)
		}
		if got.C != want.C || !reflect.DeepEqual(got.Series.Rows, want.Series.Rows) {
			t.Fatalf("override %v: result diverged", algo)
		}
	}
}

// TestDPClassWith covers the per-algo cache classes: pta.FillAuto keeps the
// shared class, pinned algorithms split it, non-DP strategies have none.
func TestDPClassWith(t *testing.T) {
	shared, ok := pta.DPClass("ptac")
	if !ok || shared != "dp+imax+jmin" {
		t.Fatalf("pta.DPClass(ptac) = %q, %v", shared, ok)
	}
	if auto, _ := pta.DPClassWith("ptac", pta.FillAuto); auto != shared {
		t.Errorf("pta.FillAuto class %q != pta.DPClass %q", auto, shared)
	}
	seen := map[string]bool{shared: true}
	for _, algo := range []pta.FillAlgo{pta.FillPruned, pta.FillDC} {
		class, ok := pta.DPClassWith("ptae", algo)
		if !ok {
			t.Fatalf("pta.DPClassWith(ptae, %v) not cacheable", algo)
		}
		if !strings.HasPrefix(class, shared+"/fill=") || seen[class] {
			t.Errorf("class %q for %v: want distinct %q/fill=... classes", class, algo, shared)
		}
		seen[class] = true
	}
	if _, ok := pta.DPClassWith("gms", pta.FillDC); ok {
		t.Error("gms must not be matrix-cacheable")
	}
}

// TestMatrixSetClassReflectsFill: a set built with a pinned algorithm
// carries the per-algo class and answers budgets identically to the engine.
func TestMatrixSetClassReflectsFill(t *testing.T) {
	s := fillSeries(t)
	ctx := context.Background()
	set, err := pta.NewMatrixSet(s, "ptac", pta.Options{FillAlgo: pta.FillDC})
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := pta.DPClassWith("ptac", pta.FillDC); set.Class() != want {
		t.Fatalf("Class() = %q, want %q", set.Class(), want)
	}
	got, err := set.Compress(ctx, pta.Size(6))
	if err != nil {
		t.Fatal(err)
	}
	want, err := pta.Compress(s, "ptac", pta.Size(6), pta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got.C != want.C || math.Float64bits(got.Error) != math.Float64bits(want.Error) ||
		!reflect.DeepEqual(got.Series.Rows, want.Series.Rows) {
		t.Fatal("pinned-fill matrix set diverged from the engine result")
	}
}

// TestInvalidFillAlgoRejected: a FillAlgo outside FillAuto, FillPruned and
// FillDC — the retired values 3 and 4 included — fails every exact entry
// point instead of answering under a made-up cache class.
func TestInvalidFillAlgoRejected(t *testing.T) {
	s := fillSeries(t)
	ctx := context.Background()
	eng, err := pta.New()
	if err != nil {
		t.Fatal(err)
	}
	warm, err := pta.NewMatrixSet(s, "ptac", pta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := warm.Compress(ctx, pta.Size(6)); err != nil {
		t.Fatal(err)
	}
	for _, fill := range []pta.FillAlgo{3, 4, 9} {
		if _, err := core.PTAc(s, 6, core.Options{Fill: fill}); err == nil {
			t.Errorf("core.PTAc with fill %d answered", fill)
		}
		plan := pta.Plan{Strategy: "ptac", Budget: pta.Size(6), Options: &pta.Options{FillAlgo: fill}}
		if _, err := eng.Compress(ctx, s, plan); err == nil {
			t.Errorf("Engine.Compress with fill %d answered", fill)
		}
		if set, err := pta.NewMatrixSet(s, "ptac", pta.Options{FillAlgo: fill}); err == nil {
			t.Errorf("NewMatrixSet with fill %d built class %q", fill, set.Class())
		}
		// A snapshot labelled with the class an unchecked fill would key.
		snap, err := warm.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		snap.Class = "dp+imax+jmin/fill=" + fill.String()
		if _, err := pta.RestoreMatrixSet(s, "ptac", pta.Options{FillAlgo: fill}, snap); err == nil {
			t.Errorf("RestoreMatrixSet with fill %d restored", fill)
		}
		if class, ok := pta.DPClassWith("ptac", fill); ok {
			t.Errorf("DPClassWith(ptac, %d) = %q, ok", fill, class)
		}
		if _, err := pta.New(pta.WithFillAlgo(fill)); err == nil {
			t.Errorf("WithFillAlgo(%d) accepted", fill)
		}
	}
}

// FuzzParseFillAlgo: ParseFillAlgo never panics; a name it accepts yields a
// valid fill whose String() re-parses to the same value; the retired names
// resolve to FillAuto; every rejection lists the recognized names.
func FuzzParseFillAlgo(f *testing.F) {
	for _, s := range []string{"", "auto", "pruned", "dc", "smawk", "online", "bogus", "DC", " dc",
		"fill(3)", "fill(9)", "auto\x00", "pruned,dc"} {
		f.Add(s)
	}
	names := fmt.Sprint(pta.FillAlgoNames())
	f.Fuzz(func(t *testing.T, s string) {
		a, err := pta.ParseFillAlgo(s)
		if err != nil {
			if !strings.Contains(err.Error(), names) {
				t.Fatalf("ParseFillAlgo(%q) error %q does not list %s", s, err, names)
			}
			return
		}
		if _, ok := pta.DPClassWith("ptac", a); !ok {
			t.Fatalf("ParseFillAlgo(%q) accepted %v, which is not a valid fill", s, a)
		}
		if again, err := pta.ParseFillAlgo(a.String()); err != nil || again != a {
			t.Fatalf("ParseFillAlgo(%q) = %v, but its String %q re-parses to %v, %v", s, a, a.String(), again, err)
		}
		if (s == "smawk" || s == "online") && a != pta.FillAuto {
			t.Fatalf("retired name %q parsed to %v, want auto", s, a)
		}
	})
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
