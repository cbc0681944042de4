package pta_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/dataset"
	"repro/internal/temporal"
	"repro/pta"
)

// TestMatrixSetMatchesEngine: answers from a warm matrix set are identical
// to fresh Engine evaluations across both budget kinds, and repeats cost no
// new matrix cells.
func TestMatrixSetMatchesEngine(t *testing.T) {
	seq := grouped(t)
	eng, err := pta.New()
	if err != nil {
		t.Fatal(err)
	}
	set, err := pta.NewMatrixSet(seq, "ptac", pta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	budgets := []pta.Budget{
		pta.Size(seq.CMin()),
		pta.Size(seq.Len() / 4),
		pta.Size(seq.Len() / 2),
		pta.ErrorBound(0.05),
		pta.ErrorBound(0.2),
	}
	for _, b := range budgets {
		strategy := "ptac"
		if b.Kind() == pta.BudgetError {
			strategy = "ptae"
		}
		want, err := eng.Compress(ctx, seq, pta.Plan{Strategy: strategy, Budget: b})
		if err != nil {
			t.Fatalf("engine %v: %v", b, err)
		}
		got, err := set.Compress(ctx, b)
		if err != nil {
			t.Fatalf("matrix set %v: %v", b, err)
		}
		if got.C != want.C || math.Abs(got.Error-want.Error) > 1e-6*(1+want.Error) {
			t.Errorf("%v: set (C=%d, E=%g), engine (C=%d, E=%g)",
				b, got.C, got.Error, want.C, want.Error)
		}
		if !got.Series.Equal(want.Series, 1e-9) {
			t.Errorf("%v: rows differ between set and engine", b)
		}
		if got.Strategy != "ptac" || got.Budget != b {
			t.Errorf("%v: provenance (%q, %v) not stamped", b, got.Strategy, got.Budget)
		}
	}
	// Warm repeats: no new cells.
	warmCells := func() int64 {
		res, err := set.Compress(ctx, budgets[1])
		if err != nil {
			t.Fatal(err)
		}
		return res.Stats.Cells
	}
	first := warmCells()
	if second := warmCells(); second != first {
		t.Errorf("repeated budget filled %d new cells, want 0", second-first)
	}
	if set.Rows() == 0 || set.N() != seq.Len() || set.MemBytes() <= 0 {
		t.Errorf("set introspection: Rows=%d N=%d Mem=%d", set.Rows(), set.N(), set.MemBytes())
	}
}

// TestMatrixSetTypedErrors: the set maps failures onto the same typed facade
// errors as the Engine.
func TestMatrixSetTypedErrors(t *testing.T) {
	seq := grouped(t)
	set, err := pta.NewMatrixSet(seq, "ptac", pta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	var inf *pta.InfeasibleBudgetError
	_, err = set.Compress(ctx, pta.Size(seq.CMin()-1))
	if !errors.Is(err, pta.ErrBudgetInfeasible) || !errors.As(err, &inf) {
		t.Errorf("infeasible size: %v", err)
	} else if inf.CMin != seq.CMin() {
		t.Errorf("InfeasibleBudgetError.CMin = %d, want %d", inf.CMin, seq.CMin())
	}

	canceled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := set.Compress(canceled, pta.Size(seq.CMin())); !errors.Is(err, pta.ErrCanceled) {
		t.Errorf("canceled compress: %v", err)
	}
	// The set survives the aborted call.
	if _, err := set.Compress(ctx, pta.Size(seq.CMin())); err != nil {
		t.Errorf("compress after cancellation: %v", err)
	}

	if _, err := set.Compress(ctx, pta.Budget{}); err == nil {
		t.Error("zero budget accepted")
	}

	if _, err := pta.NewMatrixSet(seq, "nope", pta.Options{}); !errors.Is(err, pta.ErrUnknownStrategy) {
		t.Errorf("unknown strategy: %v", err)
	}
	if _, err := pta.NewMatrixSet(seq, "gms", pta.Options{}); err == nil {
		t.Error("NewMatrixSet accepted a non-DP strategy")
	}
	if _, err := pta.NewMatrixSet(seq.WithRows(nil), "ptac", pta.Options{}); err == nil {
		t.Error("NewMatrixSet accepted an empty series")
	}
}

// TestDPClass pins the cache-class mapping: ptac and ptae share a class,
// ablations get their own, non-DP strategies are not cacheable.
func TestDPClass(t *testing.T) {
	cases := []struct {
		strategy, class string
		ok              bool
	}{
		{"ptac", "dp+imax+jmin", true},
		{"ptae", "dp+imax+jmin", true},
		{"dpbasic", "dp", true},
		{"ptac-imax", "dp+imax", true},
		{"ptac-jmin", "dp+jmin", true},
		{"gms", "", false},
		{"gptac", "", false},
		{"paa", "", false},
		{"amnesic", "", false},
		{"nope", "", false},
	}
	for _, tc := range cases {
		class, ok := pta.DPClass(tc.strategy)
		if class != tc.class || ok != tc.ok {
			t.Errorf("DPClass(%q) = (%q, %v), want (%q, %v)",
				tc.strategy, class, ok, tc.class, tc.ok)
		}
	}
}

// TestFingerprint: identical content fingerprints identically regardless of
// dictionary id assignment; any content change moves the fingerprint.
func TestFingerprint(t *testing.T) {
	seq := projITA(t)
	fp := pta.Fingerprint(seq)
	if len(fp) != 64 {
		t.Fatalf("fingerprint %q is not a sha256 hex", fp)
	}
	if got := pta.Fingerprint(seq.Clone()); got != fp {
		t.Error("clone fingerprints differently")
	}

	// Same rows interned into a fresh dictionary (different id order).
	rebuilt := pta.NewSeries(seq.GroupAttrs, seq.AggNames)
	for i := len(seq.Rows) - 1; i >= 0; i-- {
		r := seq.Rows[i]
		rebuilt.Rows = append(rebuilt.Rows, pta.Row{
			Group: rebuilt.Groups.Intern(seq.Groups.Values(r.Group)),
			Aggs:  append([]float64(nil), r.Aggs...),
			T:     r.T,
		})
	}
	rebuilt.Sort()
	if got := pta.Fingerprint(rebuilt); got != fp {
		t.Error("re-interned series fingerprints differently")
	}

	mutate := seq.Clone()
	mutate.Rows[0].Aggs[0] += 1
	if pta.Fingerprint(mutate) == fp {
		t.Error("aggregate change kept the fingerprint")
	}
	shifted := seq.Clone()
	shifted.Rows[0].T.End++
	if pta.Fingerprint(shifted) == fp {
		t.Error("interval change kept the fingerprint")
	}
	renamed := seq.Clone()
	renamed.AggNames = []string{"Other"}
	if pta.Fingerprint(renamed) == fp {
		t.Error("schema change kept the fingerprint")
	}
}

// TestFingerprintGolden pins the digest itself: spill file names and
// /v1/matrix/{hash} addresses derive from it, so a change to how the hash
// input is produced must leave it byte-identical. The mixed series covers
// every datum kind, an empty and a non-ASCII string, -0, +Inf, NaN and the
// int64 maximum; the long one a group value longer than the hash buffer.
func TestFingerprintGolden(t *testing.T) {
	attrs := []temporal.Attribute{
		{Name: "name", Kind: temporal.KindString},
		{Name: "id", Kind: temporal.KindInt},
		{Name: "score", Kind: temporal.KindFloat},
	}
	mixed := pta.NewSeries(attrs, []string{"a", "b"})
	add := func(name string, id int64, score float64, aggs []float64, start, end pta.Chronon) {
		mixed.Rows = append(mixed.Rows, pta.Row{
			Group: mixed.Groups.Intern([]temporal.Datum{temporal.String(name), temporal.Int(id), temporal.Float(score)}),
			Aggs:  aggs,
			T:     pta.Interval{Start: start, End: end},
		})
	}
	add("", -42, 0.25, []float64{800, 1e-7}, -5, 2)
	add("héllo wörld, a name longer than one hash block? no, but long enough", 7,
		math.Copysign(0, -1), []float64{0, math.Inf(1)}, 3, 3)
	add("zeta", math.MaxInt64, -1.5e300, []float64{math.NaN(), -49166.666666666664}, 4, 1<<40)
	long := pta.NewSeries([]temporal.Attribute{{Name: "note", Kind: temporal.KindString}}, []string{"v"})
	for i, note := range []string{strings.Repeat("long group value ", 400), "short"} {
		long.Rows = append(long.Rows, pta.Row{
			Group: long.Groups.Intern([]temporal.Datum{temporal.String(note)}),
			Aggs:  []float64{float64(i) + 0.5},
			T:     pta.Interval{Start: pta.Chronon(i), End: pta.Chronon(i)},
		})
	}
	uniform, err := dataset.Uniform(6, 40, 3, 99)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		s    *pta.Series
		want string
	}{
		{"proj", projITA(t), "adfbfa4c3ec63670d8b82ae5555aa0d4acb95c389a9cc34a83d2a949af97608e"},
		{"uniform", uniform, "49f5b931c5cf5b21a175179b7ddf16e5dce5b7291ea7cefca3c254b70e7f34f6"},
		{"mixed kinds", mixed, "da65fb3e21f3001c30a7483d56c7ec6e6caf7d061b72e6062a0ce6da0a984d77"},
		{"long string", long, "e79c62c0b0859d6028043c10eb430de91deadebf49a2012f3cea482f93b97958"},
	} {
		if got := pta.Fingerprint(tc.s); got != tc.want {
			t.Errorf("%s: fingerprint %s, want %s", tc.name, got, tc.want)
		}
	}
}

// BenchmarkWarmCompress is the backtrack rung of the per-layer ladder: a
// budget answered from a MatrixSet already filled to its depth, which is
// all the DP work a warm cache hit does (c = n/10, zero new cells).
func BenchmarkWarmCompress(b *testing.B) {
	for _, n := range []int{512, 8192} {
		s, err := dataset.Mixed(1, n, 1, 7)
		if err != nil {
			b.Fatal(err)
		}
		set, err := pta.NewMatrixSet(s, "ptac", pta.Options{})
		if err != nil {
			b.Fatal(err)
		}
		budget := pta.Size(n / 10)
		if _, err := set.Compress(context.Background(), budget); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := set.Compress(context.Background(), budget); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFingerprint is the fingerprint rung of the per-layer ladder: the
// content hash a warm request pays before its cache lookup, unless its
// series bytes are resident in the serving layer's memo.
func BenchmarkFingerprint(b *testing.B) {
	for _, n := range []int{512, 8192} {
		s, err := dataset.Mixed(1, n, 1, 7)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pta.Fingerprint(s)
			}
		})
	}
}
