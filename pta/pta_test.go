package pta_test

import (
	"errors"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/ita"
	"repro/pta"
)

// oneDim returns a single-group, gap-free, one-dimensional series — the
// shape every registered strategy (including the time-series baselines)
// accepts.
func oneDim(t *testing.T) *pta.Series {
	t.Helper()
	seq, err := dataset.Chaotic(240)
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

// grouped returns a multi-group series with temporal gaps — the shape only
// the native PTA strategies handle.
func grouped(t *testing.T) *pta.Series {
	t.Helper()
	seq, err := dataset.Uniform(6, 40, 3, 99)
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

// projITA returns the paper's running example reduced by ITA (7 rows).
func projITA(t *testing.T) *pta.Series {
	t.Helper()
	seq, err := ita.Eval(dataset.Proj(), ita.Query{
		GroupBy: []string{"Proj"},
		Aggs:    []ita.AggSpec{{Func: ita.Avg, Attr: "Sal", As: "AvgSal"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

// TestRegistryComplete pins the registry surface: every strategy of the
// facade contract is present, described, and at least 8 are registered.
func TestRegistryComplete(t *testing.T) {
	want := []string{
		"amnesic", "apca", "dpbasic", "gms", "gms-bridged", "gptac", "gptae",
		"paa", "pla", "ptac", "ptac-imax", "ptac-jmin", "ptae",
	}
	got := pta.Strategies()
	if len(got) < 8 {
		t.Fatalf("Strategies() lists %d evaluators, want ≥ 8: %v", len(got), got)
	}
	have := map[string]bool{}
	for _, name := range got {
		have[name] = true
	}
	for _, name := range want {
		if !have[name] {
			t.Errorf("strategy %q missing from registry %v", name, got)
		}
	}
	for _, info := range pta.Describe() {
		if info.Description == "" {
			t.Errorf("strategy %q has no description", info.Name)
		}
		if !info.Size && !info.Error {
			t.Errorf("strategy %q supports no budget kind", info.Name)
		}
		if ev, ok := pta.Lookup(info.Name); !ok || ev.Name() != info.Name {
			t.Errorf("Lookup(%q) inconsistent with Describe", info.Name)
		}
	}
}

func TestBudgetParse(t *testing.T) {
	cases := []struct {
		in   string
		want pta.Budget
		ok   bool
	}{
		{"c=12", pta.Size(12), true},
		{"size=3", pta.Size(3), true},
		{"12", pta.Size(12), true},
		{"eps=0.05", pta.ErrorBound(0.05), true},
		{"error=1", pta.ErrorBound(1), true},
		{"0.05", pta.ErrorBound(0.05), true},
		{"c=0", pta.Budget{}, false},
		{"eps=1.5", pta.Budget{}, false},
		{"banana", pta.Budget{}, false},
		{"q=4", pta.Budget{}, false},
		{"eps=NaN", pta.Budget{}, false},
		{"error=nan", pta.Budget{}, false},
		{"NaN", pta.Budget{}, false},
	}
	for _, c := range cases {
		got, err := pta.ParseBudget(c.in)
		if c.ok != (err == nil) {
			t.Errorf("ParseBudget(%q) error = %v, want ok=%v", c.in, err, c.ok)
			continue
		}
		if c.ok && got != c.want {
			t.Errorf("ParseBudget(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	if s := pta.Size(7).String(); s != "c=7" {
		t.Errorf("Size(7).String() = %q", s)
	}
	if s := pta.ErrorBound(0.2).String(); s != "eps=0.2" {
		t.Errorf("ErrorBound(0.2).String() = %q", s)
	}
	if err := pta.ErrorBound(math.NaN()).Validate(); err == nil {
		t.Error("ErrorBound(NaN).Validate() = nil, want an error")
	}
}

// FuzzParseBudget fuzzes the budget trust boundary: ParseBudget never
// panics, and a budget it accepts validates, re-parses from its String()
// to the same budget, and evaluates on the running example to a result or
// a typed error.
func FuzzParseBudget(f *testing.F) {
	for _, s := range []string{"c=12", "size=3", "12", "eps=0.05", "error=1", "0.05", "c=0", "eps=1.5",
		"banana", "q=4", "eps=NaN", "NaN", " E = 0.5 ", "c=+3", "eps=-0", "eps=1e-400", "eps=0x1p-2",
		"c=9223372036854775807", "eps=Inf"} {
		f.Add(s)
	}
	series := projExample()
	f.Fuzz(func(t *testing.T, s string) {
		b, err := pta.ParseBudget(s)
		if err != nil {
			return
		}
		if err := b.Validate(); err != nil {
			t.Fatalf("ParseBudget(%q) accepted %v, which fails Validate: %v", s, b, err)
		}
		again, err := pta.ParseBudget(b.String())
		if err != nil || again != b {
			t.Fatalf("ParseBudget(%q) = %v, but its String %q re-parses to %v, %v", s, b, b.String(), again, err)
		}
		strategy := "ptac"
		if b.Kind() == pta.BudgetError {
			strategy = "ptae"
		}
		res, err := pta.Compress(series, strategy, b, pta.Options{})
		if err != nil && !errors.Is(err, pta.ErrBudgetInfeasible) {
			t.Fatalf("%s with %v: untyped error %v", strategy, b, err)
		}
		if err == nil && res == nil {
			t.Fatalf("%s with %v: no result and no error", strategy, b)
		}
	})
}

// TestGreedyNeverBeatsExact is the Theorem 2 sanity check of the facade:
// for the same size budget, the greedy strategies can never introduce less
// error than the exact DP.
func TestGreedyNeverBeatsExact(t *testing.T) {
	for name, seq := range map[string]*pta.Series{
		"proj": projITA(t), "oneDim": oneDim(t), "grouped": grouped(t),
	} {
		cmin := seq.CMin()
		for _, c := range []int{cmin, (cmin + seq.Len()) / 2, seq.Len() - 1} {
			if c < cmin || c < 1 {
				continue
			}
			exact, err := pta.Compress(seq, "ptac", pta.Size(c), pta.Options{})
			if err != nil {
				t.Fatalf("%s c=%d ptac: %v", name, c, err)
			}
			for _, greedy := range []string{"gms", "gptac"} {
				res, err := pta.Compress(seq, greedy, pta.Size(c), pta.Options{})
				if err != nil {
					t.Fatalf("%s c=%d %s: %v", name, c, greedy, err)
				}
				if res.Error < exact.Error-1e-9*(1+exact.Error) {
					t.Errorf("%s c=%d: %s error %v beats the exact optimum %v",
						name, c, greedy, res.Error, exact.Error)
				}
			}
		}
	}
}

// TestSizeBudgetConformance runs every registered strategy under a size
// budget and checks the shared contract: the result respects the budget,
// validates as a sequential relation, and reports its true error.
func TestSizeBudgetConformance(t *testing.T) {
	fixtures := map[string]*pta.Series{"oneDim": oneDim(t), "grouped": grouped(t)}
	for fname, seq := range fixtures {
		cmin := seq.CMin()
		c := max(cmin, seq.Len()/6)
		for _, name := range pta.Strategies() {
			ev, _ := pta.Lookup(name)
			if !ev.Supports(pta.BudgetSize) {
				continue
			}
			res, err := pta.Compress(seq, name, pta.Size(c), pta.Options{})
			if errors.Is(err, pta.ErrSeriesShape) {
				continue // baselines on grouped/gapped input
			}
			if err != nil {
				t.Errorf("%s on %s: %v", name, fname, err)
				continue
			}
			if res.C > c || res.C < 1 {
				t.Errorf("%s on %s: result size %d outside [1, %d]", name, fname, res.C, c)
			}
			if res.C != res.Series.Len() {
				t.Errorf("%s on %s: C %d != rows %d", name, fname, res.C, res.Series.Len())
			}
			if res.Strategy != name {
				t.Errorf("%s on %s: Strategy = %q", name, fname, res.Strategy)
			}
			if err := res.Series.Validate(); err != nil && name != "gms-bridged" {
				t.Errorf("%s on %s: invalid result: %v", name, fname, err)
			}
			// The reported error must match an independent recomputation
			// (gap bridging redistributes error over covered chronons, so
			// its accounting is intentionally different).
			if name != "gms-bridged" {
				sse, err := pta.SSE(seq, res.Series, pta.Options{})
				if err != nil {
					t.Fatalf("%s on %s: SSE: %v", name, fname, err)
				}
				if math.Abs(sse-res.Error) > 1e-6*(1+sse) {
					t.Errorf("%s on %s: reported error %v vs recomputed %v",
						name, fname, res.Error, sse)
				}
			}
		}
	}
}

// TestErrorBudgetConformance runs every strategy that accepts an error
// budget and checks that the result respects ε·SSEmax.
func TestErrorBudgetConformance(t *testing.T) {
	fixtures := map[string]*pta.Series{"oneDim": oneDim(t), "grouped": grouped(t)}
	for fname, seq := range fixtures {
		emax, err := pta.MaxError(seq, pta.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, eps := range []float64{1, 0.2, 0.01, 0} {
			bound := eps * emax
			for _, name := range pta.Strategies() {
				ev, _ := pta.Lookup(name)
				if !ev.Supports(pta.BudgetError) {
					continue
				}
				res, err := pta.Compress(seq, name, pta.ErrorBound(eps), pta.Options{})
				if errors.Is(err, pta.ErrSeriesShape) {
					continue
				}
				if err != nil {
					t.Errorf("%s on %s eps=%v: %v", name, fname, eps, err)
					continue
				}
				if res.Error > bound*(1+1e-6)+1e-6 {
					t.Errorf("%s on %s: eps=%v error %v exceeds bound %v",
						name, fname, eps, res.Error, bound)
				}
			}
		}
	}
}

// TestStreamMatchesInMemory: the streaming evaluators produce the same
// result through CompressStream as through Compress.
func TestStreamMatchesInMemory(t *testing.T) {
	seq := grouped(t)
	c := max(seq.CMin(), seq.Len()/8)
	mem, err := pta.Compress(seq, "gptac", pta.Size(c), pta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := pta.CompressStream(pta.NewStream(seq), "gptac", pta.Size(c), pta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !mem.Series.Equal(streamed.Series, 1e-9) {
		t.Error("streaming and in-memory gptac results differ")
	}

	est, err := pta.ExactEstimate(seq, pta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	memE, err := pta.Compress(seq, "gptae", pta.ErrorBound(0.1), pta.Options{Estimate: &est})
	if err != nil {
		t.Fatal(err)
	}
	streamedE, err := pta.CompressStream(pta.NewStream(seq), "gptae", pta.ErrorBound(0.1),
		pta.Options{Estimate: &est})
	if err != nil {
		t.Fatal(err)
	}
	if !memE.Series.Equal(streamedE.Series, 1e-9) {
		t.Error("streaming and in-memory gptae results differ")
	}
}

// TestStreamExactDP: the exact DP strategies answer CompressStream with
// results identical to in-memory Compress (the streaming path collects the
// stream and answers as Compress does), and error budgets need no Estimate
// — exactness computes the true SSEmax after the stream ends.
func TestStreamExactDP(t *testing.T) {
	seq := grouped(t)
	c := max(seq.CMin(), seq.Len()/8)
	mem, err := pta.Compress(seq, "ptac", pta.Size(c), pta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := pta.CompressStream(pta.NewStream(seq), "ptac", pta.Size(c), pta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if streamed.C != mem.C || streamed.Error != mem.Error {
		t.Errorf("streaming ptac (c=%d, err=%v) differs from in-memory (c=%d, err=%v)",
			streamed.C, streamed.Error, mem.C, mem.Error)
	}
	if !mem.Series.Equal(streamed.Series, 0) {
		t.Error("streaming and in-memory ptac series differ")
	}

	memE, err := pta.Compress(seq, "ptae", pta.ErrorBound(0.1), pta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	streamedE, err := pta.CompressStream(pta.NewStream(seq), "ptae", pta.ErrorBound(0.1), pta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if streamedE.C != memE.C || streamedE.Error != memE.Error {
		t.Errorf("streaming ptae (c=%d, err=%v) differs from in-memory (c=%d, err=%v)",
			streamedE.C, streamedE.Error, memE.C, memE.Error)
	}
}

// TestFacadeErrors pins the sentinel error contract.
func TestFacadeErrors(t *testing.T) {
	seq := projITA(t)
	if _, err := pta.Compress(seq, "nope", pta.Size(4), pta.Options{}); !errors.Is(err, pta.ErrUnknownStrategy) {
		t.Errorf("unknown strategy: %v", err)
	}
	if _, err := pta.Compress(seq, "gms-bridged", pta.ErrorBound(0.5), pta.Options{}); !errors.Is(err, pta.ErrBudgetKind) {
		t.Errorf("gms-bridged with eps budget: %v", err)
	}
	if _, err := pta.Compress(grouped(t), "paa", pta.Size(4), pta.Options{}); !errors.Is(err, pta.ErrSeriesShape) {
		t.Errorf("paa on grouped input: %v", err)
	}
	if _, err := pta.Compress(seq, "ptac", pta.Budget{}, pta.Options{}); err == nil {
		t.Error("zero budget should fail")
	}
	if _, err := pta.CompressStream(pta.NewStream(seq), "gms", pta.Size(4), pta.Options{}); !errors.Is(err, pta.ErrNotStreaming) {
		t.Errorf("CompressStream on gms: %v", err)
	}
	if _, err := pta.CompressStream(pta.NewStream(seq), "gptae", pta.ErrorBound(0.1), pta.Options{}); err == nil {
		t.Error("streaming error budget without estimate should fail")
	}
}

// spanSeries is a single-group, gap-free, one-dimensional series whose row
// i holds vals[i] and spans lens[i] chronons.
func spanSeries(vals []float64, lens []int64) *pta.Series {
	s := pta.NewSeries(nil, []string{"v"})
	gid := s.Groups.Intern(nil)
	var at pta.Chronon
	for i, v := range vals {
		s.Rows = append(s.Rows, pta.Row{Group: gid, Aggs: []float64{v}, T: pta.Interval{Start: at, End: at + lens[i] - 1}})
		at += lens[i]
	}
	return s
}

// TestBaselinesBoundTheirExpansion: paa, apca and pla expand a series to
// one sample per chronon. A series covering more than 1 << 20 chronons is
// a series-shape error, and no answer has more rows than the input: values
// 1, 5, 2 whose first row spans 10⁵ chronons answer eps = 0.1 and every
// size budget from 3 up with at most 3 rows, at zero error from c = 3.
func TestBaselinesBoundTheirExpansion(t *testing.T) {
	long := spanSeries([]float64{7}, []int64{1<<20 + 1})
	for _, name := range []string{"paa", "apca", "pla"} {
		if _, err := pta.Compress(long, name, pta.Size(2), pta.Options{}); !errors.Is(err, pta.ErrSeriesShape) {
			t.Errorf("%s c=2 over %d chronons: %v, want ErrSeriesShape", name, long.TotalLen(), err)
		}
	}
	wide := spanSeries([]float64{1, 5, 2}, []int64{100000, 1, 1})
	for _, tc := range []struct {
		name string
		b    pta.Budget
	}{
		{"paa", pta.ErrorBound(0.1)}, {"apca", pta.ErrorBound(0.1)},
		{"paa", pta.Size(3)}, {"apca", pta.Size(3)}, {"pla", pta.Size(3)},
		{"paa", pta.Size(10)}, {"apca", pta.Size(10)}, {"pla", pta.Size(10)},
	} {
		res, err := pta.Compress(wide, tc.name, tc.b, pta.Options{})
		if err != nil {
			t.Fatalf("%s %v: %v", tc.name, tc.b, err)
		}
		if res.C > 3 || (tc.b.Kind() == pta.BudgetSize && res.Error != 0) {
			t.Errorf("%s %v: C = %d at error %v, want at most the 3 input rows (error 0 for c ≥ 3)", tc.name, tc.b, res.C, res.Error)
		}
	}
}

// TestQuickstartGolden pins the paper's running example through the facade:
// reducing the proj ITA result to 4 tuples introduces error 49166.67
// (Example 6), and the greedy strategy lands at 63000 (Example 17).
func TestQuickstartGolden(t *testing.T) {
	seq := projITA(t)
	res, err := pta.Compress(seq, "ptac", pta.Size(4), pta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Error-49166.666) > 1 {
		t.Errorf("ptac error %v, want ≈ 49166.67", res.Error)
	}
	greedy, err := pta.Compress(seq, "gms", pta.Size(4), pta.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(greedy.Error-63000) > 1 {
		t.Errorf("gms error %v, want ≈ 63000", greedy.Error)
	}
}
