package dist

// The exactness-conformance suite: "dist" output compared against the
// in-process engine and the whole-series DP across the strategy, budget and
// fill-algorithm matrix, over quick.Check-generated mixed, counter and
// adversarial series, against a real 3-worker cluster (run under -race).
//
// What is asserted, and why:
//
//   - vs the engine at parallelism 1 and 4: everything bitwise — rows, C,
//     and the Error float's exact bits. The engine answers every
//     multi-run "ptac"/"ptae" plan through the run-decomposed driver
//     (core.SolveRuns) at every parallelism, and dist runs that driver with
//     the curve computation moved across HTTP, so any drift here is a bug.
//   - vs the whole-series DP (core.PTAc / core.PTAe, the independent
//     reference): C always equal, Error equal to within float summation
//     reassociation (the run-decomposed pass adds per-run errors in a
//     different order), and rows BITWISE equal whenever the optimum is
//     unique. The mixed and counter generators draw continuous values, so
//     ties between candidate split sets have probability zero and the
//     byte-identity assertion holds unconditionally. The adversarial
//     generator manufactures ties on purpose (integer plateaus), where any
//     optimal split set is acceptable; there the suite asserts the relaxed
//     contract (same C, same error, valid series) plus full byte-identity
//     to the engine, which pins ONE deterministic choice.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/core"
	"repro/internal/dist/disttest"
	"repro/internal/serve"
	"repro/internal/temporal"
	"repro/pta"
)

// newTestCoordinator wires a coordinator to the cluster with test-friendly
// retry pacing.
func newTestCoordinator(t testing.TB, cluster *disttest.Cluster) *Coordinator {
	t.Helper()
	co, err := New(WithWorkers(cluster.URLs()...))
	if err != nil {
		t.Fatalf("dist.New: %v", err)
	}
	co.backoff, co.retries, co.timeout = time.Millisecond, 4, 30*time.Second
	return co
}

// genSeries builds a multi-group series with random gap structure.
// Modes: "mixed" is a continuous random walk (tie-free), "counter" is a
// monotone cumulative counter with continuous increments (tie-free),
// "adversarial" is integer plateaus engineered for DP ties.
func genSeries(rng *rand.Rand, mode string) *pta.Series {
	groups := 1 + rng.Intn(3)
	p := 1 + rng.Intn(2)
	aggs := make([]string, p)
	for d := range aggs {
		aggs[d] = fmt.Sprintf("v%d", d)
	}
	s := pta.NewSeries([]pta.Attribute{{Name: "g", Kind: temporal.KindString}}, aggs)
	for g := 0; g < groups; g++ {
		id := s.Groups.Intern([]temporal.Datum{temporal.String(fmt.Sprintf("G%d", g))})
		rows := 3 + rng.Intn(18)
		tcur := int64(rng.Intn(4))
		walk := make([]float64, p)
		for d := range walk {
			walk[d] = 10 * rng.Float64()
		}
		for i := 0; i < rows; i++ {
			if i > 0 && rng.Float64() < 0.3 {
				tcur += int64(2 + rng.Intn(4)) // open a gap: a new run starts
			}
			span := int64(1 + rng.Intn(3))
			row := pta.Row{
				Group: id,
				Aggs:  make([]float64, p),
				T: pta.Interval{
					Start: pta.Chronon(tcur),
					End:   pta.Chronon(tcur + span - 1),
				},
			}
			for d := 0; d < p; d++ {
				switch mode {
				case "counter":
					walk[d] += rng.Float64() * 3
					row.Aggs[d] = walk[d]
				case "adversarial":
					row.Aggs[d] = float64(rng.Intn(3))
				default: // mixed
					walk[d] += rng.NormFloat64()
					row.Aggs[d] = walk[d]
				}
			}
			s.Rows = append(s.Rows, row)
			tcur += span
		}
	}
	s.Sort()
	return s
}

// bitIdentical reports whether two series have byte-for-byte equal rows:
// same groups, same intervals, and aggregate floats with identical bits.
func bitIdentical(a, b *pta.Series) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := range a.Rows {
		ra, rb := a.Rows[i], b.Rows[i]
		if ra.T != rb.T || len(ra.Aggs) != len(rb.Aggs) {
			return false
		}
		if !temporal.DatumsEqual(a.Groups.Values(ra.Group), b.Groups.Values(rb.Group)) {
			return false
		}
		for d := range ra.Aggs {
			if math.Float64bits(ra.Aggs[d]) != math.Float64bits(rb.Aggs[d]) {
				return false
			}
		}
	}
	return true
}

// relClose reports |a−b| within tol relative to their magnitude.
func relClose(a, b, tol float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*math.Max(scale, 1)
}

// budgetsFor enumerates the budget matrix for one generated series: both
// budget kinds at their interesting corners plus one random interior point.
func budgetsFor(rng *rand.Rand, s *pta.Series) []pta.Budget {
	n, cmin := s.Len(), s.CMin()
	var out []pta.Budget
	seen := map[int]bool{}
	for _, c := range []int{cmin, (cmin + n) / 2, n - 1, n} {
		if c >= cmin && c <= n && !seen[c] {
			seen[c] = true
			out = append(out, pta.Size(c))
		}
	}
	for _, eps := range []float64{0, 0.2 + 0.6*rng.Float64(), 1} {
		out = append(out, pta.ErrorBound(eps))
	}
	return out
}

func strategyFor(b pta.Budget) string {
	if b.Kind() == pta.BudgetError {
		return "ptae"
	}
	return "ptac"
}

// TestDistConformance is the headline suite: for each generator mode,
// quick.Check draws seeds, and every (series, budget) cell is compressed
// four ways — distributed, the engine at parallelism 1 and 4, the
// whole-series DP — and compared.
func TestDistConformance(t *testing.T) {
	cluster := disttest.NewCluster(t, 3, serve.Config{})
	co := newTestCoordinator(t, cluster)
	serial, err := pta.New()
	if err != nil {
		t.Fatal(err)
	}
	par, err := pta.New(pta.WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	maxCount := 6
	if testing.Short() {
		maxCount = 2
	}
	for _, mode := range []string{"mixed", "counter", "adversarial"} {
		mode := mode
		t.Run(mode, func(t *testing.T) {
			f := func(seed int64) bool {
				rng := rand.New(rand.NewSource(seed))
				s := genSeries(rng, mode)
				if err := s.Validate(); err != nil {
					t.Fatalf("seed %d: generated series invalid: %v", seed, err)
				}
				for _, b := range budgetsFor(rng, s) {
					if !checkCell(t, ctx, co, serial, par, s, b, pta.Options{}, mode, seed) {
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: maxCount}); err != nil {
				t.Error(err)
			}
		})
	}
}

// checkCell runs one (series, budget) cell through dist, the engines serial
// (parallelism 1) and par, and the whole-series DP, and applies the
// conformance contract described in the file comment.
func checkCell(t *testing.T, ctx context.Context, co *Coordinator, serial, par *pta.Engine,
	s *pta.Series, b pta.Budget, opts pta.Options, mode string, seed int64) bool {
	t.Helper()
	name := fmt.Sprintf("seed %d budget %v", seed, b)

	dres, err := co.Compress(ctx, s, b, opts)
	if err != nil {
		t.Errorf("%s: dist: %v", name, err)
		return false
	}
	strat := strategyFor(b)
	plan := pta.Plan{Strategy: strat, Budget: b, Options: &opts}

	// Bitwise contract against the engine, at either parallelism.
	for _, eng := range []struct {
		name string
		e    *pta.Engine
	}{{"parallelism 1", serial}, {"parallelism 4", par}} {
		res, err := eng.e.Compress(ctx, s, plan)
		if err != nil {
			t.Errorf("%s: %s %s: %v", name, eng.name, strat, err)
			return false
		}
		if dres.C != res.C {
			t.Errorf("%s: dist C=%d, %s C=%d", name, dres.C, eng.name, res.C)
			return false
		}
		if math.Float64bits(dres.Error) != math.Float64bits(res.Error) {
			t.Errorf("%s: dist Error bits %x (%v), %s %x (%v)",
				name, math.Float64bits(dres.Error), dres.Error, eng.name,
				math.Float64bits(res.Error), res.Error)
			return false
		}
		if !bitIdentical(dres.Series, res.Series) {
			t.Errorf("%s: dist rows differ from the engine at %s", name, eng.name)
			return false
		}
	}

	// Contract against the whole-series DP.
	copts := core.Options{Weights: opts.Weights}
	var wres *core.DPResult
	if b.Kind() == pta.BudgetSize {
		wres, err = core.PTAc(s, b.C(), copts)
	} else {
		wres, err = core.PTAe(s, b.Eps(), copts)
	}
	if err != nil {
		t.Errorf("%s: whole-series DP: %v", name, err)
		return false
	}
	if dres.C != wres.C {
		t.Errorf("%s: dist C=%d, whole-series C=%d", name, dres.C, wres.C)
		return false
	}
	if !relClose(dres.Error, wres.Error, 1e-9) {
		t.Errorf("%s: dist Error %v vs whole-series %v beyond reassociation tolerance", name, dres.Error, wres.Error)
		return false
	}
	if mode != "adversarial" && !bitIdentical(dres.Series, wres.Sequence) {
		t.Errorf("%s: dist rows differ from the whole-series DP on tie-free data", name)
		return false
	}
	if err := dres.Series.Validate(); err != nil {
		t.Errorf("%s: dist result invalid: %v", name, err)
		return false
	}
	if dres.Strategy == "" || dres.Budget == (pta.Budget{}) {
		t.Errorf("%s: dist result missing strategy/budget metadata", name)
		return false
	}

	// Every other exact strategy realizes the same optimum: C and error
	// must agree even where split sets legitimately may not.
	if b.Kind() == pta.BudgetSize {
		for _, alt := range []string{"dpbasic", "ptac-imax", "ptac-jmin"} {
			ares, err := serial.Compress(ctx, s, pta.Plan{Strategy: alt, Budget: b, Options: &opts})
			if err != nil {
				t.Errorf("%s: serial %s: %v", name, alt, err)
				return false
			}
			if ares.C != dres.C || !relClose(ares.Error, dres.Error, 1e-9) {
				t.Errorf("%s: dist (C=%d err=%v) disagrees with exact strategy %s (C=%d err=%v)",
					name, dres.C, dres.Error, alt, ares.C, ares.Error)
				return false
			}
		}
	}
	return true
}

// TestDistConformanceFillAlgos pins the fill-algorithm matrix: the
// coordinator sends its shards no fill_algo, and its answer meets the
// whole-series contract against core's exact DP under every pinned row
// fill.
func TestDistConformanceFillAlgos(t *testing.T) {
	cluster := disttest.NewCluster(t, 3, serve.Config{})
	var urls []string
	for _, u := range cluster.URLs() {
		spy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			body, err := io.ReadAll(r.Body)
			if err != nil {
				panic(http.ErrAbortHandler)
			}
			if bytes.Contains(body, []byte("fill_algo")) {
				t.Errorf("shard request carries a fill_algo: %.200s", body)
			}
			resp, err := http.Post(u+r.URL.RequestURI(), r.Header.Get("Content-Type"), bytes.NewReader(body))
			if err != nil {
				panic(http.ErrAbortHandler)
			}
			defer resp.Body.Close()
			w.WriteHeader(resp.StatusCode)
			_, _ = io.Copy(w, resp.Body)
		}))
		t.Cleanup(spy.Close)
		urls = append(urls, spy.URL)
	}
	co, err := New(WithWorkers(urls...))
	if err != nil {
		t.Fatal(err)
	}
	co.backoff, co.retries, co.timeout = time.Millisecond, 4, 30*time.Second
	serial, err := pta.New()
	if err != nil {
		t.Fatal(err)
	}
	par, err := pta.New(pta.WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()

	rng := rand.New(rand.NewSource(7))
	s := genSeries(rng, "mixed")
	n, cmin := s.Len(), s.CMin()
	for _, b := range []pta.Budget{pta.Size((cmin + n) / 2), pta.ErrorBound(0.35)} {
		if !checkCell(t, ctx, co, serial, par, s, b, pta.Options{}, "mixed", 7) {
			t.Fatalf("budget %v failed conformance", b)
		}
		dres, err := co.Compress(ctx, s, b, pta.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, fill := range []core.FillAlgo{core.FillPruned, core.FillDC} {
			opts := core.Options{Fill: fill}
			var want *core.DPResult
			if b.Kind() == pta.BudgetSize {
				want, err = core.PTAc(s, b.C(), opts)
			} else {
				want, err = core.PTAe(s, b.Eps(), opts)
			}
			if err != nil {
				t.Fatal(err)
			}
			if dres.C != want.C || !relClose(dres.Error, want.Error, 1e-9) || !bitIdentical(dres.Series, want.Sequence) {
				t.Fatalf("budget %v: dist C=%d err=%v, %v fill C=%d err=%v", b, dres.C, dres.Error, fill, want.C, want.Error)
			}
		}
	}
}

// TestDistWeightsConformance checks the weighted-SSE path survives the wire.
func TestDistWeightsConformance(t *testing.T) {
	cluster := disttest.NewCluster(t, 2, serve.Config{})
	co := newTestCoordinator(t, cluster)
	serial, err := pta.New()
	if err != nil {
		t.Fatal(err)
	}
	par, err := pta.New(pta.WithParallelism(4))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	s := genSeries(rng, "mixed")
	opts := pta.Options{Weights: []float64{2.5, 0.75}[:len(s.AggNames)]}
	for _, b := range []pta.Budget{pta.Size(s.CMin()), pta.ErrorBound(0.5)} {
		checkCell(t, context.Background(), co, serial, par, s, b, opts, "mixed", 11)
	}
}
