package experiments

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/pta"
)

// Committed ceiling for the envelope-pruned fill guard below. InnerIters
// counts candidate evaluations — a pure function of the pinned dataset and
// the algorithm, independent of machine load — so the guard asserts
// algorithmic work, not wall time, and holds on saturated CI runners. The
// ceiling sits at roughly 2x the measured count (mixed n=8192, seed 23:
// dc 17.78M against a 175.7M pruned baseline), so it trips on a pruning
// regression an order of magnitude before the speedup claim in
// BENCH_fill.json is lost, while tolerating drift from dispatch tweaks.
const (
	guardMixedN          = 8192
	guardSeed            = 23 // bench default (7) + the fill sweep's offset (16)
	guardMixedDCIters    = 36_000_000
	guardStreamReduction = 5 // floor: streaming iters vs pruned, counter workload
)

// TestFillIterationCeilings is the CI perf guard for the envelope-pruned
// completion scan: on the mixed workload the monotone fill's candidate
// evaluations must stay under the committed ceiling, with the envelope
// recording genuine O(1) range skips. Results are still verified against
// the pruned scan so a "fast but wrong" regression cannot pass.
func TestFillIterationCeilings(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size guard workload")
	}
	seq, err := dataset.Mixed(1, guardMixedN, 1, guardSeed)
	if err != nil {
		t.Fatal(err)
	}
	size := max(seq.CMin(), 48)
	want, err := core.PTAc(seq, size, core.Options{Fill: core.FillPruned})
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.PTAc(seq, size, core.Options{Fill: core.FillDC})
	if err != nil {
		t.Fatal(err)
	}
	if res.C != want.C || res.Error != want.Error {
		t.Fatalf("dc diverged from the pruned scan: C=%d err=%v, want C=%d err=%v",
			res.C, res.Error, want.C, want.Error)
	}
	if res.Stats.InnerIters > guardMixedDCIters {
		t.Errorf("dc mixed n=%d: %d inner iterations, ceiling %d — the envelope-pruned completion regressed",
			guardMixedN, res.Stats.InnerIters, guardMixedDCIters)
	}
	if res.Stats.EnvelopeSkips <= 0 {
		t.Errorf("dc mixed n=%d: no envelope skips recorded — the bound never engaged", guardMixedN)
	}
	if res.Stats.InnerIters*2 >= want.Stats.InnerIters {
		t.Errorf("dc mixed n=%d: %d iterations vs pruned %d — under 2x reduction",
			guardMixedN, res.Stats.InnerIters, want.Stats.InnerIters)
	}
}

// TestStreamIterationReduction guards the streaming path's work: the
// incremental path (CompressStream through the Solver, which resolves
// FillAuto to dc at this size) must evaluate at least guardStreamReduction
// times fewer candidates than the pruned scan on counter data, with
// identical results.
func TestStreamIterationReduction(t *testing.T) {
	if testing.Short() {
		t.Skip("full-size guard workload")
	}
	ctx := context.Background()
	cfg := Config{Scale: 1, Seed: 7}
	seq, err := dataset.Counter(1, guardMixedN, 1, guardSeed)
	if err != nil {
		t.Fatal(err)
	}
	size := max(seq.CMin(), 48)
	want, err := core.PTAc(seq, size, core.Options{Fill: core.FillPruned})
	if err != nil {
		t.Fatal(err)
	}
	res, err := cfg.engine().CompressStream(ctx, pta.NewStream(seq),
		pta.Plan{Strategy: "ptac", Budget: pta.Size(size), Options: &pta.Options{}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.C != want.C || res.Error != want.Error {
		t.Fatalf("stream diverged from the pruned scan: C=%d err=%v, want C=%d err=%v",
			res.C, res.Error, want.C, want.Error)
	}
	if res.Stats.InnerIters*guardStreamReduction > want.Stats.InnerIters {
		t.Errorf("stream counter n=%d: %d inner iterations vs pruned %d — under the %dx floor",
			guardMixedN, res.Stats.InnerIters, want.Stats.InnerIters, guardStreamReduction)
	}
}

// TestFillSweepParallelEngine: the fill sweep pins its fills through serial
// core calls, so a parallel engine in Config (ptabench -parallel 2) neither
// breaks its bitwise check against the scan nor moves a deterministic
// column (n, coverage, cells, inner_iters, env_skips) of any row.
func TestFillSweepParallelEngine(t *testing.T) {
	eng, err := pta.New(pta.WithParallelism(2))
	if err != nil {
		t.Fatal(err)
	}
	exp, _ := ByID("fill")
	serialCfg := Config{Scale: 1, Seed: 42, Quick: true}
	parallelCfg := serialCfg
	parallelCfg.Engine = eng
	serial, err := exp.Run(context.Background(), serialCfg)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := exp.Run(context.Background(), parallelCfg)
	if err != nil {
		t.Fatalf("fill sweep on a parallel engine: %v", err)
	}
	if len(parallel.Rows) != len(serial.Rows) {
		t.Fatalf("%d rows on a parallel engine, %d on a serial one", len(parallel.Rows), len(serial.Rows))
	}
	for i, row := range parallel.Rows {
		for c, name := range parallel.Header {
			if name == "ms" || name == "vs_pruned" {
				continue
			}
			if row[c] != serial.Rows[i][c] {
				t.Errorf("row %d %s = %s on a parallel engine, %s on a serial one", i, name, row[c], serial.Rows[i][c])
			}
		}
	}
}
