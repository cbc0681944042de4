package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/pta"
)

func init() {
	register("fill", "DP row-fill algorithms over input size: pruned scan vs monotone DC", runFill)
}

// fillAlgos are the pinned selections the sweep compares; "pruned" is the
// paper's scan and the baseline. Only internal/core can pin a fill, so the
// sweep calls core.PTAc directly, serially whatever the configured engine:
// its rows measure one fill each, and the stream row (an incremental
// core.Solver) must match them bit for bit.
var fillAlgos = []core.FillAlgo{core.FillPruned, core.FillDC}

// runFill sweeps input size × row-fill algorithm on two workload families:
// Counter (cumulative counters — fully monotone per run, coverage 1.0) and
// Mixed (counter ramps interleaved with oscillating noise — the kernel
// certifies the ramps as monotone segments and the fill dispatches the
// monotone fill inside them, completing the rest with the envelope-pruned
// scan). The coverage column is the certified fraction pta.MonotoneCoverage
// reports; it predicts how much of the row fill runs at the monotone cost.
// The env_skips column counts candidates the completion scan discarded in
// O(1) range skips (zero for the pruned baseline, which never consults the
// envelope). Both algorithms must return the exact same reduction — the
// sweep verifies C and Error bit for bit against the scan — so the table
// isolates pure fill speed. A final "stream" row per workload answers the
// same budget from an incremental core.Solver (the serving layer's matrix
// cache, which resolves FillAuto as the batch path does) and verifies it
// too. The
// committed BENCH_fill.json pins this table as the perf trajectory of the
// DP kernel.
func runFill(ctx context.Context, cfg Config) (*Table, error) {
	const c = 48
	t := &Table{
		ID:     "fill",
		Title:  fmt.Sprintf("row-fill runtime on counter and mixed series, c = max(cmin, %d)", c),
		Header: []string{"workload", "n", "coverage", "algo", "ms", "cells", "inner_iters", "env_skips", "vs_pruned"},
	}
	type workload struct {
		name   string
		gen    func(groups, perGroup, p int, seed int64) (*pta.Series, error)
		groups int
	}
	sweep := []struct {
		workload
		sizes []int
	}{
		{workload{"counter", dataset.Counter, 1}, []int{1024, 2048, 4096, 8192, 16384}},
		{workload{"counter-200grp", dataset.Counter, 200}, []int{8192}},
		{workload{"mixed", dataset.Mixed, 1}, []int{1024, 2048, 4096, 8192, 16384}},
		{workload{"mixed-200grp", dataset.Mixed, 200}, []int{8192}},
	}
	for _, sw := range sweep {
		for _, base := range sw.sizes {
			n := cfg.scaled(base)
			perGroup := max(1, n/sw.groups)
			seq, err := sw.gen(sw.groups, perGroup, 1, cfg.Seed+16)
			if err != nil {
				return nil, err
			}
			coverage, err := pta.MonotoneCoverage(seq, pta.Options{})
			if err != nil {
				return nil, err
			}
			size := max(seq.CMin(), min(c, seq.Len()))
			addRow := func(algo string, d float64, res *core.DPResult, speedup string) {
				t.AddRow(sw.name, fmt.Sprintf("%d", seq.Len()), fmt.Sprintf("%.2f", coverage),
					algo, fmt.Sprintf("%.2f", d),
					fmt.Sprintf("%d", res.Stats.Cells), fmt.Sprintf("%d", res.Stats.InnerIters),
					fmt.Sprintf("%d", res.Stats.EnvelopeSkips), speedup)
			}
			verify := func(algo string, res, baseline *core.DPResult) error {
				if res.C != baseline.C || math.Float64bits(res.Error) != math.Float64bits(baseline.Error) {
					return fmt.Errorf("fill: %s %s n=%d diverged from the scan: C=%d err=%v, want C=%d err=%v",
						sw.name, algo, seq.Len(), res.C, res.Error, baseline.C, baseline.Error)
				}
				return nil
			}
			var baseline *core.DPResult
			var baselineMS float64
			for _, algo := range fillAlgos {
				var res *core.DPResult
				d, err := timeIt(func() error {
					var cerr error
					res, cerr = core.PTAc(seq, size, core.Options{Fill: algo, Ctx: ctx})
					return cerr
				})
				if err != nil {
					return nil, fmt.Errorf("fill: %s %s n=%d: %v", sw.name, algo, seq.Len(), err)
				}
				ms := float64(d.Microseconds()) / 1000
				speedup := "1.00x"
				if algo == core.FillPruned {
					baseline, baselineMS = res, ms
				} else {
					if err := verify(algo.String(), res, baseline); err != nil {
						return nil, err
					}
					speedup = fmt.Sprintf("%.2fx", baselineMS/math.Max(ms, 0.001))
				}
				addRow(algo.String(), ms, res, speedup)
			}
			// Incremental fill: the same budget answered by a core.Solver,
			// which resolves FillAuto to dc at these sizes.
			var stream *core.DPResult
			d, err := timeIt(func() error {
				sv, cerr := core.NewSolver(seq, core.Options{}, true, true)
				if cerr == nil {
					stream, cerr = sv.SolveSize(ctx, size)
				}
				return cerr
			})
			if err != nil {
				return nil, fmt.Errorf("fill: %s stream n=%d: %v", sw.name, seq.Len(), err)
			}
			if err := verify("stream", stream, baseline); err != nil {
				return nil, err
			}
			ms := float64(d.Microseconds()) / 1000
			addRow("stream", ms, stream, fmt.Sprintf("%.2fx", baselineMS/math.Max(ms, 0.001)))
		}
	}
	t.AddNote("every row verified bitwise-identical (C and Error) against the pruned scan")
	t.AddNote("coverage = fraction of rows inside certified monotone segments long enough for a monotone fill (pta.MonotoneCoverage);")
	t.AddNote("counter certifies fully (1.00), mixed partially — dc dispatches per segment and envelope-prunes the rest;")
	t.AddNote("env_skips = candidates discarded in O(1) range skips by the envelope bound (pruned baseline never consults it);")
	t.AddNote("stream = the incremental core.Solver (the matrix cache's driver), which resolves auto to dc at n >= 256;")
	t.AddNote("at coverage 0 the kernel demotes to the scan outright, so pinning dc is always safe")
	return t, nil
}
