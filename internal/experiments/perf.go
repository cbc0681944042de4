package experiments

import (
	"context"
	"fmt"

	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/pta"
)

func init() {
	register("fig18a", "DP vs PTAc runtime over input size, no gaps (Fig. 18a)", runFig18a)
	register("fig18b", "DP vs PTAc runtime over input size, with gaps (Fig. 18b)", runFig18b)
	register("fig19", "DP vs PTAc runtime over output size (Fig. 19)", runFig19)
	register("fig20a", "Maximal heap size of gPTAc by output size and δ (Fig. 20a)", runFig20a)
	register("fig20b", "Maximal heap size of gPTAε by output size and δ (Fig. 20b)", runFig20b)
	register("fig21", "Greedy algorithms vs linear approximation methods, runtime over input size (Fig. 21)", runFig21)
}

// --- fig18 ---

// Figs. 18–19 measure the paper's PTAc: the whole-series DP with both
// Section 5.3 bounds. On the grouped inputs of fig18b and fig19 the engine
// would answer "ptac" run by run, so those arms call core.PTAc directly,
// serially whatever the configured engine; on fig18a's gap-free input the
// engine runs the same program.

func runFig18a(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		ID: "fig18a", Title: "runtime (ms) vs input size; gap-free 10-dim synthetic, c = 200",
		Header: []string{"n", "DP_ms", "PTAc_ms", "DP_cells", "PTAc_cells"},
	}
	// The unpruned DP is genuinely quadratic (the paper's Fig. 18a tops out
	// near 5 000 s); the default sizes keep the default harness run in the
	// minutes range while preserving the growth shape. -scale raises them.
	sizes := []int{400, 800, 1200, 1600, 2000}
	for _, base := range sizes {
		n := cfg.scaled(base)
		c := min(cfg.scaled(200), n)
		seq, err := dataset.Uniform(1, n, 10, cfg.Seed+10)
		if err != nil {
			return nil, err
		}
		var basic, pruned *pta.Result
		dBasic, err := timeIt(func() error {
			var err error
			basic, err = cfg.compress(ctx, seq, "dpbasic", pta.Size(c), pta.Options{})
			return err
		})
		if err != nil {
			return nil, err
		}
		dPruned, err := timeIt(func() error {
			var err error
			pruned, err = cfg.compress(ctx, seq, "ptac", pta.Size(c), pta.Options{})
			return err
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", n), fmtDur(dBasic), fmtDur(dPruned),
			fmt.Sprintf("%d", basic.Stats.Cells), fmt.Sprintf("%d", pruned.Stats.Cells))
	}
	t.AddNote("paper: without gaps the two approaches show no significant difference and grow quadratically")
	return t, nil
}

func runFig18b(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		ID: "fig18b", Title: "runtime (ms) vs input size; 200 groups (S2-style), c = 250",
		Header: []string{"n", "DP_ms", "PTAc_ms", "DP_cells", "PTAc_cells"},
	}
	sizes := []int{1000, 2000, 3000, 4000}
	const groups = 200
	for _, base := range sizes {
		n := cfg.scaled(base)
		perGroup := max(1, n/groups)
		seq, err := dataset.Uniform(groups, perGroup, 10, cfg.Seed+11)
		if err != nil {
			return nil, err
		}
		c := min(cfg.scaled(250), seq.Len())
		c = max(c, seq.CMin())
		var basic *pta.Result
		var pruned *core.DPResult
		dBasic, err := timeIt(func() error {
			var err error
			basic, err = cfg.compress(ctx, seq, "dpbasic", pta.Size(c), pta.Options{})
			return err
		})
		if err != nil {
			return nil, err
		}
		dPruned, err := timeIt(func() error {
			var err error
			pruned, err = core.PTAc(seq, c, core.Options{Ctx: ctx})
			return err
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", seq.Len()), fmtDur(dBasic), fmtDur(dPruned),
			fmt.Sprintf("%d", basic.Stats.Cells), fmt.Sprintf("%d", pruned.Stats.Cells))
	}
	t.AddNote("paper: with gaps PTAc scales almost linearly and outruns DP by two orders of magnitude")
	return t, nil
}

func runFig19(ctx context.Context, cfg Config) (*Table, error) {
	n := cfg.scaled(1200)
	const groups = 200
	perGroup := max(1, n/groups)
	seq, err := dataset.Uniform(groups, perGroup, 10, cfg.Seed+12)
	if err != nil {
		return nil, err
	}
	cmin := seq.CMin()
	t := &Table{
		ID: "fig19", Title: fmt.Sprintf("runtime (ms) vs output size; %d tuples in %d groups", seq.Len(), groups),
		Header: []string{"c", "DP_ms", "PTAc_ms"},
	}
	for _, frac := range []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0} {
		c := max(cmin, int(frac*float64(seq.Len())))
		dBasic, err := timeIt(func() error {
			_, err := cfg.compress(ctx, seq, "dpbasic", pta.Size(c), pta.Options{})
			return err
		})
		if err != nil {
			return nil, err
		}
		dPruned, err := timeIt(func() error {
			_, err := core.PTAc(seq, c, core.Options{Ctx: ctx})
			return err
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", c), fmtDur(dBasic), fmtDur(dPruned))
	}
	t.AddNote("paper: runtime grows linearly in c; PTAc is much less sensitive because gaps dominate")
	return t, nil
}

// --- fig20 ---

func runFig20a(ctx context.Context, cfg Config) (*Table, error) {
	n := cfg.scaled(200000)
	seq, err := dataset.Uniform(1, n, 1, cfg.Seed+13)
	if err != nil {
		return nil, err
	}
	deltas := []int{pta.ReadAheadInf, 2, 1, pta.ReadAheadEager}
	t := &Table{
		ID: "fig20a", Title: fmt.Sprintf("gPTAc maximal heap size; gap-free input n = %d", n),
		Header: []string{"c", "δ=inf", "δ=2", "δ=1", "δ=0"},
	}
	for _, c := range logGrid(n) {
		row := []string{fmt.Sprintf("%d", c)}
		for _, d := range deltas {
			res, err := cfg.compress(ctx, seq, "gptac", pta.Size(c), pta.Options{ReadAhead: d})
			if err != nil {
				return nil, err
			}
			row = append(row, fmt.Sprintf("%d", res.Stats.MaxHeap))
		}
		t.AddRow(row...)
	}
	t.AddNote("paper: δ=∞ fills the heap with the whole input; δ=0 caps it at ~c; small δ gives c+β with tiny β")
	return t, nil
}

func runFig20b(ctx context.Context, cfg Config) (*Table, error) {
	n := cfg.scaled(200000)
	seq, err := dataset.Uniform(1, n, 1, cfg.Seed+14)
	if err != nil {
		return nil, err
	}
	est, err := pta.ExactEstimate(seq, pta.Options{})
	if err != nil {
		return nil, err
	}
	deltas := []int{pta.ReadAheadInf, 2, 1, pta.ReadAheadEager}
	t := &Table{
		ID: "fig20b", Title: fmt.Sprintf("gPTAε result size and maximal heap size; gap-free input n = %d", n),
		Header: []string{"eps", "C", "δ=inf", "δ=2", "δ=1", "δ=0"},
	}
	for _, eps := range []float64{0.9, 0.5, 0.2, 0.05, 0.01, 0.001} {
		row := []string{fmtF(eps)}
		var size int
		heaps := make([]string, 0, len(deltas))
		for _, d := range deltas {
			res, err := cfg.compress(ctx, seq, "gptae", pta.ErrorBound(eps),
				pta.Options{ReadAhead: d, Estimate: &est})
			if err != nil {
				return nil, err
			}
			size = res.C
			heaps = append(heaps, fmt.Sprintf("%d", res.Stats.MaxHeap))
		}
		row = append(row, fmt.Sprintf("%d", size))
		row = append(row, heaps...)
		t.AddRow(row...)
	}
	t.AddNote("paper: the gPTAε heap is significantly larger than gPTAc's independently of δ")
	return t, nil
}

func logGrid(n int) []int {
	var out []int
	for c := 1; c < n; c *= 10 {
		out = append(out, c)
	}
	out = append(out, n)
	return out
}

// --- fig21 ---

func runFig21(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		ID: "fig21", Title: "runtime (ms) of greedy PTA vs linear approximation methods (c = n/10, ε = 0.65, δ = 1)",
		Header: []string{"n", "gPTAe_ms", "PAA_ms", "ATC_ms", "gPTAc_ms", "APCA_ms", "DWT_ms"},
	}
	sizes := []int{50000, 100000, 200000, 400000}
	for _, base := range sizes {
		n := cfg.scaled(base)
		seq, err := dataset.Uniform(1, n, 1, cfg.Seed+15)
		if err != nil {
			return nil, err
		}
		c := max(1, n/10)
		est, err := pta.ExactEstimate(seq, pta.Options{})
		if err != nil {
			return nil, err
		}
		series, err := approx.FromSequence(seq)
		if err != nil {
			return nil, err
		}
		vals := series.Dims[0]

		dGPTAe, err := timeIt(func() error {
			_, err := cfg.compress(ctx, seq, "gptae", pta.ErrorBound(0.65),
				pta.Options{ReadAhead: 1, Estimate: &est})
			return err
		})
		if err != nil {
			return nil, err
		}
		dPAA, err := timeIt(func() error {
			_, err := approx.PAA(vals, c, series.Start)
			return err
		})
		if err != nil {
			return nil, err
		}
		dATC, err := timeIt(func() error {
			_, err := approx.ATC(seq, 0.01, nil)
			return err
		})
		if err != nil {
			return nil, err
		}
		dGPTAc, err := timeIt(func() error {
			_, err := cfg.compress(ctx, seq, "gptac", pta.Size(c), pta.Options{ReadAhead: 1})
			return err
		})
		if err != nil {
			return nil, err
		}
		dAPCA, err := timeIt(func() error {
			_, err := approx.APCA(vals, c, series.Start)
			return err
		})
		if err != nil {
			return nil, err
		}
		dDWT, err := timeIt(func() error {
			_, err := approx.DWTTopK(vals, c)
			return err
		})
		if err != nil {
			return nil, err
		}
		t.AddRow(fmt.Sprintf("%d", n), fmtDur(dGPTAe), fmtDur(dPAA), fmtDur(dATC),
			fmtDur(dGPTAc), fmtDur(dAPCA), fmtDur(dDWT))
	}
	t.AddNote("paper: gPTAε is slowest (large heap); gPTAc is comparable to the linear methods")
	return t, nil
}
