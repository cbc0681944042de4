package experiments

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/pta"
)

func init() {
	register("ablation", "Ablation of the DP search-space bounds (Section 5.3)", runAblation)
	register("gapbridge", "Future-work extension: merging across temporal gaps (Section 8)", runGapBridge)
	register("parallel", "Engineering extension: divide-and-conquer PTA over runs, multicore", runParallel)
}

// runParallel contrasts the monolithic PTAc with the run-decomposed,
// multicore evaluator on gapped workloads. Both produce the same optimal
// error (property-tested in internal/core); only the work distribution
// differs. The monolithic arm calls core.PTAc, the whole-series DP, and the
// decomposed arm runs on an engine of its own with WithParallelism(0), so
// the configured engine's parallelism moves neither.
func runParallel(ctx context.Context, cfg Config) (*Table, error) {
	parallel, err := pta.New(pta.WithParallelism(0))
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "parallel", Title: "monolithic PTAc vs run-decomposed parallel evaluation",
		Header: []string{"workload", "n", "runs", "c", "PTAc_ms", "parallel_ms", "speedup", "same_error"},
	}
	type wl struct {
		name           string
		groups, perGrp int
	}
	for _, w := range []wl{
		{"S2-style", 200, max(4, cfg.scaled(4000)/200)},
		{"few groups", 20, max(4, cfg.scaled(4000)/20)},
	} {
		seq, err := dataset.Uniform(w.groups, w.perGrp, 4, cfg.Seed+22)
		if err != nil {
			return nil, err
		}
		c := max(seq.CMin(), seq.Len()/5)
		plan := pta.Plan{Strategy: "ptac", Budget: pta.Size(c)}
		var mono *core.DPResult
		var par *pta.Result
		dMono, err := timeIt(func() error {
			var err error
			mono, err = core.PTAc(seq, c, core.Options{Ctx: ctx})
			return err
		})
		if err != nil {
			return nil, err
		}
		dPar, err := timeIt(func() error {
			var err error
			par, err = parallel.Compress(ctx, seq, plan)
			return err
		})
		if err != nil {
			return nil, err
		}
		same := "yes"
		if diff := par.Error - mono.Error; diff > 1e-6*(1+mono.Error) || diff < -1e-6*(1+mono.Error) {
			same = "NO"
		}
		t.AddRow(w.name, fmt.Sprintf("%d", seq.Len()), fmt.Sprintf("%d", seq.CMin()),
			fmt.Sprintf("%d", c), fmtDur(dMono), fmtDur(dPar),
			fmtF(float64(dMono)/float64(dPar)), same)
	}
	t.AddNote("the decomposition computes per-run error curves concurrently and allocates the budget")
	t.AddNote("with a small curve-combination DP; beyond using all cores it also avoids redundant search")
	return t, nil
}

// runGapBridge evaluates the paper's first future-work item: allowing the
// greedy strategy to merge across temporal gaps within a group. Bridging
// lowers the reachable floor from cmin (runs) to the group count and is
// compared against classic GMS at sizes both can reach.
func runGapBridge(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		ID: "gapbridge", Title: "classic vs gap-bridging greedy reduction",
		Header: []string{"query", "n", "cmin", "groups", "c", "GMS_err", "bridged_err", "bridged_reaches"},
	}
	for _, name := range []string{"I1", "T3"} {
		ws, err := Workloads(cfg, name)
		if err != nil {
			return nil, err
		}
		seq := ws[0].Seq
		n, cmin := seq.Len(), seq.CMin()
		groups := pta.GroupCount(seq)
		for _, c := range []int{cmin, max(cmin, n/20)} {
			gms, err := cfg.compress(ctx, seq, "gms", pta.Size(c), pta.Options{})
			if err != nil {
				return nil, err
			}
			bridged, err := cfg.compress(ctx, seq, "gms-bridged", pta.Size(c), pta.Options{})
			if err != nil {
				return nil, err
			}
			// How far below cmin can bridging go?
			floor, err := cfg.compress(ctx, seq, "gms-bridged", pta.Size(groups), pta.Options{})
			if err != nil {
				return nil, err
			}
			t.AddRow(name, fmt.Sprintf("%d", n), fmt.Sprintf("%d", cmin),
				fmt.Sprintf("%d", groups), fmt.Sprintf("%d", c),
				fmtF(gms.Error), fmtF(bridged.Error), fmt.Sprintf("%d", floor.C))
		}
	}
	t.AddNote("bridging reaches the group count (far below cmin) and never merges across groups;")
	t.AddNote("at sizes classic GMS can reach, bridging may trade a little error for the freedom to cross gaps")
	return t, nil
}

// runAblation isolates the two Section 5.3 optimizations — the column bound
// imax = G_k and the split-point bound j_min — on a gapped workload, and
// contrasts them with a gap-free workload where neither can help. Every mode
// computes the identical optimal reduction; only the work differs. Each
// mode is the whole-series DP called through internal/core, imax+jmin
// included: the engine would answer "ptac" on the gapped workload run by
// run, which is not the paper's PTAc.
func runAblation(ctx context.Context, cfg Config) (*Table, error) {
	t := &Table{
		ID: "ablation", Title: "DP pruning ablation: cells / inner iterations / time by mode",
		Header: []string{"workload", "mode", "cells", "inner_iters", "time_ms", "error"},
	}
	modes := []struct {
		mode  core.PruneMode
		label string
	}{
		{core.PruneNone, "none"}, {core.PruneIMax, "imax"}, {core.PruneJMin, "jmin"}, {core.PruneBoth, "imax+jmin"},
	}

	gapped, err := dataset.Uniform(100, max(4, cfg.scaled(3000)/100), 4, cfg.Seed+20)
	if err != nil {
		return nil, err
	}
	gapFree, err := dataset.Uniform(1, cfg.scaled(1500), 4, cfg.Seed+21)
	if err != nil {
		return nil, err
	}
	workloads := []struct {
		name string
		seq  *pta.Series
		c    int
	}{
		{"gapped(100 groups)", gapped, max(gapped.CMin(), gapped.Len()/5)},
		{"gap-free", gapFree, max(1, gapFree.Len()/5)},
	}

	var reference *core.DPResult
	for _, w := range workloads {
		reference = nil
		for _, m := range modes {
			var res *core.DPResult
			d, err := timeIt(func() error {
				var err error
				res, err = core.PTAcAblation(w.seq, w.c, core.Options{Ctx: ctx}, m.mode)
				return err
			})
			if err != nil {
				return nil, err
			}
			if reference == nil {
				reference = res
			} else if diff := res.Error - reference.Error; diff > 1e-6*(1+reference.Error) || diff < -1e-6*(1+reference.Error) {
				return nil, fmt.Errorf("ablation: mode %v changed the optimum: %v vs %v", m.label, res.Error, reference.Error)
			}
			t.AddRow(w.name, m.label,
				fmt.Sprintf("%d", res.Stats.Cells),
				fmt.Sprintf("%d", res.Stats.InnerIters),
				fmtDur(d), fmtF(res.Error))
		}
	}
	t.AddNote("both bounds cut work only in the presence of gaps/groups; the optimum never changes")
	t.AddNote("jmin dominates: it shortens every inner loop, while imax only removes all-infinite columns")
	return t, nil
}
