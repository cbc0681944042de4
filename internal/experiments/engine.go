package experiments

import (
	"context"
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/pta"
)

func init() {
	register("engine", "Engine group-parallel compression: 1 vs 4 workers (pta.WithParallelism)", runEngine)
	register("multibudget", "Engine.CompressMany: budgets sharing one DP matrix pass vs independent evaluations", runMultiBudget)
}

// runEngine measures the group-parallel execution path of pta.Engine on
// multi-group workloads: the same exact "ptac"/"ptae" strategies, once on an
// engine with one worker and once on an engine with four. Groups compress
// independently (Section 3: the sequential-relation model guarantees merges
// never cross groups), and both engines run the run-decomposed driver, so
// the table checks the results agree bit for bit while the wall clock
// drops.
func runEngine(ctx context.Context, cfg Config) (*Table, error) {
	serial, err := pta.New(pta.WithParallelism(1))
	if err != nil {
		return nil, err
	}
	par, err := pta.New(pta.WithParallelism(4))
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "engine", Title: "Engine.Compress on multi-group workloads: parallelism 1 vs 4",
		Header: []string{"workload", "budget", "n", "groups", "serial_ms", "par4_ms", "speedup", "same_result"},
	}
	type wl struct {
		name           string
		groups, perGrp int
	}
	for _, w := range []wl{
		{"S2-style", 200, max(4, cfg.scaled(4000)/200)},
		{"few groups", 20, max(4, cfg.scaled(4000)/20)},
	} {
		seq, err := dataset.Uniform(w.groups, w.perGrp, 4, cfg.Seed+23)
		if err != nil {
			return nil, err
		}
		c := max(seq.CMin(), seq.Len()/5)
		for _, b := range []pta.Budget{pta.Size(c), pta.ErrorBound(0.05)} {
			strategy := "ptac"
			if b.Kind() == pta.BudgetError {
				strategy = "ptae"
			}
			plan := pta.Plan{Strategy: strategy, Budget: b}
			var sres, pres *pta.Result
			dSerial, err := timeIt(func() error {
				var err error
				sres, err = serial.Compress(ctx, seq, plan)
				return err
			})
			if err != nil {
				return nil, err
			}
			dPar, err := timeIt(func() error {
				var err error
				pres, err = par.Compress(ctx, seq, plan)
				return err
			})
			if err != nil {
				return nil, err
			}
			same := "yes"
			if pres.C != sres.C || math.Float64bits(pres.Error) != math.Float64bits(sres.Error) ||
				!pres.Series.Equal(sres.Series, 0) {
				same = "NO"
			}
			t.AddRow(w.name, b.String(), fmt.Sprintf("%d", seq.Len()),
				fmt.Sprintf("%d", w.groups), fmtDur(dSerial), fmtDur(dPar),
				fmtF(float64(dSerial)/float64(dPar)), same)
		}
	}
	t.AddNote("both columns run the run-decomposed driver over maximal adjacent runs (groups are run boundaries),")
	t.AddNote("serial_ms on one worker; same_result compares rows and error bits: parallelism moves only the wall clock")
	return t, nil
}

// runMultiBudget measures CompressMany's shared-matrix amortization: serving
// several sizes and an error bound of the same series either independently
// or through one DP matrix pass — the engine's answer to multi-resolution
// serving (dashboards asking the same series at several zoom levels).
func runMultiBudget(ctx context.Context, cfg Config) (*Table, error) {
	eng := cfg.engine()
	ws, err := Workloads(cfg, "T1")
	if err != nil {
		return nil, err
	}
	seq := ws[0].Seq
	n, cmin := seq.Len(), seq.CMin()
	plans := []pta.Plan{
		{Strategy: "ptac", Budget: pta.Size(max(cmin, n/20))},
		{Strategy: "ptac", Budget: pta.Size(max(cmin, n/10))},
		{Strategy: "ptac", Budget: pta.Size(max(cmin, n/5))},
		{Strategy: "ptac", Budget: pta.Size(max(cmin, n/2))},
		{Strategy: "ptae", Budget: pta.ErrorBound(0.05)},
	}
	var loop, many []*pta.Result
	dLoop, err := timeIt(func() error {
		loop = loop[:0]
		for _, p := range plans {
			res, err := eng.Compress(ctx, seq, p)
			if err != nil {
				return err
			}
			loop = append(loop, res)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	dMany, err := timeIt(func() error {
		var err error
		many, err = eng.CompressMany(ctx, seq, plans)
		return err
	})
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID: "multibudget", Title: fmt.Sprintf("serving %d budgets of T1 (n=%d): loop vs CompressMany", len(plans), n),
		Header: []string{"plan", "C", "err_loop", "err_many", "same"},
	}
	for i, p := range plans {
		same := "yes"
		if many[i].C != loop[i].C || !many[i].Series.Equal(loop[i].Series, 1e-6) {
			same = "NO"
		}
		t.AddRow(fmt.Sprintf("%s %v", p.Strategy, p.Budget), fmt.Sprintf("%d", many[i].C),
			fmtF(loop[i].Error), fmtF(many[i].Error), same)
	}
	t.AddRow("total ms", "", fmtDur(dLoop), fmtDur(dMany),
		fmtF(float64(dLoop)/float64(dMany))+"x")
	t.AddNote("the ptac plans share one filling of the error/split matrices; only the deepest budget pays")
	t.AddNote("independent evaluations re-fill the matrix per budget — CompressMany is the serving-layer path")
	return t, nil
}
