package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/pta"
)

// The batch input: 64 groups of 64 unit rows with four aggregates, so
// n = 4096 in 64 gap-separated runs (the paper's grouped setting).
const (
	batchGroups = 64
	batchRows   = 64
	batchP      = 4
	batchN      = batchGroups * batchRows
	// batchPool is how many distinct series a run cycles through. The
	// engine keeps no state between calls, so a repeated series costs a
	// full evaluation; the pool only bounds the reference work.
	batchPool = 8
	// serialSample is how many pool series per run are also checked
	// against a serial engine.
	serialSample = 2
)

var batchPlans = []pta.Plan{
	{Strategy: "ptac", Budget: pta.Size(batchN / 10)},
	{Strategy: "ptac", Budget: pta.Size(batchN / 20)},
	{Strategy: "ptae", Budget: pta.ErrorBound(0.05)},
	{Strategy: "gms", Budget: pta.Size(batchN / 10)},
}

func batchSeries(seed int64) *pta.Series {
	s, err := dataset.Uniform(batchGroups, batchRows, batchP, seed)
	if err != nil {
		panic(err) // fixed, valid shape
	}
	return s
}

// batchReferences answers the pool two ways. Every series is answered plan
// by plan through Engine.Compress on a parallel engine: the single-budget
// run-decomposed evaluators, not CompressMany's shared pass. A seeded sample
// of serialSample series is also answered by CompressMany on a serial
// engine, which runs the DP over the whole series instead of run by run and
// so shares none of the parallel path's decomposition and merge; it takes
// seconds per series, which is why it is a sample.
func batchReferences(pool []*pta.Series, seed int64, workers int) (par [][]*pta.Result, serial map[int][]*pta.Result, err error) {
	pe, err := pta.New(pta.WithParallelism(workers))
	if err != nil {
		return nil, nil, err
	}
	par = make([][]*pta.Result, len(pool))
	for i, s := range pool {
		par[i] = make([]*pta.Result, len(batchPlans))
		for j, p := range batchPlans {
			if par[i][j], err = pe.Compress(context.Background(), s, p); err != nil {
				return nil, nil, fmt.Errorf("reference: %w", err)
			}
		}
	}
	se, err := pta.New()
	if err != nil {
		return nil, nil, err
	}
	sample := rand.New(rand.NewSource(seed)).Perm(len(pool))[:serialSample]
	res := make([][]*pta.Result, len(sample))
	errs := make([]error, len(sample))
	var wg sync.WaitGroup
	for k, i := range sample {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res[k], errs[k] = se.CompressMany(context.Background(), pool[i], batchPlans)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, nil, fmt.Errorf("serial reference: %w", err)
	}
	serial = map[int][]*pta.Result{}
	for k, i := range sample {
		serial[i] = res[k]
	}
	return par, serial, nil
}

// serialErrTol bounds the relative difference between the error of a
// parallel answer and that of the serial reference: the serial DP sums the
// error over the whole series, the parallel one run by run, and the sums
// differ from about the fourteenth digit. Sizes and rows must be identical.
const serialErrTol = 1e-9

func runBatch(cfg config) (*report, error) {
	pool := make([]*pta.Series, batchPool)
	for i := range pool {
		pool[i] = batchSeries(cfg.seed*100 + int64(i))
	}
	warmInput := batchSeries(-cfg.seed - 1)
	ctx := context.Background()

	var eng *pta.Engine
	setupS, err := repeatSetup(cfg, 7, func(int) (time.Duration, error) {
		start := time.Now()
		var err error
		if eng, err = pta.New(pta.WithParallelism(cfg.workers)); err != nil {
			return 0, err
		}
		_, err = eng.CompressMany(ctx, warmInput, batchPlans)
		return time.Since(start), err
	}, func() error { return nil })
	if err != nil {
		return nil, err
	}

	var next int64
	var work dpWork
	// first holds each pool series' first answers; every later answer on
	// that series must equal them, and they meet the references after the
	// phase.
	first := make([][]*pta.Result, len(pool))
	// phase runs the single caller for at least d and minOps ops.
	phase := func(d time.Duration, minOps int, tr *tracer) ([]opRecord, time.Duration) {
		var recs []opRecord
		start := time.Now()
		for {
			el := time.Since(start)
			if el >= 4*d || (el >= d && len(recs) >= minOps) {
				return recs, el
			}
			next++
			i := int(next) % len(pool)
			t0 := time.Now()
			res, err := eng.CompressMany(ctx, pool[i], batchPlans)
			t1 := time.Now()
			rec := opRecord{op: next, key: i, lat: t1.Sub(t0), failed: err != nil,
				traced: tr != nil && tracedOp(next)}
			if rec.traced {
				tr.add(span{Name: "client.op", Op: next, Start: t0, End: t1})
				tr.add(span{Name: "pta.many", Op: next, Parent: "client.op", Start: t0, End: t1})
			}
			if err == nil && first[i] == nil {
				first[i] = res
			}
			for j := 0; err == nil && j < len(res); j++ {
				if cerr := sameResult(res[j], first[i][j], 0); cerr != nil {
					rec.failed = true
				}
			}
			if err == nil {
				work.Cells += res[0].Stats.Cells
				work.InnerIters += res[0].Stats.InnerIters
				work.EnvelopeSkips += res[0].Stats.EnvelopeSkips
			}
			recs = append(recs, rec)
		}
	}

	rep := &report{metrics: map[string]float64{}}
	var recs []opRecord
	if !cfg.trace {
		base, err := resetPeakRSS()
		if err != nil {
			return nil, err
		}
		var wall time.Duration
		recs, wall = phase(cfg.duration(), 100, nil)
		if err := endToEnd(rep, recs, wall, setupS, base); err != nil {
			return nil, err
		}
	} else {
		tr := &tracer{}
		p0 := sampleProc()
		recs, _ = phase(cfg.duration(), 40, tr)
		p1 := sampleProc()
		m := rep.metrics
		for k, v := range runtimeMetrics(p0, p1, len(recs), cfg.workers) {
			m[k] = v
		}
		coreCounts(rep, work, len(recs))
		m["core.coverage"] = meanCoverage(pool)
		if err := replayBatch(tr, pool, recs, cfg.workers); err != nil {
			return nil, err
		}
		if err := finishTrace(cfg, rep, tr, recs, "client.op"); err != nil {
			return nil, err
		}
	}

	par, serial, err := batchReferences(pool, cfg.seed, cfg.workers)
	if err != nil {
		return nil, err
	}
	bad := map[int]error{}
	for i, res := range first {
		for j := 0; j < len(res) && bad[i] == nil; j++ {
			if err := sameResult(res[j], par[i][j], 0); err != nil {
				bad[i] = fmt.Errorf("plan %d: %w", j, err)
			} else if ser := serial[i]; ser != nil {
				if err := sameResult(res[j], ser[j], serialErrTol); err != nil {
					bad[i] = fmt.Errorf("plan %d against the serial engine: %w", j, err)
				}
			}
		}
	}
	for i, err := range bad {
		rep.notes = append(rep.notes, fmt.Sprintf("series %d: %v", i, err))
	}
	rep.count(recs, func(r opRecord) bool { return bad[r.key] != nil })
	return rep, nil
}

// replayBatch re-runs the core pass under CompressMany for a few ops: the
// run-decomposed multi-budget DP over the exact plans (it builds its own
// kernels), on the op's input.
func replayBatch(tr *tracer, pool []*pta.Series, recs []opRecord, workers int) error {
	var traced []opRecord
	for _, r := range recs {
		if r.traced {
			traced = append(traced, r)
		}
	}
	var budgets []core.MultiBudget
	for _, p := range batchPlans[:3] {
		if p.Budget.Kind() == pta.BudgetSize {
			budgets = append(budgets, core.MultiBudget{C: p.Budget.C()})
		} else {
			budgets = append(budgets, core.MultiBudget{Eps: p.Budget.Eps()})
		}
	}
	for i := 0; i < min(6, len(traced)); i++ {
		rec := traced[i*len(traced)/6]
		if err := tr.timeCall("core.dp", rec.op, "pta.many", func() error {
			_, err := core.DPMultiParallel(pool[rec.key], budgets, core.Options{}, workers)
			return err
		}); err != nil {
			return err
		}
	}
	tr.scale("core.dp", float64(len(traced)))
	return nil
}
