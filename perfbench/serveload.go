package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/serve"
	"repro/pta"
)

// serveN is the length of every serve-workload series: single group, one
// aggregate, unit-length consecutive rows.
const serveN = 2048

// serveClients is how many closed-loop clients drive the server, in set-up
// and in the timed phase. With one client per core on a 2-vCPU virtual
// machine, each run's op latencies fell into two modes (about 2.8 and 4.8 ms
// on serve_hot) whose mix followed the host's load, so the p50 of a run
// jumped between them; one client kept p50 within a few percent.
const serveClients = 1

var (
	planC10   = wirePlan{"ptac", fmt.Sprintf("c=%d", serveN/10)}
	planC5    = wirePlan{"ptac", fmt.Sprintf("c=%d", serveN/5)}
	planE01   = wirePlan{"ptae", "eps=0.01"}
	planE001  = wirePlan{"ptae", "eps=0.001"}
	sizeLimit = map[string]int{planC10.Budget: serveN / 10, planC5.Budget: serveN / 5}
)

func budgetOf(p wirePlan) pta.Budget {
	b, err := pta.ParseBudget(p.Budget)
	if err != nil {
		panic(err) // the plans above are fixed and valid
	}
	return b
}

// mixedOrCounter alternates the two generators whose cold fills the serve
// workloads can afford (see README: a Uniform series fills ~15× slower).
func mixedOrCounter(i int, seed int64) *pta.Series {
	gen := dataset.Mixed
	if i%2 == 1 {
		gen = dataset.Counter
	}
	s, err := gen(1, serveN, 1, seed)
	if err != nil {
		panic(err) // fixed, valid shape
	}
	return s
}

// keyedSpec describes serve_hot and serve_spill: a fixed set of series asked
// for a fixed set of plans, keyed series·len(plans)+plan.
type keyedSpec struct {
	series    int
	plans     []wirePlan
	warm      []int // plan indices sent per series during set-up, in order
	cache     int   // serve.Config.CacheEntries
	spill     bool
	allHits   bool // every timed answer must be a hit that fills no cells
	replaySet []int
	// probe, when set, is a deeper plan the traced run sends once to each
	// series of replaySet after its phase: the server extends the cached
	// matrices yet answers "hit", which serve.extend_as_hit counts. It
	// stays out of the timed mix, where 48 once-per-run extensions would
	// make the run's first seconds unlike the rest.
	probe *wirePlan
}

var hotSpec = keyedSpec{
	series: 16, plans: []wirePlan{planC10, planC5, planE01, planE001},
	warm: []int{1, 0, 2, 3}, allHits: true, replaySet: []int{0, 1, 2, 3},
}

var spillSpec = keyedSpec{
	series: 48, plans: []wirePlan{planC10, planE01, planE001},
	warm: []int{0}, cache: 8, spill: true, replaySet: []int{0, 1, 2, 3},
	probe: &planC5,
}

// tally accumulates what the response checks learn during one phase.
type tally struct {
	mu         sync.Mutex
	work       dpWork
	extendHits int
}

func (t *tally) add(w dpWork, ext bool) {
	t.mu.Lock()
	t.work.Cells += w.Cells
	t.work.InnerIters += w.InnerIters
	t.work.EnvelopeSkips += w.EnvelopeSkips
	if ext {
		t.extendHits++
	}
	t.mu.Unlock()
}

// references answers every (series, plan) with a serial engine, spreading
// the series over workers goroutines.
func references(series []*pta.Series, plans []wirePlan, workers int) ([][]*pta.Result, error) {
	eng, err := pta.New()
	if err != nil {
		return nil, err
	}
	ps := make([]pta.Plan, len(plans))
	for i, p := range plans {
		ps[i] = pta.Plan{Strategy: p.Strategy, Budget: budgetOf(p)}
	}
	refs := make([][]*pta.Result, len(series))
	errs := make([]error, len(series))
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i, s := range series {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int, s *pta.Series) {
			defer wg.Done()
			defer func() { <-sem }()
			refs[i], errs[i] = eng.CompressMany(context.Background(), s, ps)
		}(i, s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("reference: %w", err)
		}
	}
	return refs, nil
}

func runKeyed(cfg config, spec keyedSpec) (*report, error) {
	np := len(spec.plans)
	series := make([]*pta.Series, spec.series)
	bodies := make([][]byte, spec.series*np)
	for i := range series {
		series[i] = mixedOrCounter(i, cfg.seed*1000+int64(i))
		for p, plan := range spec.plans {
			bodies[i*np+p] = requestBody(series[i], plan)
		}
	}

	var (
		book    *bodyBook
		tracker *workTracker
		cur     *tally
		warming bool // set-up sends the cold fills serve_hot then never sees
	)
	check := func(rec *opRecord, body []byte) bool {
		head, hash, err := parseHead(body)
		if err != nil {
			return false
		}
		plan := spec.plans[rec.key%np]
		work, ext := tracker.observe(rec.key/np, head.Cache, head.Stats)
		cur.add(work, ext)
		ok := book.match(rec.key, hash, body)
		if limit, sized := sizeLimit[plan.Budget]; sized && head.C > limit {
			ok = false
		}
		if spec.allHits && !warming && (head.Cache != "hit" || work.Cells > 0) {
			ok = false
		}
		return ok
	}
	var warmJobs []job
	for _, p := range spec.warm {
		for i := range series {
			warmJobs = append(warmJobs, job{key: i*np + p, body: bodies[i*np+p]})
		}
	}

	var h *harness
	var l *loop
	var dir string
	setup := func(rep int) (time.Duration, error) {
		book, tracker, cur = newBodyBook(), newWorkTracker(), &tally{}
		sc := serve.Config{CacheEntries: spec.cache}
		if spec.spill {
			dir = filepath.Join(cfg.workDir, fmt.Sprintf("spill-%d", rep))
			sc.SpillDir = dir
		}
		start := time.Now()
		var err error
		if h, err = startServer(sc, serveClients, cfg.trace); err != nil {
			return 0, err
		}
		l = &loop{h: h, workers: serveClients, seed: cfg.seed, check: check,
			next: func(rng *rand.Rand) job {
				k := rng.Intn(spec.series)*np + rng.Intn(np)
				return job{key: k, body: bodies[k]}
			}}
		warming = true
		err = l.warm(warmJobs)
		warming = false
		return time.Since(start), err
	}
	teardown := func() error {
		err := h.close()
		if dir != "" {
			if rerr := os.RemoveAll(dir); err == nil {
				err = rerr
			}
		}
		return err
	}
	setupS, err := repeatSetup(cfg, 3, setup, teardown)
	if err != nil {
		return nil, err
	}

	rep := &report{metrics: map[string]float64{}}
	var recs []opRecord
	if cfg.trace {
		recs, err = tracedServePhase(cfg, h, l, rep, func(tr *tracer, recs []opRecord) error {
			coreCounts(rep, cur.work, len(recs))
			rep.metrics["core.coverage"] = meanCoverage(series)
			if err := replayKeyed(tr, spec, series); err != nil {
				return err
			}
			extends := cur.extendHits
			if spec.probe != nil {
				n, err := probeExtends(h, tracker, spec, series)
				if err != nil {
					return err
				}
				extends += n
			}
			rep.metrics["serve.extend_as_hit"] = float64(extends)
			return nil
		}, func() { cur = &tally{} })
	} else {
		cur = &tally{}
		var base float64
		if base, err = resetPeakRSS(); err == nil {
			var wall time.Duration
			recs, wall = l.run(cfg.duration(), 100)
			err = endToEnd(rep, recs, wall, setupS, base)
		}
	}
	if cerr := teardown(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	// The first body of every key meets its reference once; every other
	// body of that key hashed equal to it. The references are computed only
	// now, so that neither set-up nor the phase's peak RSS includes them.
	refs, err := references(series, spec.plans, cfg.workers)
	if err != nil {
		return nil, err
	}
	bad := map[int]error{}
	for k, body := range book.first {
		if err := matchReference(body, refs[k/np][k%np]); err != nil {
			bad[k] = err
		}
	}
	for k, err := range bad {
		rep.notes = append(rep.notes, fmt.Sprintf("series %d plan %s: %v", k/np, spec.plans[k%np].Budget, err))
	}
	rep.count(recs, func(r opRecord) bool { return bad[r.key] != nil })
	return rep, nil
}

// repeatSetup sets the workload up reps times, tearing down all but the
// last, and returns the median set-up time. A traced run sets up once.
func repeatSetup(cfg config, reps int, setup func(rep int) (time.Duration, error), teardown func() error) (float64, error) {
	if cfg.trace {
		reps = 1
	}
	var times []float64
	for i := 0; i < reps; i++ {
		d, err := setup(i)
		if err != nil {
			return 0, fmt.Errorf("set-up: %w", err)
		}
		times = append(times, d.Seconds())
		if i < reps-1 {
			if err := teardown(); err != nil {
				return 0, err
			}
		}
	}
	return median(times), nil
}

// tracedServePhase runs the traced phase, as long as an untraced run's, in
// which every other op is traced. The server-side counters, process counters
// and cache-size samples cover the whole phase. finish adds the workload's
// own per-layer numbers and replays, which are then weighted to stand for
// the traced ops' calls. reset starts a new tally of response checks.
func tracedServePhase(cfg config, h *harness, l *loop, rep *report,
	finish func(tr *tracer, recs []opRecord) error, reset func()) ([]opRecord, error) {
	tr := &tracer{}
	before, err := h.scrape()
	if err != nil {
		return nil, err
	}
	stop := make(chan struct{})
	var maxCache float64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(250 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				if m, err := h.scrape(); err == nil {
					maxCache = max(maxCache, m["ptaserve_cache_bytes"])
				}
			}
		}
	}()
	reset()
	p0 := sampleProc()
	h.tr.Store(tr)
	recs, _ := l.run(cfg.duration(), 40)
	h.tr.Store(nil)
	p1 := sampleProc()
	close(stop)
	wg.Wait()
	after, err := h.scrape()
	if err != nil {
		return nil, err
	}

	ops := len(recs)
	per := func(v float64) float64 { return v / float64(max(ops, 1)) }
	d := func(name string) float64 { return after[name] - before[name] }
	m := rep.metrics
	hits, misses := d("ptaserve_cache_hits_total"), d("ptaserve_cache_misses_total")
	if hits+misses > 0 {
		m["serve.cache_hit_ratio"] = hits / (hits + misses)
	}
	loads := d("ptaserve_spill_loads_total")
	m["serve.evictions_per_op"] = per(d("ptaserve_cache_evictions_total"))
	m["serve.spill_loads_per_op"] = per(loads)
	m["serve.spill_errors"] = d("ptaserve_spill_errors_total")
	m["serve.cache_mb"] = max(maxCache, after["ptaserve_cache_bytes"]) / (1 << 20)
	m["serve.dp_cells_per_op"] = per(d("ptaserve_dp_cells_filled_total"))
	for _, algo := range []string{"online", "dc", "pruned"} {
		m["core.fill_"+algo+"_share"] = per(d(`ptafill_requests_total{algo="` + algo + `"}`))
	}
	var reqB, respB float64
	for _, r := range recs {
		reqB += float64(r.reqB)
		respB += float64(r.respB)
	}
	m["serve.req_kb"] = per(reqB) / 1024
	m["serve.resp_kb"] = per(respB) / 1024
	for k, v := range runtimeMetrics(p0, p1, ops, cfg.workers) {
		m[k] = v
	}
	if err := finish(tr, recs); err != nil {
		return nil, err
	}
	// Every op fingerprints its series. An op that reloads from spill
	// restores and answers in one pta.restore; every other op answers from
	// a set already at depth. frac is the traced share of the ops.
	frac := float64(countTraced(recs)) / float64(max(ops, 1))
	tr.scale("pta.fingerprint", float64(ops)*frac)
	tr.scale("pta.restore", loads*frac)
	tr.scale("pta.warm_compress", (float64(ops)-loads)*frac)
	return recs, finishTrace(cfg, rep, tr, recs, "client.op")
}

func countTraced(recs []opRecord) int {
	n := 0
	for _, r := range recs {
		if r.traced {
			n++
		}
	}
	return n
}

// finishTrace turns the spans of the traced ops into per-layer per-op
// times, checks that they reconcile with the op time, compares the traced
// and untraced ops' p50, and writes the spans.
func finishTrace(cfg config, rep *report, tr *tracer, recs []opRecord, root string) error {
	var traced, untraced []opRecord
	for _, r := range recs {
		if r.traced {
			traced = append(traced, r)
		} else {
			untraced = append(untraced, r)
		}
	}
	m := rep.metrics
	b := account(tr.spans, root, len(traced))
	for name, v := range b.total {
		if name != root {
			m[name+"_ms"] = v
		}
	}
	for lay, v := range b.layers {
		m[lay+".self_ms"] = v
	}
	m["trace.ops"] = float64(len(traced))
	m["trace.reconcile_err"] = b.reconcileErr()
	if b.reconcileErr() > reconcileTolerance {
		rep.notes = append(rep.notes, fmt.Sprintf("layers miss the op time by %.1f%% (tolerance %.0f%%)",
			100*b.reconcileErr(), 100*reconcileTolerance))
	}
	ts, terr := summarize(latencies(traced))
	us, uerr := summarize(latencies(untraced))
	if terr == nil && uerr == nil {
		m["trace.overhead_ratio"] = ts.p50/us.p50 - 1
	}
	rep.notes = append(rep.notes, layerNotes(b)...)
	return writeSpans(filepath.Join(cfg.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed)), tr.spans)
}

// reconcileTolerance bounds how far the clamped per-layer self times may
// miss the mean op time. Replays are a sample run without the contention of
// the timed phase, so a few percent of disagreement is expected; more means
// a replayed call outlasted the span it was charged to.
const reconcileTolerance = 0.10

func coreCounts(r *report, w dpWork, ops int) {
	per := func(v int64) float64 { return float64(v) / float64(max(ops, 1)) }
	r.metrics["core.cells_per_op"] = per(w.Cells)
	r.metrics["core.inner_iters_per_op"] = per(w.InnerIters)
	r.metrics["core.env_skips_per_op"] = per(w.EnvelopeSkips)
	if w.Cells > 0 {
		r.metrics["core.iters_per_cell"] = float64(w.InnerIters) / float64(w.Cells)
	}
}

func meanCoverage(series []*pta.Series) float64 {
	cov := make([]float64, len(series))
	for i, s := range series {
		c, err := pta.MonotoneCoverage(s, pta.Options{})
		if err != nil {
			panic(err) // generated series are valid
		}
		cov[i] = c
	}
	return mean(cov)
}

// probeExtends sends spec.probe once to each series of spec.replaySet and
// counts the answers that called themselves hits while filling cells. Each
// answer must tile its series within the probe's budget.
func probeExtends(h *harness, tracker *workTracker, spec keyedSpec, series []*pta.Series) (int, error) {
	n := 0
	var buf bytes.Buffer
	for _, i := range spec.replaySet {
		status, err := h.post(requestBody(series[i], *spec.probe), -1, false, &buf)
		if err == nil && status != http.StatusOK {
			err = fmt.Errorf("status %d", status)
		}
		var head respHead
		if err == nil {
			head, _, err = parseHead(buf.Bytes())
		}
		if err == nil {
			err = checkConsistent(buf.Bytes(), series[i], sizeLimit[spec.probe.Budget])
		}
		if err != nil {
			return 0, fmt.Errorf("extension probe on series %d: %w", i, err)
		}
		if _, ext := tracker.observe(i, head.Cache, head.Stats); ext {
			n++
		}
	}
	return n, nil
}

// replayKeyed re-runs, on a few of the workload's series, the pta calls a
// keyed op makes inside the server: fingerprint, a warm MatrixSet.Compress
// per plan, and on spill workloads a restore from a snapshot.
func replayKeyed(tr *tracer, spec keyedSpec, series []*pta.Series) error {
	ctx := context.Background()
	const parent = "serve.handler"
	for _, i := range spec.replaySet {
		s := series[i]
		for rep := 0; rep < 5; rep++ {
			if err := tr.timeCall("pta.fingerprint", 0, parent, func() error { pta.Fingerprint(s); return nil }); err != nil {
				return err
			}
		}
		set, err := pta.NewMatrixSet(s, "ptac", pta.Options{})
		if err != nil {
			return err
		}
		if _, err := set.Compress(ctx, budgetOf(spec.plans[spec.warm[0]])); err != nil {
			return err
		}
		if spec.spill {
			// The server restores lazily from a file it already has and
			// answers on the restored set, whose backtrack reads each split
			// row it walks from the file. So the restore and that answer are
			// timed together over rows kept in memory; the snapshot standing
			// in for the file is not timed.
			snap, err := set.Snapshot()
			if err != nil {
				return err
			}
			src := &memRows{n: snap.N, splits: snap.Splits}
			hollow := *snap
			hollow.Splits = nil
			for rep := 0; rep < 3; rep++ {
				for _, p := range spec.plans {
					if err := tr.timeCall("pta.restore", 0, parent, func() error {
						lazy, err := pta.RestoreMatrixSetLazy(s, p.Strategy, pta.Options{}, &hollow, src)
						if err == nil {
							_, err = lazy.Compress(ctx, budgetOf(p))
						}
						return err
					}); err != nil {
						return err
					}
				}
			}
		}
		for rep := 0; rep < 5; rep++ {
			for _, p := range spec.plans {
				if err := tr.timeCall("pta.warm_compress", 0, parent, func() error {
					_, err := set.Compress(ctx, budgetOf(p))
					return err
				}); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// memRows is a pta.SplitRowSource over a snapshot's split rows in memory.
// Like the server's spill view, it hands out a fresh copy of a row on each
// read; unlike it, there is no file to read or checksum to verify.
type memRows struct {
	n      int
	splits []int32 // row-major, rows 1..Filled
}

func (m *memRows) SplitRow(k int) ([]int32, error) {
	if k < 1 || k*(m.n+1) > len(m.splits) {
		return nil, fmt.Errorf("split row %d outside the snapshot", k)
	}
	return slices.Clone(m.splits[(k-1)*(m.n+1) : k*(m.n+1)]), nil
}
