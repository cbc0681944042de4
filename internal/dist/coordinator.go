// Package dist is the scatter/gather tier over ptaserve workers: a
// coordinator shards a series by aggregation group and, within a group, by
// maximal gap-free run — the exact decomposition behind core.DPMultiParallel —
// routes each shard to a worker by rendezvous hashing on its fingerprint
// (serve.RendezvousOrder, the order the workers' peer tier uses too),
// gathers per-shard error curves over the /v1/compress/many wire schema
// with per-shard deadlines and retry-with-backoff, and recombines the
// curves locally in core.SolveRuns, the driver the in-process parallel
// evaluators run, so the distributed result is bit-identical to theirs.
// The registry name is "dist" (strategy.go); docs/ARCHITECTURE.md §
// Distribution has the exactness argument.
package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/pta"
)

const (
	defaultRetries      = 3
	defaultBackoff      = 25 * time.Millisecond
	defaultShardTimeout = 15 * time.Second
	shardFanout         = 16  // concurrent shard fetches per compression
	curveCacheEntries   = 256 // runs held by the sub-request curve cache
	maxResponseBytes    = 64 << 20
)

// Coordinator scatters a series over ptaserve workers and gathers an exact
// result. The unit of distribution is the maximal gap-free run (shards
// never span aggregation groups — every group boundary is a run boundary):
// each shard's error curve is fetched from the worker that rendezvous
// hashing ranks first for its fingerprint, so repeated compressions of the
// same series hit the same workers' matrix and spill caches, and the
// curves are recombined locally by core.SolveRuns, the run-decomposed
// driver behind core.DPMultiParallel, over the global cost
// kernel. Workers therefore only contribute curve values and split
// boundaries — every returned row is re-derived from the coordinator's own
// kernel, which is what makes the distributed result bit-identical to the
// in-process engine's at every parallelism (see docs/ARCHITECTURE.md §
// Distribution).
//
// A Coordinator is safe for concurrent use; its worker set is fixed at
// New.
type Coordinator struct {
	timeout time.Duration // per shard attempt
	retries int           // extra attempts per shard fetch
	backoff time.Duration // first retry delay; doubles per retry

	m *metrics

	// curves is the sub-request cache over gathered per-run state (nil =
	// disabled); see curveCache.
	curves *curveCache

	workers []string
}

// Option configures a Coordinator at construction.
type Option func(*Coordinator) error

// WithWorkers sets the worker base URLs (e.g. "http://10.0.0.7:8080").
func WithWorkers(urls ...string) Option {
	return func(c *Coordinator) error {
		ws, err := normalizeWorkers(urls)
		if err != nil {
			return err
		}
		c.workers = ws
		return nil
	}
}

// WithRegistry puts the coordinator's metric families on reg instead of a
// private registry, so one /metrics exposition carries them.
func WithRegistry(reg *obs.Registry) Option {
	return func(c *Coordinator) error {
		if reg == nil {
			return fmt.Errorf("dist: WithRegistry(nil)")
		}
		c.m = newMetrics(reg)
		return nil
	}
}

// New builds a Coordinator.
func New(opts ...Option) (*Coordinator, error) {
	c := &Coordinator{
		timeout: defaultShardTimeout,
		retries: defaultRetries,
		backoff: defaultBackoff,
		curves:  newCurveCache(curveCacheEntries),
	}
	for _, opt := range opts {
		if err := opt(c); err != nil {
			return nil, err
		}
	}
	if c.m == nil {
		c.m = newMetrics(obs.NewRegistry())
	}
	return c, nil
}

// normalizeWorkers trims trailing slashes and rejects empties/duplicates.
func normalizeWorkers(urls []string) ([]string, error) {
	out := make([]string, 0, len(urls))
	seen := make(map[string]bool, len(urls))
	for _, u := range urls {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u == "" {
			return nil, fmt.Errorf("dist: empty worker URL")
		}
		if seen[u] {
			return nil, fmt.Errorf("dist: duplicate worker URL %q", u)
		}
		seen[u] = true
		out = append(out, u)
	}
	return out, nil
}

// Registry returns the registry carrying the coordinator's metrics.
func (c *Coordinator) Registry() *obs.Registry { return c.m.reg }

// Workers returns the worker set.
func (c *Coordinator) Workers() []string {
	return append([]string(nil), c.workers...)
}

// route returns the key's failover sequence: every worker in the key's
// rendezvous order, the primary first.
func (c *Coordinator) route(key string) []string {
	return serve.RendezvousOrder(c.workers, key)
}

// shard is one maximal gap-free run of the series with the state gathered
// from workers: the error curve (curve[k-1] = optimal error at size k) and,
// per size, the global row ranges the worker's optimal reduction merges.
type shard struct {
	lo, hi int // 1-based row bounds in the global series
	sub    *pta.Series
	fp     string
	curve  []float64
	ranges [][][2]int32 // ranges[k-1][i] = global (first,last) of merged row i
	stats  core.DPStats // worker-reported DP cost, summed over rounds
}

// makeShards cuts the series into shards along the kernel's gap positions —
// exactly the runs core.SolveRuns recombines, in order.
func makeShards(s *pta.Series, kn *core.CostKernel) []*shard {
	bounds := append(append([]int(nil), kn.Gaps()...), s.Len())
	shards := make([]*shard, 0, len(bounds))
	lo := 1
	for _, g := range bounds {
		sub := s.WithRows(s.Rows[lo-1 : g])
		shards = append(shards, &shard{lo: lo, hi: g, sub: sub, fp: pta.Fingerprint(sub)})
		lo = g + 1
	}
	return shards
}

// Compress evaluates one budget over the series using the worker fleet and
// returns a result bit-identical to the in-process engine's (pta.Engine at
// any parallelism, core.DPMultiParallel).
// opts forwards Weights to the workers; ReadAhead does not apply to the
// exact DP.
func (c *Coordinator) Compress(ctx context.Context, s *pta.Series, b pta.Budget, opts pta.Options) (*pta.Result, error) {
	res, err := c.compress(ctx, s, b, opts)
	if err != nil {
		return nil, err
	}
	res.Strategy = "dist"
	res.Budget = b
	return res, nil
}

func (c *Coordinator) compress(ctx context.Context, s *pta.Series, b pta.Budget, opts pta.Options) (*pta.Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	if s.Len() > 0 && len(c.Workers()) == 0 {
		return nil, fmt.Errorf("dist: no workers configured")
	}
	kn, err := core.NewKernel(s, core.Options{Weights: opts.Weights, Ctx: ctx})
	if err != nil {
		return nil, err
	}
	if s.Len() > 0 {
		c.m.compressions.Inc()
	}
	budget := core.MultiBudget{Eps: b.Eps()}
	if b.Kind() == pta.BudgetSize {
		budget = core.MultiBudget{C: b.C()}
	}
	fleet := &fleetRuns{c: c, kn: kn, shards: makeShards(s, kn), opts: opts}
	res, err := core.SolveRuns(ctx, kn, fleet, []core.MultiBudget{budget})
	if err != nil {
		return nil, err
	}
	st := res[0].Stats
	return &pta.Result{
		Series: res[0].Sequence,
		C:      res[0].C,
		Error:  res[0].Error,
		Stats:  pta.Stats{Cells: st.Cells, InnerIters: st.InnerIters, EnvelopeSkips: st.EnvelopeSkips},
	}, nil
}

// fleetRuns is the coordinator's core.RunCurves: one shard per run, its
// curve gathered from the workers. Rows merge from the coordinator's own
// kernel over the worker-reported split ranges, so workers never
// contribute aggregate arithmetic.
type fleetRuns struct {
	c      *Coordinator
	kn     *core.CostKernel
	shards []*shard
	opts   pta.Options
}

func (f *fleetRuns) Extend(ctx context.Context, kcap int) error {
	return f.c.gather(ctx, f.shards, kcap, f.opts)
}

func (f *fleetRuns) Curves() [][]float64 {
	curves := make([][]float64, len(f.shards))
	for i, sh := range f.shards {
		curves[i] = sh.curve
	}
	return curves
}

// Rows merges the ranges absorb checked: len(dst) of them, tiling the shard.
func (f *fleetRuns) Rows(r int, dst []pta.Row) error {
	for i, rg := range f.shards[r].ranges[len(dst)-1] {
		dst[i] = f.kn.MergeRange(int(rg[0]), int(rg[1]))
	}
	return nil
}

func (f *fleetRuns) Stats() core.DPStats {
	var st core.DPStats
	for _, sh := range f.shards {
		st.Add(sh.stats)
	}
	return st
}

// gather extends every shard's curve to min(shard length, kcap) rows,
// fetching only missing rows, with bounded fan-out.
func (c *Coordinator) gather(ctx context.Context, shards []*shard, kcap int, opts pta.Options) error {
	type job struct {
		sh       *shard
		from, to int
	}
	var jobs []job
	for _, sh := range shards {
		// A shard with no curve yet (first gather of this compression) seeds
		// from the sub-request cache; whatever rows the fleet already paid
		// for come back without a worker round trip, and only the missing
		// depth — often none — is fetched below.
		if c.curves != nil && len(sh.curve) == 0 {
			if c.curves.seed(sh, curveKey(sh.fp, opts)) {
				c.m.curveHits.Inc()
			} else {
				c.m.curveMisses.Inc()
			}
		}
		to := min(sh.hi-sh.lo+1, kcap)
		if from := len(sh.curve) + 1; from <= to {
			jobs = append(jobs, job{sh, from, to})
		}
	}
	if len(jobs) == 0 {
		return nil
	}
	c.m.shards.Add(uint64(len(jobs)))
	sem := make(chan struct{}, shardFanout)
	errs := make([]error, len(jobs))
	var wg sync.WaitGroup
	for i, j := range jobs {
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = c.fetchShard(ctx, j.sh, j.from, j.to, opts)
		}(i, j)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	// Store back every deepened shard so the next compression of an
	// unchanged run starts this deep.
	if c.curves != nil {
		for _, j := range jobs {
			c.curves.store(j.sh, curveKey(j.sh.fp, opts))
		}
	}
	return nil
}

// fetchShard asks a worker for the shard's optimal reductions at every size
// in [from, to] (one /v1/compress/many round trip) and absorbs the response.
// Failures — transport errors, timeouts, non-200 statuses, corrupt or
// inconsistent bodies — retry with doubled backoff against the next worker
// in the shard's rendezvous order, so any surviving worker can serve any
// shard (exactness never depends on placement; placement is only cache
// affinity). A 422 is the worker's verdict on the shard itself, which
// every replica would repeat, so it ends the fetch at once with the facade
// error its code names.
func (c *Coordinator) fetchShard(ctx context.Context, sh *shard, from, to int, opts pta.Options) error {
	plans := make([]serve.PlanWire, 0, to-from+1)
	for k := from; k <= to; k++ {
		plans = append(plans, serve.PlanWire{
			Strategy: "ptac",
			Budget:   fmt.Sprintf("c=%d", k),
			Weights:  opts.Weights,
		})
	}
	body, err := json.Marshal(serve.CompressManyRequest{Series: serve.EncodeSeries(sh.sub), Plans: plans})
	if err != nil {
		return err
	}
	cands := c.route(sh.fp)
	if len(cands) == 0 {
		return fmt.Errorf("dist: no workers configured")
	}
	attempts := c.retries + 1
	backoff := c.backoff
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			c.m.retries.Inc()
			select {
			case <-time.After(backoff):
			case <-ctx.Done():
				return fmt.Errorf("dist: shard rows %d-%d: %w", sh.lo, sh.hi, context.Cause(ctx))
			}
			backoff *= 2
		}
		w := cands[a%len(cands)]
		results, err := c.post(ctx, w, body)
		if err == nil {
			if err = sh.absorb(results, from, to); err == nil {
				return nil
			}
		}
		lastErr = fmt.Errorf("worker %s: %w", w, err)
		var werr *workerError
		if ctx.Err() != nil || errors.As(err, &werr) && werr.status == http.StatusUnprocessableEntity {
			return fmt.Errorf("dist: shard rows %d-%d: %w", sh.lo, sh.hi, lastErr)
		}
	}
	return fmt.Errorf("dist: shard rows %d-%d: %d attempts failed: %w", sh.lo, sh.hi, attempts, lastErr)
}

// post runs one worker round trip under the per-shard timeout.
func (c *Coordinator) post(ctx context.Context, worker string, body []byte) ([]serve.ResultWire, error) {
	tctx, cancel := context.WithTimeout(ctx, c.timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(tctx, http.MethodPost, worker+"/v1/compress/many", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	resp, err := http.DefaultClient.Do(req)
	c.m.workerSeconds.With(worker).Observe(time.Since(start).Seconds())
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, maxResponseBytes))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		werr := &workerError{status: resp.StatusCode}
		var env serve.ErrorEnvelope
		if jerr := json.Unmarshal(data, &env); jerr == nil {
			werr.code, werr.msg = env.Error.Code, env.Error.Message
		}
		return nil, werr
	}
	var out serve.ManyResponse
	if err := json.Unmarshal(data, &out); err != nil {
		return nil, fmt.Errorf("decoding response: %w", err)
	}
	return out.Results, nil
}

// workerError is a worker's non-200 answer, with the code and message of
// its error envelope when it sent one.
type workerError struct {
	status    int
	code, msg string
}

func (e *workerError) Error() string {
	if e.msg == "" {
		return fmt.Sprintf("status %d", e.status)
	}
	return fmt.Sprintf("status %d: %s (%s)", e.status, e.msg, e.code)
}

// Unwrap names the facade error behind the worker's code, so a shard whose
// error sums overflow fails the compression with pta.ErrOverflow.
func (e *workerError) Unwrap() error {
	if e.code == "error_overflow" {
		return pta.ErrOverflow
	}
	return nil
}

// absorb validates one worker response carrying sizes from..to and commits
// it to the shard's curve and range table. Every inconsistency is an error:
// the caller treats a corrupt response exactly like a failed one and
// retries elsewhere, so a misbehaving worker can delay a result but never
// distort it.
func (sh *shard) absorb(results []serve.ResultWire, from, to int) error {
	if len(results) != to-from+1 {
		return fmt.Errorf("%d results for %d requested sizes", len(results), to-from+1)
	}
	if len(sh.curve) != from-1 {
		return fmt.Errorf("internal error: curve has %d rows before absorbing size %d", len(sh.curve), from)
	}
	ranges := make([][][2]int32, len(results))
	var pass core.DPStats
	for i, res := range results {
		k := from + i
		if res.C != k || len(res.Rows) != k {
			return fmt.Errorf("size %d answered with c=%d over %d rows", k, res.C, len(res.Rows))
		}
		if math.IsNaN(res.Error) || math.IsInf(res.Error, 0) || res.Error < 0 {
			return fmt.Errorf("size %d reports error %v", k, res.Error)
		}
		rgs, err := sh.mapRows(res.Rows)
		if err != nil {
			return fmt.Errorf("size %d: %w", k, err)
		}
		ranges[i] = rgs
		// Every result of one amortized worker pass reports the shared
		// fill cost; count it once per round trip.
		pass.Cells = max(pass.Cells, res.Stats.Cells)
		pass.InnerIters = max(pass.InnerIters, res.Stats.InnerIters)
		pass.EnvelopeSkips = max(pass.EnvelopeSkips, res.Stats.EnvelopeSkips)
	}
	for i, res := range results {
		sh.curve = append(sh.curve, res.Error)
		sh.ranges = append(sh.ranges, ranges[i])
	}
	sh.stats.Add(pass)
	return nil
}

// mapRows maps a worker result's rows back onto global row ranges by
// matching interval boundaries against the shard's input rows: the worker
// only merges adjacent rows, so the rows must tile the shard exactly. The
// worker's aggregate values are deliberately ignored — recombination
// re-merges from the coordinator's kernel.
func (sh *shard) mapRows(rows []serve.RowWire) ([][2]int32, error) {
	out := make([][2]int32, len(rows))
	p := sh.lo
	for i, r := range rows {
		if p > sh.hi {
			return nil, fmt.Errorf("result rows overrun the shard")
		}
		if int64(sh.sub.Rows[p-sh.lo].T.Start) != r.Start {
			return nil, fmt.Errorf("result row %d starts at %d, shard expects %d", i, r.Start, sh.sub.Rows[p-sh.lo].T.Start)
		}
		j := p
		for ; j <= sh.hi; j++ {
			if int64(sh.sub.Rows[j-sh.lo].T.End) == r.End {
				break
			}
		}
		if j > sh.hi {
			return nil, fmt.Errorf("result row %d ends at %d, not on a shard row boundary", i, r.End)
		}
		out[i] = [2]int32{int32(p), int32(j)}
		p = j + 1
	}
	if p != sh.hi+1 {
		return nil, fmt.Errorf("result rows cover %d of %d shard rows", p-sh.lo, sh.hi-sh.lo+1)
	}
	return out, nil
}
