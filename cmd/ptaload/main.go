// Command ptaload is the load generator for ptaserve: it synthesizes a
// workload of series from internal/dataset, drives the daemon through a
// cold phase (every series seen for the first time — cache misses that pay
// the DP fill) and configurable warm rounds (repeat plans against hot
// matrices — cache hits), and emits a JSON benchmark report with per-phase
// latency percentiles, throughput and the observed cache-hit ratio.
//
// The report shape is BENCH_serve.json (committed at the repo root and
// refreshed by the CI smoke step):
//
//	{
//	  "target": "http://127.0.0.1:8080", "series": 12, "rows": 512, ...
//	  "cold": {"requests": 12, "p50_ms": ..., "p99_ms": ..., "rps": ...},
//	  "warm": {"requests": 108, "hits": ..., "p50_ms": ..., ...},
//	  "hit_ratio": 0.97
//	}
//
// With -require-hits the process exits nonzero when the warm phase saw no
// cache hits — the CI guard that the serving stack's cache actually works
// end to end.
//
// With -peer-base the tool replays one round of the warm plan mix against a
// second daemon peered with the first (ptaserve -peers). That daemon never
// saw the workload, so every hit there was fetched over the peer warm tier;
// the report gains a "peer_warm" block and "peer_hit_ratio", and
// -require-hits guards the peer phase too.
//
// Example session:
//
//	ptaserve -addr 127.0.0.1:8080 -spill-dir /tmp/spill &
//	ptaload -base http://127.0.0.1:8080 -series 12 -rows 512 -c 4 \
//	        -warm-rounds 3 -require-hits -out BENCH_serve.json
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/temporal"
)

// The client-side wire model mirrors internal/serve's JSON codec. ptaload
// deliberately does not import internal/serve: it exercises the daemon the
// way an external client would, over the documented wire schema, so a codec
// regression breaks this tool instead of being masked by shared structs.
type wireRow struct {
	Aggs  []float64 `json:"aggs"`
	Start int64     `json:"start"`
	End   int64     `json:"end"`
}

type wireSeries struct {
	AggNames []string  `json:"agg_names"`
	Rows     []wireRow `json:"rows"`
}

type wirePlan struct {
	Strategy string `json:"strategy"`
	Budget   string `json:"budget"`
}

type wireRequest struct {
	Series wireSeries `json:"series"`
	Plan   wirePlan   `json:"plan"`
}

type wireResult struct {
	C     int     `json:"c"`
	Error float64 `json:"error"`
	Cache string  `json:"cache"`
	Stats struct {
		Cells int64 `json:"cells"`
	} `json:"stats"`
}

// options carries every flag so tests drive run() without a flag set.
type options struct {
	base        string
	peerBase    string
	series      int
	rows        int
	workers     int
	warmRounds  int
	timeout     time.Duration
	out         string
	requireHits bool
	seed        int64
	strategy    string
}

// phaseReport is the latency/throughput summary of one phase.
type phaseReport struct {
	Requests int     `json:"requests"`
	Errors   int     `json:"errors"`
	Hits     int     `json:"hits"`
	Misses   int     `json:"misses"`
	P50MS    float64 `json:"p50_ms"`
	P90MS    float64 `json:"p90_ms"`
	P99MS    float64 `json:"p99_ms"`
	Seconds  float64 `json:"seconds"`
	RPS      float64 `json:"rps"`
}

// report is the full BENCH_serve.json document.
type report struct {
	Target     string      `json:"target"`
	Series     int         `json:"series"`
	Rows       int         `json:"rows"`
	Workers    int         `json:"workers"`
	WarmRounds int         `json:"warm_rounds"`
	Cold       phaseReport `json:"cold"`
	Warm       phaseReport `json:"warm"`
	// HitRatio is warm-phase hits over warm-phase non-error requests: after
	// the cold fill, this is the fraction of traffic the matrix cache (or
	// its spill tier) absorbed without re-running the DP.
	HitRatio float64 `json:"hit_ratio"`
	// PeerWarm (with -peer-base) replays one round of the warm plan mix
	// against a second daemon that never saw the workload: every hit there
	// was fetched over the peer warm tier instead of re-running the DP.
	PeerWarm     *phaseReport `json:"peer_warm,omitempty"`
	PeerHitRatio float64      `json:"peer_hit_ratio,omitempty"`
}

func main() {
	var opts options
	flag.StringVar(&opts.base, "base", "http://127.0.0.1:8080", "ptaserve base URL")
	flag.StringVar(&opts.peerBase, "peer-base", "", "second ptaserve base URL peered with -base: replay the warm mix there to measure peer-tier warm hits")
	flag.IntVar(&opts.series, "series", 12, "distinct series in the workload")
	flag.IntVar(&opts.rows, "rows", 512, "rows per series")
	flag.IntVar(&opts.workers, "c", 4, "concurrent client workers")
	flag.IntVar(&opts.warmRounds, "warm-rounds", 3, "repeat rounds over the warm plan mix")
	flag.DurationVar(&opts.timeout, "timeout", 30*time.Second, "per-request client timeout")
	flag.StringVar(&opts.out, "out", "", "also write the JSON report to this file")
	flag.BoolVar(&opts.requireHits, "require-hits", false, "exit nonzero when the warm phase saw no cache hits")
	flag.Int64Var(&opts.seed, "seed", 1, "workload generator seed")
	flag.StringVar(&opts.strategy, "strategy", "", "override the strategy of every plan (e.g. dist against a coordinator; default: ptac/ptae mix)")
	flag.Parse()

	logger := log.New(os.Stderr, "ptaload: ", 0)
	rep, err := run(opts, logger)
	if rep != nil {
		raw, merr := json.MarshalIndent(rep, "", "  ")
		if merr != nil {
			logger.Fatal(merr)
		}
		raw = append(raw, '\n')
		os.Stdout.Write(raw)
		if opts.out != "" {
			if werr := os.WriteFile(opts.out, raw, 0o644); werr != nil {
				logger.Fatal(werr)
			}
		}
	}
	if err != nil {
		logger.Fatal(err)
	}
}

// buildWorkload synthesizes the series set, rotating the single-group
// generators so the traffic spans smooth, mixed-step and counter-shaped
// data — the profiles the DP cost model behaves differently on.
func buildWorkload(opts options) ([]wireSeries, error) {
	gens := []func(groups, perGroup, p int, seed int64) (*temporal.Sequence, error){
		dataset.Uniform, dataset.Mixed, dataset.Counter,
	}
	out := make([]wireSeries, opts.series)
	for i := range out {
		seq, err := gens[i%len(gens)](1, opts.rows, 1, opts.seed+int64(i))
		if err != nil {
			return nil, fmt.Errorf("workload series %d: %w", i, err)
		}
		ws := wireSeries{AggNames: seq.AggNames, Rows: make([]wireRow, len(seq.Rows))}
		for j, r := range seq.Rows {
			ws.Rows[j] = wireRow{
				Aggs:  r.Aggs,
				Start: int64(r.T.Start),
				End:   int64(r.T.End),
			}
		}
		out[i] = ws
	}
	return out, nil
}

// job is one pre-marshaled request body.
type job struct {
	body []byte
}

// outcome is one request's measurement.
type outcome struct {
	latency time.Duration
	cache   string // "hit", "miss", "bypass" or "" on error
	err     error
}

// runPhase drives the jobs through a bounded worker pool and summarizes.
func runPhase(client *http.Client, base string, jobs []job, workers int) (phaseReport, error) {
	if workers < 1 {
		workers = 1
	}
	outcomes := make([]outcome, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				outcomes[i] = send(client, base, jobs[i].body)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	var rep phaseReport
	latencies := make([]time.Duration, 0, len(outcomes))
	for _, o := range outcomes {
		rep.Requests++
		if o.err != nil {
			rep.Errors++
			continue
		}
		latencies = append(latencies, o.latency)
		switch o.cache {
		case "hit":
			rep.Hits++
		case "miss":
			rep.Misses++
		}
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	rep.P50MS = percentileMS(latencies, 0.50)
	rep.P90MS = percentileMS(latencies, 0.90)
	rep.P99MS = percentileMS(latencies, 0.99)
	rep.Seconds = elapsed.Seconds()
	if rep.Seconds > 0 {
		rep.RPS = float64(rep.Requests-rep.Errors) / rep.Seconds
	}
	return rep, nil
}

// send posts one compression and reads the cache disposition.
func send(client *http.Client, base string, body []byte) outcome {
	start := time.Now()
	resp, err := client.Post(base+"/v1/compress", "application/json", bytes.NewReader(body))
	if err != nil {
		return outcome{err: err}
	}
	defer resp.Body.Close()
	var res wireResult
	if derr := json.NewDecoder(resp.Body).Decode(&res); derr != nil {
		return outcome{err: derr}
	}
	if resp.StatusCode != http.StatusOK {
		return outcome{err: fmt.Errorf("status %d", resp.StatusCode)}
	}
	return outcome{latency: time.Since(start), cache: res.Cache}
}

// percentileMS is the nearest-rank percentile of a sorted latency slice.
func percentileMS(sorted []time.Duration, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return float64(sorted[idx]) / float64(time.Millisecond)
}

// run executes the full cold+warm benchmark against opts.base.
func run(opts options, logger *log.Logger) (*report, error) {
	if opts.series < 1 || opts.rows < 8 {
		return nil, fmt.Errorf("ptaload: need series >= 1 and rows >= 8 (got %d, %d)", opts.series, opts.rows)
	}
	workload, err := buildWorkload(opts)
	if err != nil {
		return nil, err
	}
	client := &http.Client{Timeout: opts.timeout}

	// The server must be up before the clock starts.
	resp, err := client.Get(opts.base + "/healthz")
	if err != nil {
		return nil, fmt.Errorf("ptaload: target %s unreachable: %w", opts.base, err)
	}
	resp.Body.Close()

	marshal := func(s wireSeries, p wirePlan) job {
		raw, err := json.Marshal(wireRequest{Series: s, Plan: p})
		if err != nil {
			panic(err) // static wire structs cannot fail to marshal
		}
		return job{body: raw}
	}

	// Cold phase: first sight of every series — each request pays the DP
	// fill. The plan matches the first warm-mix plan so the warm phase
	// starts fully cacheable.
	coldPlan := wirePlan{Strategy: "ptac", Budget: fmt.Sprintf("c=%d", max(2, opts.rows/10))}
	if opts.strategy != "" {
		coldPlan.Strategy = opts.strategy
	}
	coldJobs := make([]job, len(workload))
	for i, s := range workload {
		coldJobs[i] = marshal(s, coldPlan)
	}
	logger.Printf("cold phase: %d series × 1 plan, %d workers", len(workload), opts.workers)
	cold, err := runPhase(client, opts.base, coldJobs, opts.workers)
	if err != nil {
		return nil, err
	}

	// Warm phase: rounds over a plan mix against the now-hot matrices —
	// two size budgets and one error budget, all resolved from the cached
	// matrix of each series.
	warmPlans := []wirePlan{
		{Strategy: "ptac", Budget: fmt.Sprintf("c=%d", max(2, opts.rows/10))},
		{Strategy: "ptac", Budget: fmt.Sprintf("c=%d", max(3, opts.rows/5))},
		{Strategy: "ptae", Budget: "eps=0.5"},
	}
	if opts.strategy != "" {
		// A -strategy override (e.g. dist) keeps the budget mix but routes
		// every plan through the named strategy.
		for i := range warmPlans {
			warmPlans[i].Strategy = opts.strategy
		}
	}
	var warmJobs []job
	for round := 0; round < opts.warmRounds; round++ {
		for _, s := range workload {
			for _, p := range warmPlans {
				warmJobs = append(warmJobs, marshal(s, p))
			}
		}
	}
	logger.Printf("warm phase: %d rounds × %d series × %d plans", opts.warmRounds, len(workload), len(warmPlans))
	warm, err := runPhase(client, opts.base, warmJobs, opts.workers)
	if err != nil {
		return nil, err
	}

	rep := &report{
		Target: opts.base, Series: opts.series, Rows: opts.rows,
		Workers: opts.workers, WarmRounds: opts.warmRounds,
		Cold: cold, Warm: warm,
	}
	if ok := warm.Requests - warm.Errors; ok > 0 {
		rep.HitRatio = float64(warm.Hits) / float64(ok)
	}
	logger.Printf("cold p50=%.2fms p99=%.2fms rps=%.1f | warm p50=%.2fms p99=%.2fms rps=%.1f hit_ratio=%.3f",
		cold.P50MS, cold.P99MS, cold.RPS, warm.P50MS, warm.P99MS, warm.RPS, rep.HitRatio)

	// Peer-warm phase: one round of the same plan mix against a daemon
	// that never saw the workload. Its matrices can only arrive over the
	// peer tier, so hits here measure peer fetch + lazy restore latency.
	errorCount := cold.Errors + warm.Errors
	if opts.peerBase != "" {
		resp, err := client.Get(opts.peerBase + "/healthz")
		if err != nil {
			return rep, fmt.Errorf("ptaload: peer target %s unreachable: %w", opts.peerBase, err)
		}
		resp.Body.Close()
		var peerJobs []job
		for _, s := range workload {
			for _, p := range warmPlans {
				peerJobs = append(peerJobs, marshal(s, p))
			}
		}
		logger.Printf("peer-warm phase: 1 round × %d series × %d plans against %s", len(workload), len(warmPlans), opts.peerBase)
		peer, err := runPhase(client, opts.peerBase, peerJobs, opts.workers)
		if err != nil {
			return rep, err
		}
		rep.PeerWarm = &peer
		if ok := peer.Requests - peer.Errors; ok > 0 {
			rep.PeerHitRatio = float64(peer.Hits) / float64(ok)
		}
		logger.Printf("peer-warm p50=%.2fms p99=%.2fms rps=%.1f hit_ratio=%.3f",
			peer.P50MS, peer.P99MS, peer.RPS, rep.PeerHitRatio)
		errorCount += peer.Errors
		if opts.requireHits && peer.Hits == 0 {
			return rep, fmt.Errorf("ptaload: peer-warm phase saw zero cache hits across %d requests", peer.Requests)
		}
	}

	if errorCount > 0 {
		return rep, fmt.Errorf("ptaload: %d requests failed", errorCount)
	}
	if opts.requireHits && warm.Hits == 0 {
		return rep, fmt.Errorf("ptaload: warm phase saw zero cache hits across %d requests", warm.Requests)
	}
	return rep, nil
}
