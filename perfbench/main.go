// Command perfbench is the repository's seeded benchmark. It drives the
// system the way its two kinds of users do — HTTP clients of the serving
// layer (serve_hot, serve_spill) and a library caller
// compressing batches in-process (batch) — checks every answer, and prints
// one JSON object as its last line of output.
//
//	perfbench --workload serve_hot --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the object carries the end-to-end metrics; with --trace 1
// a separate traced run splits each op across the layers (see README.md).
// The exit code is non-zero when any answer was wrong or the run failed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"time"
)

type metricDef struct{ name, unit string }

// endToEndMetrics are what a user sees; every untraced run reports each.
var endToEndMetrics = []metricDef{
	{"ops_per_s", "op/s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"peak_rss_mb", "MiB"},
	{"setup_s", "s"},
}

// perLayerMetrics are what a traced run reports. A metric of a layer the
// workload does not reach reads 0.
var perLayerMetrics = []metricDef{
	{"serve.handler_ms", "ms"},
	{"serve.self_ms", "ms"},
	{"serve.req_kb", "KiB"},
	{"serve.resp_kb", "KiB"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.evictions_per_op", "count"},
	{"serve.spill_loads_per_op", "count"},
	{"serve.spill_errors", "count"},
	{"serve.cache_mb", "MiB"},
	{"serve.dp_cells_per_op", "count"},
	{"serve.extend_as_hit", "count"},
	{"pta.fingerprint_ms", "ms"},
	{"pta.warm_compress_ms", "ms"},
	{"pta.restore_ms", "ms"},
	{"pta.many_ms", "ms"},
	{"pta.self_ms", "ms"},
	{"core.cells_per_op", "count"},
	{"core.inner_iters_per_op", "count"},
	{"core.env_skips_per_op", "count"},
	{"core.iters_per_cell", "ratio"},
	{"core.dp_ms", "ms"},
	{"core.fill_online_share", "ratio"},
	{"core.fill_dc_share", "ratio"},
	{"core.fill_pruned_share", "ratio"},
	{"core.coverage", "ratio"},
	{"runtime.cpu_ms_per_op", "ms"},
	{"runtime.cpu_util", "ratio"},
	{"runtime.alloc_kb_per_op", "KiB"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.gc_per_kop", "count"},
	{"client.self_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.reconcile_err", "ratio"},
	{"trace.ops", "count"},
}

var workloads = map[string]func(config) (*report, error){
	"serve_hot":   func(c config) (*report, error) { return runKeyed(c, hotSpec) },
	"serve_spill": func(c config) (*report, error) { return runKeyed(c, spillSpec) },
	"batch":       runBatch,
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	workers  int    // batch engine parallelism and reference workers: nproc
	outDir   string // .bench_build: span files
	workDir  string // per-run scratch (spill directories), removed at exit
}

func (c config) duration() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

// report is one run's outcome before printing.
type report struct {
	attempted, failed int
	metrics           map[string]float64
	notes             []string // human-readable lines for standard error
}

// count fills attempted/failed: an op fails when its request failed, its
// answer check failed, or bad says its answer was wrong after the fact.
func (r *report) count(recs []opRecord, bad func(opRecord) bool) {
	r.attempted = len(recs)
	for _, rec := range recs {
		if rec.failed || bad(rec) {
			r.failed++
		}
	}
}

// latencies of the ops, a failed op counting as infinitely slow.
func latencies(recs []opRecord) []time.Duration {
	out := make([]time.Duration, len(recs))
	for i, r := range recs {
		out[i] = r.lat
		if r.failed {
			out[i] = math.MaxInt64
		}
	}
	return out
}

// endToEnd fills the untraced metrics from the timed phase.
// baseRSS is the RSS the phase started from.
func endToEnd(rep *report, recs []opRecord, wall time.Duration, setupS, baseRSS float64) error {
	s, err := summarize(latencies(recs))
	if err != nil {
		return err
	}
	if !s.hasP90 {
		return fmt.Errorf("%d ops: too few for a p90 with %d samples beyond it", s.n, minBeyond)
	}
	ok := 0
	for _, r := range recs {
		if !r.failed {
			ok++
		}
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return err
	}
	m := rep.metrics
	m["ops_per_s"] = float64(ok) / wall.Seconds()
	m["p50_ms"] = s.p50
	m["p90_ms"] = s.p90
	m["peak_rss_mb"] = rss
	m["setup_s"] = setupS
	line := fmt.Sprintf("latency over %d ops: p50 %.3f ms, p90 %.3f ms", s.n, s.p50, s.p90)
	if s.hasP99 {
		line += fmt.Sprintf(", p99 %.3f ms", s.p99)
	}
	rep.notes = append(rep.notes, line,
		fmt.Sprintf("RSS %.1f MiB at the start of the phase, peak %.1f MiB during it", baseRSS, rss))
	return nil
}

func layerNotes(b breakdown) []string {
	names := make([]string, 0, len(b.layers))
	for l := range b.layers {
		names = append(names, l)
	}
	slices.Sort(names)
	out := []string{fmt.Sprintf("mean op %.3f ms; layer self times per op:", b.opMS)}
	for _, l := range names {
		out = append(out, fmt.Sprintf("  %-8s %10.3f ms  %5.1f%%", l, b.layers[l], 100*b.layers[l]/b.opMS))
	}
	return out
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultOut struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "workload: serve_hot, serve_spill or batch")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the timed phase")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run with the per-layer breakdown")
	flag.Parse()
	cfg.trace = traceFlag == 1
	cfg.workers = runtime.NumCPU()
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (traceFlag != 0 && traceFlag != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload serve_hot|serve_spill|batch --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	os.Exit(mainErr(cfg, run))
}

func mainErr(cfg config, run func(config) (*report, error)) int {
	cfg.outDir = ".bench_build"
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	dir, err := os.MkdirTemp(cfg.outDir, "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	cfg.workDir = dir
	rep, err := run(cfg)
	if rerr := os.RemoveAll(dir); err == nil && rerr != nil {
		err = rerr
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 2
	}

	defs := endToEndMetrics
	if cfg.trace {
		defs = perLayerMetrics
	}
	out := resultOut{
		Correct:   rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricOut, len(defs)),
	}
	var lines []string
	for _, d := range defs {
		v := rep.metrics[d.name]
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		lines = append(lines, fmt.Sprintf("  %-26s %14.6g %s", d.name, v, d.unit))
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d trace %v: %d ops, %d failed\n%s\n%s\n",
		cfg.workload, cfg.seed, cfg.trace, rep.attempted, rep.failed,
		strings.Join(rep.notes, "\n"), strings.Join(lines, "\n"))
	raw, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	fmt.Println(string(raw))
	if !out.Correct {
		return 1
	}
	return 0
}
