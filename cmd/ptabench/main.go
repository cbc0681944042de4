// Command ptabench regenerates the tables and figures of the paper's
// evaluation (Section 7). Each experiment prints an aligned text table whose
// shape corresponds to one paper artifact; -json instead emits the tables as
// a machine-readable JSON array (for recording BENCH_*.json perf
// trajectories across revisions), and -csv writes one CSV per table.
//
// The experiment suite enumerates the compression strategies from the public
// pta registry; `ptabench -exp strategies` runs every registered evaluator
// under both budget kinds.
//
// Usage:
//
//	ptabench -list
//	ptabench -exp fig15
//	ptabench -exp strategies -json > BENCH_strategies.json
//	ptabench -all -scale 0.5 -csv out/
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/pta"
)

// jsonTable is the machine-readable rendering of one experiment outcome.
type jsonTable struct {
	ID        string     `json:"id"`
	Title     string     `json:"title"`
	Header    []string   `json:"header"`
	Rows      [][]string `json:"rows"`
	Notes     []string   `json:"notes,omitempty"`
	ElapsedMS float64    `json:"elapsed_ms"`
	Scale     float64    `json:"scale"`
	Seed      int64      `json:"seed"`
}

func main() {
	var (
		list     = flag.Bool("list", false, "list available experiments and exit")
		exp      = flag.String("exp", "", "run a single experiment by id (e.g. fig15)")
		all      = flag.Bool("all", false, "run every experiment")
		scale    = flag.Float64("scale", 1.0, "workload scale factor (1.0 = reproduction scale)")
		seed     = flag.Int64("seed", 42, "dataset generation seed")
		quick    = flag.Bool("quick", false, "tiny smoke-test sizes")
		parallel = flag.Int("parallel", 1, "engine worker goroutines for the run-decomposed exact DP (0 = all cores); changes speed, never results")
		csvDir   = flag.String("csv", "", "also write each table as CSV into this directory")
		jsonMode = flag.Bool("json", false, "emit a JSON array of tables on stdout instead of text")
	)
	flag.Parse()

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return
	}

	// SIGINT/SIGTERM cancel the run context: the active experiment aborts
	// mid-evaluation and the harness exits with a clean message instead of
	// dying mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	engine, err := pta.New(pta.WithParallelism(*parallel))
	if err != nil {
		fmt.Fprintf(os.Stderr, "ptabench: %v\n", err)
		os.Exit(2)
	}
	cfg := experiments.Config{Scale: *scale, Seed: *seed, Quick: *quick, Engine: engine}
	var ids []string
	switch {
	case *all:
		for _, e := range experiments.All() {
			ids = append(ids, e.ID)
		}
	case *exp != "":
		ids = []string{*exp}
	default:
		fmt.Fprintln(os.Stderr, "ptabench: need -list, -exp <id>, or -all (see -help)")
		os.Exit(2)
	}

	var jsonOut []jsonTable
	for _, id := range ids {
		e, ok := experiments.ByID(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "ptabench: unknown experiment %q (try -list)\n", id)
			os.Exit(2)
		}
		start := time.Now()
		tab, err := e.Run(ctx, cfg)
		if err != nil {
			if errors.Is(err, pta.ErrCanceled) || errors.Is(err, context.Canceled) {
				fmt.Fprintf(os.Stderr, "ptabench: interrupted during %s\n", id)
				os.Exit(130)
			}
			fmt.Fprintf(os.Stderr, "ptabench: %s: %v\n", id, err)
			os.Exit(1)
		}
		elapsed := time.Since(start)
		if *jsonMode {
			jsonOut = append(jsonOut, jsonTable{
				ID: tab.ID, Title: tab.Title, Header: tab.Header, Rows: tab.Rows,
				Notes: tab.Notes, ElapsedMS: float64(elapsed.Microseconds()) / 1000.0,
				Scale: *scale, Seed: *seed,
			})
		} else {
			if err := tab.Format(os.Stdout); err != nil {
				fmt.Fprintf(os.Stderr, "ptabench: %v\n", err)
				os.Exit(1)
			}
			fmt.Printf("(%s finished in %v)\n\n", id, elapsed.Round(time.Millisecond))
		}
		if *csvDir != "" {
			if err := writeCSV(*csvDir, tab); err != nil {
				fmt.Fprintf(os.Stderr, "ptabench: %v\n", err)
				os.Exit(1)
			}
		}
	}
	if *jsonMode {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonOut); err != nil {
			fmt.Fprintf(os.Stderr, "ptabench: %v\n", err)
			os.Exit(1)
		}
	}
}

func writeCSV(dir string, tab *experiments.Table) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, tab.ID+".csv"))
	if err != nil {
		return err
	}
	if err := tab.CSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
