// Command ptacli runs temporal aggregation queries over CSV relations: ITA
// (instant), STA (span), and parsimonious compression through the public
// pta engine — any registered strategy, under a size or error budget.
// -parallel sets the exact DP's workers: it changes speed, never the
// output.
//
// SIGINT/SIGTERM cancel the evaluation context: a long compression aborts
// mid-matrix and the command exits with a clean message and status 130
// instead of dying mid-write.
//
// The input format is the one produced by internal/csvio: a header of
// name:kind columns followed by tstart,tend, e.g.
//
//	Empl:string,Proj:string,Sal:float,tstart,tend
//	John,A,800,1,4
//
// Examples:
//
//	ptacli -list-strategies
//	ptacli -in proj.csv -group Proj -agg avg:Sal ita
//	ptacli -in proj.csv -group Proj -agg avg:Sal -budget c=4 pta
//	ptacli -in proj.csv -group Proj -agg avg:Sal -strategy gms -budget eps=0.2 pta
//	ptacli -in proj.csv -group Proj -agg avg:Sal -c 4 -parallel 4 pta
//	ptacli -in proj.csv -group Proj -agg avg:Sal -c 4 -delta 1 gpta
//	ptacli -in proj.csv -group Proj -agg avg:Sal -span 4 sta
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/csvio"
	"repro/internal/dist"
	"repro/internal/ita"
	"repro/internal/sta"
	"repro/internal/temporal"
	"repro/pta"
)

func main() {
	var (
		in       = flag.String("in", "", "input relation CSV (required)")
		out      = flag.String("out", "", "output CSV (default: stdout, human readable)")
		group    = flag.String("group", "", "comma-separated grouping attributes")
		aggs     = flag.String("agg", "", "comma-separated aggregates func:attr[:as] (e.g. avg:Sal,count:)")
		strategy = flag.String("strategy", "", "compression strategy (see -list-strategies; default ptac, gpta: gptac)")
		budget   = flag.String("budget", "", "compression budget: c=<size> or eps=<fraction>")
		c        = flag.Int("c", 0, "size budget shorthand (same as -budget c=N)")
		eps      = flag.Float64("eps", -1, "error budget shorthand (same as -budget eps=X)")
		delta    = flag.Int("delta", 1, "read-ahead δ for streaming strategies (-1 = ∞)")
		parallel = flag.Int("parallel", 1, "engine worker goroutines for the run-decomposed exact DP (0 = all cores); changes speed, never results")
		span     = flag.Int64("span", 0, "span width for sta")
		list     = flag.Bool("list-strategies", false, "list registered compression strategies and exit")
		workers  = flag.String("workers", "", "comma-separated ptaserve worker base URLs enabling -strategy dist")
	)
	flag.Parse()
	if *list {
		listStrategies()
		return
	}
	if *in == "" || flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: ptacli -in data.csv [flags] {ita|sta|pta|gpta}")
		flag.PrintDefaults()
		os.Exit(2)
	}
	op := flag.Arg(0)

	// SIGINT/SIGTERM cancel the evaluation context; the running strategy
	// observes the cancellation inside its DP or merge loops.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	engine, err := pta.New(pta.WithParallelism(*parallel))
	if err != nil {
		fail(err)
	}
	if *workers != "" {
		// -strategy dist scatters the compression across a ptaserve fleet;
		// the coordinator rides the same engine call path as any strategy.
		var urls []string
		for _, w := range strings.Split(*workers, ",") {
			if w = strings.TrimSpace(w); w != "" {
				urls = append(urls, w)
			}
		}
		co, derr := dist.New(dist.WithWorkers(urls...))
		if derr != nil {
			fail(derr)
		}
		dist.Activate(co)
	}

	rel, err := csvio.LoadRelationFile(*in)
	if err != nil {
		fail(err)
	}
	query, err := parseQuery(*group, *aggs)
	if err != nil {
		fail(err)
	}

	var result *temporal.Sequence
	switch op {
	case "ita":
		result, err = ita.Eval(rel, query)
	case "sta":
		if *span <= 0 {
			fail(fmt.Errorf("sta needs -span > 0"))
		}
		tspan, ok := rel.TimeSpan()
		if !ok {
			fail(fmt.Errorf("empty input relation"))
		}
		spans, serr := sta.Spans(tspan.Start, tspan.End, *span)
		if serr != nil {
			fail(serr)
		}
		result, err = sta.Eval(rel, query, spans)
	case "pta":
		b, berr := resolveBudget(*budget, *c, *eps)
		if berr != nil {
			fail(berr)
		}
		name := *strategy
		if name == "" {
			name = "ptac"
		}
		seq, ierr := ita.Eval(rel, query)
		if ierr != nil {
			fail(ierr)
		}
		res, cerr := engine.Compress(ctx, seq, pta.Plan{
			Strategy: name,
			Budget:   b,
			Options:  &pta.Options{ReadAhead: readAhead(*delta)},
		})
		if cerr != nil {
			fail(cerr)
		}
		fmt.Fprintf(os.Stderr, "pta: %s(%v) reduced %d ITA tuples to %d, error %.6g\n",
			name, b, seq.Len(), res.C, res.Error)
		result = res.Series
	case "gpta":
		b, berr := resolveBudget(*budget, *c, *eps)
		if berr != nil {
			fail(berr)
		}
		name := *strategy
		if name == "" {
			name = "gptac"
		}
		opts := pta.Options{ReadAhead: readAhead(*delta)}
		if b.Kind() == pta.BudgetError {
			// Estimates per Section 6.3: the CLI has the data local, so a
			// second pass provides the exact (N, EMax).
			seq, serr := ita.Eval(rel, query)
			if serr != nil {
				fail(serr)
			}
			est, eerr := pta.ExactEstimate(seq, opts)
			if eerr != nil {
				fail(eerr)
			}
			opts.Estimate = &est
		}
		it, ierr := ita.NewIterator(rel, query)
		if ierr != nil {
			fail(ierr)
		}
		res, cerr := engine.CompressStream(ctx, it, pta.Plan{
			Strategy: name,
			Budget:   b,
			Options:  &opts,
		}, nil)
		if cerr != nil {
			fail(cerr)
		}
		fmt.Fprintf(os.Stderr, "gpta: %s(%v) result size %d, error %.6g, max heap %d\n",
			name, b, res.C, res.Error, res.Stats.MaxHeap)
		result = res.Series
	default:
		fail(fmt.Errorf("unknown operation %q (want ita, sta, pta or gpta)", op))
	}
	if err != nil {
		fail(err)
	}

	// Never start writing the output of an interrupted run.
	if err := ctx.Err(); err != nil {
		fail(err)
	}
	if *out != "" {
		if err := csvio.SaveSequenceFile(*out, result); err != nil {
			fail(err)
		}
		return
	}
	fmt.Print(result.String())
}

// resolveBudget merges the -budget flag with the -c/-eps shorthands.
func resolveBudget(budget string, c int, eps float64) (pta.Budget, error) {
	if budget != "" {
		return pta.ParseBudget(budget)
	}
	switch {
	case eps >= 0:
		b := pta.ErrorBound(eps)
		return b, b.Validate()
	case c > 0:
		b := pta.Size(c)
		return b, b.Validate()
	}
	return pta.Budget{}, fmt.Errorf("need -budget, -c or -eps")
}

// readAhead maps the CLI δ convention (-1 = ∞) onto pta.Options.ReadAhead.
func readAhead(delta int) int {
	switch {
	case delta < 0:
		return pta.ReadAheadInf
	case delta == 0:
		return pta.ReadAheadEager
	default:
		return delta
	}
}

// listStrategies prints the canonical registry table — the same description
// source GET /v1/strategies serves as JSON (see pta.FormatStrategies).
func listStrategies() {
	if err := pta.FormatStrategies(os.Stdout); err != nil {
		fail(err)
	}
}

func parseQuery(group, aggs string) (ita.Query, error) {
	var q ita.Query
	if group != "" {
		q.GroupBy = strings.Split(group, ",")
	}
	if aggs == "" {
		return q, fmt.Errorf("need at least one -agg")
	}
	for _, spec := range strings.Split(aggs, ",") {
		parts := strings.SplitN(spec, ":", 3)
		f, err := ita.ParseFunc(parts[0])
		if err != nil {
			return q, err
		}
		a := ita.AggSpec{Func: f}
		if len(parts) > 1 {
			a.Attr = parts[1]
		}
		if len(parts) > 2 {
			a.As = parts[2]
		}
		q.Aggs = append(q.Aggs, a)
	}
	return q, nil
}

// fail reports the error and exits: status 130 with a clean "interrupted"
// message when the run was canceled by a signal, status 1 otherwise.
func fail(err error) {
	if errors.Is(err, pta.ErrCanceled) || errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "ptacli: interrupted")
		os.Exit(130)
	}
	fmt.Fprintf(os.Stderr, "ptacli: %v\n", err)
	os.Exit(1)
}
