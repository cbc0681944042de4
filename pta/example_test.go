package pta_test

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/dataset"
	"repro/internal/ita"
	"repro/pta"
)

// projExample computes the ITA result of the paper's running example
// (Fig. 1): average monthly salary per project, 7 rows.
func projExample() *pta.Series {
	seq, err := ita.Eval(dataset.Proj(), ita.Query{
		GroupBy: []string{"Proj"},
		Aggs:    []ita.AggSpec{{Func: ita.Avg, Attr: "Sal", As: "AvgSal"}},
	})
	if err != nil {
		panic(err)
	}
	return seq
}

// ExampleNew builds a reusable Engine and reduces the running example to
// the best four tuples (Fig. 1d of the paper).
func ExampleNew() {
	eng, err := pta.New(
		pta.WithParallelism(2),        // compress aggregation groups concurrently
		pta.WithWeights([]float64{1}), // per-aggregate error weights (Definition 5)
	)
	if err != nil {
		panic(err)
	}
	res, err := eng.Compress(context.Background(), projExample(),
		pta.Plan{Strategy: "ptac", Budget: pta.Size(4)})
	if err != nil {
		panic(err)
	}
	fmt.Printf("reduced to %d tuples, error %.2f\n", res.C, res.Error)
	fmt.Print(res.Series)
	// Output:
	// reduced to 4 tuples, error 49166.67
	// A | 733.3 | [1, 3]
	// A | 375 | [4, 7]
	// B | 500 | [4, 5]
	// B | 500 | [7, 8]
}

// ExampleCompress is the one-shot path: no engine to hold, no context — a
// thin wrapper over a lazily initialized default engine of one worker.
func ExampleCompress() {
	res, err := pta.Compress(projExample(), "gms", pta.Size(4), pta.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%s(%v): %d tuples, error %.0f, %d merges\n",
		res.Strategy, res.Budget, res.C, res.Error, res.Stats.Merges)
	// Output:
	// gms(c=4): 4 tuples, error 63000, 3 merges
}

// ExampleEngine_Compress evaluates an error-bounded plan and handles the
// typed errors: an infeasible size budget carries the smallest reachable
// size for errors.As.
func ExampleEngine_Compress() {
	eng, _ := pta.New()
	ctx := context.Background()
	seq := projExample()

	res, err := eng.Compress(ctx, seq, pta.Plan{Strategy: "ptae", Budget: pta.ErrorBound(0.2)})
	if err != nil {
		panic(err)
	}
	fmt.Printf("within 20%% of SSEmax: %d tuples, error %.2f\n", res.C, res.Error)

	_, err = eng.Compress(ctx, seq, pta.Plan{Strategy: "ptac", Budget: pta.Size(2)})
	var inf *pta.InfeasibleBudgetError
	if errors.As(err, &inf) {
		fmt.Printf("c=2 infeasible, smallest reachable size is %d\n", inf.CMin)
	}
	// Output:
	// within 20% of SSEmax: 4 tuples, error 49166.67
	// c=2 infeasible, smallest reachable size is 3
}

// ExampleEngine_CompressMany serves several resolutions of one series at
// once: exact-DP plans share a single filling of the DP matrices.
func ExampleEngine_CompressMany() {
	eng, _ := pta.New()
	results, err := eng.CompressMany(context.Background(), projExample(), []pta.Plan{
		{Strategy: "ptac", Budget: pta.Size(3)},
		{Strategy: "ptac", Budget: pta.Size(4)},
		{Strategy: "ptae", Budget: pta.ErrorBound(0.05)},
	})
	if err != nil {
		panic(err)
	}
	for _, res := range results {
		fmt.Printf("%s(%v): %d tuples, error %.2f\n", res.Strategy, res.Budget, res.C, res.Error)
	}
	// Output:
	// ptac(c=3): 3 tuples, error 269285.71
	// ptac(c=4): 4 tuples, error 49166.67
	// ptae(eps=0.05): 5 tuples, error 6666.67
}

// ExampleEngine_CompressStream compresses rows while they are still being
// produced — here an ITA iterator — and pushes the result rows into a Sink.
func ExampleEngine_CompressStream() {
	eng, _ := pta.New()
	it, err := ita.NewIterator(dataset.Proj(), ita.Query{
		GroupBy: []string{"Proj"},
		Aggs:    []ita.AggSpec{{Func: ita.Avg, Attr: "Sal", As: "AvgSal"}},
	})
	if err != nil {
		panic(err)
	}
	pushed := 0
	res, err := eng.CompressStream(context.Background(), it,
		pta.Plan{Strategy: "gptac", Budget: pta.Size(4), Options: &pta.Options{ReadAhead: 1}},
		pta.SinkFunc(func(row pta.Row) error { pushed++; return nil }))
	if err != nil {
		panic(err)
	}
	fmt.Printf("streamed down to %d tuples (%d pushed), max heap %d\n",
		res.C, pushed, res.Stats.MaxHeap)
	// Output:
	// streamed down to 4 tuples (4 pushed), max heap 6
}

// ExampleSeriesFromMDTA aggregates the running example over user-defined
// MDTA groups — per-project halves of the time span — and compresses the
// result, the bridge from reference [4]'s flexible grouping to PTA.
func ExampleSeriesFromMDTA() {
	rel := dataset.Proj()
	query := pta.MDTAQuery{
		GroupBy: []string{"Proj"},
		Aggs:    []ita.AggSpec{{Func: ita.Avg, Attr: "Sal", As: "AvgSal"}},
	}
	combos, err := pta.MDTAValueCombos(rel, query.GroupBy)
	if err != nil {
		panic(err)
	}
	spans := []pta.Interval{{Start: 1, End: 4}, {Start: 5, End: 8}}
	series, err := pta.SeriesFromMDTA(rel, query, pta.MDTASpanSpecs(combos, spans))
	if err != nil {
		panic(err)
	}
	res, err := pta.Compress(series, "ptac", pta.Size(3), pta.Options{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("%d mdta rows compressed to %d\n", series.Len(), res.C)
	// Output:
	// 4 mdta rows compressed to 3
}
