// Quickstart walks through the paper's running example (Fig. 1): the proj
// relation, its span and instant temporal aggregations, and the
// parsimonious reduction to four tuples — expressed through the public pta
// facade.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/dataset"
	"repro/internal/ita"
	"repro/internal/sta"
	"repro/pta"
)

func main() {
	ctx := context.Background()
	// The proj relation of Fig. 1(a): who works on which project, for what
	// monthly salary, during which months.
	proj := dataset.Proj()
	fmt.Println("proj relation:")
	fmt.Print(proj)

	// The query: "average monthly salary per project".
	query := ita.Query{
		GroupBy: []string{"Proj"},
		Aggs:    []ita.AggSpec{{Func: ita.Avg, Attr: "Sal", As: "AvgSal"}},
	}

	// Span temporal aggregation reports one row per project and trimester —
	// a predictable size, but blind to where the data actually changes.
	spans, err := sta.Spans(1, 8, 4)
	if err != nil {
		log.Fatal(err)
	}
	staResult, err := sta.Eval(proj, query, spans)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nSTA (per trimester), Fig. 1(b):")
	fmt.Print(staResult)

	// Instant temporal aggregation reports every change point — faithful,
	// but potentially larger than the input.
	itaResult, err := ita.Eval(proj, query)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nITA (every change), Fig. 1(c):")
	fmt.Print(itaResult)

	// Parsimonious temporal aggregation through an Engine — the reusable,
	// context-aware session every consumer shares. Merge the most similar
	// adjacent ITA tuples until 4 rows remain, minimizing the sum squared
	// error. The "ptac" strategy is the exact dynamic program; swap the
	// name for any other registered evaluator (pta.Strategies() lists
	// them).
	engine, err := pta.New()
	if err != nil {
		log.Fatal(err)
	}
	res, err := engine.Compress(ctx, itaResult, pta.Plan{Strategy: "ptac", Budget: pta.Size(4)})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nPTA (c = 4, error %.2f), Fig. 1(d):\n", res.Error)
	fmt.Print(res.Series)

	// The error-bounded variant instead fixes a tolerable error (here 20%
	// of the maximal merging error) and minimizes the size. Same engine —
	// only the plan changes.
	resE, err := engine.Compress(ctx, itaResult, pta.Plan{Strategy: "ptae", Budget: pta.ErrorBound(0.2)})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nPTA (ε = 0.2) reduced %d → %d tuples, error %.2f:\n",
		itaResult.Len(), resE.C, resE.Error)
	fmt.Print(resE.Series)
}
