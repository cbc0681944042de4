// Incremental demonstrates the maintenance pipeline of a live temporal
// warehouse: tuples arrive (and are retracted) one at a time, an SB-tree
// (Yang & Widom, reference [30] of the paper) keeps the temporal aggregate
// continuously up to date, and on demand the current aggregate is pulled
// out and compressed through the pta facade for display — no batch
// recomputation anywhere.
//
// Run with: go run ./examples/incremental
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"repro/internal/sbtree"
	"repro/internal/temporal"
	"repro/pta"
)

func main() {
	ctx := context.Background()
	tree, err := sbtree.New(1, 42)
	if err != nil {
		log.Fatal(err)
	}
	// One engine outlives every snapshot below and serves the repeated
	// display compressions of the live store.
	engine, err := pta.New()
	if err != nil {
		log.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))

	// Phase 1: 5 000 contract records stream in.
	type rec struct {
		iv  temporal.Interval
		val float64
	}
	var live []rec
	for i := 0; i < 5000; i++ {
		start := temporal.Chronon(rng.Intn(1000))
		r := rec{
			iv:  temporal.Interval{Start: start, End: start + temporal.Chronon(1+rng.Intn(90))},
			val: 1000 + rng.Float64()*9000,
		}
		live = append(live, r)
		if err := tree.Insert(r.iv, []float64{r.val}); err != nil {
			log.Fatal(err)
		}
	}
	count, sums := tree.At(500)
	fmt.Printf("after %d inserts: %d endpoints; at t=500: %d active, avg value %.2f\n",
		len(live), tree.Len(), int(count), sums[0]/count)

	// Snapshot the full aggregate and compress it for a 24-segment chart.
	cols := []sbtree.Column{{Fn: "avg", Attr: 0, Name: "avg_value"}}
	seq, err := tree.Sequence(cols)
	if err != nil {
		log.Fatal(err)
	}
	res, err := engine.Compress(ctx, seq, pta.Plan{Strategy: "ptac", Budget: pta.Size(24)})
	if err != nil {
		log.Fatal(err)
	}
	emax, err := pta.MaxError(seq, pta.Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("aggregate: %d rows → PTA 24 rows (%.3f%% of max error)\n",
		seq.Len(), 100*res.Error/emax)

	// Phase 2: 1 500 contracts are retracted (amendments), the aggregate
	// stays consistent without recomputation.
	for i := 0; i < 1500; i++ {
		r := live[len(live)-1]
		live = live[:len(live)-1]
		if err := tree.Delete(r.iv, []float64{r.val}); err != nil {
			log.Fatal(err)
		}
	}
	seq2, err := tree.Sequence(cols)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after 1500 retractions: aggregate has %d rows\n", seq2.Len())

	// Cross-check: rebuilding from scratch gives the identical aggregate.
	fresh, _ := sbtree.New(1, 7)
	for _, r := range live {
		if err := fresh.Insert(r.iv, []float64{r.val}); err != nil {
			log.Fatal(err)
		}
	}
	seq3, err := fresh.Sequence(cols)
	if err != nil {
		log.Fatal(err)
	}
	if seq2.Equal(seq3, 1e-6) {
		fmt.Println("incrementally maintained aggregate matches a fresh rebuild ✓")
	} else {
		fmt.Println("MISMATCH between incremental and rebuilt aggregates")
	}

	// Final display snapshot: the in-memory error-bounded strategy computes
	// its own exact (N, EMax) estimate.
	snap, err := engine.Compress(ctx, seq2, pta.Plan{
		Strategy: "gptae",
		Budget:   pta.ErrorBound(0.01),
		Options:  &pta.Options{ReadAhead: 1},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("error-bounded display snapshot (ε = 1%%): %d rows, error %.4g\n", snap.C, snap.Error)
}
