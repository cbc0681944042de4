package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/temporal"
)

func benchSequence(n, p int, gapProb float64) *temporal.Sequence {
	rng := rand.New(rand.NewSource(99))
	return randomSequence(rng, n, p, gapProb)
}

func BenchmarkPrefixBuild(b *testing.B) {
	seq := benchSequence(10000, 4, 0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := NewKernel(seq, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSSERange1D(b *testing.B) {
	seq := benchSequence(10000, 1, 0)
	px, err := NewKernel(seq, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += px.MergeErr(1+(i%5000), 5001+(i%5000))
	}
	_ = sink
}

func BenchmarkSSERange8D(b *testing.B) {
	seq := benchSequence(10000, 8, 0)
	px, err := NewKernel(seq, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += px.MergeErr(1+(i%5000), 5001+(i%5000))
	}
	_ = sink
}

// BenchmarkMergeErr measures the merge-cost kernel across attribute widths:
// p = 1 takes the dedicated scalar body, p ∈ {2, 3, 4} the dedicated
// straight-line bodies, and p ≥ 5 the four-wide unrolled loop over the
// dimension-major slabs. The method arm reaches the kernel's one closure
// through MergeErr; the closure arm calls it directly, as the DP row fills
// do per candidate.
func BenchmarkMergeErr(b *testing.B) {
	for _, p := range []int{1, 2, 3, 4, 8, 12} {
		seq := benchSequence(10000, p, 0)
		px, err := NewKernel(seq, Options{})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("method/p=%d", p), func(b *testing.B) {
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += px.MergeErr(1+(i%5000), 5001+(i%5000))
			}
			_ = sink
		})
		rerr := px.rangeErr()
		b.Run(fmt.Sprintf("closure/p=%d", p), func(b *testing.B) {
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += rerr(1+(i%5000), 5001+(i%5000))
			}
			_ = sink
		})
	}
}

// BenchmarkMergeErrShort measures the kernel on short ranges (the shape the
// pruned scan's early exit produces: a handful of rows per merge), where
// call overhead and load latency dominate over the per-dimension loop.
func BenchmarkMergeErrShort(b *testing.B) {
	for _, p := range []int{1, 4, 8} {
		seq := benchSequence(10000, p, 0)
		px, err := NewKernel(seq, Options{})
		if err != nil {
			b.Fatal(err)
		}
		rerr := px.rangeErr()
		b.Run(fmt.Sprintf("p=%d", p), func(b *testing.B) {
			var sink float64
			for i := 0; i < b.N; i++ {
				base := 1 + (i % 9000)
				sink += rerr(base, base+1+(i%7))
			}
			_ = sink
		})
	}
}

func BenchmarkDissimilarity(b *testing.B) {
	a := leaf(temporal.SeqRow{Aggs: []float64{10, 20, 30}, T: temporal.Interval{Start: 0, End: 9}})
	c := leaf(temporal.SeqRow{Aggs: []float64{12, 18, 33}, T: temporal.Interval{Start: 10, End: 14}})
	w2 := []float64{1, 1, 1}
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += dsim(a, c, w2)
	}
	_ = sink
}

func BenchmarkMergeHeapChurn(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	const size = 4096
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var h mergeHeap
		nodes := make([]*node, size)
		for j := range nodes {
			nodes[j] = &node{id: j, key: rng.Float64()}
			h.push(nodes[j])
		}
		for h.len() > 0 {
			h.remove(h.peek())
		}
	}
}

func BenchmarkPTAcGapFree(b *testing.B) {
	seq := benchSequence(2000, 1, 0)
	c := 200
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PTAc(seq, c, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPTAcGapped(b *testing.B) {
	seq := benchSequence(2000, 1, 0.2)
	c := max(seq.CMin(), 200)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PTAc(seq, c, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPTAcSmall runs PTAc on a kernel just below fillAutoThreshold
// (Mixed, one group of 255 rows, p = 1). At c = 3 the call fills too few
// rows for the merge-cost table and scans with the closure; at c = 20 it
// builds the table and scans it.
func BenchmarkPTAcSmall(b *testing.B) {
	seq, err := dataset.Mixed(1, fillAutoThreshold-1, 1, 7)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []int{3, 20} {
		b.Run(fmt.Sprintf("c=%d", c), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := PTAc(seq, c, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPTAeSmall is BenchmarkPTAcSmall's error-budget arm on the same
// kernel: the search fills one row per ensure call and builds the
// merge-cost table once it has filled four. eps = 0.2 answers at 3 rows
// and never builds it; eps = 0.002 answers at 22 rows, the fill of
// PTAc at c = 22.
func BenchmarkPTAeSmall(b *testing.B) {
	seq, err := dataset.Mixed(1, fillAutoThreshold-1, 1, 7)
	if err != nil {
		b.Fatal(err)
	}
	for _, eps := range []float64{0.2, 0.002} {
		b.Run(fmt.Sprintf("eps=%g", eps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := PTAe(seq, eps, Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkGMS(b *testing.B) {
	seq := benchSequence(20000, 1, 0.05)
	c := max(seq.CMin(), 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GMS(seq, c, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGPTAcDelta1(b *testing.B) {
	seq := benchSequence(20000, 1, 0.05)
	c := max(seq.CMin(), 500)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GPTAc(NewSliceStream(seq), c, 1, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGPTAeDelta1(b *testing.B) {
	seq := benchSequence(20000, 1, 0.05)
	est, err := ExactEstimate(seq, Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := GPTAe(NewSliceStream(seq), 0.3, 1, est, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSSEBetween(b *testing.B) {
	seq := benchSequence(20000, 2, 0.05)
	res, err := GMS(seq, max(seq.CMin(), 1000), Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := SSEBetween(seq, res.Sequence, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAllocateCurves measures the run allocation on the batch shape
// (64 runs, curves of 64 entries): one call at K = 4096, and the deepening
// schedule 409 → 4096 on one resumable allocation. It reports the (k, j)
// candidates evaluated per op beside the time.
func BenchmarkAllocateCurves(b *testing.B) {
	curves := batchShapeCurves(guardAllocRuns, guardAllocCurveLen)
	for _, bc := range []struct {
		name     string
		schedule []int
	}{
		{"K=4096", []int{4096}},
		{"deepen", guardAllocSchedule},
	} {
		b.Run(bc.name, func(b *testing.B) {
			var steps int64
			for i := 0; i < b.N; i++ {
				var ca CurveAllocation
				for _, K := range bc.schedule {
					if _, err := ca.Extend(context.Background(), curves, K); err != nil {
						b.Fatal(err)
					}
				}
				steps = ca.steps
			}
			b.ReportMetric(float64(steps), "steps/op")
		})
	}
}

// BenchmarkRunCurves fills the batch shape's run curves on one worker: 64
// runs of 64 rows with p = 4, each curve to its full length, as the batch
// budgets (c = 409, c = 204, eps = 0.05) need. It reports the scan's
// candidate evaluations per op beside the time.
func BenchmarkRunCurves(b *testing.B) {
	seq, err := dataset.Uniform(64, 64, 4, 7)
	if err != nil {
		b.Fatal(err)
	}
	kn, err := NewKernel(seq, Options{})
	if err != nil {
		b.Fatal(err)
	}
	var iters int64
	for i := 0; i < b.N; i++ {
		runs := newRunSolvers(kn, Options{}, 1)
		if err := runs.Extend(context.Background(), 64); err != nil {
			b.Fatal(err)
		}
		iters = runs.Stats().InnerIters
	}
	b.ReportMetric(float64(iters), "iters/op")
}
