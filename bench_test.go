// Benchmarks, one family per table/figure of the paper's evaluation
// (Section 7). They exercise the same code paths as cmd/ptabench at sizes
// that keep a full `go test -bench=. -benchmem` run in the minutes range;
// the ptabench binary reproduces the full-scale figures.
package repro

import (
	"testing"

	"repro/internal/approx"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/experiments"
	"repro/internal/ita"
	"repro/internal/sta"
	"repro/internal/temporal"
)

// benchConfig is the quick-scale experiment configuration shared by the
// experiment-level benchmarks.
func benchConfig() experiments.Config {
	return experiments.Config{Scale: 1, Seed: 42, Quick: true}
}

func mustWorkload(b *testing.B, name string) *temporal.Sequence {
	b.Helper()
	ws, err := experiments.Workloads(benchConfig(), name)
	if err != nil {
		b.Fatal(err)
	}
	return ws[0].Seq
}

// --- Table 1: workload construction and ITA evaluation ---

func BenchmarkTab1WorkloadETDSITA(b *testing.B) {
	cfg := dataset.ETDSConfig{Records: 20000, Horizon: 800, Seed: 1}
	rel, err := dataset.ETDS(cfg)
	if err != nil {
		b.Fatal(err)
	}
	q := ita.Query{Aggs: []ita.AggSpec{{Func: ita.Avg, Attr: "Salary"}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ita.Eval(rel, q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTab1WorkloadGroupedITA(b *testing.B) {
	cfg := dataset.IncumbentsConfig{Records: 20000, Depts: 6, Projs: 4, Horizon: 144, Seed: 2}
	rel, err := dataset.Incumbents(cfg)
	if err != nil {
		b.Fatal(err)
	}
	q := ita.Query{GroupBy: []string{"Dept", "Proj"}, Aggs: []ita.AggSpec{{Func: ita.Avg, Attr: "Salary"}}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ita.Eval(rel, q); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 1: the running example end to end ---

func BenchmarkFig01RunningExample(b *testing.B) {
	rel := dataset.Proj()
	q := ita.Query{GroupBy: []string{"Proj"}, Aggs: []ita.AggSpec{{Func: ita.Avg, Attr: "Sal"}}}
	spans, _ := sta.Spans(1, 8, 4)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sta.Eval(rel, q, spans); err != nil {
			b.Fatal(err)
		}
		seq, err := ita.Eval(rel, q)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := core.PTAc(seq, 4, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 2: the approximation zoo on one excerpt ---

func BenchmarkFig02ApproximationZoo(b *testing.B) {
	seq := mustWorkload(b, "T1")
	series, err := approx.FromSequence(seq)
	if err != nil {
		b.Fatal(err)
	}
	vals := series.Dims[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := approx.DWTTopK(vals, 10); err != nil {
			b.Fatal(err)
		}
		if _, err := approx.DFTTopK(vals, 10); err != nil {
			b.Fatal(err)
		}
		if _, err := approx.Chebyshev(vals, 10); err != nil {
			b.Fatal(err)
		}
		if _, err := approx.PAA(vals, 10, series.Start); err != nil {
			b.Fatal(err)
		}
		if _, err := approx.APCA(vals, 10, series.Start); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Figs. 4-5: DP matrix filling ---

func BenchmarkFig04Fig05Matrices(b *testing.B) {
	seq := mustWorkload(b, "I1")
	c := max(seq.CMin(), seq.Len()/10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.Matrices(seq, c, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 9: greedy merging strategy ---

func BenchmarkFig09GMS(b *testing.B) {
	seq := mustWorkload(b, "T1")
	c := seq.Len() / 10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.GMS(seq, c, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 14: error curves ---

func BenchmarkFig14aErrorCurve(b *testing.B) {
	seq := mustWorkload(b, "I1")
	kmax := max(1, seq.Len()/10)
	kmax = max(kmax, seq.CMin())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ErrorCurve(seq, kmax, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig14bMultiDimCurve(b *testing.B) {
	seq, err := dataset.Uniform(1, 400, 10, 6)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ErrorCurve(seq, seq.Len(), core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 15: head-to-head on T1 ---

func BenchmarkFig15PTAc(b *testing.B) {
	seq := mustWorkload(b, "T1")
	c := max(1, seq.Len()/10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.PTAc(seq, c, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig15GPTAc(b *testing.B) {
	seq := mustWorkload(b, "T1")
	c := max(1, seq.Len()/10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.GPTAc(core.NewSliceStream(seq), c, core.DeltaInf, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig15ATC(b *testing.B) {
	seq := mustWorkload(b, "T1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := approx.ATC(seq, 100, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig15APCA(b *testing.B) {
	seq := mustWorkload(b, "T1")
	series, err := approx.FromSequence(seq)
	if err != nil {
		b.Fatal(err)
	}
	c := max(1, seq.Len()/10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := approx.APCA(series.Dims[0], c, series.Start); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig15DWT(b *testing.B) {
	seq := mustWorkload(b, "T1")
	series, err := approx.FromSequence(seq)
	if err != nil {
		b.Fatal(err)
	}
	c := max(1, seq.Len()/10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := approx.DWTTopK(series.Dims[0], c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig15PAA(b *testing.B) {
	seq := mustWorkload(b, "T1")
	series, err := approx.FromSequence(seq)
	if err != nil {
		b.Fatal(err)
	}
	c := max(1, seq.Len()/10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := approx.PAA(series.Dims[0], c, series.Start); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 16: error-ratio machinery (SSEBetween dominates) ---

func BenchmarkFig16SSEBetween(b *testing.B) {
	seq := mustWorkload(b, "I1")
	res, err := core.GPTAc(core.NewSliceStream(seq), max(seq.CMin(), seq.Len()/10), 1, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.SSEBetween(seq, res.Sequence, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 17: δ sweep ---

func BenchmarkFig17GPTAcDelta(b *testing.B) {
	seq := mustWorkload(b, "I1")
	c := max(seq.CMin(), seq.Len()/10)
	for _, delta := range []int{0, 1, 2, core.DeltaInf} {
		name := "delta=inf"
		if delta != core.DeltaInf {
			name = string(rune('0'+delta)) + "=delta"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.GPTAc(core.NewSliceStream(seq), c, delta, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Figs. 18-19: DP vs PTAc ---

func BenchmarkFig18aDPBasicNoGaps(b *testing.B) {
	seq, err := dataset.Uniform(1, 1200, 10, 10)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.PTAcAblation(seq, 100, core.Options{}, core.PruneNone); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig18aPTAcNoGaps(b *testing.B) {
	seq, err := dataset.Uniform(1, 1200, 10, 10)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.PTAc(seq, 100, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig18bDPBasicWithGaps(b *testing.B) {
	seq, err := dataset.Uniform(100, 12, 10, 11)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.PTAcAblation(seq, 200, core.Options{}, core.PruneNone); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig18bPTAcWithGaps(b *testing.B) {
	seq, err := dataset.Uniform(100, 12, 10, 11)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.PTAc(seq, 200, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig19OutputSizeSweep(b *testing.B) {
	seq, err := dataset.Uniform(100, 10, 10, 12)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []int{100, 400, 800} {
		b.Run(string(rune('0'+c/100))+"00", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.PTAc(seq, c, core.Options{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Fig. 20: heap growth ---

func BenchmarkFig20aGPTAcHeap(b *testing.B) {
	seq, err := dataset.Uniform(1, 20000, 1, 13)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.GPTAc(core.NewSliceStream(seq), 100, 1, core.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if res.MaxHeap > 200 {
			b.Fatalf("heap grew to %d", res.MaxHeap)
		}
	}
}

func BenchmarkFig20bGPTAeHeap(b *testing.B) {
	seq, err := dataset.Uniform(1, 20000, 1, 14)
	if err != nil {
		b.Fatal(err)
	}
	est, err := core.ExactEstimate(seq, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.GPTAe(core.NewSliceStream(seq), 0.1, 1, est, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 21: scalability of the greedy algorithms ---

func BenchmarkFig21GPTAc(b *testing.B) {
	seq, err := dataset.Uniform(1, 50000, 1, 15)
	if err != nil {
		b.Fatal(err)
	}
	c := seq.Len() / 10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.GPTAc(core.NewSliceStream(seq), c, 1, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig21GPTAe(b *testing.B) {
	seq, err := dataset.Uniform(1, 50000, 1, 15)
	if err != nil {
		b.Fatal(err)
	}
	est, err := core.ExactEstimate(seq, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.GPTAe(core.NewSliceStream(seq), 0.65, 1, est, core.Options{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig21PAA(b *testing.B) {
	seq, err := dataset.Uniform(1, 50000, 1, 15)
	if err != nil {
		b.Fatal(err)
	}
	series, err := approx.FromSequence(seq)
	if err != nil {
		b.Fatal(err)
	}
	c := seq.Len() / 10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := approx.PAA(series.Dims[0], c, series.Start); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig21APCA(b *testing.B) {
	seq, err := dataset.Uniform(1, 50000, 1, 15)
	if err != nil {
		b.Fatal(err)
	}
	series, err := approx.FromSequence(seq)
	if err != nil {
		b.Fatal(err)
	}
	c := seq.Len() / 10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := approx.APCA(series.Dims[0], c, series.Start); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig21DWT(b *testing.B) {
	seq, err := dataset.Uniform(1, 50000, 1, 15)
	if err != nil {
		b.Fatal(err)
	}
	series, err := approx.FromSequence(seq)
	if err != nil {
		b.Fatal(err)
	}
	c := seq.Len() / 10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := approx.DWTTopK(series.Dims[0], c); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig21ATC(b *testing.B) {
	seq, err := dataset.Uniform(1, 50000, 1, 15)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := approx.ATC(seq, 0.01, nil); err != nil {
			b.Fatal(err)
		}
	}
}
