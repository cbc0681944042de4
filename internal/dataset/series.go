package dataset

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/temporal"
)

// unitSeq wraps per-chronon samples into a single-group sequential relation
// (validity intervals of length one), the representation the paper uses for
// the UCR time-series data: "we replace the timestamp by a validity interval
// of length one ... and pass the data directly to the PTA merging step".
func unitSeq(names []string, samples [][]float64) *temporal.Sequence {
	seq := temporal.NewSequence(nil, names)
	gid := seq.Groups.Intern(nil)
	for t, vals := range samples {
		seq.Rows = append(seq.Rows, temporal.SeqRow{
			Group: gid,
			Aggs:  append([]float64(nil), vals...),
			T:     temporal.Inst(temporal.Chronon(t)),
		})
	}
	return seq
}

// Chaotic synthesizes the stand-in for the UCR chaotic.dat series (paper:
// n = 1 800, one dimension, cmin = 1): the Mackey-Glass delay differential
// equation dx/dt = β·x(t−τ)/(1+x(t−τ)¹⁰) − γ·x with the classic chaotic
// parameters β=0.2, γ=0.1, τ=17, integrated by the Euler method. The
// trajectory is deterministic chaos yet locally smooth, which is why the
// paper can reduce T1 by 95% with under 10% error.
func Chaotic(n int) (*temporal.Sequence, error) {
	if n < 1 {
		return nil, fmt.Errorf("dataset: chaotic length %d, want ≥ 1", n)
	}
	const (
		beta, gamma = 0.2, 0.1
		tau         = 17
		burnIn      = 500
	)
	hist := make([]float64, tau+1)
	for i := range hist {
		hist[i] = 1.2
	}
	x := 1.2
	samples := make([][]float64, n)
	for t := 0; t < burnIn+n; t++ {
		delayed := hist[t%(tau+1)]
		next := x + beta*delayed/(1+math.Pow(delayed, 10)) - gamma*x
		hist[t%(tau+1)] = x
		x = next
		if t >= burnIn {
			samples[t-burnIn] = []float64{math.Round(x*10000) / 100}
		}
	}
	return unitSeq([]string{"value"}, samples), nil
}

// Tide synthesizes the stand-in for tide.dat (paper: n = 8 746, one
// dimension): a sum of the principal tidal harmonics (M2, S2, K1, O1) over
// hourly samples plus small seeded noise — smooth, quasi-periodic data with
// long gently-varying stretches.
func Tide(n int, seed int64) (*temporal.Sequence, error) {
	if n < 1 {
		return nil, fmt.Errorf("dataset: tide length %d, want ≥ 1", n)
	}
	rng := rand.New(rand.NewSource(seed))
	type harmonic struct{ amp, periodH, phase float64 }
	hs := []harmonic{
		{amp: 120, periodH: 12.4206, phase: 0.3}, // M2
		{amp: 48, periodH: 12.0000, phase: 1.1},  // S2
		{amp: 30, periodH: 23.9345, phase: 2.0},  // K1
		{amp: 21, periodH: 25.8193, phase: 0.7},  // O1
		{amp: 10, periodH: 327.86, phase: 1.9},   // Mf (fortnightly)
	}
	samples := make([][]float64, n)
	// Samples every six minutes (0.1 h): the M2 period then spans ~124
	// samples, giving the smooth locally-flat profile of real tide gauges.
	const dt = 0.1
	for t := 0; t < n; t++ {
		v := 200.0
		for _, h := range hs {
			v += h.amp * math.Sin(2*math.Pi*float64(t)*dt/h.periodH+h.phase)
		}
		// Gauge chop and instrument noise: real tide traces are locally
		// rough, which keeps polynomial fits from dominating step
		// functions.
		v += rng.NormFloat64() * 2.0
		samples[t] = []float64{math.Round(v*100) / 100}
	}
	return unitSeq([]string{"level"}, samples), nil
}

// Wind synthesizes the stand-in for wind.dat (paper: n = 6 574, twelve
// dimensions, cmin = 216): correlated AR(1) processes — one per measurement
// station — with the requested number of missing-data gaps punched into the
// timeline so that cmin = gaps+1.
func Wind(n, dims, gaps int, seed int64) (*temporal.Sequence, error) {
	if n < 1 || dims < 1 {
		return nil, fmt.Errorf("dataset: wind needs n ≥ 1 and dims ≥ 1, got n=%d dims=%d", n, dims)
	}
	if gaps < 0 || gaps >= n {
		return nil, fmt.Errorf("dataset: wind gap count %d outside 0..%d", gaps, n-1)
	}
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, dims)
	for d := range names {
		names[d] = fmt.Sprintf("station%02d", d+1)
	}
	// A shared regional wind component keeps the stations correlated.
	state := make([]float64, dims)
	shared := 0.0
	samples := make([][]float64, n)
	for t := 0; t < n; t++ {
		shared = 0.9*shared + rng.NormFloat64()*1.2
		row := make([]float64, dims)
		for d := 0; d < dims; d++ {
			// Gusty per-station turbulence on top of the regional signal:
			// the low persistence keeps 12-dimensional reductions expensive
			// (the paper's T3 reaches ~55% error at 90% reduction).
			state[d] = 0.55*state[d] + rng.NormFloat64()*1.6
			row[d] = math.Round((10+shared+state[d])*100) / 100
		}
		samples[t] = row
	}
	seq := unitSeq(names, samples)
	// Punch gaps: pick distinct cut positions and shift subsequent rows
	// forward by a few chronons each.
	if gaps > 0 {
		cuts := rng.Perm(n - 1)[:gaps]
		shift := make([]temporal.Chronon, n)
		for _, c := range cuts {
			width := temporal.Chronon(1 + rng.Intn(3))
			for i := c + 1; i < n; i++ {
				shift[i] += width
			}
		}
		for i := range seq.Rows {
			seq.Rows[i].T.Start += shift[i]
			seq.Rows[i].T.End += shift[i]
		}
	}
	return seq, nil
}

// Uniform synthesizes the scalability dataset of Table 1(d): rows with p
// uniformly distributed aggregate values, organized as `groups` aggregation
// groups of `perGroup` consecutive unit-length tuples each (groups = 1
// reproduces S1, many groups reproduce S2). Uniform noise has no constant
// runs, so the ITA result size equals the input size, as in the paper.
func Uniform(groups, perGroup, p int, seed int64) (*temporal.Sequence, error) {
	if groups < 1 || perGroup < 1 || p < 1 {
		return nil, fmt.Errorf("dataset: invalid uniform config groups=%d perGroup=%d p=%d", groups, perGroup, p)
	}
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, p)
	for d := range names {
		names[d] = fmt.Sprintf("a%02d", d+1)
	}
	var attrs []temporal.Attribute
	if groups > 1 {
		attrs = []temporal.Attribute{{Name: "grp", Kind: temporal.KindInt}}
	}
	seq := temporal.NewSequence(attrs, names)
	for g := 0; g < groups; g++ {
		var gid int32
		if groups > 1 {
			gid = seq.Groups.Intern([]temporal.Datum{temporal.Int(int64(g))})
		} else {
			gid = seq.Groups.Intern(nil)
		}
		for t := 0; t < perGroup; t++ {
			vals := make([]float64, p)
			for d := range vals {
				vals[d] = rng.Float64() * 100
			}
			seq.Rows = append(seq.Rows, temporal.SeqRow{
				Group: gid,
				Aggs:  vals,
				T:     temporal.Inst(temporal.Chronon(t)),
			})
		}
	}
	return seq, nil
}

// Mixed synthesizes a mixed-shape workload: per group, cumulative-counter
// ramps (monotone non-decreasing running sums, blocks of 40–99 rows)
// interleaved with short blocks of strictly alternating oscillation around
// the current counter level (6–15 rows) — the shape of real telemetry where
// accumulating meters are punctuated by resets, retries or noisy intervals.
// A whole-run monotonicity certificate fails on every group, but the
// piecewise certification (CostKernel.MonotoneSegments) recovers the ramps:
// MonotoneCoverage sits around the ramp share (~0.8), so the monotone row
// fills engage on most rows while the noise falls back to the pruned scan.
// Like Counter, rows are unit-length and consecutive per group, so the ITA
// result size equals the input size.
func Mixed(groups, perGroup, p int, seed int64) (*temporal.Sequence, error) {
	if groups < 1 || perGroup < 1 || p < 1 {
		return nil, fmt.Errorf("dataset: invalid mixed config groups=%d perGroup=%d p=%d", groups, perGroup, p)
	}
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, p)
	for d := range names {
		names[d] = fmt.Sprintf("a%02d", d+1)
	}
	var attrs []temporal.Attribute
	if groups > 1 {
		attrs = []temporal.Attribute{{Name: "grp", Kind: temporal.KindInt}}
	}
	seq := temporal.NewSequence(attrs, names)
	for g := 0; g < groups; g++ {
		var gid int32
		if groups > 1 {
			gid = seq.Groups.Intern([]temporal.Datum{temporal.Int(int64(g))})
		} else {
			gid = seq.Groups.Intern(nil)
		}
		totals := make([]float64, p)
		ramp := true
		left := 40 + rng.Intn(60)
		sign := 1.0
		for t := 0; t < perGroup; t++ {
			if left == 0 {
				if ramp = !ramp; ramp {
					left = 40 + rng.Intn(60)
				} else {
					left = 6 + rng.Intn(10)
					sign = 1.0
				}
			}
			left--
			vals := make([]float64, p)
			if ramp {
				for d := range vals {
					totals[d] += rng.Float64() * 10
					vals[d] = math.Round(totals[d]*100) / 100
				}
			} else {
				// Strictly alternating excursions around the counter level:
				// every dimension flips direction on every row, so no two
				// consecutive noise pairs extend a monotone segment.
				for d := range vals {
					vals[d] = math.Round((totals[d]+sign*(5+rng.Float64()*20))*100) / 100
				}
				sign = -sign
			}
			seq.Rows = append(seq.Rows, temporal.SeqRow{
				Group: gid,
				Aggs:  vals,
				T:     temporal.Inst(temporal.Chronon(t)),
			})
		}
	}
	return seq, nil
}

// Counter synthesizes a cumulative-counter workload: per group and
// dimension, values are running sums of non-negative uniform increments —
// monotone non-decreasing within every maximal run, the shape of request
// counters, cumulative sensor integrals and other accumulating telemetry.
// Monotone runs are exactly the precondition under which the DP cost kernel
// certifies the quadrangle inequality and the monotone row fill (FillDC)
// applies; the `fill` experiment sweeps it on this dataset. Like Uniform, rows are unit-length and consecutive per group, so
// the ITA result size equals the input size.
func Counter(groups, perGroup, p int, seed int64) (*temporal.Sequence, error) {
	if groups < 1 || perGroup < 1 || p < 1 {
		return nil, fmt.Errorf("dataset: invalid counter config groups=%d perGroup=%d p=%d", groups, perGroup, p)
	}
	rng := rand.New(rand.NewSource(seed))
	names := make([]string, p)
	for d := range names {
		names[d] = fmt.Sprintf("a%02d", d+1)
	}
	var attrs []temporal.Attribute
	if groups > 1 {
		attrs = []temporal.Attribute{{Name: "grp", Kind: temporal.KindInt}}
	}
	seq := temporal.NewSequence(attrs, names)
	for g := 0; g < groups; g++ {
		var gid int32
		if groups > 1 {
			gid = seq.Groups.Intern([]temporal.Datum{temporal.Int(int64(g))})
		} else {
			gid = seq.Groups.Intern(nil)
		}
		totals := make([]float64, p)
		for t := 0; t < perGroup; t++ {
			vals := make([]float64, p)
			for d := range vals {
				totals[d] += rng.Float64() * 10
				vals[d] = math.Round(totals[d]*100) / 100
			}
			seq.Rows = append(seq.Rows, temporal.SeqRow{
				Group: gid,
				Aggs:  vals,
				T:     temporal.Inst(temporal.Chronon(t)),
			})
		}
	}
	return seq, nil
}
