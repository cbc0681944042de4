package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/temporal"
)

// This file holds the V-optimal histogram DP of Jagadish, Koudas,
// Muthukrishnan, Poosala, Sevcik and Suel ("Optimal Histograms with Quality
// Guarantees", VLDB 1998), the one-dimensional problem that Section 5 of
// the paper generalizes to multi-dimensional, gap-aware temporal data. It
// partitions a value vector v[0..n) into b contiguous buckets, each
// summarized by its mean, minimizing the sum squared error in O(n²b) time
// with prefix sums for O(1) bucket errors. It shares no code with the
// kernel or the row fills, so PTA on a gap-free, single-group, unit-length
// series with one aggregate attribute, which is exactly this problem, has
// an independent oracle.

// bucket is one contiguous run of values summarized by its mean.
type bucket struct {
	lo, hi int // the half-open index range [lo, hi)
	mean   float64
}

// histogram is a V-optimal partition of a value vector.
type histogram struct {
	buckets []bucket
	sse     float64
}

// valuePrefix enables O(1) range means and SSEs.
type valuePrefix struct {
	s  []float64 // s[i] = Σ v[0..i)
	ss []float64
}

func newValuePrefix(vals []float64) *valuePrefix {
	p := &valuePrefix{s: make([]float64, len(vals)+1), ss: make([]float64, len(vals)+1)}
	for i, v := range vals {
		p.s[i+1] = p.s[i] + v
		p.ss[i+1] = p.ss[i] + v*v
	}
	return p
}

// rangeSSE returns the SSE of bucket [lo, hi) under its own mean.
func (p *valuePrefix) rangeSSE(lo, hi int) float64 {
	if hi-lo <= 1 {
		return 0
	}
	n := float64(hi - lo)
	s := p.s[hi] - p.s[lo]
	sse := (p.ss[hi] - p.ss[lo]) - s*s/n
	if sse < 0 {
		return 0
	}
	return sse
}

func (p *valuePrefix) rangeMean(lo, hi int) float64 {
	return (p.s[hi] - p.s[lo]) / float64(hi-lo)
}

// VOptimal builds the minimal-SSE histogram of vals with exactly
// min(b, len(vals)) buckets.
func VOptimal(vals []float64, b int) (*histogram, error) {
	n := len(vals)
	if n == 0 {
		return nil, fmt.Errorf("histogram: empty input")
	}
	if b < 1 {
		return nil, fmt.Errorf("histogram: bucket count %d, want ≥ 1", b)
	}
	b = min(b, n)
	p := newValuePrefix(vals)

	// e[k][i]: minimal SSE of splitting the first i values into k buckets.
	// Only two rows are live; the split matrix is kept for reconstruction.
	prevE := make([]float64, n+1)
	curE := make([]float64, n+1)
	splits := make([][]int32, b)
	for i := 1; i <= n; i++ {
		curE[i] = p.rangeSSE(0, i)
	}
	splits[0] = make([]int32, n+1)
	for k := 2; k <= b; k++ {
		prevE, curE = curE, prevE
		row := make([]int32, n+1)
		for i := range curE {
			curE[i] = math.Inf(1)
		}
		for i := k; i <= n; i++ {
			best := math.Inf(1)
			bestJ := int32(k - 1)
			for j := i - 1; j >= k-1; j-- {
				tail := p.rangeSSE(j, i)
				if e := prevE[j] + tail; e < best {
					best = e
					bestJ = int32(j)
				}
				if tail > best {
					break
				}
			}
			curE[i] = best
			row[i] = bestJ
		}
		splits[k-1] = row
	}

	h := &histogram{sse: curE[n], buckets: make([]bucket, b)}
	hi := n
	for k := b; k >= 1; k-- {
		lo := 0
		if k > 1 {
			lo = int(splits[k-1][hi])
		}
		h.buckets[k-1] = bucket{lo: lo, hi: hi, mean: p.rangeMean(lo, hi)}
		hi = lo
	}
	return h, nil
}

// matchesHistogram reports whether the reduction's rows are h's buckets:
// the same boundaries and, within a relative 1e-9, the same means.
func matchesHistogram(h *histogram, seq *temporal.Sequence) bool {
	if len(h.buckets) != seq.Len() {
		return false
	}
	for i, bk := range h.buckets {
		row := seq.Rows[i]
		if int64(bk.lo) != row.T.Start || int64(bk.hi-1) != row.T.End {
			return false
		}
		if math.Abs(bk.mean-row.Aggs[0]) > 1e-9*(1+math.Abs(bk.mean)) {
			return false
		}
	}
	return true
}

func TestVOptimalExact(t *testing.T) {
	// Two clear plateaus: the 2-bucket optimum splits between them.
	vals := []float64{1, 1, 1, 9, 9, 9}
	h, err := VOptimal(vals, 2)
	if err != nil {
		t.Fatalf("VOptimal: %v", err)
	}
	if h.sse != 0 {
		t.Errorf("SSE = %v, want 0", h.sse)
	}
	if h.buckets[0].hi != 3 || h.buckets[0].mean != 1 || h.buckets[1].mean != 9 {
		t.Errorf("buckets = %+v", h.buckets)
	}
}

func TestVOptimalSingleBucket(t *testing.T) {
	vals := []float64{2, 4, 6}
	h, err := VOptimal(vals, 1)
	if err != nil {
		t.Fatalf("VOptimal: %v", err)
	}
	// SSE = (2−4)² + (4−4)² + (6−4)² = 8.
	if math.Abs(h.sse-8) > 1e-9 || math.Abs(h.buckets[0].mean-4) > 1e-9 {
		t.Errorf("SSE = %v mean = %v", h.sse, h.buckets[0].mean)
	}
}

func TestVOptimalValidation(t *testing.T) {
	if _, err := VOptimal(nil, 2); err == nil {
		t.Error("empty input should fail")
	}
	if _, err := VOptimal([]float64{1}, 0); err == nil {
		t.Error("b = 0 should fail")
	}
	h, err := VOptimal([]float64{1, 2}, 10)
	if err != nil || len(h.buckets) != 2 || h.sse != 0 {
		t.Errorf("b > n should clamp: %+v, %v", h, err)
	}
}

// bruteForceHistogram finds the optimal SSE by enumerating every partition.
func bruteForceHistogram(vals []float64, b int) float64 {
	p := newValuePrefix(vals)
	n := len(vals)
	best := math.Inf(1)
	var rec func(start, left int, acc float64)
	rec = func(start, left int, acc float64) {
		if left == 1 {
			if e := acc + p.rangeSSE(start, n); e < best {
				best = e
			}
			return
		}
		for end := start + 1; end <= n-left+1; end++ {
			rec(end, left-1, acc+p.rangeSSE(start, end))
		}
	}
	rec(0, b, 0)
	return best
}

func TestVOptimalPropMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = math.Round(rng.Float64() * 100)
		}
		b := 1 + rng.Intn(n)
		h, err := VOptimal(vals, b)
		if err != nil {
			return false
		}
		want := bruteForceHistogram(vals, b)
		return math.Abs(h.sse-want) <= 1e-6*(1+want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestVOptimalPropMatchesCoreDP: V-optimal histogram construction is the
// 1-D, gap-free, unit-length special case of PTAc (Section 2.3 of the
// paper); the two independent implementations must agree.
func TestVOptimalPropMatchesCoreDP(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(30)
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = math.Round(rng.Float64()*1000) / 8
		}
		b := 1 + rng.Intn(n)
		h, err1 := VOptimal(vals, b)
		res, err2 := PTAc(unitSequence(vals), b, Options{})
		if err1 != nil || err2 != nil {
			return false
		}
		if math.Abs(h.sse-res.Error) > 1e-6*(1+res.Error) {
			return false
		}
		// Bucket boundaries must coincide with PTA row intervals.
		return matchesHistogram(h, res.Sequence)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestExactEntryPointsMatchVOptimal holds every exact entry point to the
// V-optimal oracle on 1-D, single-group, gap-free, unit-length series of up
// to 64 rows, where TestExactEntryPointsMatchBruteForce stops at 10. At
// every size b each entry point's error is the oracle's SSE within
// TestVOptimalPropMatchesCoreDP's tolerance, and PTAc's rows are the
// oracle's buckets. An error budget must return the smallest b whose
// oracle SSE acceptErrorBound admits. Half the series draw from five
// values, so plateaus and tied candidates are common.
func TestExactEntryPointsMatchVOptimal(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(64)
		vals := make([]float64, n)
		for i := range vals {
			if seed%2 == 0 {
				vals[i] = float64(rng.Intn(5))
			} else {
				vals[i] = math.Round(rng.Float64()*1000) / 8
			}
		}
		seq := unitSequence(vals)
		oracle := make([]*histogram, n+1)
		for b := 1; b <= n; b++ {
			h, err := VOptimal(vals, b)
			if err != nil {
				t.Logf("seed %d: VOptimal(%d): %v", seed, b, err)
				return false
			}
			oracle[b] = h
		}
		maxErr := oracle[1].sse
		epss := []float64{0, 1, rng.Float64()}
		if maxErr > 0 {
			for range 3 {
				epss = append(epss, oracle[1+rng.Intn(n)].sse/maxErr)
			}
		}
		var budgets []MultiBudget
		for b := 1; b <= n; b++ {
			budgets = append(budgets, MultiBudget{C: b})
		}
		for _, eps := range epss {
			budgets = append(budgets, MultiBudget{Eps: eps})
		}

		results, err := runExactEntryPoints(seq, budgets)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		for i, bud := range budgets {
			want := bud.C
			if bud.C == 0 {
				bound := acceptErrorBound(bud.Eps*maxErr, maxErr)
				for want = 1; oracle[want].sse > bound; want++ {
				}
			}
			sse := oracle[want].sse
			for name, res := range results[i] {
				if res.C != want || math.Abs(res.Error-sse) > 1e-6*(1+sse) {
					t.Logf("seed %d %+v: %s returned C=%d error %v; oracle C=%d SSE %v", seed, bud, name, res.C, res.Error, want, sse)
					return false
				}
			}
			if one := results[i]["PTAc/PTAe"]; bud.C > 0 && !matchesHistogram(oracle[want], one.Sequence) {
				t.Logf("seed %d c=%d: PTAc rows %v differ from the oracle's buckets %+v", seed, bud.C, one.Sequence.Rows, oracle[want].buckets)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
