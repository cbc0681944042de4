package core

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/temporal"
)

// Stream yields the rows of a sequential relation in (group, time) order.
// ita.Iterator implements it, so the greedy evaluators can merge while the
// ITA result is still being produced; SliceStream adapts an in-memory
// sequence.
type Stream interface {
	// Next returns the next row, or ok=false at the end of the stream.
	Next() (row temporal.SeqRow, ok bool)
	// Sequence returns row-less result metadata (grouping attributes,
	// aggregate names, shared group dictionary).
	Sequence() *temporal.Sequence
}

// SliceStream adapts an in-memory sequence to the Stream interface.
type SliceStream struct {
	seq *temporal.Sequence
	i   int
}

// NewSliceStream returns a stream over the rows of seq.
func NewSliceStream(seq *temporal.Sequence) *SliceStream { return &SliceStream{seq: seq} }

// Next implements Stream.
func (s *SliceStream) Next() (temporal.SeqRow, bool) {
	if s.i >= len(s.seq.Rows) {
		return temporal.SeqRow{}, false
	}
	row := s.seq.Rows[s.i]
	s.i++
	return row, true
}

// Sequence implements Stream.
func (s *SliceStream) Sequence() *temporal.Sequence { return s.seq.WithRows(nil) }

// GreedyResult is the outcome of a greedy PTA evaluation.
type GreedyResult struct {
	// Sequence is the reduced sequential relation.
	Sequence *temporal.Sequence
	// C is the size of the result.
	C int
	// Error is the accumulated merge error SSE(s, z).
	Error float64
	// Merges is the number of merge steps performed.
	Merges int
	// MaxHeap is the largest number of tuples simultaneously held in the
	// heap (c+β of the complexity analysis).
	MaxHeap int
	// ReadAhead is β = MaxHeap − c (never negative).
	ReadAhead int
}

// greedyState is the one greedy merge engine behind GMS, GMSError, GPTAc,
// GPTAe, GMSBridged and Amnesic: the intermediate relation as a list of
// nodes in stream order, and a heap of the pairs each node forms with its
// predecessor. The evaluators differ only in when the top pair merges, the
// condition each passes mergeWhile; bridge decides which pairs may merge
// and ra how they rank.
type greedyState struct {
	src  Stream
	meta *temporal.Sequence
	w2   []float64
	// bridge lets consecutive rows of one group merge across a temporal
	// gap (Section 8); otherwise only adjacent rows (Definition 2) merge.
	bridge bool
	// ra, when set, ranks a pair by dsim/RA(t), t the pair's midpoint
	// (the relative amnesic function of Section 2.2); otherwise by dsim.
	ra func(temporal.Chronon) float64

	h       mergeHeap
	tail    *node
	nextID  int
	lastGap int // LastGapId: id of the most recent node that started a run
	bg, ag  int // nodes currently before/after the last gap
	runs    int // maximal runs inserted: no merging goes below this size

	totalError float64
	merges     int
	maxHeap    int

	// Run accumulators for the exact SSEmax (used by the error-bounded
	// evaluators' final phase): per-dimension length-weighted sums over the
	// current maximal run of *incoming* rows.
	trueEmax float64
	runLen   float64
	runSV    []float64
	runSSV   []float64

	// opts retains the evaluation options for cancellation polling.
	opts Options
	// steps counts inserts and merges since the last context poll.
	steps int
}

func newGreedyState(src Stream, opts Options) (*greedyState, error) {
	meta := src.Sequence()
	w2, err := opts.weightsSquared(meta.P())
	if err != nil {
		return nil, err
	}
	if err := opts.canceled(); err != nil {
		return nil, err
	}
	return &greedyState{
		src:    src,
		meta:   meta,
		w2:     w2,
		opts:   opts,
		runSV:  make([]float64, meta.P()),
		runSSV: make([]float64, meta.P()),
	}, nil
}

// checkCancel polls the context every cancelCheckCells inserts/merges, so
// streaming over an unbounded source aborts promptly on cancellation.
func (g *greedyState) checkCancel() error {
	g.steps++
	if g.steps < cancelCheckCells {
		return nil
	}
	g.steps = 0
	return g.opts.canceled()
}

// rekey sets n's key, the rank of merging n into its predecessor: Inf when
// the pair may not merge, which rekey reports.
func (g *greedyState) rekey(n *node) bool {
	p := n.prev
	if p == nil || p.row.Group != n.row.Group || !(g.bridge || p.row.T.Meets(n.row.T)) {
		n.key = Inf
		return false
	}
	n.key = dsim(p, n, g.w2)
	if g.ra != nil {
		f := g.ra((p.row.T.Start + n.row.T.End) / 2)
		if !(f > 0) {
			f = 1e-12
		}
		n.key /= f
	}
	return true
}

// cost returns the error that merging n into its predecessor introduces:
// its key, unless an amnesic function scaled the key.
func (g *greedyState) cost(n *node) float64 {
	if g.ra == nil {
		return n.key
	}
	return dsim(n.prev, n, g.w2)
}

// insert appends one incoming row to the intermediate relation and the heap
// and maintains the gap counters and the exact-SSEmax run accumulators.
func (g *greedyState) insert(row temporal.SeqRow) {
	g.nextID++
	n := &node{id: g.nextID, row: row, cov: float64(row.T.Len()), prev: g.tail}
	if g.tail != nil {
		g.tail.next = n
	}
	g.tail = n
	if g.rekey(n) {
		g.ag++
	} else {
		// A new maximal run starts (first tuple, group change, or
		// temporal gap): per Fig. 11 lines 7-10.
		g.lastGap = n.id
		g.bg += g.ag
		g.ag = 1
		g.runs++
		g.closeRun()
	}
	g.h.push(n)
	g.maxHeap = max(g.maxHeap, g.h.len())

	l := n.cov
	g.runLen += l
	for d, v := range row.Aggs {
		g.runSV[d] += l * v
		g.runSSV[d] += l * v * v
	}
}

// closeRun adds the finished run's merge-all error to the exact SSEmax.
func (g *greedyState) closeRun() {
	if g.runLen == 0 {
		return
	}
	var sse float64
	for d := range g.runSV {
		sse += g.w2[d] * (g.runSSV[d] - g.runSV[d]*g.runSV[d]/g.runLen)
		g.runSV[d], g.runSSV[d] = 0, 0
	}
	g.trueEmax += max(sse, 0) // a NaN stays: it is ErrOverflow, not 0
	g.runLen = 0
}

// mergeTop folds the heap's top node N into its predecessor P = N.prev
// (MERGE of Section 6.2.2): P.row becomes P.row ⊕ N.row, N leaves the list
// and the heap, and the keys of P and of N's successor are re-evaluated.
// The caller has checked that the top pair may merge.
func (g *greedyState) mergeTop() {
	n := g.h.peek()
	p := n.prev
	g.totalError += g.cost(n)
	g.merges++
	// N leaves the part of the relation before or after the last gap.
	switch {
	case n.id < g.lastGap:
		g.bg--
	case n.id > g.lastGap:
		g.ag--
	}

	p.absorb(n)
	p.next = n.next
	if n.next != nil {
		n.next.prev = p
	} else {
		g.tail = p
	}
	g.h.remove(n)

	// Re-key P against its own predecessor and N's successor against the
	// grown P.
	g.rekey(p)
	g.h.fix(p)
	if s := p.next; s != nil {
		g.rekey(s)
		g.h.fix(s)
	}
}

// mergeWhile is the engine's one merge loop: it merges the top pair while
// that pair may merge, at a finite key, and ok approves it.
func (g *greedyState) mergeWhile(ok func(top *node) bool) error {
	for {
		n := g.h.peek()
		if n == nil || !(n.key < Inf) || !ok(n) {
			return nil
		}
		if err := g.checkCancel(); err != nil {
			return err
		}
		g.mergeTop()
	}
}

// scan inserts every row of the stream, cloned because merges rewrite rows
// in place; a non-nil ok runs mergeWhile(ok) after each insert, the
// streaming phase of gPTAc, gPTAε and the amnesic reduction.
func (g *greedyState) scan(ok func(top *node) bool) error {
	for {
		row, more := g.src.Next()
		if !more {
			return nil
		}
		if err := g.checkCancel(); err != nil {
			return err
		}
		g.insert(row.CloneAggs())
		if ok != nil {
			if err := g.mergeWhile(ok); err != nil {
				return err
			}
		}
	}
}

// reduceTo runs a size-bounded evaluation: scan, merging after each insert
// while more than c tuples remain and stream approves the top pair (no
// streaming merges when stream is nil), then merge the most similar pairs
// down to c like GMS.
func (g *greedyState) reduceTo(c int, stream func(top *node) bool) (*GreedyResult, error) {
	above := func(*node) bool { return g.h.len() > c }
	var during func(*node) bool
	if stream != nil {
		during = func(top *node) bool { return above(top) && stream(top) }
	}
	if err := g.scan(during); err != nil {
		return nil, err
	}
	if err := g.mergeWhile(above); err != nil {
		return nil, err
	}
	return g.result(c, 0)
}

// reduceWithin runs an error-bounded evaluation: scan, merging after each
// insert while stream approves the top pair (no streaming merges when
// stream is nil), then merge the most similar pairs while the total error
// stays within eps·SSEmax, SSEmax exact over every row scanned.
func (g *greedyState) reduceWithin(eps float64, stream func(top *node) bool) (*GreedyResult, error) {
	if err := g.scan(stream); err != nil {
		return nil, err
	}
	g.closeRun()
	bound := eps * g.trueEmax
	if err := g.mergeWhile(func(top *node) bool { return g.totalError+g.cost(top) <= bound }); err != nil {
		return nil, err
	}
	return g.result(0, g.trueEmax)
}

// hasAdjacentSuccessors reports whether at least delta adjacent tuples
// follow node n in the intermediate relation (the δ read-ahead heuristic).
// delta = DeltaInf always reports false, delta ≤ 0 always true.
func (g *greedyState) hasAdjacentSuccessors(n *node, delta int) bool {
	if delta <= 0 {
		return true
	}
	if delta == DeltaInf {
		return false
	}
	count := 0
	for m := n.next; m != nil && m.key < Inf; m = m.next {
		count++
		if count >= delta {
			return true
		}
	}
	return false
}

// result packages the intermediate relation in stream order under the
// engine's one overflow rule. A size budget c > 0 stops above max(c, runs)
// only at a non-finite key, and SSEmax (emax, 0 under a size budget) or the
// total error is non-finite only when the weighted sums left float64: each
// is ErrOverflow, never an answer.
func (g *greedyState) result(c int, emax float64) (*GreedyResult, error) {
	var head *node
	for n := g.tail; n != nil; n = n.prev {
		head = n
	}
	var rows []temporal.SeqRow
	for n := head; n != nil; n = n.next {
		rows = append(rows, n.row)
	}
	if floor := max(c, g.runs); c > 0 && len(rows) > floor {
		return nil, fmt.Errorf("core: greedy merging stopped at %d tuples, above %d: %w", len(rows), floor, ErrOverflow)
	}
	if err := checkFinite(0, emax); err != nil {
		return nil, err
	}
	if math.IsInf(g.totalError, 0) || math.IsNaN(g.totalError) {
		return nil, fmt.Errorf("core: greedy error is %v: %w", g.totalError, ErrOverflow)
	}
	return &GreedyResult{
		Sequence:  g.meta.WithRows(rows),
		C:         len(rows),
		Error:     g.totalError,
		Merges:    g.merges,
		MaxHeap:   g.maxHeap,
		ReadAhead: max(g.maxHeap-len(rows), 0),
	}, nil
}

// GMS evaluates size-bounded PTA with the plain greedy merging strategy of
// Section 6.1: the whole relation is loaded, then the most similar adjacent
// pair is merged until c tuples remain. It needs O(n) space and O(n log n)
// time and its error is within O(log n) of the optimum (Theorem 1).
func GMS(seq *temporal.Sequence, c int, opts Options) (*GreedyResult, error) {
	if err := validateSizeBound(seq, c); err != nil {
		return nil, err
	}
	g, err := newGreedyState(NewSliceStream(seq), opts)
	if err != nil {
		return nil, err
	}
	return g.reduceTo(c, nil)
}

// GMSError evaluates error-bounded PTA with the plain greedy merging
// strategy: merge most-similar pairs while the accumulated error stays
// within eps·SSEmax.
func GMSError(seq *temporal.Sequence, eps float64, opts Options) (*GreedyResult, error) {
	if err := CheckErrorBound(eps); err != nil {
		return nil, err
	}
	g, err := newGreedyState(NewSliceStream(seq), opts)
	if err != nil {
		return nil, err
	}
	return g.reduceWithin(eps, nil)
}

// GPTAc evaluates size-bounded PTA greedily over a stream (algorithm gPTAc,
// Fig. 11): rows are merged as they arrive whenever Proposition 3 proves the
// merge equal to GMS's choice, or when at least delta adjacent successors
// follow the candidate (the read-ahead heuristic). With delta = DeltaInf the
// output is identical to GMS (Theorem 2). It runs in O(n log(c+β)) time and
// O(c+β) space, where β is the read-ahead overshoot.
func GPTAc(src Stream, c, delta int, opts Options) (*GreedyResult, error) {
	if c < 1 {
		return nil, fmt.Errorf("core: size bound %d, want ≥ 1", c)
	}
	g, err := newGreedyState(src, opts)
	if err != nil {
		return nil, err
	}
	return g.reduceTo(c, func(top *node) bool {
		return (top.id < g.lastGap && g.bg >= c) ||
			(top.id > g.lastGap && g.hasAdjacentSuccessors(top, delta))
	})
}

// Estimate carries the a-priori guesses gPTAε needs before the stream ends:
// the ITA result size n̂ and the maximal error Êmax. Underestimating Êmax
// only delays merging (a larger heap); overestimating it may give a result
// different from GMS (Theorem 3).
type Estimate struct {
	N    int
	EMax float64
}

// ExactEstimate computes the exact n and SSEmax of an in-memory sequence —
// the experiments' setting ("instead of estimating ... we use the correct
// values", Section 7.2.2).
func ExactEstimate(seq *temporal.Sequence, opts Options) (Estimate, error) {
	kn, err := NewKernel(seq, opts)
	if err != nil {
		return Estimate{}, err
	}
	return Estimate{N: seq.Len(), EMax: kn.MaxError()}, nil
}

// SampleEstimate estimates n̂ and Êmax for the ITA result of a relation of
// inputSize tuples from a fraction of its rows: n̂ = 2·|r|−1 (the worst-case
// ITA size, Section 6.3) and Êmax scaled up from the sample's maximal error.
func SampleEstimate(sample *temporal.Sequence, inputSize int, fraction float64, opts Options) (Estimate, error) {
	if fraction <= 0 || fraction > 1 {
		return Estimate{}, fmt.Errorf("core: sample fraction %v outside (0, 1]", fraction)
	}
	kn, err := NewKernel(sample, opts)
	if err != nil {
		return Estimate{}, err
	}
	return Estimate{
		N:    2*inputSize - 1,
		EMax: kn.MaxError() / fraction,
	}, nil
}

// RandomSampleEstimate estimates n̂ and Êmax from a uniform random sample of
// the sequence's rows instead of a prefix. The paper's future work
// (Section 8) notes that "novel ways to sample temporal data have to be
// developed in order to obtain good estimates"; random row sampling is the
// obvious first step and is markedly less biased than a prefix sample on
// non-stationary data (salaries with inflation, growing sensor drift, ...),
// because SSEmax integrates squared deviations that late rows may dominate.
//
// Sampled rows are attributed to the maximal adjacent run of the *original*
// sequence they come from (sampling must not invent gaps), the merge-all SSE
// of each run's sample is computed, and the total is scaled by 1/fraction.
func RandomSampleEstimate(seq *temporal.Sequence, fraction float64, seed int64, opts Options) (Estimate, error) {
	if fraction <= 0 || fraction > 1 {
		return Estimate{}, fmt.Errorf("core: sample fraction %v outside (0, 1]", fraction)
	}
	w2, err := opts.weightsSquared(seq.P())
	if err != nil {
		return Estimate{}, err
	}
	n := seq.Len()
	if n == 0 {
		return Estimate{N: 0}, nil
	}
	k := max(2, int(float64(n)*fraction))
	k = min(k, n)
	rng := rand.New(rand.NewSource(seed))
	picked := rng.Perm(n)[:k]
	sort.Ints(picked)

	p := seq.P()
	var (
		total  float64
		runLen float64
		sv     = make([]float64, p)
		ssv    = make([]float64, p)
	)
	flush := func() {
		if runLen == 0 {
			return
		}
		for d := 0; d < p; d++ {
			if e := ssv[d] - sv[d]*sv[d]/runLen; e > 0 {
				total += w2[d] * e
			}
			sv[d], ssv[d] = 0, 0
		}
		runLen = 0
	}
	prevIdx := -2
	for _, idx := range picked {
		// A new original run starts whenever any boundary between the
		// previously sampled row and this one is non-adjacent.
		for b := max(prevIdx, 0); b < idx; b++ {
			if !seq.Adjacent(b) {
				flush()
				break
			}
		}
		row := seq.Rows[idx]
		l := float64(row.T.Len())
		runLen += l
		for d := 0; d < p; d++ {
			sv[d] += l * row.Aggs[d]
			ssv[d] += l * row.Aggs[d] * row.Aggs[d]
		}
		prevIdx = idx
	}
	flush()
	return Estimate{
		N:    n,
		EMax: total / (float64(k) / float64(n)),
	}, nil
}

// GPTAe evaluates error-bounded PTA greedily over a stream (algorithm
// gPTAε, Fig. 13). While streaming it merges pairs whose error stays below
// the expected per-merge budget eps·Êmax/n̂ (Proposition 4); once the stream
// ends, the exact SSEmax accumulated during the scan takes over and merging
// continues while the total error fits eps·SSEmax.
func GPTAe(src Stream, eps float64, delta int, est Estimate, opts Options) (*GreedyResult, error) {
	if err := CheckErrorBound(eps); err != nil {
		return nil, err
	}
	if est.N < 1 {
		return nil, fmt.Errorf("core: estimated size %d, want ≥ 1", est.N)
	}
	g, err := newGreedyState(src, opts)
	if err != nil {
		return nil, err
	}
	perMerge := eps * est.EMax / float64(est.N)
	return g.reduceWithin(eps, func(top *node) bool {
		return g.cost(top) <= perMerge &&
			(top.id < g.lastGap || (top.id > g.lastGap && g.hasAdjacentSuccessors(top, delta)))
	})
}

// Amnesic runs the online size-bounded reduction under a relative amnesic
// function (Palpanas et al., ICDE 2004), which Section 2.2 discusses: rows
// arrive in order, and whenever more than c tuples are buffered the
// adjacent pair with the smallest scaled cost dsim/RA(t) merges, t the
// pair's midpoint, so a function that grows with age lets old data carry
// more error. Error is the unscaled SSE. A nil ra is RA ≡ 1, under which
// the reduction is gPTAc with δ = 0 on a gap-free series; an RA(t) that is
// not positive counts as 1e-12.
func Amnesic(seq *temporal.Sequence, c int, ra func(temporal.Chronon) float64, opts Options) (*GreedyResult, error) {
	if err := validateSizeBound(seq, c); err != nil {
		return nil, err
	}
	g, err := newGreedyState(NewSliceStream(seq), opts)
	if err != nil {
		return nil, err
	}
	g.ra = ra
	return g.reduceTo(c, func(*node) bool { return true })
}

func validateSizeBound(seq *temporal.Sequence, c int) error {
	if seq.Len() == 0 {
		if c != 0 {
			return fmt.Errorf("core: size bound %d for an empty relation", c)
		}
		return nil
	}
	if c < 1 {
		return fmt.Errorf("core: size bound %d, want ≥ 1", c)
	}
	return nil
}

// sortRowsCanonical is used by tests to compare hand-built sequences; the
// greedy algorithms themselves preserve stream order.
func sortRowsCanonical(seq *temporal.Sequence) {
	sort.SliceStable(seq.Rows, func(i, j int) bool {
		a, b := seq.Rows[i], seq.Rows[j]
		if a.Group != b.Group {
			return temporal.CompareDatums(seq.Groups.Values(a.Group), seq.Groups.Values(b.Group)) < 0
		}
		return a.T.Compare(b.T) < 0
	})
}
