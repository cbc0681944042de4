package core

import (
	"fmt"
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

// greedyState carries the heap, the linked intermediate relation, and the
// gap bookkeeping (LastGapId, BG, AG) shared by GMS, GPTAc and GPTAe.
type greedyState struct {
	w2      []float64
	h       mergeHeap
	tail    *node
	nextID  int
	lastGap int // LastGapId: id of the most recent node inserted with key=Inf
	bg, ag  int // nodes currently before/after the last gap

	totalError float64
	merges     int
	maxHeap    int

	// Run accumulators for the exact SSEmax (used by GPTAe's final phase):
	// per-dimension length-weighted sums over the current maximal adjacent
	// run of *incoming* rows.
	trueEmax  float64
	runLen    float64
	runSV     []float64
	runSSV    []float64
	runActive bool

	// onMerge, when set, observes every merge for tests and tracing.
	onMerge func(n *node)

	// opts retains the evaluation options for cancellation polling.
	opts Options
	// steps counts inserts and merges since the last context poll.
	steps int
}

func newGreedyState(p int, opts Options) (*greedyState, error) {
	w2, err := opts.weightsSquared(p)
	if err != nil {
		return nil, err
	}
	return &greedyState{
		w2:     w2,
		opts:   opts,
		runSV:  make([]float64, p),
		runSSV: make([]float64, p),
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

// insert appends one incoming row to the intermediate relation and the heap
// and maintains the gap counters and the exact-SSEmax run accumulators.
func (g *greedyState) insert(row temporal.SeqRow) *node {
	g.nextID++
	n := &node{id: g.nextID, row: row, key: Inf}
	if g.tail != nil {
		n.prev = g.tail
		g.tail.next = n
		if RowsAdjacent(g.tail.row, row) {
			n.key = Dissimilarity(g.tail.row, row, g.w2)
		}
	}
	g.tail = n
	g.h.push(n)
	if g.h.len() > g.maxHeap {
		g.maxHeap = g.h.len()
	}

	if n.key == Inf {
		// A new maximal adjacent run starts (first tuple, group change, or
		// temporal gap): per Fig. 11 lines 7-10.
		g.lastGap = n.id
		g.bg += g.ag
		g.ag = 1
		g.closeRun()
	} else {
		g.ag++
	}
	g.extendRun(row)
	return n
}

// extendRun and closeRun accumulate the exact SSEmax over incoming rows.
func (g *greedyState) extendRun(row temporal.SeqRow) {
	l := float64(row.T.Len())
	g.runLen += l
	for d, v := range row.Aggs {
		g.runSV[d] += l * v
		g.runSSV[d] += l * v * v
	}
	g.runActive = true
}

func (g *greedyState) closeRun() {
	if !g.runActive {
		return
	}
	var sse float64
	for d := range g.runSV {
		sse += g.w2[d] * (g.runSSV[d] - g.runSV[d]*g.runSV[d]/g.runLen)
		g.runSV[d], g.runSSV[d] = 0, 0
	}
	if sse > 0 {
		g.trueEmax += sse
	}
	g.runLen = 0
	g.runActive = false
}

// exactEmax finalizes and returns SSE(s, ρ(s, cmin)) over all rows seen.
func (g *greedyState) exactEmax() float64 {
	g.closeRun()
	return g.trueEmax
}

// mergeTop folds the heap's top node N into its predecessor P = N.prev
// (MERGE of Section 6.2.2): P.row becomes P.row ⊕ N.row, N leaves the list
// and the heap, and the keys of P and of N's successor are re-evaluated.
// The caller must have checked that the top key is finite.
func (g *greedyState) mergeTop() {
	n := g.h.peek()
	p := n.prev
	if g.onMerge != nil {
		g.onMerge(n)
	}
	g.totalError += n.key
	g.merges++

	p.row = MergeRows(p.row, n.row)
	p.next = n.next
	if n.next != nil {
		n.next.prev = p
	} else {
		g.tail = p
	}
	g.h.remove(n)

	// Re-key P against its own predecessor and N's successor against the
	// grown P.
	if p.prev != nil && RowsAdjacent(p.prev.row, p.row) {
		p.key = Dissimilarity(p.prev.row, p.row, g.w2)
	} else {
		p.key = Inf
	}
	g.h.fix(p)
	if s := p.next; s != nil {
		if RowsAdjacent(p.row, s.row) {
			s.key = Dissimilarity(p.row, s.row, g.w2)
		} else {
			s.key = Inf
		}
		g.h.fix(s)
	}
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

// result walks the linked list in stream order and packages the outcome.
func (g *greedyState) result(meta *temporal.Sequence) *GreedyResult {
	var head *node
	for n := g.tail; n != nil; n = n.prev {
		head = n
	}
	var rows []temporal.SeqRow
	for n := head; n != nil; n = n.next {
		rows = append(rows, n.row)
	}
	out := meta.WithRows(rows)
	readAhead := g.maxHeap - len(rows)
	if readAhead < 0 {
		readAhead = 0
	}
	return &GreedyResult{
		Sequence:  out,
		C:         len(rows),
		Error:     g.totalError,
		Merges:    g.merges,
		MaxHeap:   g.maxHeap,
		ReadAhead: readAhead,
	}
}

// GMS evaluates size-bounded PTA with the plain greedy merging strategy of
// Section 6.1: the whole relation is loaded, then the most similar adjacent
// pair is merged until c tuples remain. It needs O(n) space and O(n log n)
// time and its error is within O(log n) of the optimum (Theorem 1).
func GMS(seq *temporal.Sequence, c int, opts Options) (*GreedyResult, error) {
	if err := validateSizeBound(seq, c); err != nil {
		return nil, err
	}
	g, err := newGreedyState(seq.P(), opts)
	if err != nil {
		return nil, err
	}
	if err := opts.canceled(); err != nil {
		return nil, err
	}
	for _, row := range seq.Rows {
		if err := g.checkCancel(); err != nil {
			return nil, err
		}
		g.insert(row.CloneAggs())
	}
	for g.h.len() > c {
		n := g.h.peek()
		if n.key == Inf {
			break
		}
		if err := g.checkCancel(); err != nil {
			return nil, err
		}
		g.mergeTop()
	}
	return g.result(seq), nil
}

// GMSError evaluates error-bounded PTA with the plain greedy merging
// strategy: merge most-similar pairs while the accumulated error stays
// within eps·SSEmax.
func GMSError(seq *temporal.Sequence, eps float64, opts Options) (*GreedyResult, error) {
	if err := CheckErrorBound(eps); err != nil {
		return nil, err
	}
	g, err := newGreedyState(seq.P(), opts)
	if err != nil {
		return nil, err
	}
	if err := opts.canceled(); err != nil {
		return nil, err
	}
	for _, row := range seq.Rows {
		if err := g.checkCancel(); err != nil {
			return nil, err
		}
		g.insert(row.CloneAggs())
	}
	bound := eps * g.exactEmax()
	for {
		n := g.h.peek()
		if n == nil || n.key == Inf || g.totalError+n.key > bound {
			break
		}
		if err := g.checkCancel(); err != nil {
			return nil, err
		}
		g.mergeTop()
	}
	return g.result(seq), nil
}

// GPTAc evaluates size-bounded PTA greedily over a stream (algorithm gPTAc,
// Fig. 11): rows are merged as they arrive whenever Proposition 3 proves the
// merge equal to GMS's choice, or when at least delta adjacent successors
// follow the candidate (the read-ahead heuristic). With delta = DeltaInf the
// output is identical to GMS (Theorem 2). It runs in O(n log(c+β)) time and
// O(c+β) space, where β is the read-ahead overshoot.
func GPTAc(src Stream, c, delta int, opts Options) (*GreedyResult, error) {
	meta := src.Sequence()
	if c < 1 {
		return nil, fmt.Errorf("core: size bound %d, want ≥ 1", c)
	}
	g, err := newGreedyState(meta.P(), opts)
	if err != nil {
		return nil, err
	}
	if err := opts.canceled(); err != nil {
		return nil, err
	}
	for {
		row, ok := src.Next()
		if !ok {
			break
		}
		if err := g.checkCancel(); err != nil {
			return nil, err
		}
		g.insert(row.CloneAggs())
		for g.h.len() > c {
			n := g.h.peek()
			if n.key == Inf {
				break
			}
			if n.id < g.lastGap && g.bg >= c {
				g.bg--
				g.mergeTop()
			} else if n.id > g.lastGap && g.hasAdjacentSuccessors(n, delta) {
				g.ag--
				g.mergeTop()
			} else {
				break // wait for more tuples
			}
		}
	}
	// The stream is exhausted: finish like GMS.
	for g.h.len() > c {
		n := g.h.peek()
		if n.key == Inf {
			break
		}
		if err := g.checkCancel(); err != nil {
			return nil, err
		}
		g.mergeTop()
	}
	return g.result(meta), nil
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
	meta := src.Sequence()
	g, err := newGreedyState(meta.P(), opts)
	if err != nil {
		return nil, err
	}
	if err := opts.canceled(); err != nil {
		return nil, err
	}
	perMerge := eps * est.EMax / float64(est.N)
	for {
		row, ok := src.Next()
		if !ok {
			break
		}
		if err := g.checkCancel(); err != nil {
			return nil, err
		}
		g.insert(row.CloneAggs())
		for {
			n := g.h.peek()
			if n.key > perMerge { // Inf included
				break
			}
			if n.id < g.lastGap {
				g.bg--
				g.mergeTop()
			} else if n.id > g.lastGap && g.hasAdjacentSuccessors(n, delta) {
				g.ag--
				g.mergeTop()
			} else {
				break // wait for more tuples
			}
		}
	}
	// Final phase with the exact maximal error.
	emax := g.exactEmax()
	bound := eps * emax
	for {
		n := g.h.peek()
		if n == nil || n.key == Inf || g.totalError+n.key > bound {
			break
		}
		if err := g.checkCancel(); err != nil {
			return nil, err
		}
		g.mergeTop()
	}
	return g.result(meta), nil
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
