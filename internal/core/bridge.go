package core

import "repro/internal/temporal"

// This file implements the first item of the paper's future work
// (Section 8): "we will explore the possibility of merging tuples separated
// by temporal gaps". Gap-bridging merging relaxes Definition 2: two tuples
// of the same aggregation group may merge even when a temporal gap separates
// them. The merged tuple's timestamp spans the gap, but its aggregate values
// and its error contribution are weighted by the chronons the constituents
// actually cover — the gap itself carries no data and no error. The greedy
// strategy carries the covered length in each heap node (node.cov) for that
// purpose.

// bridgeDsim is the covered-length-weighted dissimilarity: the SSE increase
// of merging a and b over the chronons they actually cover.
func bridgeDsim(a, b *node, w2 []float64) float64 {
	factor := a.cov * b.cov / (a.cov + b.cov)
	var sse float64
	for d := range a.row.Aggs {
		diff := a.row.Aggs[d] - b.row.Aggs[d]
		sse += w2[d] * factor * diff * diff
	}
	return sse
}

// GMSBridged evaluates size-bounded PTA greedily while also allowing merges
// across temporal gaps within one aggregation group (never across groups).
// With gap bridging, cmin drops to the number of aggregation groups, so
// results smaller than the classic cmin become reachable; the price is that
// merged timestamps cover chronons where no input tuple holds. Reported
// error weights every constituent by its own covered length.
func GMSBridged(seq *temporal.Sequence, c int, opts Options) (*GreedyResult, error) {
	if err := validateSizeBound(seq, c); err != nil {
		return nil, err
	}
	w2, err := opts.weightsSquared(seq.P())
	if err != nil {
		return nil, err
	}
	var (
		h       mergeHeap
		tail    *node
		maxHeap int
	)
	for i, row := range seq.Rows {
		if i%cancelCheckCells == 0 {
			if err := opts.canceled(); err != nil {
				return nil, err
			}
		}
		n := &node{id: i + 1, row: row.CloneAggs(), cov: float64(row.T.Len()), key: Inf}
		if tail != nil {
			n.prev = tail
			tail.next = n
			if tail.row.Group == row.Group {
				n.key = bridgeDsim(tail, n, w2)
			}
		}
		tail = n
		h.push(n)
		if h.len() > maxHeap {
			maxHeap = h.len()
		}
	}

	var totalError float64
	var merges int
	for h.len() > c {
		n := h.peek()
		if n == nil || n.key == Inf {
			break
		}
		if merges%cancelCheckCells == 0 {
			if err := opts.canceled(); err != nil {
				return nil, err
			}
		}
		p := n.prev
		totalError += n.key
		merges++
		// Covered-length-weighted merge; the timestamp spans any gap.
		total := p.cov + n.cov
		for d := range p.row.Aggs {
			p.row.Aggs[d] = (p.cov*p.row.Aggs[d] + n.cov*n.row.Aggs[d]) / total
		}
		p.row.T.End = n.row.T.End
		p.cov = total
		p.next = n.next
		if n.next != nil {
			n.next.prev = p
		} else {
			tail = p
		}
		h.remove(n)
		if p.prev != nil && p.prev.row.Group == p.row.Group {
			p.key = bridgeDsim(p.prev, p, w2)
		} else {
			p.key = Inf
		}
		h.fix(p)
		if s := p.next; s != nil {
			if s.row.Group == p.row.Group {
				s.key = bridgeDsim(p, s, w2)
			} else {
				s.key = Inf
			}
			h.fix(s)
		}
	}

	var head *node
	for n := tail; n != nil; n = n.prev {
		head = n
	}
	var rows []temporal.SeqRow
	for n := head; n != nil; n = n.next {
		rows = append(rows, n.row)
	}
	out := seq.WithRows(rows)
	return &GreedyResult{
		Sequence: out,
		C:        len(rows),
		Error:    totalError,
		Merges:   merges,
		MaxHeap:  maxHeap,
	}, nil
}

// GroupCount returns the number of maximal same-group runs of the sequence —
// the cmin reachable once gap bridging is allowed.
func GroupCount(seq *temporal.Sequence) int {
	if seq.Len() == 0 {
		return 0
	}
	count := 1
	for i := 1; i < seq.Len(); i++ {
		if seq.Rows[i].Group != seq.Rows[i-1].Group {
			count++
		}
	}
	return count
}
