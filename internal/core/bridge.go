package core

import "repro/internal/temporal"

// This file implements the first item of the paper's future work
// (Section 8): "we will explore the possibility of merging tuples separated
// by temporal gaps". Gap-bridging merging relaxes Definition 2: two tuples
// of the same aggregation group may merge even when a temporal gap separates
// them. The merged tuple's timestamp spans the gap, but its aggregate values
// and its error contribution are weighted by the chronons the constituents
// actually cover — the gap itself carries no data and no error. The greedy
// engine carries the covered length in each heap node (node.cov) for that
// purpose.

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
	g, err := newGreedyState(NewSliceStream(seq), opts)
	if err != nil {
		return nil, err
	}
	g.bridge = true
	return g.reduceTo(c, nil)
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
