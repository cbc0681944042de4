package core

import (
	"fmt"

	"repro/internal/temporal"
)

// absorb folds b into a in place: a.row becomes a.row ⊕ b.row
// (Definition 3), the grouping values of a, a timestamp from a's start to
// b's end, and per-dimension averages weighted by the chronons each side
// covers. For adjacent rows the covered length is the timestamp's length;
// a merge that bridges a gap (Section 8) spans chronons that carry no data,
// which the covered length leaves out.
func (a *node) absorb(b *node) {
	total := a.cov + b.cov
	for d := range a.row.Aggs {
		a.row.Aggs[d] = (a.cov*a.row.Aggs[d] + b.cov*b.row.Aggs[d]) / total
	}
	a.row.T.End = b.row.T.End
	a.cov = total
}

// dsim returns dsim(a, b) (Proposition 2): the error introduced by merging
// a and b, computed from the two nodes alone as
//
//	dsim(a, b) = Σ_d w_d² · |a|·|b|/(|a|+|b|) · (a.B_d − b.B_d)²,
//
// where |x| is the length x covers. The closed form is algebraically equal
// to SSE({a,b},{a⊕b}) and avoids the cancellation of the textbook
// three-term formula.
func dsim(a, b *node, w2 []float64) float64 {
	factor := a.cov * b.cov / (a.cov + b.cov)
	var sse float64
	for d := range a.row.Aggs {
		diff := a.row.Aggs[d] - b.row.Aggs[d]
		sse += w2[d] * factor * diff * diff
	}
	return sse
}

// SSEBetween computes SSE(s, z) of Definition 5 for an arbitrary reduction
// or approximation z of s: for every pair of rows with equal grouping values
// and overlapping timestamps, the squared aggregate-value distance weighted
// by the length of the overlap. When z was produced by merging rows of s the
// overlap decomposition coincides with Definition 5 exactly; it additionally
// handles approximations whose segment boundaries do not align with s (PAA,
// APCA, wavelets, ...).
func SSEBetween(s, z *temporal.Sequence, opts Options) (float64, error) {
	if s.P() != z.P() {
		return 0, fmt.Errorf("core: dimension mismatch: %d vs %d aggregate attributes", s.P(), z.P())
	}
	w2, err := opts.weightsSquared(s.P())
	if err != nil {
		return 0, err
	}

	// Index z rows by group id in z's dictionary; group ids of s and z may
	// come from different dictionaries, so groups are matched by value.
	zRows := make(map[int32][]temporal.SeqRow)
	for _, r := range z.Rows {
		zRows[r.Group] = append(zRows[r.Group], r)
	}

	var total float64
	i := 0
	for i < len(s.Rows) {
		gid := s.Rows[i].Group
		j := i
		for j < len(s.Rows) && s.Rows[j].Group == gid {
			j++
		}
		zid, ok := z.Groups.Lookup(s.Groups.Values(gid))
		if ok {
			total += groupSSE(s.Rows[i:j], zRows[zid], w2)
		} else {
			// No counterpart: the reduction dropped the group entirely;
			// charge the full within-group variance against a zero-length
			// cover, i.e. every chronon deviates by its own value from
			// nothing. This cannot happen for reductions produced by the
			// merge operator, so treat it as the error of merging to the
			// group mean of zero.
			for _, r := range s.Rows[i:j] {
				length := float64(r.T.Len())
				for d := range r.Aggs {
					total += w2[d] * length * r.Aggs[d] * r.Aggs[d]
				}
			}
		}
		i = j
	}
	return total, nil
}

// groupSSE merges two chronologically sorted row lists of one group and
// accumulates overlap-weighted squared distances.
func groupSSE(srows, zrows []temporal.SeqRow, w2 []float64) float64 {
	var total float64
	zi := 0
	for _, sr := range srows {
		for zi < len(zrows) && zrows[zi].T.End < sr.T.Start {
			zi++
		}
		for k := zi; k < len(zrows) && zrows[k].T.Start <= sr.T.End; k++ {
			ov, ok := sr.T.Intersect(zrows[k].T)
			if !ok {
				continue
			}
			length := float64(ov.Len())
			for d := range sr.Aggs {
				diff := sr.Aggs[d] - zrows[k].Aggs[d]
				total += w2[d] * length * diff * diff
			}
		}
	}
	return total
}
