package ita

import (
	"sort"

	"repro/internal/temporal"
)

// Iterator streams the ITA result row by row in (group, time) order. The
// greedy PTA algorithms consume this stream and merge before the full result
// materializes.
type Iterator struct {
	meta   *temporal.Sequence
	groups []*groupSweep // in canonical group order
	cur    int
}

// sweepItem is one argument tuple projected to what the sweep needs: its
// interval and one numeric value per aggregate spec.
type sweepItem struct {
	start, end temporal.Chronon
	vals       []float64
}

// endEvent marks the instant end+1 at which an item stops being active.
type endEvent struct {
	t    temporal.Chronon
	vals []float64
}

// groupSweep is the per-group sweep state of the event-driven ITA
// evaluation. Events are the starts of items and the instants right after
// their ends; between two consecutive events the aggregate vector is
// constant, and value-equivalent stretches are coalesced on the fly.
type groupSweep struct {
	group      int32
	specs      []AggSpec
	items      []sweepItem
	ends       []endEvent
	i, j       int
	active     int
	prevT      temporal.Chronon
	started    bool
	aggs       []aggState
	pending    temporal.SeqRow
	hasPending bool
	prepared   bool
}

func (g *groupSweep) prepare(specs []AggSpec) {
	sort.Slice(g.items, func(a, b int) bool { return g.items[a].start < g.items[b].start })
	g.ends = make([]endEvent, len(g.items))
	for i, it := range g.items {
		g.ends[i] = endEvent{t: it.end + 1, vals: it.vals}
	}
	sort.Slice(g.ends, func(a, b int) bool { return g.ends[a].t < g.ends[b].t })
	g.aggs = make([]aggState, len(specs))
	for d, s := range specs {
		g.aggs[d] = newAggState(s.Func)
	}
	g.prepared = true
}

// step advances the sweep past one event. It returns a completed result row
// when one is flushed, and done=true when the group is exhausted.
func (g *groupSweep) step() (row temporal.SeqRow, emitted, done bool) {
	if g.i >= len(g.items) && g.j >= len(g.ends) {
		if g.hasPending {
			g.hasPending = false
			return g.pending, true, false
		}
		return temporal.SeqRow{}, false, true
	}

	// The next event time: the earliest pending start or end+1 instant.
	var t temporal.Chronon
	switch {
	case g.i >= len(g.items):
		t = g.ends[g.j].t
	case g.j >= len(g.ends):
		t = g.items[g.i].start
	default:
		t = min(g.items[g.i].start, g.ends[g.j].t)
	}

	// Close the elementary interval [prevT, t−1] if tuples were active.
	if g.started && g.active > 0 {
		iv := temporal.Interval{Start: g.prevT, End: t - 1}
		vals := make([]float64, len(g.aggs))
		for d, a := range g.aggs {
			vals[d] = a.at(g.prevT, g.active)
		}
		switch {
		case g.hasPending && g.pending.T.End+1 == iv.Start && floatsEqual(g.pending.Aggs, vals):
			// Coalesce: identical aggregate vector over consecutive instants.
			g.pending.T.End = iv.End
		case g.hasPending:
			row, emitted = g.pending, true
			g.pending = temporal.SeqRow{Group: g.group, Aggs: vals, T: iv}
		default:
			g.pending = temporal.SeqRow{Group: g.group, Aggs: vals, T: iv}
			g.hasPending = true
		}
	}

	// Apply all events at t: leaves first, then enters.
	for g.j < len(g.ends) && g.ends[g.j].t == t {
		for d, a := range g.aggs {
			a.leave(g.ends[g.j].vals[d])
		}
		g.active--
		g.j++
	}
	for g.i < len(g.items) && g.items[g.i].start == t {
		for d, a := range g.aggs {
			a.enter(g.items[g.i].vals[d], g.items[g.i].end)
		}
		g.active++
		g.i++
	}
	g.prevT, g.started = t, true
	return row, emitted, false
}

func floatsEqual(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// NewIterator compiles the query against the relation's schema, partitions
// the tuples into aggregation groups, and returns a streaming iterator over
// the ITA result.
func NewIterator(r *temporal.Relation, q Query) (*Iterator, error) {
	c, err := compile(r.Schema(), q)
	if err != nil {
		return nil, err
	}
	meta := c.resultMeta(r.Schema())

	byGroup := make(map[int32]*groupSweep)
	groupVals := make([]temporal.Datum, len(c.groupIdx))
	for i := 0; i < r.Len(); i++ {
		tp := r.Tuple(i)
		for gi, idx := range c.groupIdx {
			groupVals[gi] = tp.Vals[idx]
		}
		id := meta.Groups.Intern(groupVals)
		gs := byGroup[id]
		if gs == nil {
			gs = &groupSweep{group: id}
			byGroup[id] = gs
		}
		vals := make([]float64, len(c.specs))
		for d, idx := range c.attrIdx {
			if idx < 0 {
				continue // Count ignores the attribute
			}
			v, _ := tp.Vals[idx].Numeric()
			vals[d] = v
		}
		gs.items = append(gs.items, sweepItem{start: tp.T.Start, end: tp.T.End, vals: vals})
	}

	it := &Iterator{meta: meta}
	for _, id := range meta.Groups.SortedIDs() {
		if gs, ok := byGroup[id]; ok {
			gs.specs = c.specs
			it.groups = append(it.groups, gs)
		}
	}
	return it, nil
}

// Sequence returns the (row-less) result metadata: grouping attributes,
// aggregate names, and the group dictionary shared with the emitted rows.
func (it *Iterator) Sequence() *temporal.Sequence { return it.meta.WithRows(nil) }

// Next returns the next ITA result row, or ok=false when the stream ends.
func (it *Iterator) Next() (_ temporal.SeqRow, ok bool) {
	for it.cur < len(it.groups) {
		g := it.groups[it.cur]
		if !g.prepared {
			g.prepare(g.specs)
		}
		for {
			row, emitted, done := g.step()
			if emitted {
				return row, true
			}
			if done {
				it.cur++
				break
			}
		}
	}
	return temporal.SeqRow{}, false
}
