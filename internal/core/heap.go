package core

import "repro/internal/temporal"

// node is the heap entry of Section 6.2.2: one tuple of the intermediate
// relation, doubly linked to its chronological neighbours within the stream
// order, keyed by the error its merge with the predecessor would introduce.
type node struct {
	// id is the 1-based arrival number of the ITA tuple this node started
	// as. A merge folds the top node into its predecessor and keeps the
	// predecessor's id (the paper's "P.id remains unchanged").
	id int
	// row is the (possibly already merged) tuple the node represents.
	row temporal.SeqRow
	// prev and next are the chronological neighbours in the intermediate
	// relation; nil at the ends.
	prev, next *node
	// key ranks merging this node into its predecessor: dsim(prev, this),
	// the error the merge introduces, or dsim/RA under an amnesic function;
	// Inf when there is no predecessor or the pair may not merge.
	key float64
	// hpos is the node's index in the heap array, maintained by the heap.
	hpos int
	// cov is the length the node's constituents cover, bridged gaps
	// excluded.
	cov float64
}

// mergeHeap is a binary min-heap of nodes ordered by (key, start timestamp,
// id). The secondary keys implement the paper's tie-break ("merge the pair
// with the smallest timestamp value") and make runs deterministic.
type mergeHeap struct {
	ns []*node
}

func (h *mergeHeap) len() int { return len(h.ns) }

// peek returns the most similar pair's node without removing it, or nil.
func (h *mergeHeap) peek() *node {
	if len(h.ns) == 0 {
		return nil
	}
	return h.ns[0]
}

func nodeLess(a, b *node) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	if a.row.T.Start != b.row.T.Start {
		return a.row.T.Start < b.row.T.Start
	}
	return a.id < b.id
}

// push inserts a node.
func (h *mergeHeap) push(n *node) {
	n.hpos = len(h.ns)
	h.ns = append(h.ns, n)
	h.siftUp(n.hpos)
}

// fix restores the heap order after n.key changed in place.
func (h *mergeHeap) fix(n *node) {
	i := n.hpos
	if !h.siftUp(i) {
		h.siftDown(i)
	}
}

// remove deletes an arbitrary node from the heap.
func (h *mergeHeap) remove(n *node) {
	i := n.hpos
	last := len(h.ns) - 1
	h.swap(i, last)
	h.ns = h.ns[:last]
	if i < last {
		if !h.siftUp(i) {
			h.siftDown(i)
		}
	}
	n.hpos = -1
}

func (h *mergeHeap) swap(i, j int) {
	h.ns[i], h.ns[j] = h.ns[j], h.ns[i]
	h.ns[i].hpos = i
	h.ns[j].hpos = j
}

func (h *mergeHeap) siftUp(i int) (moved bool) {
	for i > 0 {
		parent := (i - 1) / 2
		if !nodeLess(h.ns[i], h.ns[parent]) {
			break
		}
		h.swap(i, parent)
		i = parent
		moved = true
	}
	return moved
}

func (h *mergeHeap) siftDown(i int) {
	n := len(h.ns)
	for {
		l, r := 2*i+1, 2*i+2
		best := i
		if l < n && nodeLess(h.ns[l], h.ns[best]) {
			best = l
		}
		if r < n && nodeLess(h.ns[r], h.ns[best]) {
			best = r
		}
		if best == i {
			return
		}
		h.swap(i, best)
		i = best
	}
}
