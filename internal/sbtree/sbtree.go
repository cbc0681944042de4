// Package sbtree provides incremental computation and maintenance of
// temporal aggregates after Yang & Widom ("Incremental computation and
// maintenance of temporal aggregates", VLDB Journal 2003) — reference [30]
// of the paper: tuples are inserted (and removed) one at a time, and at any
// moment the structure answers instant queries and materializes the full
// ITA-style result for the decomposable functions sum, count and avg.
//
// Yang & Widom's disk-oriented SB-tree stores interval/value entries in
// B-tree nodes; this in-memory realization keeps the same operations and
// logarithmic bounds with a randomized balanced search tree (treap) over
// interval endpoints carrying value deltas and subtree sums: inserting
// [s, e] with value v adds +v at s and −v at e+1, and the aggregate holding
// at instant t is the prefix sum over endpoints ≤ t. The structural
// substitution is documented here because the original's node layout only
// matters on disk.
package sbtree

import (
	"fmt"
	"math/rand"

	"repro/internal/temporal"
)

// node is a treap node for one endpoint.
type node struct {
	key      temporal.Chronon
	priority int64
	// delta holds the value change at key: index 0 is the active-tuple
	// count, 1..p are the aggregate attribute sums.
	delta []float64
	// subtreeSum aggregates delta over the whole subtree for O(log n)
	// prefix sums.
	subtreeSum  []float64
	left, right *node
}

// Tree maintains running temporal aggregates over p value attributes.
// The zero value is not usable; call New.
type Tree struct {
	p    int
	root *node
	rng  *rand.Rand
	n    int // live endpoints
}

// New returns an empty tree for p aggregate attributes. The seed drives
// treap priorities only (balance, not results).
func New(p int, seed int64) (*Tree, error) {
	if p < 0 {
		return nil, fmt.Errorf("sbtree: negative attribute count %d", p)
	}
	return &Tree{p: p, rng: rand.New(rand.NewSource(seed))}, nil
}

// Len returns the number of distinct endpoints currently stored.
func (t *Tree) Len() int { return t.n }

// Insert registers a tuple holding vals throughout iv.
func (t *Tree) Insert(iv temporal.Interval, vals []float64) error {
	if !iv.Valid() {
		return fmt.Errorf("sbtree: invalid interval %v", iv)
	}
	if len(vals) != t.p {
		return fmt.Errorf("sbtree: %d values for %d attributes", len(vals), t.p)
	}
	t.apply(iv, vals, +1)
	return nil
}

// Delete removes a previously inserted tuple (incremental maintenance).
// Deleting a tuple that was never inserted corrupts the aggregate, as with
// any delta structure; callers own that invariant.
func (t *Tree) Delete(iv temporal.Interval, vals []float64) error {
	if !iv.Valid() {
		return fmt.Errorf("sbtree: invalid interval %v", iv)
	}
	if len(vals) != t.p {
		return fmt.Errorf("sbtree: %d values for %d attributes", len(vals), t.p)
	}
	t.apply(iv, vals, -1)
	return nil
}

func (t *Tree) apply(iv temporal.Interval, vals []float64, sign float64) {
	width := t.p + 1
	add := make([]float64, width)
	add[0] = sign
	for d, v := range vals {
		add[d+1] = sign * v
	}
	t.addDelta(iv.Start, add)
	for i := range add {
		add[i] = -add[i]
	}
	t.addDelta(iv.End+1, add)
}

// addDelta merges a delta into the endpoint's node, creating it on demand
// and removing it when it zeroes out entirely.
func (t *Tree) addDelta(key temporal.Chronon, add []float64) {
	left, mid, right := split(t.root, key)
	if mid == nil {
		mid = &node{
			key:        key,
			priority:   t.rng.Int63(),
			delta:      append([]float64(nil), add...),
			subtreeSum: append([]float64(nil), add...),
		}
		t.n++
	} else {
		allZero := true
		for i := range mid.delta {
			mid.delta[i] += add[i]
			if mid.delta[i] != 0 {
				allZero = false
			}
		}
		if allZero {
			mid = nil
			t.n--
		} else {
			recompute(mid) // split stripped the children; sums follow delta
		}
	}
	t.root = join(join(left, mid), right)
}

// At returns the active tuple count and the per-attribute sums holding at
// instant ts.
func (t *Tree) At(ts temporal.Chronon) (count float64, sums []float64) {
	acc := make([]float64, t.p+1)
	prefix(t.root, ts, acc)
	return acc[0], acc[1:]
}

// Sequence materializes the current state as a sequential relation over the
// given aggregate functions, mirroring ITA's output for sum/count/avg.
// fns[d] selects what column d reports from attribute attr[d]; attr is
// ignored for "count".
type Column struct {
	// Fn is "sum", "count" or "avg".
	Fn string
	// Attr is the 0-based attribute index (ignored for count).
	Attr int
	// Name labels the output column.
	Name string
}

// Sequence walks the endpoints in order and emits the coalesced constant
// intervals where at least one tuple is active.
func (t *Tree) Sequence(cols []Column) (*temporal.Sequence, error) {
	for _, c := range cols {
		switch c.Fn {
		case "sum", "avg":
			if c.Attr < 0 || c.Attr >= t.p {
				return nil, fmt.Errorf("sbtree: column %q references attribute %d of %d", c.Name, c.Attr, t.p)
			}
		case "count":
		default:
			return nil, fmt.Errorf("sbtree: unsupported column function %q", c.Fn)
		}
	}
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = c.Name
	}
	out := temporal.NewSequence(nil, names)
	gid := out.Groups.Intern(nil)

	// In-order endpoint walk with running totals.
	acc := make([]float64, t.p+1)
	var keys []temporal.Chronon
	var deltas [][]float64
	collect(t.root, &keys, &deltas)
	aggBuf := make([]float64, len(cols))
	for i := 0; i < len(keys); i++ {
		for j := range acc {
			acc[j] += deltas[i][j]
		}
		if acc[0] == 0 {
			continue // no active tuples until the next endpoint
		}
		if i+1 >= len(keys) {
			return nil, fmt.Errorf("sbtree: inconsistent state: positive count after the last endpoint")
		}
		iv := temporal.Interval{Start: keys[i], End: keys[i+1] - 1}
		for j, c := range cols {
			switch c.Fn {
			case "sum":
				aggBuf[j] = acc[c.Attr+1]
			case "count":
				aggBuf[j] = acc[0]
			case "avg":
				aggBuf[j] = acc[c.Attr+1] / acc[0]
			}
		}
		n := len(out.Rows)
		if n > 0 && out.Rows[n-1].T.End+1 == iv.Start && equal(out.Rows[n-1].Aggs, aggBuf) {
			out.Rows[n-1].T.End = iv.End
			continue
		}
		out.Rows = append(out.Rows, temporal.SeqRow{
			Group: gid,
			Aggs:  append([]float64(nil), aggBuf...),
			T:     iv,
		})
	}
	return out, nil
}

func equal(a, b []float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// --- treap plumbing ---

func recompute(n *node) {
	for i := range n.subtreeSum {
		n.subtreeSum[i] = n.delta[i]
	}
	if n.left != nil {
		for i := range n.subtreeSum {
			n.subtreeSum[i] += n.left.subtreeSum[i]
		}
	}
	if n.right != nil {
		for i := range n.subtreeSum {
			n.subtreeSum[i] += n.right.subtreeSum[i]
		}
	}
}

// split partitions by key into (< key), (== key), (> key).
func split(n *node, key temporal.Chronon) (left, mid, right *node) {
	if n == nil {
		return nil, nil, nil
	}
	switch {
	case key < n.key:
		l, m, r := split(n.left, key)
		n.left = r
		recompute(n)
		return l, m, n
	case key > n.key:
		l, m, r := split(n.right, key)
		n.right = l
		recompute(n)
		return n, m, r
	default:
		l, r := n.left, n.right
		n.left, n.right = nil, nil
		recompute(n)
		return l, n, r
	}
}

// join concatenates two treaps where every key of a precedes every key of b.
func join(a, b *node) *node {
	switch {
	case a == nil:
		return b
	case b == nil:
		return a
	case a.priority >= b.priority:
		a.right = join(a.right, b)
		recompute(a)
		return a
	default:
		b.left = join(a, b.left)
		recompute(b)
		return b
	}
}

// prefix accumulates delta sums over keys ≤ ts.
func prefix(n *node, ts temporal.Chronon, acc []float64) {
	for n != nil {
		if n.key <= ts {
			if n.left != nil {
				for i := range acc {
					acc[i] += n.left.subtreeSum[i]
				}
			}
			for i := range acc {
				acc[i] += n.delta[i]
			}
			n = n.right
		} else {
			n = n.left
		}
	}
}

// collect lists keys and deltas in order.
func collect(n *node, keys *[]temporal.Chronon, deltas *[][]float64) {
	if n == nil {
		return
	}
	collect(n.left, keys, deltas)
	*keys = append(*keys, n.key)
	*deltas = append(*deltas, n.delta)
	collect(n.right, keys, deltas)
}
