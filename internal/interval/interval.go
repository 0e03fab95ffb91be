// Package interval implements the 1-D sub-structure index used by
// Graphitti for sequence data.
//
// The paper stores "the annotated substructures of the primary data … in a
// collection of interval trees for 1D data (e.g. sequences)", keeping the
// number of trees small by maintaining a single tree per chromosome (or
// other shared coordinate domain) rather than one per annotated sequence.
// This package provides that tree, together with the SUB_X ifOverlap
// operator on 1-D sub-structures.
//
// Intervals are half-open [Lo, Hi) over int64 coordinates, which matches
// common genomic coordinate conventions (0-based, end exclusive).
package interval

import (
	"cmp"
	"errors"
	"fmt"
)

// ErrInvalid is returned when an interval with Hi <= Lo is supplied.
var ErrInvalid = errors.New("interval: Hi must be greater than Lo")

// ErrDuplicateID is returned when inserting an entry whose (interval, ID)
// key is already present in the tree.
var ErrDuplicateID = errors.New("interval: duplicate entry ID")

// Interval is a half-open 1-D range [Lo, Hi).
type Interval struct {
	Lo, Hi int64
}

// Valid reports whether the interval is non-empty.
func (iv Interval) Valid() bool { return iv.Hi > iv.Lo }

// Overlaps implements the paper's ifOverlap operator for 1-D
// sub-structures: it reports whether the two intervals share at least one
// point.
func (iv Interval) Overlaps(other Interval) bool {
	return iv.Lo < other.Hi && other.Lo < iv.Hi
}

// String renders the interval as "[lo,hi)".
func (iv Interval) String() string { return fmt.Sprintf("[%d,%d)", iv.Lo, iv.Hi) }

// Entry is an interval stored in a Tree together with the identity of the
// mark it represents (a referent ID in Graphitti) and an arbitrary payload.
// The payload sits before the ID so a zero-size V adds no trailing padding.
type Entry[V any] struct {
	Interval
	Value V
	ID    uint64
}

// Tree is a persistent augmented balanced (AVL) interval tree: an immutable
// value whose Insert and Delete return the successor. Entries are keyed and
// ordered by (Lo, Hi, ID); every node carries the maximum Hi of its
// subtree, which lets overlap searches prune entire subtrees.
//
// Mutations are path-copying: they allocate fresh nodes along the search
// path and never modify a node reachable from an earlier value, so every
// value stays a consistent view of the tree at that instant, and successive
// values share all but a path. This is what lets core hold the per-domain
// sub-structure indexes in its published read views like any other value.
//
// The zero value is the empty tree. Values are safe for concurrent reads.
type Tree[V any] struct {
	root *node[V]
	size int
}

type node[V any] struct {
	entry       Entry[V]
	left, right *node[V]
	height      int8
	maxHi       int64
}

// clone returns a fresh copy of n that mutation may modify freely.
func (n *node[V]) clone() *node[V] {
	c := *n
	return &c
}

// Len reports the number of entries.
func (t Tree[V]) Len() int { return t.size }

// Insert returns the tree with an entry added. The interval must be valid
// and the (interval, ID) key must not be present already.
func (t Tree[V]) Insert(iv Interval, id uint64, val V) (Tree[V], error) {
	if !iv.Valid() {
		return t, fmt.Errorf("%w: %v", ErrInvalid, iv)
	}
	root, ok := insert(t.root, Entry[V]{Interval: iv, ID: id, Value: val})
	if !ok {
		return t, fmt.Errorf("%w: %d", ErrDuplicateID, id)
	}
	return Tree[V]{root, t.size + 1}, nil
}

// Delete returns the tree without the entry keyed (iv, id), reporting
// whether it was there.
func (t Tree[V]) Delete(iv Interval, id uint64) (Tree[V], bool) {
	root, ok := remove(t.root, iv, id)
	if !ok {
		return t, false
	}
	return Tree[V]{root, t.size - 1}, true
}

// Overlapping returns all entries overlapping the query interval, in
// (Lo, Hi, ID) order.
func (t Tree[V]) Overlapping(q Interval) []Entry[V] {
	var out []Entry[V]
	t.VisitOverlapping(q, func(e Entry[V]) bool {
		out = append(out, e)
		return true
	})
	return out
}

// VisitOverlapping calls fn for each entry overlapping q in (Lo, Hi, ID)
// order until fn returns false.
func (t Tree[V]) VisitOverlapping(q Interval, fn func(Entry[V]) bool) {
	if !q.Valid() {
		return
	}
	visitOverlap(t.root, q, fn)
}

func visitOverlap[V any](n *node[V], q Interval, fn func(Entry[V]) bool) bool {
	if n == nil || n.maxHi <= q.Lo {
		return true // nothing in this subtree can reach q
	}
	if !visitOverlap(n.left, q, fn) {
		return false
	}
	if n.entry.Lo < q.Hi {
		if n.entry.Overlaps(q) && !fn(n.entry) {
			return false
		}
		return visitOverlap(n.right, q, fn)
	}
	// Every entry in the right subtree starts at or after n.entry.Lo >=
	// q.Hi, so none can overlap.
	return true
}

// --- AVL machinery ---

func height[V any](n *node[V]) int8 {
	if n == nil {
		return 0
	}
	return n.height
}

// compare orders entries by their key (Lo, Hi, ID).
func compare[V any](a, b Entry[V]) int {
	switch {
	case a.Lo != b.Lo:
		return cmp.Compare(a.Lo, b.Lo)
	case a.Hi != b.Hi:
		return cmp.Compare(a.Hi, b.Hi)
	}
	return cmp.Compare(a.ID, b.ID)
}

func less[V any](a, b Entry[V]) bool { return compare(a, b) < 0 }

func update[V any](n *node[V]) {
	hl, hr := height(n.left), height(n.right)
	if hl > hr {
		n.height = hl + 1
	} else {
		n.height = hr + 1
	}
	n.maxHi = n.entry.Hi
	if n.left != nil && n.left.maxHi > n.maxHi {
		n.maxHi = n.left.maxHi
	}
	if n.right != nil && n.right.maxHi > n.maxHi {
		n.maxHi = n.right.maxHi
	}
}

func balanceFactor[V any](n *node[V]) int8 { return height(n.left) - height(n.right) }

// The rotation helpers receive caller-owned (freshly copied) nodes but
// defensively clone whatever they relink, so no node reachable from a
// earlier tree value is ever modified.

func rotateRight[V any](n *node[V]) *node[V] {
	l := n.left.clone()
	n.left = l.right
	l.right = n
	update(n)
	update(l)
	return l
}

func rotateLeft[V any](n *node[V]) *node[V] {
	r := n.right.clone()
	n.right = r.left
	r.left = n
	update(n)
	update(r)
	return r
}

// rebalance expects a caller-owned node.
func rebalance[V any](n *node[V]) *node[V] {
	update(n)
	switch bf := balanceFactor(n); {
	case bf > 1:
		if balanceFactor(n.left) < 0 {
			n.left = rotateLeft(n.left.clone())
		}
		return rotateRight(n)
	case bf < -1:
		if balanceFactor(n.right) > 0 {
			n.right = rotateRight(n.right.clone())
		}
		return rotateLeft(n)
	}
	return n
}

// insert adds e below n, copying every node on the search path (and any
// node touched by a rotation) so earlier roots stay intact. ok is false,
// and nothing is copied, when e's key is already below n.
func insert[V any](n *node[V], e Entry[V]) (_ *node[V], ok bool) {
	if n == nil {
		return &node[V]{entry: e, height: 1, maxHi: e.Hi}, true
	}
	c := compare(e, n.entry)
	if c == 0 {
		return n, false
	}
	kid := n.left
	if c > 0 {
		kid = n.right
	}
	grown, ok := insert(kid, e)
	if !ok {
		return n, false
	}
	n = n.clone()
	if c < 0 {
		n.left = grown
	} else {
		n.right = grown
	}
	return rebalance(n), true
}

// remove deletes (iv, id) below n, path-copying like insert. ok is false,
// and nothing is copied, when the key is not below n.
func remove[V any](n *node[V], iv Interval, id uint64) (_ *node[V], ok bool) {
	if n == nil {
		return nil, false
	}
	c := compare(Entry[V]{Interval: iv, ID: id}, n.entry)
	if c == 0 {
		// Found the node to delete.
		if n.left == nil {
			return n.right, true
		}
		if n.right == nil {
			return n.left, true
		}
		// Replace with in-order successor.
		succ := n.right
		for succ.left != nil {
			succ = succ.left
		}
		n = n.clone()
		n.entry = succ.entry
		n.right, _ = remove(n.right, succ.entry.Interval, succ.entry.ID)
		return rebalance(n), true
	}
	kid := n.left
	if c > 0 {
		kid = n.right
	}
	shrunk, ok := remove(kid, iv, id)
	if !ok {
		return n, false
	}
	n = n.clone()
	if c < 0 {
		n.left = shrunk
	} else {
		n.right = shrunk
	}
	return rebalance(n), true
}
