package rtree

import (
	"fmt"
	"slices"
	"sort"
)

const (
	// maxEntries is the node capacity M; minEntries is the fill factor m.
	maxEntries = 16
	minEntries = maxEntries * 2 / 5
)

// Entry is a rectangle stored in a Tree together with the identity of the
// mark it represents (a referent ID in Graphitti) and an arbitrary payload.
// The payload sits before the ID so a zero-size V adds no trailing padding.
type Entry[V any] struct {
	Rect  Rect
	Value V
	ID    uint64
}

// Tree is a persistent Guttman R-tree with quadratic split: an immutable
// value whose Insert and Delete return the successor. Entries are keyed by
// (Rect, ID). The zero value is an empty 2-D tree; use NewTree to pick a
// dimensionality explicitly.
//
// Mutations are path-copying: they copy every node they modify instead of
// mutating in place, so every value stays a consistent view of the tree at
// that instant (the same discipline as interval.Tree). Values are safe for
// concurrent reads.
type Tree[V any] struct {
	root *rnode[V]
	dims int
	size int
}

type rnode[V any] struct {
	leaf     bool
	rects    []Rect
	children []*rnode[V] // internal nodes
	entries  []Entry[V]  // leaf nodes
	bounds   Rect
}

// clone returns a copy of n with fresh slice headers and backing arrays,
// safe for the mutation in progress to modify.
func (n *rnode[V]) clone() *rnode[V] {
	c := &rnode[V]{leaf: n.leaf, bounds: n.bounds}
	if n.rects != nil {
		c.rects = append(make([]Rect, 0, len(n.rects)+1), n.rects...)
	}
	if n.children != nil {
		c.children = append(make([]*rnode[V], 0, len(n.children)+1), n.children...)
	}
	if n.entries != nil {
		c.entries = append(make([]Entry[V], 0, len(n.entries)+1), n.entries...)
	}
	return c
}

// NewTree returns an empty tree indexing rectangles of the given
// dimensionality (2 or 3).
func NewTree[V any](dims int) (Tree[V], error) {
	if dims < 2 || dims > MaxDims {
		return Tree[V]{}, fmt.Errorf("%w: dims %d", ErrInvalid, dims)
	}
	return Tree[V]{dims: dims}, nil
}

// Dims returns the tree's dimensionality.
func (t Tree[V]) Dims() int {
	if t.dims == 0 {
		return 2
	}
	return t.dims
}

// Len reports the number of entries.
func (t Tree[V]) Len() int { return t.size }

// Insert returns the tree with an entry added. The rectangle must be valid
// and match the tree's dimensionality; the (rectangle, ID) key must not be
// present already.
func (t Tree[V]) Insert(r Rect, id uint64, val V) (Tree[V], error) {
	if !r.Valid() || r.Dims != t.Dims() {
		return t, fmt.Errorf("%w: %v (tree dims %d)", ErrInvalid, r, t.Dims())
	}
	if has(t.root, r, id) {
		return t, fmt.Errorf("%w: %d", ErrDuplicateID, id)
	}
	t.root = insertRoot(t.root, Entry[V]{Rect: r, ID: id, Value: val})
	t.size++
	return t, nil
}

// has reports whether the key (r, id) is stored below n: only a subtree
// whose bounds contain r can hold it.
func has[V any](n *rnode[V], r Rect, id uint64) bool {
	if n == nil || !n.bounds.Contains(r) {
		return false
	}
	if n.leaf {
		return slices.ContainsFunc(n.entries, func(e Entry[V]) bool { return e.ID == id && e.Rect.equal(r) })
	}
	return slices.ContainsFunc(n.children, func(c *rnode[V]) bool { return has(c, r, id) })
}

// insertRoot inserts e under root (nil for an empty tree) and returns the
// new root (grown by one level when the old root split).
func insertRoot[V any](root *rnode[V], e Entry[V]) *rnode[V] {
	if root == nil {
		root = &rnode[V]{leaf: true}
	}
	n1, n2 := insert(root, e)
	if n2 == nil {
		return n1
	}
	grown := &rnode[V]{
		leaf:     false,
		children: []*rnode[V]{n1, n2},
		rects:    []Rect{n1.bounds, n2.bounds},
	}
	grown.recomputeBounds()
	return grown
}

// insert places e into the subtree rooted at n, returning the (possibly
// rebuilt) node and a second node when n had to split. n itself is never
// modified: the copy of the descent path is returned instead.
func insert[V any](n *rnode[V], e Entry[V]) (*rnode[V], *rnode[V]) {
	n = n.clone()
	if n.leaf {
		n.entries = append(n.entries, e)
		n.recomputeBounds()
		if len(n.entries) > maxEntries {
			return splitLeaf(n)
		}
		return n, nil
	}
	best := chooseSubtree(n, e.Rect)
	c1, c2 := insert(n.children[best], e)
	n.children[best] = c1
	n.rects[best] = c1.bounds
	if c2 != nil {
		n.children = append(n.children, c2)
		n.rects = append(n.rects, c2.bounds)
	}
	n.recomputeBounds()
	if len(n.children) > maxEntries {
		return splitInternal(n)
	}
	return n, nil
}

// chooseSubtree picks the child needing the least enlargement to include r,
// breaking ties by smaller volume (Guttman's ChooseLeaf).
func chooseSubtree[V any](n *rnode[V], r Rect) int {
	best, bestEnl, bestVol := -1, 0.0, 0.0
	for i, cr := range n.rects {
		enl := cr.enlargement(r)
		vol := cr.Volume()
		if best == -1 || enl < bestEnl || (enl == bestEnl && vol < bestVol) {
			best, bestEnl, bestVol = i, enl, vol
		}
	}
	return best
}

func (n *rnode[V]) recomputeBounds() {
	if n.leaf {
		if len(n.entries) == 0 {
			n.bounds = Rect{}
			return
		}
		b := n.entries[0].Rect
		for _, e := range n.entries[1:] {
			b = b.Union(e.Rect)
		}
		n.bounds = b
		return
	}
	if len(n.children) == 0 {
		n.bounds = Rect{}
		return
	}
	b := n.children[0].bounds
	for _, c := range n.children[1:] {
		b = b.Union(c.bounds)
	}
	n.bounds = b
}

// quadratic split: pick the pair of rects wasting the most volume as seeds,
// then assign the rest greedily.
func pickSeeds(rects []Rect) (int, int) {
	s1, s2, worst := 0, 1, -1.0
	for i := 0; i < len(rects); i++ {
		for j := i + 1; j < len(rects); j++ {
			waste := rects[i].Union(rects[j]).Volume() - rects[i].Volume() - rects[j].Volume()
			if waste > worst {
				worst, s1, s2 = waste, i, j
			}
		}
	}
	return s1, s2
}

func splitLeaf[V any](n *rnode[V]) (*rnode[V], *rnode[V]) {
	entries := n.entries
	rects := make([]Rect, len(entries))
	for i, e := range entries {
		rects[i] = e.Rect
	}
	g1, g2 := splitGroups(rects)
	a := &rnode[V]{leaf: true}
	b := &rnode[V]{leaf: true}
	for _, i := range g1 {
		a.entries = append(a.entries, entries[i])
	}
	for _, i := range g2 {
		b.entries = append(b.entries, entries[i])
	}
	a.recomputeBounds()
	b.recomputeBounds()
	return a, b
}

func splitInternal[V any](n *rnode[V]) (*rnode[V], *rnode[V]) {
	g1, g2 := splitGroups(n.rects)
	a := &rnode[V]{leaf: false}
	b := &rnode[V]{leaf: false}
	for _, i := range g1 {
		a.children = append(a.children, n.children[i])
		a.rects = append(a.rects, n.rects[i])
	}
	for _, i := range g2 {
		b.children = append(b.children, n.children[i])
		b.rects = append(b.rects, n.rects[i])
	}
	a.recomputeBounds()
	b.recomputeBounds()
	return a, b
}

// splitGroups partitions indices of rects into two groups using Guttman's
// quadratic method, respecting the minimum fill.
func splitGroups(rects []Rect) ([]int, []int) {
	s1, s2 := pickSeeds(rects)
	g1, g2 := []int{s1}, []int{s2}
	b1, b2 := rects[s1], rects[s2]
	remaining := make([]int, 0, len(rects)-2)
	for i := range rects {
		if i != s1 && i != s2 {
			remaining = append(remaining, i)
		}
	}
	for len(remaining) > 0 {
		// If one group must take all remaining to reach minimum fill, do it.
		if len(g1)+len(remaining) <= minEntries {
			g1 = append(g1, remaining...)
			break
		}
		if len(g2)+len(remaining) <= minEntries {
			g2 = append(g2, remaining...)
			break
		}
		// PickNext: the index with the greatest preference difference.
		bestIdx, bestDiff := -1, -1.0
		for k, i := range remaining {
			d1 := b1.enlargement(rects[i])
			d2 := b2.enlargement(rects[i])
			diff := d1 - d2
			if diff < 0 {
				diff = -diff
			}
			if diff > bestDiff {
				bestDiff, bestIdx = diff, k
			}
		}
		i := remaining[bestIdx]
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
		d1 := b1.enlargement(rects[i])
		d2 := b2.enlargement(rects[i])
		switch {
		case d1 < d2:
			g1 = append(g1, i)
			b1 = b1.Union(rects[i])
		case d2 < d1:
			g2 = append(g2, i)
			b2 = b2.Union(rects[i])
		case len(g1) <= len(g2):
			g1 = append(g1, i)
			b1 = b1.Union(rects[i])
		default:
			g2 = append(g2, i)
			b2 = b2.Union(rects[i])
		}
	}
	return g1, g2
}

// Delete returns the tree without the entry keyed (r, id), reporting
// whether it was there. Underfull nodes are condensed by re-inserting their
// orphaned entries.
func (t Tree[V]) Delete(r Rect, id uint64) (Tree[V], bool) {
	if !has(t.root, r, id) {
		return t, false
	}
	var orphans []Entry[V]
	root := condense(t.root, r, id, &orphans)
	if root != nil && !root.leaf && len(root.children) == 1 {
		root = root.children[0]
	}
	for _, e := range orphans {
		root = insertRoot(root, e)
	}
	t.root = root
	t.size--
	return t, true
}

// condense removes (r,id) from the subtree at n. Nodes that drop below the
// minimum fill contribute their entries to orphans and are pruned. Like
// insert, it works on copies: n is never modified in place.
func condense[V any](n *rnode[V], r Rect, id uint64, orphans *[]Entry[V]) *rnode[V] {
	if n == nil {
		return nil
	}
	n = n.clone()
	if n.leaf {
		for i, e := range n.entries {
			if e.ID == id && e.Rect.equal(r) {
				n.entries = append(n.entries[:i], n.entries[i+1:]...)
				break
			}
		}
		n.recomputeBounds()
		if len(n.entries) == 0 {
			return nil
		}
		return n
	}
	for i := 0; i < len(n.children); i++ {
		if !n.rects[i].Overlaps(r) && !n.rects[i].Contains(r) {
			continue
		}
		child := condense(n.children[i], r, id, orphans)
		if child == nil || (child.leaf && len(child.entries) < minEntries) || (!child.leaf && len(child.children) < minEntries) {
			// Prune the underfull child and re-insert its entries.
			if child != nil {
				collectEntries(child, orphans)
			}
			n.children = append(n.children[:i], n.children[i+1:]...)
			n.rects = append(n.rects[:i], n.rects[i+1:]...)
			i--
		} else {
			n.children[i] = child
			n.rects[i] = child.bounds
		}
	}
	n.recomputeBounds()
	if len(n.children) == 0 {
		return nil
	}
	return n
}

func collectEntries[V any](n *rnode[V], out *[]Entry[V]) {
	if n.leaf {
		*out = append(*out, n.entries...)
		return
	}
	for _, c := range n.children {
		collectEntries(c, out)
	}
}

// Search returns all entries whose rectangle overlaps q, sorted by ID.
func (t Tree[V]) Search(q Rect) []Entry[V] {
	var out []Entry[V]
	t.Visit(q, func(e Entry[V]) bool {
		out = append(out, e)
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Visit calls fn for every entry overlapping q until fn returns false.
// Visit order is unspecified.
func (t Tree[V]) Visit(q Rect, fn func(Entry[V]) bool) {
	if !q.Valid() || q.Dims != t.Dims() {
		return
	}
	visit(t.root, q, fn)
}

func visit[V any](n *rnode[V], q Rect, fn func(Entry[V]) bool) bool {
	if n == nil || !n.bounds.Overlaps(q) {
		return true
	}
	if n.leaf {
		for _, e := range n.entries {
			if e.Rect.Overlaps(q) && !fn(e) {
				return false
			}
		}
		return true
	}
	for i, c := range n.children {
		if n.rects[i].Overlaps(q) {
			if !visit(c, q, fn) {
				return false
			}
		}
	}
	return true
}

// Count returns the number of entries overlapping q.
func (t Tree[V]) Count(q Rect) int {
	n := 0
	t.Visit(q, func(Entry[V]) bool {
		n++
		return true
	})
	return n
}

// Bounds returns the bounding box of all entries; ok is false for an empty
// tree.
func (t Tree[V]) Bounds() (Rect, bool) {
	if t.root == nil || t.size == 0 {
		return Rect{}, false
	}
	return t.root.bounds, true
}

// Height returns the height of the tree (0 when empty).
func (t Tree[V]) Height() int {
	h, n := 0, t.root
	for n != nil {
		h++
		if n.leaf {
			break
		}
		n = n.children[0]
	}
	return h
}

// BulkLoad builds a tree from entries using the Sort-Tile-Recursive (STR)
// packing algorithm, which produces better-clustered nodes than repeated
// insertion. Entries must all have valid rectangles of the same
// dimensionality and distinct IDs.
func BulkLoad[V any](dims int, entries []Entry[V]) (Tree[V], error) {
	t, err := NewTree[V](dims)
	if err != nil {
		return t, err
	}
	ids := make([]uint64, len(entries))
	for i, e := range entries {
		if !e.Rect.Valid() || e.Rect.Dims != dims {
			return t, fmt.Errorf("%w: %v", ErrInvalid, e.Rect)
		}
		ids[i] = e.ID
	}
	slices.Sort(ids)
	for i := 1; i < len(ids); i++ {
		if ids[i] == ids[i-1] {
			return t, fmt.Errorf("%w: %d", ErrDuplicateID, ids[i])
		}
	}
	if len(entries) == 0 {
		return t, nil
	}
	leaves := strPack(entries, dims)
	nodes := make([]*rnode[V], len(leaves))
	for i, grp := range leaves {
		n := &rnode[V]{leaf: true, entries: grp}
		n.recomputeBounds()
		nodes[i] = n
	}
	for len(nodes) > 1 {
		rects := make([]Entry[*rnode[V]], len(nodes))
		for i, n := range nodes {
			rects[i] = Entry[*rnode[V]]{Rect: n.bounds, ID: uint64(i), Value: n}
		}
		groups := strPack(rects, dims)
		next := make([]*rnode[V], len(groups))
		for i, grp := range groups {
			n := &rnode[V]{leaf: false}
			for _, g := range grp {
				n.children = append(n.children, g.Value)
				n.rects = append(n.rects, g.Rect)
			}
			n.recomputeBounds()
			next[i] = n
		}
		nodes = next
	}
	t.root, t.size = nodes[0], len(entries)
	return t, nil
}

// strPack groups entries into runs of at most maxEntries using STR tiling.
func strPack[V any](entries []Entry[V], dims int) [][]Entry[V] {
	es := append([]Entry[V](nil), entries...)
	nLeaves := (len(es) + maxEntries - 1) / maxEntries
	if nLeaves <= 1 {
		return [][]Entry[V]{es}
	}
	// Sort by x-center, slice into vertical strips, sort each strip by
	// y-center (then z for 3-D), pack runs of maxEntries.
	sort.Slice(es, func(i, j int) bool { return es[i].Rect.Center(0) < es[j].Rect.Center(0) })
	stripCount := intSqrtCeil(nLeaves)
	perStrip := (len(es) + stripCount - 1) / stripCount
	var groups [][]Entry[V]
	for s := 0; s < len(es); s += perStrip {
		e := s + perStrip
		if e > len(es) {
			e = len(es)
		}
		strip := es[s:e]
		sort.Slice(strip, func(i, j int) bool {
			if strip[i].Rect.Center(1) != strip[j].Rect.Center(1) {
				return strip[i].Rect.Center(1) < strip[j].Rect.Center(1)
			}
			if dims > 2 {
				return strip[i].Rect.Center(2) < strip[j].Rect.Center(2)
			}
			return false
		})
		for g := 0; g < len(strip); g += maxEntries {
			ge := g + maxEntries
			if ge > len(strip) {
				ge = len(strip)
			}
			groups = append(groups, append([]Entry[V](nil), strip[g:ge]...))
		}
	}
	return groups
}

func intSqrtCeil(n int) int {
	i := 1
	for i*i < n {
		i++
	}
	return i
}
