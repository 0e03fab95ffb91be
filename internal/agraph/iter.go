package agraph

import "fmt"

// The visitor API: InEach/OutEach visit edges in edge-ID order without
// materializing result slices, and the count and probe methods answer from
// the partition sizes. A Graph is a value, so a visitor sees exactly the
// edge set of the graph it was called on, whatever it does meanwhile —
// including nested visits and traversals of the same value.

// OutEach calls visit for each edge leaving ref in edge-ID order,
// optionally filtered by label, until visit returns false.
func (g *Graph) OutEach(ref NodeRef, visit func(Edge) bool, labels ...EdgeLabel) {
	if _, n := g.find(ref); n != nil {
		n.out.each(false, labels, func(via int32, h halfEdge) bool { return visit(g.edge(n, via, h)) })
	}
}

// InEach calls visit for each edge entering ref in edge-ID order,
// optionally filtered by label, until visit returns false.
func (g *Graph) InEach(ref NodeRef, visit func(Edge) bool, labels ...EdgeLabel) {
	if _, n := g.find(ref); n != nil {
		n.in.each(true, labels, func(via int32, h halfEdge) bool { return visit(g.edge(n, via, h)) })
	}
}

// OutCount reports the number of edges leaving ref, optionally filtered
// by label, without visiting them: O(labels-per-node).
func (g *Graph) OutCount(ref NodeRef, labels ...EdgeLabel) int {
	if _, n := g.find(ref); n != nil {
		return n.out.count(labels)
	}
	return 0
}

// InCount reports the number of edges entering ref, optionally filtered
// by label, without visiting them.
func (g *Graph) InCount(ref NodeRef, labels ...EdgeLabel) int {
	if _, n := g.find(ref); n != nil {
		return n.in.count(labels)
	}
	return 0
}

// HasEdgeBetween reports whether at least one edge runs from→to,
// optionally restricted to the given labels. It scans the smaller of
// from's outgoing and to's incoming partitions.
func (g *Graph) HasEdgeBetween(from, to NodeRef, labels ...EdgeLabel) bool {
	fi, f := g.find(from)
	ti, t := g.find(to)
	if f == nil || t == nil {
		return false
	}
	a, peer := &f.out, ti
	if t.in.count(labels) < f.out.count(labels) {
		a, peer = &t.in, fi
	}
	for i := range a.buckets() {
		if b := a.at(i); labelIn(b.label, labels) && !b.list.each(0, func(_ int32, h halfEdge) bool { return h.peer != peer }) {
			return true
		}
	}
	return false
}

// ReachableEach calls visit for every node connected to src by some
// path, following edges in either direction, in BFS order (src first),
// until visit returns false. One call costs a single traversal of src's
// component — callers that would otherwise probe path-existence
// pairwise (FindPath per pair) should collect reachability once.
func (g *Graph) ReachableEach(src NodeRef, visit func(NodeRef) bool) error {
	si, sn := g.find(src)
	if sn == nil {
		return fmt.Errorf("%w: %v", ErrNoSuchNode, src)
	}
	ar := getArena()
	defer arenas.Put(ar)
	ar.reset(int(g.slots))
	ar.mark(si, parentLink{prev: -1})
	ar.queue = append(ar.queue, si)
	more := visit(src)
	for qi := 0; qi < len(ar.queue) && more; qi++ {
		cur := ar.queue[qi]
		more = eachIncident(g.node(cur), func(_ int32, h halfEdge) bool {
			if ar.seenAt(h.peer) {
				return true
			}
			ar.mark(h.peer, parentLink{prev: cur})
			ar.queue = append(ar.queue, h.peer)
			return visit(g.node(h.peer).ref)
		})
	}
	return nil
}
