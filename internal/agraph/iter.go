package agraph

import "fmt"

// The visitor API: InEach/OutEach visit edges in edge-ID order without
// materializing result slices, and the count and probe methods answer from
// the list lengths. A Graph is a value, so a visitor sees exactly the
// edge set of the graph it was called on, whatever it does meanwhile —
// including nested visits and traversals of the same value.

// NodeIndex is a node's dense index in a graph value. Lookup finds it, and
// the *At visitors take one and hand over the far end's with each edge,
// so that a nested visit starts from it instead of looking its node up
// again by key. It names its node in the value it came from, and in the
// values the writer builds from that one for as long as the node lives.
type NodeIndex int32

// Lookup returns ref's dense index, if ref is a node of the graph.
func (g *Graph) Lookup(ref NodeRef) (NodeIndex, bool) {
	i, n := g.find(ref)
	return NodeIndex(i), n != nil
}

// OutEach calls visit for each edge leaving ref in edge-ID order,
// optionally filtered by label, until visit returns false.
func (g *Graph) OutEach(ref NodeRef, visit func(Edge) bool, labels ...EdgeLabel) {
	if i, n := g.find(ref); n != nil {
		g.eachAt(i, true, labels, func(e Edge, _ NodeIndex) bool { return visit(e) })
	}
}

// InEach calls visit for each edge entering ref in edge-ID order,
// optionally filtered by label, until visit returns false.
func (g *Graph) InEach(ref NodeRef, visit func(Edge) bool, labels ...EdgeLabel) {
	if i, n := g.find(ref); n != nil {
		g.eachAt(i, false, labels, func(e Edge, _ NodeIndex) bool { return visit(e) })
	}
}

// OutEachAt is OutEach from the node at index i, handing visit the index
// of each edge's head too.
func (g *Graph) OutEachAt(i NodeIndex, visit func(e Edge, to NodeIndex) bool, labels ...EdgeLabel) {
	g.eachAt(int32(i), true, labels, visit)
}

// InEachAt is InEach into the node at index i, handing visit the index of
// each edge's tail too.
func (g *Graph) InEachAt(i NodeIndex, visit func(e Edge, from NodeIndex) bool, labels ...EdgeLabel) {
	g.eachAt(int32(i), false, labels, visit)
}

func (g *Graph) eachAt(i int32, out bool, labels []EdgeLabel, visit func(Edge, NodeIndex) bool) {
	f := g.filter(labels)
	if f.none() {
		return
	}
	n := g.node(i)
	n.each(out, &f, func(_ bool, h halfEdge) bool { return visit(g.edge(n, out, h), NodeIndex(h.peer)) })
}

// OutCount reports the number of edges leaving ref, optionally filtered
// by label, without visiting them: a length, unless ref's out-edges carry
// several labels and the filter leaves some out.
func (g *Graph) OutCount(ref NodeRef, labels ...EdgeLabel) int {
	return g.count(ref, true, labels)
}

// InCount reports the number of edges entering ref, optionally filtered
// by label, without visiting them.
func (g *Graph) InCount(ref NodeRef, labels ...EdgeLabel) int {
	return g.count(ref, false, labels)
}

func (g *Graph) count(ref NodeRef, out bool, labels []EdgeLabel) int {
	if _, n := g.find(ref); n != nil {
		f := g.filter(labels)
		return n.count(out, &f)
	}
	return 0
}

// HasEdgeBetween reports whether at least one edge runs from→to,
// optionally restricted to the given labels. It scans the smaller of
// from's outgoing and to's incoming edges.
func (g *Graph) HasEdgeBetween(from, to NodeRef, labels ...EdgeLabel) bool {
	fi, fn := g.find(from)
	ti, tn := g.find(to)
	if fn == nil || tn == nil {
		return false
	}
	f := g.filter(labels)
	if f.none() {
		return false
	}
	n, out, peer := fn, true, ti
	if tn.count(false, &f) < fn.count(true, &f) {
		n, out, peer = tn, false, fi
	}
	return !n.each(out, &f, func(_ bool, h halfEdge) bool { return h.peer != peer })
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
		more = g.node(cur).eachIncident(func(_ bool, h halfEdge) bool {
			if ar.seenAt(h.peer) {
				return true
			}
			ar.mark(h.peer, parentLink{prev: cur})
			ar.queue = append(ar.queue, h.peer)
			return visit(g.ref(g.node(h.peer)))
		})
	}
	return nil
}
