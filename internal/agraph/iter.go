package agraph

import (
	"fmt"
	"iter"
)

// Zero-copy traversal API.
//
// The visitor methods (InEach/OutEach/NeighborsEach) and the iter.Seq
// variants (InSeq/OutSeq) visit edges in edge-ID order — the same order
// In/Out return — without materializing result slices.
// Each call snapshots the relevant adjacency list headers under the
// read lock and iterates after releasing it: adjacency lists are
// copy-on-write, so a snapshot observes exactly the edge set that
// existed at call time even while concurrent writers mutate the graph.
// Visitors may therefore call back into the graph (including nested
// iteration) without risking read-lock re-entrancy deadlocks.

// snapshotAdj picks the list(s) to visit for one adjacency and label
// filter. Caller holds the read lock; exactly one of the returns is
// meaningful (multi non-nil for multi-label filters).
func snapshotAdj(a *adjacency, labels []EdgeLabel, buf [][]halfRef) (single []halfRef, multi [][]halfRef) {
	switch len(labels) {
	case 0:
		return a.all, nil
	case 1:
		return a.bucket(labels[0]), nil
	default:
		multi, _ = bucketsFor(a, labels, buf)
		return nil, multi
	}
}

// visitHalf iterates a snapshot in edge-ID order until visit declines.
func visitHalf(single []halfRef, multi [][]halfRef, visit func(halfRef) bool) {
	if multi != nil {
		mergeVisit(multi, visit)
		return
	}
	for _, h := range single {
		if !visit(h) {
			return
		}
	}
}

// eachDir visits one direction of ref's adjacency, optionally filtered
// by labels, in edge-ID order. Returning false from visit stops early.
func (g *Graph) eachDir(ref NodeRef, out bool, labels []EdgeLabel, visit func(halfRef) bool) {
	var single []halfRef
	var multi [][]halfRef
	var buf [4][]halfRef
	g.mu.RLock()
	if i, ok := g.index[ref]; ok {
		a := &g.nodes[i].in
		if out {
			a = &g.nodes[i].out
		}
		single, multi = snapshotAdj(a, labels, buf[:0])
	}
	g.mu.RUnlock()
	visitHalf(single, multi, visit)
}

// OutEach calls visit for each edge leaving ref in edge-ID order,
// optionally filtered by label, until visit returns false.
func (g *Graph) OutEach(ref NodeRef, visit func(Edge) bool, labels ...EdgeLabel) {
	g.eachDir(ref, true, labels, func(h halfRef) bool { return visit(*h.edge) })
}

// InEach calls visit for each edge entering ref in edge-ID order,
// optionally filtered by label, until visit returns false.
func (g *Graph) InEach(ref NodeRef, visit func(Edge) bool, labels ...EdgeLabel) {
	g.eachDir(ref, false, labels, func(h halfRef) bool { return visit(*h.edge) })
}

// NeighborsEach calls visit once for each distinct peer reachable by one
// edge in either direction, optionally filtered by label, until visit
// returns false. Peers are visited in first-encounter order (outgoing
// edges by ID, then incoming); use Neighbors for the sorted slice. Both
// directions are snapshotted under one lock acquisition, so the visited
// set reflects a single instant.
func (g *Graph) NeighborsEach(ref NodeRef, visit func(NodeRef) bool, labels ...EdgeLabel) {
	var outSingle, inSingle []halfRef
	var outMulti, inMulti [][]halfRef
	var outBuf, inBuf [4][]halfRef
	g.mu.RLock()
	if i, ok := g.index[ref]; ok {
		outSingle, outMulti = snapshotAdj(&g.nodes[i].out, labels, outBuf[:0])
		inSingle, inMulti = snapshotAdj(&g.nodes[i].in, labels, inBuf[:0])
	}
	g.mu.RUnlock()
	var seen map[NodeRef]struct{}
	stopped := false
	emit := func(p NodeRef) bool {
		if seen == nil {
			seen = make(map[NodeRef]struct{}, 8)
		}
		if _, dup := seen[p]; dup {
			return true
		}
		seen[p] = struct{}{}
		if !visit(p) {
			stopped = true
			return false
		}
		return true
	}
	visitHalf(outSingle, outMulti, func(h halfRef) bool { return emit(h.edge.To) })
	if stopped {
		return
	}
	visitHalf(inSingle, inMulti, func(h halfRef) bool { return emit(h.edge.From) })
}

// OutSeq returns an iterator over the edges leaving ref in edge-ID
// order, optionally filtered by label: for e := range g.OutSeq(ref) {…}.
func (g *Graph) OutSeq(ref NodeRef, labels ...EdgeLabel) iter.Seq[Edge] {
	return func(yield func(Edge) bool) { g.OutEach(ref, yield, labels...) }
}

// InSeq returns an iterator over the edges entering ref in edge-ID
// order, optionally filtered by label.
func (g *Graph) InSeq(ref NodeRef, labels ...EdgeLabel) iter.Seq[Edge] {
	return func(yield func(Edge) bool) { g.InEach(ref, yield, labels...) }
}

// OutCount reports the number of edges leaving ref, optionally filtered
// by label, without materializing them. With zero or one label this is
// O(labels-per-node).
func (g *Graph) OutCount(ref NodeRef, labels ...EdgeLabel) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	i, ok := g.index[ref]
	if !ok {
		return 0
	}
	return sizeFor(&g.nodes[i].out, labels)
}

// InCount reports the number of edges entering ref, optionally filtered
// by label, without materializing them.
func (g *Graph) InCount(ref NodeRef, labels ...EdgeLabel) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	i, ok := g.index[ref]
	if !ok {
		return 0
	}
	return sizeFor(&g.nodes[i].in, labels)
}

func sizeFor(a *adjacency, labels []EdgeLabel) int {
	if len(labels) == 0 {
		return len(a.all)
	}
	n := 0
	for i, l := range labels {
		if !labelIn(l, labels[:i]) {
			n += len(a.bucket(l))
		}
	}
	return n
}

// HasEdgeBetween reports whether at least one edge runs from→to,
// optionally restricted to the given labels. It scans the smaller of
// from's outgoing and to's incoming partitions.
func (g *Graph) HasEdgeBetween(from, to NodeRef, labels ...EdgeLabel) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	fi, ok := g.index[from]
	if !ok {
		return false
	}
	ti, ok := g.index[to]
	if !ok {
		return false
	}
	outA, inA := &g.nodes[fi].out, &g.nodes[ti].in
	if sizeFor(outA, labels) <= sizeFor(inA, labels) {
		return scanFor(outA, labels, func(e *Edge) bool { return e.To == to })
	}
	return scanFor(inA, labels, func(e *Edge) bool { return e.From == from })
}

func scanFor(a *adjacency, labels []EdgeLabel, match func(*Edge) bool) bool {
	if len(labels) == 0 {
		for _, h := range a.all {
			if match(h.edge) {
				return true
			}
		}
		return false
	}
	for i, l := range labels {
		if labelIn(l, labels[:i]) {
			continue
		}
		for _, h := range a.bucket(l) {
			if match(h.edge) {
				return true
			}
		}
	}
	return false
}

// ReachableEach calls visit for every node connected to src by some
// path, following edges in either direction, in BFS order (src first),
// until visit returns false. One call costs a single traversal of src's
// component — callers that would otherwise probe path-existence
// pairwise (FindPath per pair) should collect reachability once.
//
// Unlike the edge iterators, ReachableEach holds the graph's read lock
// for the whole traversal: visit must not call the graph's mutating
// methods, and should not call its reading methods either (a concurrent
// writer would deadlock a re-entrant read lock).
func (g *Graph) ReachableEach(src NodeRef, visit func(NodeRef) bool) error {
	g.mu.RLock()
	defer g.mu.RUnlock()
	si, ok := g.index[src]
	if !ok {
		return fmt.Errorf("%w: %v", ErrNoSuchNode, src)
	}
	ar := g.arena()
	defer g.release(ar)
	ar.reset(len(g.nodes))
	ar.mark(si, -1, nil)
	ar.queue = append(ar.queue, si)
	if !visit(src) {
		return nil
	}
	for qi := 0; qi < len(ar.queue); qi++ {
		cur := ar.queue[qi]
		ns := &g.nodes[cur]
		for _, hs := range [2][]halfRef{ns.out.all, ns.in.all} {
			for _, h := range hs {
				if ar.seenAt(h.peer) {
					continue
				}
				ar.mark(h.peer, cur, nil)
				ar.queue = append(ar.queue, h.peer)
				if !visit(g.nodes[h.peer].ref) {
					return nil
				}
			}
		}
	}
	return nil
}
