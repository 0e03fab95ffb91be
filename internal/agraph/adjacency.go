package agraph

import (
	"cmp"
	"slices"
	"sort"
)

// halfEdge is one end of an edge as a node's adjacency stores it: the
// edge's ID, the dense index of the node at the other end and the code of
// the edge's label.
type halfEdge struct {
	id    uint64
	peer  int32
	label uint32
}

// listChunk bounds a chunk of an edgeList, as cow.Postings' chunk size
// bounds a posting chunk: removing an edge copies one chunk of at most
// this many half-edges plus the spine of chunk headers, whatever the
// degree of the node.
const listChunk = 256

// edgeList is the rest of one direction of a node, after the half-edge
// the node holds inline: ascending by edge ID, the newest in tail and,
// once tail has filled up, full chunks before it.
//
// Edge IDs only grow, so an insertion always lands at the end, in tail's
// spare capacity: a reader holding an older value never indexes past its
// own length, so sharing the backing array along the single-writer chain
// is safe. A removal copies the slices it changes. Only the latest value
// of a chain may be extended.
type edgeList struct {
	chunks [][]halfEdge // none empty; ascending within and across, all below tail
	tail   []halfEdge
	n      int32 // half-edges in chunks and tail
	// mixed: the direction, its inline half-edge included, may carry more
	// than one label. Unset, every half-edge carries the inline one's.
	mixed bool
}

func (l *edgeList) len() int {
	if l == nil {
		return 0
	}
	return int(l.n)
}

// push appends h, whose ID is above every ID in the list.
func (l *edgeList) push(h halfEdge) {
	if len(l.tail) == listChunk { // a full tail becomes a chunk
		l.chunks, l.tail = append(slices.Clip(l.chunks), l.tail), nil
	}
	l.tail = append(l.tail, h)
	l.n++
}

// remove drops edge id, if present.
func (l *edgeList) remove(id uint64) {
	i := sort.Search(len(l.chunks), func(k int) bool { c := l.chunks[k]; return c[len(c)-1].id >= id })
	c := l.tail
	if i < len(l.chunks) {
		c = l.chunks[i]
	}
	if at, found := slices.BinarySearchFunc(c, id, func(h halfEdge, id uint64) int { return cmp.Compare(h.id, id) }); found {
		l.drop(i, at)
	}
}

// shift removes and returns the lowest half-edge of the list, which is
// not empty.
func (l *edgeList) shift() halfEdge {
	var h halfEdge
	if len(l.chunks) > 0 {
		h = l.chunks[0][0]
	} else {
		h = l.tail[0]
	}
	l.drop(0, 0)
	return h
}

// drop removes the at-th half-edge of chunk i (of the tail when i is
// len(chunks)). Chunks shrink and vanish but are not merged.
func (l *edgeList) drop(i, at int) {
	switch l.n--; {
	case l.n == 0:
		*l = edgeList{}
	case i == len(l.chunks): // the tail keeps its room: the appends that follow stay in place
		l.tail = cut(l.tail, at, cap(l.tail))
	case len(l.chunks[i]) > 1:
		l.chunks = slices.Clone(l.chunks)
		l.chunks[i] = cut(l.chunks[i], at, 0)
	default:
		l.chunks = slices.Concat(l.chunks[:i], l.chunks[i+1:])
	}
}

// cut returns a copy of c without c[at], with room for at least room.
func cut(c []halfEdge, at, room int) []halfEdge {
	out := make([]halfEdge, len(c)-1, max(room, len(c)-1))
	copy(out, c[:at])
	copy(out[at:], c[at+1:])
	return out
}

// labelFilter is a label filter resolved to codes (see Graph.filter).
type labelFilter struct {
	any  bool     // no filter: every label passes
	low  uint64   // the codes below 64 that pass, as bits
	high []uint32 // the codes from 64 on that pass
}

var anyLabel = labelFilter{any: true}

func (f *labelFilter) has(code uint32) bool {
	switch {
	case f.any:
		return true
	case code < 64:
		return f.low&(1<<code) != 0
	}
	return slices.Contains(f.high, code)
}

// none reports whether the filter passes no label at all.
func (f *labelFilter) none() bool { return !f.any && f.low == 0 && len(f.high) == 0 }

// first returns the inline half-edge of n's out-direction (in-direction
// when !out).
func (n *node) first(out bool) *halfEdge {
	if out {
		return &n.out
	}
	return &n.in
}

// list returns the rest of n's out-direction (in-direction when !out),
// or nil.
func (n *node) list(out bool) *edgeList {
	switch {
	case n.more == nil:
		return nil
	case out:
		return &n.more.out
	}
	return &n.more.in
}

func (m *nodeMore) list(out bool) *edgeList {
	if out {
		return &m.out
	}
	return &m.in
}

// each visits, in ascending edge-ID order, the half-edges of n's
// out-direction (in-direction when !out) whose labels f passes, until fn
// returns false; it reports whether it visited them all. fn gets out with
// each.
func (n *node) each(out bool, f *labelFilter, fn func(out bool, h halfEdge) bool) bool {
	first, l := *n.first(out), n.list(out)
	if first.id == 0 {
		return true
	}
	if f.has(first.label) && !fn(out, first) {
		return false
	}
	if l.len() == 0 || !l.mixed && !f.has(first.label) {
		return true
	}
	for _, c := range l.chunks {
		for _, h := range c {
			if f.has(h.label) && !fn(out, h) {
				return false
			}
		}
	}
	for _, h := range l.tail {
		if f.has(h.label) && !fn(out, h) {
			return false
		}
	}
	return true
}

// count reports how many half-edges of n's out-direction (in-direction
// when !out) f passes: a length unless the direction carries several
// labels and f does not pass them all.
func (n *node) count(out bool, f *labelFilter) int {
	first, l := *n.first(out), n.list(out)
	switch {
	case first.id == 0:
		return 0
	case f.any:
		return 1 + l.len()
	case l.len() == 0 || !l.mixed:
		if f.has(first.label) {
			return 1 + l.len()
		}
		return 0
	}
	c := 0
	n.each(out, f, func(bool, halfEdge) bool { c++; return true })
	return c
}

// eachIncident visits every half-edge of n, out-direction first, each
// direction in ascending edge-ID order; fn gets the direction with each.
func (n *node) eachIncident(fn func(out bool, h halfEdge) bool) bool {
	return n.each(true, &anyLabel, fn) && n.each(false, &anyLabel, fn)
}
