package agraph

import (
	"cmp"
	"slices"
	"sort"
)

// halfEdge is one end of an edge as a node's adjacency stores it: the
// edge's ID and the dense index of the node at the other end.
type halfEdge struct {
	id   uint64
	peer int32
}

// listChunk bounds a chunk of a halfList, as cow.Postings' chunk size
// bounds a posting chunk: removing an edge copies one chunk of at most
// this many half-edges plus the spine of chunk headers, whatever the
// degree of the node.
const listChunk = 256

// halfList is one adjacency partition: the half-edges of one node, one
// direction and one label, ascending by edge ID. The lowest sits in the
// list itself — most lists of most nodes hold one edge, and a traversal
// then reads it where it reads the node — and the others behind rest: the
// newest in tail and, once tail has filled up, full chunks before it.
//
// Edge IDs only grow, so an insertion always lands at the end, in tail's
// spare capacity: a reader holding an older value never indexes past its
// own length, so sharing the backing array along the single-writer chain
// is safe. A removal copies what it changes. Only the latest value of a
// chain may be extended.
type halfList struct {
	first halfEdge // id 0, which no edge has, when the list is empty
	rest  *listRest
}

// listRest is what a list holds beyond its first half-edge; never empty,
// never written once a list points at it.
type listRest struct {
	chunks [][]halfEdge // none empty; ascending within and across, between first and tail
	tail   []halfEdge
	n      int // half-edges in chunks and tail
}

func (l *halfList) len() int {
	switch {
	case l.first.id == 0:
		return 0
	case l.rest == nil:
		return 1
	}
	return 1 + l.rest.n
}

// last returns the highest edge ID in the list, which is not empty.
func (l *halfList) last() uint64 {
	switch r := l.rest; {
	case r == nil:
		return l.first.id
	case len(r.tail) > 0:
		return r.tail[len(r.tail)-1].id
	default:
		c := r.chunks[len(r.chunks)-1]
		return c[len(c)-1].id
	}
}

// each visits the half-edges in ascending ID order until fn returns
// false, and reports whether it visited them all; fn gets via with each.
func (l *halfList) each(via int32, fn func(via int32, h halfEdge) bool) bool {
	if l.first.id == 0 {
		return true
	}
	if !fn(via, l.first) {
		return false
	}
	if l.rest == nil {
		return true
	}
	for _, c := range l.rest.chunks {
		for _, h := range c {
			if !fn(via, h) {
				return false
			}
		}
	}
	for _, h := range l.rest.tail {
		if !fn(via, h) {
			return false
		}
	}
	return true
}

// with returns the list with h, whose ID is above every ID in it, added.
func (l halfList) with(h halfEdge) halfList {
	if l.first.id == 0 {
		l.first = h
		return l
	}
	var r listRest
	if l.rest != nil {
		r = *l.rest
	}
	if len(r.tail) == listChunk { // a full tail becomes a chunk
		r.chunks, r.tail = append(slices.Clip(r.chunks), r.tail), nil
	}
	r.tail = append(r.tail, h)
	r.n++
	l.rest = &r
	return l
}

// without returns the list with edge id removed, if present. Chunks
// shrink and vanish but are not merged.
func (l halfList) without(id uint64) halfList {
	if l.rest == nil {
		if id == l.first.id {
			l.first = halfEdge{}
		}
		return l
	}
	r := *l.rest
	// i is the chunk (the tail: len(r.chunks)) and at the place in it that
	// id leaves; when id is first's, those of the next lowest, which moves up.
	i, at := 0, 0
	if id == l.first.id {
		if len(r.chunks) == 0 {
			l.first = r.tail[0]
		} else {
			l.first = r.chunks[0][0]
		}
	} else {
		i = sort.Search(len(r.chunks), func(k int) bool { c := r.chunks[k]; return c[len(c)-1].id >= id })
		c := r.tail
		if i < len(r.chunks) {
			c = r.chunks[i]
		}
		var found bool
		if at, found = slices.BinarySearchFunc(c, id, func(h halfEdge, id uint64) int { return cmp.Compare(h.id, id) }); !found {
			return l
		}
	}
	if r.n--; r.n == 0 {
		l.rest = nil
		return l
	}
	if i == len(r.chunks) { // the tail keeps its room: the appends that follow stay in place
		r.tail = cut(r.tail, at, cap(r.tail))
	} else if r.chunks = slices.Clone(r.chunks); len(r.chunks[i]) > 1 {
		r.chunks[i] = cut(r.chunks[i], at, 0)
	} else {
		r.chunks = slices.Delete(r.chunks, i, i+1)
	}
	l.rest = &r
	return l
}

// cut returns a copy of c without c[at], with room for at least room.
func cut(c []halfEdge, at, room int) []halfEdge {
	out := make([]halfEdge, len(c)-1, max(room, len(c)-1))
	copy(out, c[:at])
	copy(out[at:], c[at+1:])
	return out
}

// bucket is the adjacency partition of one edge label.
type bucket struct {
	label EdgeLabel
	list  halfList
}

// adjacency is one direction of a node's incident edges, a bucket per
// label in order of first use. The first sits in the node itself — most
// directions of most nodes carry one label, and a traversal then reaches
// the half-edges without a stop on the way — and is empty only when the
// whole direction is. No bucket is ever written in place: a change lands
// in a copied node and, for the later labels, a fresh array.
type adjacency struct {
	first bucket
	more  []bucket
}

// buckets returns the number of labels present; at(i) is the i-th's bucket.
func (a *adjacency) buckets() int {
	if a.first.list.len() == 0 {
		return 0
	}
	return 1 + len(a.more)
}

func (a *adjacency) at(i int) *bucket {
	if i == 0 {
		return &a.first
	}
	return &a.more[i-1]
}

// add appends h under label.
func (a *adjacency) add(label EdgeLabel, h halfEdge) {
	if a.buckets() == 0 {
		a.first.label = label
	}
	if a.first.label == label {
		a.first.list = a.first.list.with(h)
		return
	}
	more := make([]bucket, len(a.more), len(a.more)+1)
	copy(more, a.more)
	i := slices.IndexFunc(more, func(b bucket) bool { return b.label == label })
	if i < 0 {
		i, more = len(more), append(more, bucket{label: label})
	}
	more[i].list = more[i].list.with(h)
	a.more = more
}

// remove drops edge id from label's bucket; a bucket goes with its last
// edge.
func (a *adjacency) remove(label EdgeLabel, id uint64) {
	if a.first.label == label {
		if a.first.list = a.first.list.without(id); a.first.list.len() > 0 {
			return
		}
		a.first = bucket{}
		if len(a.more) > 0 {
			a.first, a.more = a.more[0], a.more[1:]
		}
		return
	}
	i := slices.IndexFunc(a.more, func(b bucket) bool { return b.label == label })
	if i < 0 {
		return
	}
	if l := a.more[i].list.without(id); l.len() > 0 {
		a.more = slices.Clone(a.more)
		a.more[i].list = l
	} else {
		a.more = slices.Concat(a.more[:i], a.more[i+1:])
	}
}

func labelIn(l EdgeLabel, ls []EdgeLabel) bool {
	return len(ls) == 0 || slices.Contains(ls, l)
}

// count reports how many half-edges carry one of labels (any label when
// none is given).
func (a *adjacency) count(labels []EdgeLabel) int {
	n := 0
	for i := range a.buckets() {
		if b := a.at(i); labelIn(b.label, labels) {
			n += b.list.len()
		}
	}
	return n
}

// each visits, in ascending edge-ID order, the half-edges that carry one
// of labels (any label when none is given), until fn returns false; it
// reports whether it visited them all. fn also gets the bucket a half-edge
// sits in, as Graph.edge reads it: the bucket's index, complemented when a
// is a node's in-direction.
func (a *adjacency) each(in bool, labels []EdgeLabel, fn func(via int32, h halfEdge) bool) bool {
	if len(a.more) == 0 { // one label at most: most directions of most nodes
		return !labelIn(a.first.label, labels) || a.first.list.each(viaBucket(0, in), fn)
	}
	if !a.inOrder(labels) {
		return a.merge(in, labels, fn)
	}
	for i := range a.buckets() {
		if b := a.at(i); labelIn(b.label, labels) && !b.list.each(viaBucket(i, in), fn) {
			return false
		}
	}
	return true
}

func viaBucket(i int, in bool) int32 {
	if in {
		return ^int32(i)
	}
	return int32(i)
}

// inOrder reports whether, of the buckets carrying one of labels, each
// one's edges all come after the one's before it — as an annotation's
// edges to its referents and then those to its terms do, and every
// other list the store builds: walking such lists one after another is
// walking them in ID order.
func (a *adjacency) inOrder(labels []EdgeLabel) bool {
	last := uint64(0)
	for i := range a.buckets() {
		if b := a.at(i); labelIn(b.label, labels) {
			if b.list.first.id < last {
				return false
			}
			last = b.list.last()
		}
	}
	return true
}

// merge is each across lists whose ID ranges interleave (a node linked
// under a second label between two links under its first): collected,
// sorted, then visited.
func (a *adjacency) merge(in bool, labels []EdgeLabel, fn func(via int32, h halfEdge) bool) bool {
	type half struct {
		via int32
		halfEdge
	}
	var all []half
	for i := range a.buckets() {
		if b := a.at(i); labelIn(b.label, labels) {
			b.list.each(viaBucket(i, in), func(via int32, h halfEdge) bool {
				all = append(all, half{via, h})
				return true
			})
		}
	}
	slices.SortFunc(all, func(x, y half) int { return cmp.Compare(x.id, y.id) })
	for _, h := range all {
		if !fn(h.via, h.halfEdge) {
			return false
		}
	}
	return true
}

// eachIncident visits every half-edge of n, out-direction first, each
// direction in ascending edge-ID order.
func eachIncident(n *node, fn func(via int32, h halfEdge) bool) bool {
	return n.out.each(false, nil, fn) && n.in.each(true, nil, fn)
}
