// Package agraph implements Graphitti's a-graph: the directed labeled
// multigraph that connects annotation contents to annotation referents.
//
// The paper: "A collection of annotation contents and referents would
// induce a graph, where there are two types of nodes, the contents and the
// referents, and a directed edge connects a content to a referent. … We
// call this the a-graph; it is the connection structure that associates the
// substructures of all other types of data." The a-graph also "connects
// nodes of the XML annotation trees to (i) nodes of the interval trees and
// R-trees and (ii) ontology nodes. It is implemented in a directed labeled
// multigraph data structure … and serves as a general-purpose 'labeled join
// index'. The two primitive operations on the a-graph are path(node1,
// node2) … and connect(node1, node2, …)".
//
// Nodes are typed references (NodeRef) into the other Graphitti stores;
// the graph itself stores no payloads, only connectivity — exactly the
// "labeled join index" role the paper assigns it.
//
// # Storage layout
//
// A Graph is an immutable value: the zero value is the empty graph, a read
// never blocks and never observes a writer, and a kept value is a
// snapshot for as long as it is held. The one writer edits through an
// Edit handle (Graph.Edit) and obtains the successor value from it; the
// successor shares all but the touched pieces with its predecessor.
//
// Every node has a dense int32 index, found through one persistent map
// per node kind. Content and referent nodes are keyed there by number —
// the uvarints of (annotation, XML node) and of the referent ID — and
// carry those numbers themselves: a NodeRef of either kind holds them as
// fields, and its decimal Key is printed only for a caller that asks.
// Only term and object nodes keep a string key, their name. The index
// leads to the node through a cow.Table, so the traversal primitives
// (FindPath, Connect, ReachableEach) run on epoch-stamped arrays from a
// pooled arena instead of per-call maps; the indices of removed nodes are
// reused.
//
// Edge labels are interned per graph: a label's code is its place in the
// graph's label table, which grows only when Edit.AddEdge meets a label
// the graph never carried. A label a reader asks about and the graph
// never carried matches nothing and is not added.
//
// A node is 64 bytes: its kind and numbers, and the lowest-ID half-edge
// of each direction inline. An edge is stored as its two half-edges —
// {edge ID, index of the node at the other end, label code}, the tail's
// in its out-direction and the head's in its in-direction — and nowhere
// else: Edge values are assembled for the caller from the node table.
// What a node holds beyond that (a term's or object's name, the
// half-edges after the first of a direction) is behind one pointer that
// most nodes leave nil. The rest of a direction is a chunked list ordered
// by edge ID, like cow.Postings: edge IDs are allocated monotonically, so
// an insertion is a tail append (in place, past the length any earlier
// value holds), a removal copies the one chunk that held the edge, and
// In/Out iteration is one pass in ID order whatever labels it asks for.
// Each direction knows whether it carries one label only, so counting
// under a filter on a hub — an object with thousands of marks — reads a
// length instead of scanning.
//
// The writer copies a node, and what hangs off it, the first time a
// session touches it and stamps the copy with the session, as cow.Map
// stamps its nodes: a node stamped with the session's own generation is
// reachable from no published value and is written in place, so a second
// edge in the same session does not copy the node again. As with
// Postings, only the newest value of a chain may be edited: the writer's
// history is linear.
package agraph

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"graphitti/internal/cow"
)

// NodeKind discriminates the entity a node reference points at.
type NodeKind uint8

// Node kinds in the a-graph.
const (
	// ContentNode references a node of an annotation's XML content tree.
	ContentNode NodeKind = iota
	// ReferentNode references a marked sub-structure (an interval-tree or
	// R-tree entry, or a structural mark).
	ReferentNode
	// TermNode references an ontology term.
	TermNode
	// ObjectNode references a registered data object.
	ObjectNode

	nodeKinds = iota // a graph holds nodes of these kinds only
)

// kindBits is the width of a node's kind under its stamp (see node).
const kindBits = 2

var _ [1<<kindBits - nodeKinds]struct{} // every kind fits in kindBits

func (k NodeKind) String() string {
	switch k {
	case ContentNode:
		return "content"
	case ReferentNode:
		return "referent"
	case TermNode:
		return "term"
	case ObjectNode:
		return "object"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// NodeRef identifies a node. The constructors below produce the canonical
// ref of each entity, so two refs name the same node exactly when they
// are equal. A content or referent ref holds its numbers; a term or
// object ref, its name.
type NodeRef struct {
	Kind NodeKind
	id   uint64 // content: the annotation; referent: the referent ID
	sub  uint64 // content: the node of the annotation's XML document
	name string // term: "<ontology>/<term>"; object: "<table>/<key>"
}

// Key is the ref's key as the wire spells it: "<ann>/<xmlNode>" in
// decimal for a content node, the decimal ID for a referent, the name for
// a term or an object.
func (r NodeRef) Key() string {
	if !r.numbered() {
		return r.name
	}
	var buf [41]byte // two 20-digit uint64s and the slash
	return string(r.appendKey(buf[:0]))
}

func (r NodeRef) String() string {
	var buf [64]byte
	return string(r.appendKey(append(append(buf[:0], r.Kind.String()...), ':')))
}

// numbered reports whether the ref is keyed by number.
func (r NodeRef) numbered() bool { return r.Kind == ContentNode || r.Kind == ReferentNode }

// appendKey appends Key to b.
func (r NodeRef) appendKey(b []byte) []byte {
	switch r.Kind {
	case ContentNode:
		return strconv.AppendUint(append(strconv.AppendUint(b, r.id, 10), '/'), r.sub, 10)
	case ReferentNode:
		return strconv.AppendUint(b, r.id, 10)
	}
	return append(b, r.name...)
}

// Compare orders refs by kind, then by Key as strings — so referent "10"
// sorts before referent "9" — printing numbered keys on the stack.
func (r NodeRef) Compare(o NodeRef) int {
	if c := cmp.Compare(r.Kind, o.Kind); c != 0 || !r.numbered() {
		return cmp.Or(c, strings.Compare(r.name, o.name))
	}
	var a, b [41]byte
	return bytes.Compare(r.appendKey(a[:0]), o.appendKey(b[:0]))
}

// Content references node xmlNode of annotation ann's content document.
func Content(ann uint64, xmlNode uint64) NodeRef {
	return NodeRef{Kind: ContentNode, id: ann, sub: xmlNode}
}

// ContentRoot references the root of annotation ann's content document.
func ContentRoot(ann uint64) NodeRef { return Content(ann, 1) }

// Referent references a marked sub-structure by referent ID.
func Referent(id uint64) NodeRef { return NodeRef{Kind: ReferentNode, id: id} }

// Term references a term of a named ontology.
func Term(ontology, termID string) NodeRef {
	return NodeRef{Kind: TermNode, name: ontology + "/" + termID}
}

// Object references a data object stored as row key of a table.
func Object(table, key string) NodeRef {
	return NodeRef{Kind: ObjectNode, name: table + "/" + key}
}

// ContentID returns a content node ref's annotation and XML node IDs —
// the inverse of Content.
func ContentID(ref NodeRef) (ann, node uint64, ok bool) {
	return ref.id, ref.sub, ref.Kind == ContentNode
}

// ReferentID returns a referent node ref's referent ID — the inverse of
// Referent.
func ReferentID(ref NodeRef) (uint64, bool) { return ref.id, ref.Kind == ReferentNode }

// EdgeLabel labels a-graph edges.
type EdgeLabel string

// Standard labels used by the annotation store.
const (
	// LabelAnnotates connects an annotation content to a referent.
	LabelAnnotates EdgeLabel = "annotates"
	// LabelRefersTo connects an annotation content to an ontology term.
	LabelRefersTo EdgeLabel = "refersTo"
	// LabelMarks connects a referent to the data object it marks.
	LabelMarks EdgeLabel = "marks"
	// LabelAbout connects an annotation content to a data object directly.
	LabelAbout EdgeLabel = "about"
)

// Edge is a directed labeled edge. ID is unique within a Graph.
type Edge struct {
	ID    uint64
	From  NodeRef
	To    NodeRef
	Label EdgeLabel
}

// Errors reported by graph operations.
var (
	ErrNoSuchNode = errors.New("agraph: no such node")
	ErrNoPath     = errors.New("agraph: no path")
	ErrTerminals  = errors.New("agraph: connect needs at least two distinct terminals")
)

// node is a node's identity and the first half-edge of each direction;
// more holds the rest. A node reachable from a Graph value is never
// written: an edit session writes a copy stamped with its own generation
// (see Edit.mutable).
type node struct {
	stamp   uint64    // the generation of the session that made it, over kindBits of its kind
	id, sub uint64    // as in its NodeRef
	out, in halfEdge  // the lowest-ID half-edge each way; ID 0, which no edge has, when none
	more    *nodeMore // nil when the node has no name and no direction holds a second half-edge
}

func (n *node) kind() NodeKind { return NodeKind(n.stamp & (1<<kindBits - 1)) }

// nodeMore is what a node holds beyond its first half-edges. Like the
// node it is stamped by the session that made it and written in place by
// that session only.
type nodeMore struct {
	stamp   uint64
	name    string   // a term's or object's
	out, in edgeList // the half-edges after the first of each direction
}

// freeSlot is a stack of the dense indices removed nodes gave up.
type freeSlot struct {
	index int32
	next  *freeSlot
}

// Graph is a directed labeled multigraph, as an immutable value: the zero
// value is the empty graph, every method is a read, and all of them are
// safe for any number of goroutines. Edit opens the writer's handle.
type Graph struct {
	index  [nodeKinds]cow.Map[int32] // by kind: index key (see lookup) -> dense index
	nodes  cow.Table[node]           // dense index -> node
	labels []EdgeLabel               // label code -> label
	free   *freeSlot
	slots  int32 // dense indices ever handed out: every index is below it
	edges  int
	nextID uint64
	gen    uint64 // edit sessions behind this value; no node in it has a later stamp
}

// numKeyLen bounds a numbered node's index key: two uvarints.
const numKeyLen = 2 * binary.MaxVarintLen64

// appendNumKey appends a numbered ref's index key to b: the uvarint of
// its ID and, for a content node, of its XML node.
func (r NodeRef) appendNumKey(b []byte) []byte {
	b = binary.AppendUvarint(b, r.id)
	if r.Kind == ContentNode {
		b = binary.AppendUvarint(b, r.sub)
	}
	return b
}

// lookup finds ref in idx, its kind's node index.
func lookup(idx cow.Map[int32], ref NodeRef) (int32, bool) {
	if !ref.numbered() {
		return idx.Get(ref.name)
	}
	var buf [numKeyLen]byte
	return idx.Get(string(ref.appendNumKey(buf[:0])))
}

// find returns ref's dense index and node, or a nil node.
func (g *Graph) find(ref NodeRef) (int32, *node) {
	if ref.Kind < nodeKinds {
		if i, ok := lookup(g.index[ref.Kind], ref); ok {
			return i, g.node(i)
		}
	}
	return 0, nil
}

func (g *Graph) node(i int32) *node { return g.nodes.Get(uint64(i)) }

// ref returns the ref of node n.
func (g *Graph) ref(n *node) NodeRef {
	r := NodeRef{Kind: n.kind(), id: n.id, sub: n.sub}
	if n.more != nil {
		r.name = n.more.name
	}
	return r
}

// edge assembles the edge behind half-edge h of node n, found in its
// out-direction when out.
func (g *Graph) edge(n *node, out bool, h halfEdge) Edge {
	at, peer := g.ref(n), g.ref(g.node(h.peer))
	if out {
		return Edge{ID: h.id, From: at, To: peer, Label: g.labels[h.label]}
	}
	return Edge{ID: h.id, From: peer, To: at, Label: g.labels[h.label]}
}

// code returns the code of label, if the graph ever carried it.
func (g *Graph) code(label EdgeLabel) (uint32, bool) {
	for c, l := range g.labels {
		if l == label {
			return uint32(c), true
		}
	}
	return 0, false
}

// filter resolves a label filter to codes; a label the graph never
// carried is left out, so a filter of such labels only passes nothing.
func (g *Graph) filter(labels []EdgeLabel) labelFilter {
	f := labelFilter{any: len(labels) == 0}
	for _, l := range labels {
		switch c, ok := g.code(l); {
		case !ok:
		case c < 64:
			f.low |= 1 << c
		default:
			f.high = append(f.high, c)
		}
	}
	return f
}

// HasNode reports whether ref is a node of the graph.
func (g *Graph) HasNode(ref NodeRef) bool {
	_, n := g.find(ref)
	return n != nil
}

// NodeCount reports the number of nodes.
func (g *Graph) NodeCount() int { return g.nodes.Len() }

// EdgeCount reports the number of edges.
func (g *Graph) EdgeCount() int { return g.edges }

// LabelCount reports the number of distinct labels the graph's edges
// have ever carried: the size of its label table.
func (g *Graph) LabelCount() int { return len(g.labels) }

// NodesEach visits every node ref, in no particular order, until visit
// returns false.
func (g *Graph) NodesEach(visit func(NodeRef) bool) {
	g.nodes.Each(func(_ uint64, n *node) bool { return visit(g.ref(n)) })
}

func sortRefs(refs []NodeRef) { slices.SortFunc(refs, NodeRef.Compare) }

// Edit is the writer's handle on a graph: it batches mutations against the
// value it was opened on, copying each table chunk, index node and graph
// node the session touches once. Like a cow.Postings, a graph extends its
// adjacency tails in place, so only the newest value of a chain may be
// edited and an Edit belongs to one goroutine. Not to be used after the
// value it built is kept (re-open one from that value).
type Edit struct {
	g     Graph
	index [nodeKinds]cow.MapEdit[int32]
	nodes cow.TableEdit[node]
}

// Edit opens an edit session on g, which it leaves untouched.
func (g *Graph) Edit() Edit {
	e := Edit{g: *g, nodes: g.nodes.Edit()}
	e.g.gen++
	for k := range e.index {
		e.index[k] = g.index[k].Edit()
	}
	return e
}

// Graph returns the edited state: reads through it see the session's
// writes, and a copy of it is the successor value once the session ends.
func (e *Edit) Graph() *Graph {
	for k := range e.index {
		e.g.index[k] = e.index[k].Map
	}
	e.g.nodes = e.nodes.Table
	return &e.g
}

// ensure returns the dense index for ref, creating the node if needed.
func (e *Edit) ensure(ref NodeRef) int32 {
	idx := &e.index[ref.Kind]
	if i, ok := lookup(idx.Map, ref); ok {
		return i
	}
	i := e.g.slots
	if f := e.g.free; f != nil {
		i, e.g.free = f.index, f.next
	} else {
		e.g.slots++
	}
	n := &node{stamp: e.g.gen<<kindBits | uint64(ref.Kind), id: ref.id, sub: ref.sub}
	if ref.numbered() {
		var buf [numKeyLen]byte
		idx.Set(string(ref.appendNumKey(buf[:0])), i)
	} else {
		idx.Set(ref.name, i)
		n.more = &nodeMore{stamp: e.g.gen, name: ref.name}
	}
	e.nodes.Set(uint64(i), n)
	return i
}

// AddNode ensures the node exists (isolated nodes are allowed). ref.Kind
// must be one of the declared kinds.
func (e *Edit) AddNode(ref NodeRef) { e.ensure(ref) }

// AddEdge inserts a directed labeled edge, creating endpoints as needed,
// and returns the edge ID. Parallel edges (same endpoints, same or
// different labels) are permitted — the a-graph is a multigraph.
func (e *Edit) AddEdge(from, to NodeRef, label EdgeLabel) uint64 {
	fi, ti := e.ensure(from), e.ensure(to)
	code, ok := e.g.code(label)
	if !ok {
		code = uint32(len(e.g.labels))
		e.g.labels = append(e.g.labels, label) // past every earlier value's length
	}
	e.g.nextID++
	e.g.edges++
	id := e.g.nextID
	e.link(fi, true, halfEdge{id, ti, code})
	e.link(ti, false, halfEdge{id, fi, code})
	return id
}

// mutable returns node i for the session to change: the node itself if
// the session made it, else a stamped copy stored under i.
func (e *Edit) mutable(i int32) *node {
	n := e.nodes.Get(uint64(i))
	if n.stamp>>kindBits == e.g.gen {
		return n
	}
	c := *n
	c.stamp = e.g.gen<<kindBits | uint64(n.kind())
	e.nodes.Set(uint64(i), &c)
	return &c
}

// more returns the nodeMore of n, which the session made, for the session
// to change, making or copying it as mutable does a node.
func (e *Edit) more(n *node) *nodeMore {
	switch {
	case n.more == nil:
		n.more = &nodeMore{stamp: e.g.gen}
	case n.more.stamp != e.g.gen:
		c := *n.more
		c.stamp = e.g.gen
		n.more = &c
	}
	return n.more
}

// link adds h, whose ID is above every ID node i holds, to the node's
// out-direction (in-direction when !out).
func (e *Edit) link(i int32, out bool, h halfEdge) {
	n := e.mutable(i)
	first := n.first(out)
	if first.id == 0 {
		*first = h
		return
	}
	l := e.more(n).list(out)
	l.push(h)
	l.mixed = l.mixed || h.label != first.label
}

// unlink removes edge id from node i's out-direction (in-direction when
// !out), where it is.
func (e *Edit) unlink(i int32, out bool, id uint64) {
	n := e.mutable(i)
	first := n.first(out)
	if n.list(out).len() == 0 {
		if first.id == id {
			*first = halfEdge{}
		}
		return
	}
	m := e.more(n)
	l := m.list(out)
	if first.id == id {
		*first = l.shift()
	} else {
		l.remove(id)
	}
	if m.name == "" && m.out.len() == 0 && m.in.len() == 0 {
		n.more = nil
	}
}

// RemoveNode deletes a node and all incident edges.
func (e *Edit) RemoveNode(ref NodeRef) error {
	i, n := e.Graph().find(ref)
	if n == nil {
		return fmt.Errorf("%w: %v", ErrNoSuchNode, ref)
	}
	n.eachIncident(func(out bool, h halfEdge) bool {
		switch {
		case h.peer != i:
			e.g.edges--
			e.unlink(h.peer, !out, h.id)
		case out: // a self-loop, met twice: counted once
			e.g.edges--
		}
		return true
	})
	e.nodes.Delete(uint64(i))
	if idx := &e.index[ref.Kind]; ref.numbered() {
		var buf [numKeyLen]byte
		idx.Delete(string(ref.appendNumKey(buf[:0])))
	} else {
		idx.Delete(ref.name)
	}
	e.g.free = &freeSlot{i, e.g.free}
	return nil
}

// Path is a walk through the graph: Nodes has one more element than Edges
// and Edges[i] connects Nodes[i] to Nodes[i+1] (in either direction — the
// paper's path primitive concerns connectivity; each Edge retains its
// stored orientation).
type Path struct {
	Nodes []NodeRef
	Edges []Edge
}

// Len returns the number of edges in the path.
func (p *Path) Len() int { return len(p.Edges) }

// FindPath returns a shortest path between two nodes, traversing edges in
// either direction (the paper's path(node1, node2) primitive).
func (g *Graph) FindPath(a, b NodeRef) (*Path, error) {
	ai, an := g.find(a)
	if an == nil {
		return nil, fmt.Errorf("%w: %v", ErrNoSuchNode, a)
	}
	bi, bn := g.find(b)
	if bn == nil {
		return nil, fmt.Errorf("%w: %v", ErrNoSuchNode, b)
	}
	if ai == bi {
		return &Path{Nodes: []NodeRef{a}}, nil
	}
	ar := getArena()
	defer arenas.Put(ar)
	if !g.bfs(ar, ai, bi) {
		return nil, fmt.Errorf("%w: %v to %v", ErrNoPath, a, b)
	}
	return g.buildPath(ar, ai, bi), nil
}

// bfs runs a breadth-first search from src over edges in either
// direction, stopping early when dst is reached.
func (g *Graph) bfs(ar *arena, src, dst int32) bool {
	ar.reset(int(g.slots))
	ar.mark(src, parentLink{prev: -1})
	ar.queue = append(ar.queue, src)
	found := false
	for qi := 0; qi < len(ar.queue) && !found; qi++ {
		cur := ar.queue[qi]
		g.node(cur).eachIncident(func(out bool, h halfEdge) bool {
			if ar.seenAt(h.peer) {
				return true
			}
			ar.mark(h.peer, linkTo(cur, out, h))
			if found = h.peer == dst; found {
				return false
			}
			ar.queue = append(ar.queue, h.peer)
			return true
		})
	}
	return found
}

// buildPath reconstructs the path src→dst from the arena's parent links.
func (g *Graph) buildPath(ar *arena, src, dst int32) *Path {
	n := 0
	for cur := dst; cur != src; cur = ar.parent[cur].prev {
		n++
	}
	p := &Path{Nodes: make([]NodeRef, n+1), Edges: make([]Edge, n)}
	cur := dst
	for i := n; i > 0; i-- {
		link := ar.parent[cur]
		p.Nodes[i] = g.ref(g.node(cur))
		p.Edges[i-1] = g.linkEdge(cur, link)
		cur = link.prev
	}
	p.Nodes[0] = g.ref(g.node(src))
	return p
}

// linkEdge is the edge a traversal followed to first reach node i.
func (g *Graph) linkEdge(i int32, link parentLink) Edge {
	out, code := link.via >= 0, link.via
	if !out {
		code = ^code
	}
	return g.edge(g.node(link.prev), out, halfEdge{link.id, i, uint32(code)})
}
