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
// Every node has a dense int32 index. The index is found through one
// persistent map per node kind, keyed by NodeRef.Key — the refs arrive as
// strings from every caller (core, query, prop, the wire), so a lookup
// hashes the key it is handed and builds nothing; an ID table for the two
// integer-keyed kinds would have to parse that string back per lookup and
// would still need the maps for terms and objects. The index leads to the
// node through a cow.Table, so the traversal primitives (FindPath,
// Connect, ReachableEach) run on epoch-stamped arrays from a pooled arena
// instead of per-call maps; the indices of removed nodes are reused.
//
// A node carries its incident edges partitioned by direction and by label.
// An edge is stored as its two half-edges — {edge ID, index of the node at
// the other end} under the label's bucket of the tail's out-direction and
// of the head's in-direction — and nowhere else: Edge values are assembled
// for the caller from the node table. Each partition is a chunked list
// ordered by edge ID, like cow.Postings: edge IDs are allocated
// monotonically, so an insertion is a tail append (in place, past the
// length any earlier value holds), a removal copies the one chunk that
// held the edge, and In/Out iteration never filter-scans. A visit across
// several labels is in ID order too: their lists one after another when
// their ID ranges follow one another, as on every node the store wires,
// sorted together otherwise. As with Postings, only the newest value of a
// chain may be edited: the writer's history is linear.
package agraph

import (
	"errors"
	"fmt"
	"sort"
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

// NodeRef identifies a node. Key encodes the target entity; constructors
// below produce canonical keys.
type NodeRef struct {
	Kind NodeKind
	Key  string
}

func (r NodeRef) String() string { return r.Kind.String() + ":" + r.Key }

// Content references node xmlNode of annotation ann's content document.
// The key is "<ann>/<xmlNode>" in decimal, built in a stack buffer: the
// constructors run several times in every commit, delete and join step.
func Content(ann uint64, xmlNode uint64) NodeRef {
	var buf [41]byte // two 20-digit uint64s and the slash
	b := strconv.AppendUint(buf[:0], ann, 10)
	b = append(b, '/')
	b = strconv.AppendUint(b, xmlNode, 10)
	return NodeRef{ContentNode, string(b)}
}

// ContentRoot references the root of annotation ann's content document.
func ContentRoot(ann uint64) NodeRef { return Content(ann, 1) }

// Referent references a marked sub-structure by referent ID.
func Referent(id uint64) NodeRef {
	var buf [20]byte
	return NodeRef{ReferentNode, string(strconv.AppendUint(buf[:0], id, 10))}
}

// Term references a term of a named ontology.
func Term(ontology, termID string) NodeRef {
	return NodeRef{TermNode, ontology + "/" + termID}
}

// Object references a data object stored as row key of a table.
func Object(table, key string) NodeRef {
	return NodeRef{ObjectNode, table + "/" + key}
}

// ContentID parses a content node ref back into its annotation and XML
// node IDs — the inverse of Content. The key format is owned here; use
// this rather than re-parsing Key.
func ContentID(ref NodeRef) (ann, node uint64, ok bool) {
	if ref.Kind != ContentNode {
		return 0, 0, false
	}
	slash := strings.IndexByte(ref.Key, '/')
	if slash < 0 {
		return 0, 0, false
	}
	if ann, ok = parseUint(ref.Key[:slash]); !ok {
		return 0, 0, false
	}
	if node, ok = parseUint(ref.Key[slash+1:]); !ok {
		return 0, 0, false
	}
	return ann, node, true
}

// ReferentID parses a referent node ref back into the referent ID —
// the inverse of Referent.
func ReferentID(ref NodeRef) (uint64, bool) {
	if ref.Kind != ReferentNode {
		return 0, false
	}
	return parseUint(ref.Key)
}

func parseUint(s string) (uint64, bool) {
	if s == "" {
		return 0, false
	}
	var v uint64
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + uint64(c-'0')
	}
	return v, true
}

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

// node is a node's identity plus its adjacency in each direction. A node
// reachable from a Graph value is never written: an edit stores a changed
// copy under the same index.
type node struct {
	ref     NodeRef
	out, in adjacency
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
	index  [nodeKinds]cow.Map[int32] // by kind: ref.Key -> dense index
	nodes  cow.Table[node]           // dense index -> node
	free   *freeSlot
	slots  int32 // dense indices ever handed out: every index is below it
	edges  int
	nextID uint64
}

// find returns ref's dense index and node, or a nil node.
func (g *Graph) find(ref NodeRef) (int32, *node) {
	if ref.Kind < nodeKinds {
		if i, ok := g.index[ref.Kind].Get(ref.Key); ok {
			return i, g.node(i)
		}
	}
	return 0, nil
}

func (g *Graph) node(i int32) *node { return g.nodes.Get(uint64(i)) }

// edge assembles the edge behind half-edge h of node at, found under at's
// bucket via (see adjacency.each).
func (g *Graph) edge(at *node, via int32, h halfEdge) Edge {
	peer := g.node(h.peer).ref
	if via >= 0 {
		return Edge{ID: h.id, From: at.ref, To: peer, Label: at.out.at(int(via)).label}
	}
	return Edge{ID: h.id, From: peer, To: at.ref, Label: at.in.at(int(^via)).label}
}

// NodeCount reports the number of nodes.
func (g *Graph) NodeCount() int { return g.nodes.Len() }

// EdgeCount reports the number of edges.
func (g *Graph) EdgeCount() int { return g.edges }

// NodesEach visits every node ref, in no particular order, until visit
// returns false.
func (g *Graph) NodesEach(visit func(NodeRef) bool) {
	g.nodes.Each(func(_ uint64, n *node) bool { return visit(n.ref) })
}

// Nodes returns all node refs, sorted (kind, key).
func (g *Graph) Nodes() []NodeRef {
	out := make([]NodeRef, 0, g.NodeCount())
	g.NodesEach(func(ref NodeRef) bool {
		out = append(out, ref)
		return true
	})
	sortRefs(out)
	return out
}

func sortRefs(refs []NodeRef) {
	sort.Slice(refs, func(i, j int) bool {
		if refs[i].Kind != refs[j].Kind {
			return refs[i].Kind < refs[j].Kind
		}
		return refs[i].Key < refs[j].Key
	})
}

// Edit is the writer's handle on a graph: it batches mutations against the
// value it was opened on, copying each table chunk and index node the
// session touches once. Like a cow.Postings, a graph extends its adjacency
// tails in place, so only the newest value of a chain may be edited and an
// Edit belongs to one goroutine. Not to be used after the value it built
// is kept (re-open one from that value).
type Edit struct {
	g     Graph
	index [nodeKinds]cow.MapEdit[int32]
	nodes cow.TableEdit[node]
}

// Edit opens an edit session on g, which it leaves untouched.
func (g *Graph) Edit() Edit {
	e := Edit{g: *g, nodes: g.nodes.Edit()}
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
	if i, ok := e.index[ref.Kind].Get(ref.Key); ok {
		return i
	}
	i := e.g.slots
	if f := e.g.free; f != nil {
		i, e.g.free = f.index, f.next
	} else {
		e.g.slots++
	}
	e.index[ref.Kind].Set(ref.Key, i)
	e.nodes.Set(uint64(i), &node{ref: ref})
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
	e.g.nextID++
	e.g.edges++
	id := e.g.nextID
	tail := e.mutable(fi)
	tail.out.add(label, halfEdge{id, ti})
	head := e.mutable(ti) // after tail's change: a self-loop lands on one node
	head.in.add(label, halfEdge{id, fi})
	return id
}

// mutable replaces node i by a copy of itself for the caller to change.
func (e *Edit) mutable(i int32) *node {
	n := *e.nodes.Get(uint64(i))
	e.nodes.Set(uint64(i), &n)
	return &n
}

// RemoveNode deletes a node and all incident edges.
func (e *Edit) RemoveNode(ref NodeRef) error {
	i, n := e.Graph().find(ref)
	if n == nil {
		return fmt.Errorf("%w: %v", ErrNoSuchNode, ref)
	}
	for k := range n.out.buckets() {
		b := n.out.at(k)
		e.g.edges -= b.list.len()
		b.list.each(0, func(_ int32, h halfEdge) bool {
			if h.peer != i {
				e.mutable(h.peer).in.remove(b.label, h.id)
			}
			return true
		})
	}
	for k := range n.in.buckets() {
		b := n.in.at(k)
		b.list.each(0, func(_ int32, h halfEdge) bool {
			if h.peer != i { // a self-loop was counted on the way out
				e.g.edges--
				e.mutable(h.peer).out.remove(b.label, h.id)
			}
			return true
		})
	}
	e.nodes.Delete(uint64(i))
	e.index[ref.Kind].Delete(ref.Key)
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
		eachIncident(g.node(cur), func(via int32, h halfEdge) bool {
			if ar.seenAt(h.peer) {
				return true
			}
			ar.mark(h.peer, parentLink{prev: cur, via: via, id: h.id})
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
		p.Nodes[i] = g.node(cur).ref
		p.Edges[i-1] = g.linkEdge(cur, link)
		cur = link.prev
	}
	p.Nodes[0] = g.node(src).ref
	return p
}

// linkEdge is the edge a traversal followed to first reach node i.
func (g *Graph) linkEdge(i int32, link parentLink) Edge {
	return g.edge(g.node(link.prev), link.via, halfEdge{link.id, i})
}
