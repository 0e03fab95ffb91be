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
// Every node carries its incident edges partitioned by direction and by
// label, ordered by edge ID. Edge IDs are allocated monotonically, so
// insertion keeps the order for free and In/Out/the iterator API never
// sort or filter-scan. Each node also has a dense int32 index so the
// traversal primitives (FindPath, Connect, ReachableEach) run on
// epoch-stamped arrays from a pooled arena instead of per-call maps.
//
// Adjacency lists are copy-on-write: AddEdge appends (never touching
// occupied slots) and removals build fresh slices. A slice header
// snapshotted under the read lock therefore stays a consistent view of
// the edge set at call time even while writers mutate the graph — this
// is what lets the iterator API (iter.go) release the lock before
// visiting and makes nested iteration deadlock-free.
package agraph

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
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
	ErrNoSuchEdge = errors.New("agraph: no such edge")
	ErrNoPath     = errors.New("agraph: no path")
	ErrTerminals  = errors.New("agraph: connect needs at least two distinct terminals")
)

// halfRef is one end of an edge as stored in a node's adjacency lists:
// the edge plus the dense index of the node at the other end.
type halfRef struct {
	edge *Edge
	peer int32
}

// labelBucket is the adjacency partition for one edge label.
type labelBucket struct {
	label EdgeLabel
	refs  []halfRef
}

// adjacency holds one direction of a node's incident edges, partitioned
// by label and mirrored in a label-agnostic list. Both views are kept
// ordered by edge ID.
type adjacency struct {
	all     []halfRef
	buckets []labelBucket
}

// bucket returns the ID-ordered half edges carrying the label.
func (a *adjacency) bucket(label EdgeLabel) []halfRef {
	for i := range a.buckets {
		if a.buckets[i].label == label {
			return a.buckets[i].refs
		}
	}
	return nil
}

func (a *adjacency) add(e *Edge, peer int32) {
	h := halfRef{edge: e, peer: peer}
	a.all = append(a.all, h)
	for i := range a.buckets {
		if a.buckets[i].label == e.Label {
			a.buckets[i].refs = append(a.buckets[i].refs, h)
			return
		}
	}
	a.buckets = append(a.buckets, labelBucket{label: e.Label, refs: []halfRef{h}})
}

func (a *adjacency) remove(id uint64, label EdgeLabel) {
	a.all = withoutEdge(a.all, id)
	for i := range a.buckets {
		if a.buckets[i].label == label {
			a.buckets[i].refs = withoutEdge(a.buckets[i].refs, id)
			if len(a.buckets[i].refs) == 0 {
				a.buckets = append(a.buckets[:i], a.buckets[i+1:]...)
			}
			return
		}
	}
}

// withoutEdge returns a slice without edge id, preserving ID order. The
// result is a fresh allocation — the input backing array is never
// mutated, so snapshots taken by concurrent readers stay consistent.
func withoutEdge(hs []halfRef, id uint64) []halfRef {
	i := sort.Search(len(hs), func(k int) bool { return hs[k].edge.ID >= id })
	if i >= len(hs) || hs[i].edge.ID != id {
		return hs
	}
	if len(hs) == 1 {
		return nil
	}
	out := make([]halfRef, len(hs)-1)
	copy(out, hs[:i])
	copy(out[i:], hs[i+1:])
	return out
}

// nodeState is a node's identity plus its partitioned adjacency.
type nodeState struct {
	ref NodeRef
	out adjacency
	in  adjacency
}

// Graph is a directed labeled multigraph. All methods are safe for
// concurrent use.
type Graph struct {
	mu     sync.RWMutex
	index  map[NodeRef]int32 // ref -> dense index into nodes
	nodes  []nodeState
	free   []int32 // dense indices of removed nodes, available for reuse
	edges  map[uint64]*Edge
	nextID uint64
	arenas sync.Pool // *arena, reused across traversals
}

// New returns an empty graph.
func New() *Graph {
	return &Graph{
		index: make(map[NodeRef]int32),
		edges: make(map[uint64]*Edge),
	}
}

// ensureLocked returns the dense index for ref, creating the node if
// needed. Caller holds the write lock.
func (g *Graph) ensureLocked(ref NodeRef) int32 {
	if i, ok := g.index[ref]; ok {
		return i
	}
	var i int32
	if n := len(g.free); n > 0 {
		i = g.free[n-1]
		g.free = g.free[:n-1]
		g.nodes[i] = nodeState{ref: ref}
	} else {
		i = int32(len(g.nodes))
		g.nodes = append(g.nodes, nodeState{ref: ref})
	}
	g.index[ref] = i
	return i
}

// AddNode ensures the node exists (isolated nodes are allowed).
func (g *Graph) AddNode(ref NodeRef) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.ensureLocked(ref)
}

// HasNode reports whether the node exists.
func (g *Graph) HasNode(ref NodeRef) bool {
	g.mu.RLock()
	defer g.mu.RUnlock()
	_, ok := g.index[ref]
	return ok
}

// AddEdge inserts a directed labeled edge, creating endpoints as needed,
// and returns the edge ID. Parallel edges (same endpoints, same or
// different labels) are permitted — the a-graph is a multigraph.
func (g *Graph) AddEdge(from, to NodeRef, label EdgeLabel) uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	fi := g.ensureLocked(from)
	ti := g.ensureLocked(to)
	g.nextID++
	e := &Edge{ID: g.nextID, From: from, To: to, Label: label}
	g.edges[e.ID] = e
	g.nodes[fi].out.add(e, ti)
	g.nodes[ti].in.add(e, fi)
	return e.ID
}

// RemoveEdge deletes the edge with the given ID.
func (g *Graph) RemoveEdge(id uint64) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	e, ok := g.edges[id]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoSuchEdge, id)
	}
	delete(g.edges, id)
	g.nodes[g.index[e.From]].out.remove(id, e.Label)
	g.nodes[g.index[e.To]].in.remove(id, e.Label)
	return nil
}

// RemoveNode deletes a node and all incident edges.
func (g *Graph) RemoveNode(ref NodeRef) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	i, ok := g.index[ref]
	if !ok {
		return fmt.Errorf("%w: %v", ErrNoSuchNode, ref)
	}
	ns := &g.nodes[i]
	for _, h := range ns.out.all {
		delete(g.edges, h.edge.ID)
		if h.peer != i {
			g.nodes[h.peer].in.remove(h.edge.ID, h.edge.Label)
		}
	}
	for _, h := range ns.in.all {
		delete(g.edges, h.edge.ID)
		if h.peer != i {
			g.nodes[h.peer].out.remove(h.edge.ID, h.edge.Label)
		}
	}
	g.nodes[i] = nodeState{}
	delete(g.index, ref)
	g.free = append(g.free, i)
	return nil
}

// NodeCount reports the number of nodes.
func (g *Graph) NodeCount() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.index)
}

// EdgeCount reports the number of edges.
func (g *Graph) EdgeCount() int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	return len(g.edges)
}

// Degree reports the number of incident edges (in plus out).
func (g *Graph) Degree(ref NodeRef) int {
	g.mu.RLock()
	defer g.mu.RUnlock()
	i, ok := g.index[ref]
	if !ok {
		return 0
	}
	return len(g.nodes[i].out.all) + len(g.nodes[i].in.all)
}

// Out returns the edges leaving ref in edge-ID order, optionally
// filtered by label. Prefer OutEach/OutSeq on hot paths — they visit the
// same edges without materializing a slice.
func (g *Graph) Out(ref NodeRef, labels ...EdgeLabel) []Edge {
	g.mu.RLock()
	defer g.mu.RUnlock()
	i, ok := g.index[ref]
	if !ok {
		return nil
	}
	return materialize(&g.nodes[i].out, labels)
}

// In returns the edges entering ref in edge-ID order, optionally
// filtered by label. Prefer InEach/InSeq on hot paths.
func (g *Graph) In(ref NodeRef, labels ...EdgeLabel) []Edge {
	g.mu.RLock()
	defer g.mu.RUnlock()
	i, ok := g.index[ref]
	if !ok {
		return nil
	}
	return materialize(&g.nodes[i].in, labels)
}

// materialize copies the selected partition into an []Edge. The
// partitions are already ID-ordered, so no sorting happens; a
// multi-label filter is an ID-ordered merge of the label buckets.
func materialize(a *adjacency, labels []EdgeLabel) []Edge {
	switch len(labels) {
	case 0:
		return edgesOf(a.all)
	case 1:
		return edgesOf(a.bucket(labels[0]))
	default:
		return mergeBuckets(a, labels)
	}
}

func edgesOf(hs []halfRef) []Edge {
	if len(hs) == 0 {
		return nil
	}
	out := make([]Edge, len(hs))
	for i, h := range hs {
		out[i] = *h.edge
	}
	return out
}

func mergeBuckets(a *adjacency, labels []EdgeLabel) []Edge {
	var buf [4][]halfRef
	lists, total := bucketsFor(a, labels, buf[:0])
	if total == 0 {
		return nil
	}
	out := make([]Edge, 0, total)
	mergeVisit(lists, func(h halfRef) bool {
		out = append(out, *h.edge)
		return true
	})
	return out
}

// bucketsFor appends the buckets matching the (deduplicated) label set
// to dst and returns them with their total length.
func bucketsFor(a *adjacency, labels []EdgeLabel, dst [][]halfRef) ([][]halfRef, int) {
	total := 0
	for i, l := range labels {
		if labelIn(l, labels[:i]) {
			continue
		}
		if b := a.bucket(l); len(b) > 0 {
			dst = append(dst, b)
			total += len(b)
		}
	}
	return dst, total
}

// mergeVisit walks ID-ordered lists in globally ascending edge-ID order.
func mergeVisit(lists [][]halfRef, visit func(halfRef) bool) {
	for len(lists) > 0 {
		min := 0
		for i := 1; i < len(lists); i++ {
			if lists[i][0].edge.ID < lists[min][0].edge.ID {
				min = i
			}
		}
		if !visit(lists[min][0]) {
			return
		}
		if lists[min] = lists[min][1:]; len(lists[min]) == 0 {
			lists = append(lists[:min], lists[min+1:]...)
		}
	}
}

func labelIn(l EdgeLabel, ls []EdgeLabel) bool {
	for _, x := range ls {
		if x == l {
			return true
		}
	}
	return false
}

// Neighbors returns the distinct peers reachable by one edge in either
// direction, optionally filtered by label, sorted by node key.
func (g *Graph) Neighbors(ref NodeRef, labels ...EdgeLabel) []NodeRef {
	var out []NodeRef
	g.NeighborsEach(ref, func(p NodeRef) bool {
		out = append(out, p)
		return true
	}, labels...)
	sortRefs(out)
	return out
}

// Nodes returns all node refs, sorted (kind, key). Intended for tests and
// diagnostics; O(n log n).
func (g *Graph) Nodes() []NodeRef {
	g.mu.RLock()
	out := make([]NodeRef, 0, len(g.index))
	for ref := range g.index {
		out = append(out, ref)
	}
	g.mu.RUnlock()
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
	g.mu.RLock()
	defer g.mu.RUnlock()
	ai, ok := g.index[a]
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrNoSuchNode, a)
	}
	bi, ok := g.index[b]
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrNoSuchNode, b)
	}
	if ai == bi {
		return &Path{Nodes: []NodeRef{a}}, nil
	}
	ar := g.arena()
	defer g.release(ar)
	if !g.bfsLocked(ar, ai, bi, false) {
		return nil, fmt.Errorf("%w: %v to %v", ErrNoPath, a, b)
	}
	return g.buildPathLocked(ar, ai, bi), nil
}

// FindPathDirected returns a shortest path from a to b following edge
// direction only.
func (g *Graph) FindPathDirected(a, b NodeRef) (*Path, error) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	ai, ok := g.index[a]
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrNoSuchNode, a)
	}
	bi, ok := g.index[b]
	if !ok {
		return nil, fmt.Errorf("%w: %v", ErrNoSuchNode, b)
	}
	if ai == bi {
		return &Path{Nodes: []NodeRef{a}}, nil
	}
	ar := g.arena()
	defer g.release(ar)
	if !g.bfsLocked(ar, ai, bi, true) {
		return nil, fmt.Errorf("%w: %v to %v (directed)", ErrNoPath, a, b)
	}
	return g.buildPathLocked(ar, ai, bi), nil
}

// bfsLocked runs a breadth-first search from src, stopping early when dst
// is reached. Caller holds at least the read lock. When directed is true
// only forward edges are followed.
func (g *Graph) bfsLocked(ar *arena, src, dst int32, directed bool) bool {
	ar.reset(len(g.nodes))
	ar.mark(src, -1, nil)
	ar.queue = append(ar.queue[:0], src)
	for qi := 0; qi < len(ar.queue); qi++ {
		cur := ar.queue[qi]
		ns := &g.nodes[cur]
		for dir, hs := range [2][]halfRef{ns.out.all, ns.in.all} {
			if dir == 1 && directed {
				break
			}
			for _, h := range hs {
				if ar.seenAt(h.peer) {
					continue
				}
				ar.mark(h.peer, cur, h.edge)
				if h.peer == dst {
					return true
				}
				ar.queue = append(ar.queue, h.peer)
			}
		}
	}
	return false
}

// buildPathLocked reconstructs the path src→dst from the arena's parent
// links. Caller holds at least the read lock.
func (g *Graph) buildPathLocked(ar *arena, src, dst int32) *Path {
	n := 0
	for cur := dst; cur != src; cur = ar.parent[cur].prev {
		n++
	}
	p := &Path{Nodes: make([]NodeRef, n+1), Edges: make([]Edge, n)}
	cur := dst
	for i := n; i > 0; i-- {
		link := ar.parent[cur]
		p.Nodes[i] = g.nodes[cur].ref
		p.Edges[i-1] = *link.via
		cur = link.prev
	}
	p.Nodes[0] = g.nodes[src].ref
	return p
}
