package agraph

import (
	"fmt"
	"sort"
)

// Subgraph is the result of the connect primitive: a connected piece of the
// a-graph that contains every terminal. The paper calls this "a connection
// subgraph intervening the given nodes"; query results "collate partial
// results … into a set of type-extended connection subgraphs".
type Subgraph struct {
	Terminals []NodeRef
	Nodes     []NodeRef
	Edges     []Edge
}

// NodeCount returns the number of nodes in the subgraph.
func (s *Subgraph) NodeCount() int { return len(s.Nodes) }

// EdgeCount returns the number of edges in the subgraph.
func (s *Subgraph) EdgeCount() int { return len(s.Edges) }

// Connected reports whether the subgraph's nodes form one connected
// component under its own edges (ignoring direction).
func (s *Subgraph) Connected() bool {
	if len(s.Nodes) <= 1 {
		return true
	}
	adj := make(map[NodeRef][]NodeRef, len(s.Nodes))
	for _, e := range s.Edges {
		adj[e.From] = append(adj[e.From], e.To)
		adj[e.To] = append(adj[e.To], e.From)
	}
	seen := map[NodeRef]bool{s.Nodes[0]: true}
	queue := []NodeRef{s.Nodes[0]}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range adj[cur] {
			if !seen[nb] {
				seen[nb] = true
				queue = append(queue, nb)
			}
		}
	}
	for _, n := range s.Nodes {
		if !seen[n] {
			return false
		}
	}
	return true
}

// Connect returns a connection subgraph containing all terminals (the
// paper's connect(node1, node2, …)): BFS frontiers grow from every
// terminal at once, and components join where the frontiers meet.
func (g *Graph) Connect(terminals ...NodeRef) (*Subgraph, error) {
	distinct := dedupRefs(terminals)
	if len(distinct) < 2 {
		return nil, ErrTerminals
	}
	idxs := make([]int32, len(distinct))
	for i, t := range distinct {
		ti, tn := g.find(t)
		if tn == nil {
			return nil, fmt.Errorf("%w: %v", ErrNoSuchNode, t)
		}
		idxs[i] = ti
	}
	return g.connectExpanding(distinct, idxs)
}

func dedupRefs(refs []NodeRef) []NodeRef {
	seen := make(map[NodeRef]bool, len(refs))
	var out []NodeRef
	for _, r := range refs {
		if !seen[r] {
			seen[r] = true
			out = append(out, r)
		}
	}
	return out
}

// addChain adds the nodes and edges of the parent links from node n back
// to the root of the arena's traversal that reached it.
func (g *Graph) addChain(ar *arena, n int32, nodes map[int32]bool, edges map[uint64]Edge) {
	for cur := n; ; {
		nodes[cur] = true
		link := ar.parent[cur]
		if link.id == 0 {
			return
		}
		edges[link.id] = g.linkEdge(cur, link)
		cur = link.prev
	}
}

// connectExpanding grows BFS frontiers from every terminal at once.
// Each node is claimed by the first frontier to reach it; when an edge
// joins two different components, the joining paths are added to the result
// and the components merge. The search stops when all terminals share one
// component. All per-node state lives in the pooled arena.
func (g *Graph) connectExpanding(terminals []NodeRef, idxs []int32) (*Subgraph, error) {
	// Union-find over terminal indices.
	comp := make([]int32, len(terminals))
	for i := range comp {
		comp[i] = int32(i)
	}
	var find func(int32) int32
	find = func(x int32) int32 {
		if comp[x] != x {
			comp[x] = find(comp[x])
		}
		return comp[x]
	}
	components := len(terminals)

	ar := getArena()
	defer arenas.Put(ar)
	ar.reset(int(g.slots))

	nodes := make(map[int32]bool, len(terminals))
	edges := make(map[uint64]Edge)
	for i, t := range idxs {
		ar.mark(t, parentLink{prev: -1})
		ar.comp[t] = int32(i)
		ar.queue = append(ar.queue, t)
		nodes[t] = true
	}

	for qi := 0; qi < len(ar.queue) && components > 1; qi++ {
		cur := ar.queue[qi]
		curComp := ar.comp[cur]
		g.node(cur).eachIncident(func(out bool, h halfEdge) bool {
			if !ar.seenAt(h.peer) {
				ar.mark(h.peer, linkTo(cur, out, h))
				ar.comp[h.peer] = curComp
				ar.queue = append(ar.queue, h.peer)
				return true
			}
			if a, b := find(ar.comp[h.peer]), find(curComp); a != b {
				// Frontiers meet: join the two components through
				// cur -(h)- peer.
				g.addChain(ar, cur, nodes, edges)
				g.addChain(ar, h.peer, nodes, edges)
				edges[h.id] = g.edge(g.node(cur), out, h)
				comp[a] = b
				components--
			}
			return components > 1
		})
	}
	if components > 1 {
		return nil, fmt.Errorf("%w: terminals are not all connected", ErrNoPath)
	}
	return g.assembleSubgraph(terminals, nodes, edges), nil
}

func (g *Graph) assembleSubgraph(terminals []NodeRef, nodes map[int32]bool, edges map[uint64]Edge) *Subgraph {
	s := &Subgraph{Terminals: append([]NodeRef(nil), terminals...), Nodes: make([]NodeRef, 0, len(nodes))}
	for i := range nodes {
		s.Nodes = append(s.Nodes, g.ref(g.node(i)))
	}
	sortRefs(s.Nodes)
	for _, e := range edges {
		s.Edges = append(s.Edges, e)
	}
	sort.Slice(s.Edges, func(i, j int) bool { return s.Edges[i].ID < s.Edges[j].ID })
	return s
}
