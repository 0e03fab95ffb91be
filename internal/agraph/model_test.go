package agraph

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"
)

// model is the oracle for the value graph: a node set and a plain edge
// list in ID order, answered by linear scans.
type model struct {
	nodes map[NodeRef]bool
	edges []Edge
	next  uint64
}

func newModel() *model { return &model{nodes: map[NodeRef]bool{}} }

func (m *model) clone() *model {
	return &model{maps.Clone(m.nodes), slices.Clone(m.edges), m.next}
}

func (m *model) addEdge(from, to NodeRef, label EdgeLabel) uint64 {
	m.nodes[from], m.nodes[to] = true, true
	m.next++
	m.edges = append(m.edges, Edge{m.next, from, to, label})
	return m.next
}

func (m *model) removeNode(ref NodeRef) bool {
	had := m.nodes[ref]
	delete(m.nodes, ref)
	m.edges = slices.DeleteFunc(m.edges, func(e Edge) bool { return e.From == ref || e.To == ref })
	return had
}

func labelIn(l EdgeLabel, ls []EdgeLabel) bool {
	return len(ls) == 0 || slices.Contains(ls, l)
}

// incident returns the edges leaving (out) or entering ref that carry one
// of labels (any when none is given), in ID order.
func (m *model) incident(ref NodeRef, out bool, labels []EdgeLabel) []Edge {
	var got []Edge
	for _, e := range m.edges {
		end := e.To
		if out {
			end = e.From
		}
		if end == ref && labelIn(e.Label, labels) {
			got = append(got, e)
		}
	}
	return got
}

// dist returns the undirected BFS distance from src to every node it
// reaches.
func (m *model) dist(src NodeRef) map[NodeRef]int {
	dist := map[NodeRef]int{src: 0}
	for queue := []NodeRef{src}; len(queue) > 0; queue = queue[1:] {
		cur := queue[0]
		for _, e := range m.edges {
			for _, hop := range [][2]NodeRef{{e.From, e.To}, {e.To, e.From}} {
				if _, seen := dist[hop[1]]; hop[0] == cur && !seen {
					dist[hop[1]] = dist[cur] + 1
					queue = append(queue, hop[1])
				}
			}
		}
	}
	return dist
}

// session drives an Edit and the model with the same ops.
type session struct {
	e Edit
	m *model
}

func (s *session) addNode(ref NodeRef) {
	s.e.AddNode(ref)
	s.m.nodes[ref] = true
}

func (s *session) addEdge(t testing.TB, from, to NodeRef, label EdgeLabel) uint64 {
	t.Helper()
	id := s.e.AddEdge(from, to, label)
	if want := s.m.addEdge(from, to, label); id != want {
		t.Fatalf("AddEdge returned ID %d, want %d", id, want)
	}
	return id
}

func (s *session) removeNode(t testing.TB, ref NodeRef) {
	t.Helper()
	if err, had := s.e.RemoveNode(ref), s.m.removeNode(ref); (err == nil) != had {
		t.Fatalf("RemoveNode(%v) = %v, node present: %v", ref, err, had)
	}
}

func collect(each func(NodeRef, func(Edge) bool, ...EdgeLabel), ref NodeRef, labels []EdgeLabel) []Edge {
	var got []Edge
	each(ref, func(e Edge) bool { got = append(got, e); return true }, labels...)
	return got
}

var labelFilters = [][]EdgeLabel{
	nil,
	{LabelAnnotates},
	{LabelMarks},
	{LabelAnnotates, LabelRefersTo},
	{LabelMarks, LabelAbout, LabelAnnotates},
	{LabelAnnotates, LabelAnnotates}, // duplicate labels must not duplicate edges
	{"nonexistent"},
}

// checkGraph compares every read of g with the model's answer.
func checkGraph(t testing.TB, g *Graph, m *model) {
	t.Helper()
	if g.NodeCount() != len(m.nodes) || g.EdgeCount() != len(m.edges) {
		t.Fatalf("%d nodes, %d edges; want %d, %d", g.NodeCount(), g.EdgeCount(), len(m.nodes), len(m.edges))
	}
	refs := slices.Collect(maps.Keys(m.nodes))
	sortRefs(refs)
	if got := g.Nodes(); !slices.Equal(got, refs) {
		t.Fatalf("Nodes() = %v, want %v", got, refs)
	}
	absent := Referent(99999)
	for _, ref := range append(refs, absent) {
		for _, labels := range labelFilters {
			wantOut, wantIn := m.incident(ref, true, labels), m.incident(ref, false, labels)
			if got := collect(g.OutEach, ref, labels); !slices.Equal(got, wantOut) {
				t.Fatalf("OutEach(%v, %v) = %v, want %v", ref, labels, got, wantOut)
			}
			if got := collect(g.InEach, ref, labels); !slices.Equal(got, wantIn) {
				t.Fatalf("InEach(%v, %v) = %v, want %v", ref, labels, got, wantIn)
			}
			if out, in := g.OutCount(ref, labels...), g.InCount(ref, labels...); out != len(wantOut) || in != len(wantIn) {
				t.Fatalf("counts of %v under %v: %d out, %d in; want %d, %d", ref, labels, out, in, len(wantOut), len(wantIn))
			}
			for _, to := range refs[:min(len(refs), 6)] {
				want := slices.ContainsFunc(wantOut, func(e Edge) bool { return e.To == to })
				if got := g.HasEdgeBetween(ref, to, labels...); got != want {
					t.Fatalf("HasEdgeBetween(%v, %v, %v) = %v", ref, to, labels, got)
				}
			}
		}
	}
	for _, src := range refs[:min(len(refs), 3)] {
		dist := m.dist(src)
		reached := map[NodeRef]bool{}
		if err := g.ReachableEach(src, func(n NodeRef) bool { reached[n] = true; return true }); err != nil {
			t.Fatal(err)
		}
		if len(reached) != len(dist) {
			t.Fatalf("ReachableEach(%v) reached %d nodes, want %d", src, len(reached), len(dist))
		}
		for _, dst := range refs {
			p, err := g.FindPath(src, dst)
			d, connected := dist[dst]
			if connected != (err == nil) || connected != reached[dst] {
				t.Fatalf("FindPath(%v, %v): %v; reached %v, model distance %d, %v", src, dst, err, reached[dst], d, connected)
			}
			if err != nil {
				continue
			}
			if p.Len() != d || p.Nodes[0] != src || p.Nodes[d] != dst {
				t.Fatalf("FindPath(%v, %v) = %v, want %d edges", src, dst, p.Nodes, d)
			}
			for i, e := range p.Edges {
				a, b := p.Nodes[i], p.Nodes[i+1]
				if !slices.Contains(m.edges, e) || !(e.From == a && e.To == b || e.From == b && e.To == a) {
					t.Fatalf("FindPath(%v, %v): step %d is %v between %v and %v", src, dst, i, e, a, b)
				}
			}
		}
	}
	if err := g.ReachableEach(absent, func(NodeRef) bool { return true }); err == nil {
		t.Fatal("ReachableEach on an absent node: want error")
	}
}

// editPool is the node pool of the edit-session tests: six refs of each
// kind.
var editPool = func() (refs []NodeRef) {
	for i := uint64(0); i < 6; i++ {
		refs = append(refs, ContentRoot(i), Referent(i), Term("ont", fmt.Sprint(i)), Object("tbl", fmt.Sprint(i)))
	}
	return refs
}()

// runEditSessions decodes data as edit sessions over one graph and checks
// every value a session ends with against the model. The value a session
// was opened on is held, as a reader would hold it, and checked again when
// the session ends; every third value is kept and checked again after all
// later edits: a value, and the adjacency tails later values extend in
// place, must never change.
//
// An op is three bytes (code, a, b): add node a, add an edge a→b (the code
// picks the label), add a run of b parallel edges a→pool[b] (enough of
// them cross a chunk), remove node a, end the session, or add an edge
// from the a-th node of the held value — one an earlier session made —
// and check that node in the held value at once.
func runEditSessions(t testing.TB, data []byte) {
	data = data[:min(len(data), 3*1024)] // each check scans the edge list per node and filter
	labels := []EdgeLabel{LabelAnnotates, LabelRefersTo, LabelMarks, LabelAbout}
	type version struct {
		g Graph
		m *model
	}
	var kept []version
	var g Graph
	s := session{g.Edit(), newModel()}
	held := version{g, s.m.clone()}
	sealed := 0
	seal := func() {
		checkGraph(t, &held.g, held.m)
		g = *s.e.Graph()
		checkGraph(t, &g, s.m)
		held = version{g, s.m.clone()}
		if sealed++; sealed%3 == 0 {
			kept = append(kept, held)
		}
		s.e = g.Edit()
	}
	for ; len(data) >= 3; data = data[3:] {
		a, b := editPool[int(data[1])%len(editPool)], editPool[int(data[2])%len(editPool)]
		switch code := data[0] % 9; code {
		case 0:
			s.addNode(a)
		case 1, 2, 3, 4:
			s.addEdge(t, a, b, labels[code-1])
		case 5:
			for n := int(data[2]); n > 0 && len(s.m.edges) < 1500; n-- {
				s.addEdge(t, a, b, LabelMarks)
			}
		case 6:
			s.removeNode(t, a)
		case 7:
			seal()
		case 8:
			nodes := held.g.Nodes()
			if len(nodes) == 0 || !s.m.nodes[nodes[int(data[1])%len(nodes)]] {
				break
			}
			a = nodes[int(data[1])%len(nodes)]
			s.addEdge(t, a, b, labels[int(data[2])%len(labels)])
			for _, out := range []bool{true, false} {
				each := held.g.InEach
				if out {
					each = held.g.OutEach
				}
				if got, want := collect(each, a, nil), held.m.incident(a, out, nil); !slices.Equal(got, want) {
					t.Fatalf("held value, %v (out %v) after a later session's edit: %v, want %v", a, out, got, want)
				}
			}
		}
		if got, want := s.e.Graph().OutCount(a), len(s.m.incident(a, true, nil)); got != want { // reads see the session's writes
			t.Fatalf("%v mid-session: %d edges out, want %d", a, got, want)
		}
	}
	seal()
	for _, v := range kept {
		checkGraph(t, &v.g, v.m)
	}
}

// TestEditSessionsAgainstModel runs long random op streams through
// runEditSessions.
func TestEditSessionsAgainstModel(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	rounds := 3
	if testing.Short() {
		rounds = 1
	}
	for round := 0; round < rounds; round++ {
		data := make([]byte, 3*(150+rng.Intn(300)))
		rng.Read(data)
		runEditSessions(t, data)
	}
}

// FuzzEditSessions feeds runEditSessions from the fuzzer.
func FuzzEditSessions(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 1, 7, 0, 0, 6, 1, 0})
	f.Add([]byte{5, 1, 255, 5, 1, 255, 5, 1, 255, 7, 0, 0, 6, 23, 0, 3, 1, 2, 7, 0, 0})
	f.Add([]byte{2, 4, 4, 1, 4, 5, 6, 4, 0, 0, 4, 0, 1, 8, 4})
	rng := rand.New(rand.NewSource(1))
	long := make([]byte, 600)
	rng.Read(long)
	f.Add(long)
	f.Fuzz(func(t *testing.T, data []byte) { runEditSessions(t, data) })
}

// build returns the graph fn's edits make of the empty one.
func build(fn func(e *Edit)) *Graph {
	var g Graph
	e := g.Edit()
	fn(&e)
	return e.Graph()
}

// buildMessyGraph returns a graph exercising every adjacency shape —
// parallel edges (same and different labels), self-loops, isolated nodes,
// a hub whose lists span chunks, lists thinned by removed peers — with its
// model and its surviving refs.
func buildMessyGraph(t testing.TB, seed int64) (*Graph, *model, []NodeRef) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	labels := []EdgeLabel{LabelAnnotates, LabelRefersTo, LabelMarks, LabelAbout}
	refs := slices.Clone(editPool)
	var g Graph
	s := session{g.Edit(), newModel()}
	s.addNode(refs[0]) // isolated until edges arrive
	for i := 0; i < 160; i++ {
		a, b := rng.Intn(len(refs)), rng.Intn(len(refs))
		if i%17 == 0 {
			b = a // self-loop
		}
		s.addEdge(t, refs[a], refs[b], labels[rng.Intn(len(labels))])
	}
	// Parallel edges on a fixed pair, one per label plus a duplicate.
	for _, l := range append(labels, LabelAnnotates) {
		s.addEdge(t, refs[1], refs[2], l)
	}
	// A hub whose in-list spans three chunks, then loses a peer from its
	// middle and one from each end.
	for i := 0; i < 2*listChunk+40; i++ {
		s.addEdge(t, refs[4+i%16], refs[5], LabelMarks)
	}
	for _, i := range []int{3, 4, 12, 19} {
		s.removeNode(t, refs[i])
	}
	refs = slices.DeleteFunc(refs, func(r NodeRef) bool { return !s.m.nodes[r] })
	return s.e.Graph(), s.m, refs
}
