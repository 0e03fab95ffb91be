package agraph

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

func TestNodeRefConstructors(t *testing.T) {
	tests := []struct {
		ref  NodeRef
		kind NodeKind
		key  string
	}{
		{Content(42, 7), ContentNode, "42/7"},
		{ContentRoot(42), ContentNode, "42/1"},
		{Referent(99), ReferentNode, "99"},
		{Term("nif", "NIF:0003"), TermNode, "nif/NIF:0003"},
		{Object("sequences", "NC_1"), ObjectNode, "sequences/NC_1"},
	}
	for _, tc := range tests {
		if tc.ref.Kind != tc.kind || tc.ref.Key != tc.key {
			t.Errorf("ref = %v, want %v:%v", tc.ref, tc.kind, tc.key)
		}
	}
	if Content(1, 2) == Content(1, 3) {
		t.Fatal("distinct XML nodes must produce distinct refs")
	}
}

// TestNodeRefKeyFormat pins the integer keys to the decimal format the
// constructors used to print through fmt, and to their parsers, at the
// digit-count boundaries and at the largest ID the store assigns
// (core.MaxID, 1<<30) and the type allows.
func TestNodeRefKeyFormat(t *testing.T) {
	for _, id := range []uint64{0, 9, 10, 1 << 30, math.MaxUint64} {
		for _, node := range []uint64{0, 1, 10, math.MaxUint64} {
			ref := Content(id, node)
			if want := fmt.Sprintf("%d/%d", id, node); ref.Kind != ContentNode || ref.Key != want {
				t.Errorf("Content(%d, %d) = %v, want content:%s", id, node, ref, want)
			}
			if a, n, ok := ContentID(ref); !ok || a != id || n != node {
				t.Errorf("ContentID(%v) = %d, %d, %v", ref, a, n, ok)
			}
		}
		ref := Referent(id)
		if want := fmt.Sprintf("%d", id); ref.Kind != ReferentNode || ref.Key != want {
			t.Errorf("Referent(%d) = %v, want referent:%s", id, ref, want)
		}
		if got, ok := ReferentID(ref); !ok || got != id {
			t.Errorf("ReferentID(%v) = %d, %v", ref, got, ok)
		}
	}
}

func TestAddRemove(t *testing.T) {
	g := New()
	a, b := Referent(1), Referent(2)
	g.AddNode(a)
	if !g.HasNode(a) || g.HasNode(b) {
		t.Fatal("AddNode/HasNode wrong")
	}
	id := g.AddEdge(a, b, LabelAnnotates)
	if !g.HasNode(b) {
		t.Fatal("AddEdge should create endpoints")
	}
	if g.NodeCount() != 2 || g.EdgeCount() != 1 {
		t.Fatalf("counts = %d nodes, %d edges", g.NodeCount(), g.EdgeCount())
	}
	if g.Degree(a) != 1 || g.Degree(b) != 1 {
		t.Fatal("degree wrong")
	}
	if err := g.RemoveEdge(id); err != nil {
		t.Fatal(err)
	}
	if g.EdgeCount() != 0 {
		t.Fatal("edge not removed")
	}
	if err := g.RemoveEdge(id); !errors.Is(err, ErrNoSuchEdge) {
		t.Fatalf("double remove: err = %v", err)
	}
	if err := g.RemoveNode(a); err != nil {
		t.Fatal(err)
	}
	if err := g.RemoveNode(a); !errors.Is(err, ErrNoSuchNode) {
		t.Fatalf("remove missing node: err = %v", err)
	}
}

func TestRemoveNodeDropsIncidentEdges(t *testing.T) {
	g := New()
	hub := Referent(0)
	for i := 1; i <= 5; i++ {
		g.AddEdge(hub, Referent(uint64(i)), LabelMarks)
	}
	g.AddEdge(Referent(1), Referent(2), LabelMarks)
	if err := g.RemoveNode(hub); err != nil {
		t.Fatal(err)
	}
	if g.EdgeCount() != 1 {
		t.Fatalf("EdgeCount = %d, want 1", g.EdgeCount())
	}
	if g.Degree(Referent(1)) != 1 {
		t.Fatalf("stale adjacency on peer: degree = %d", g.Degree(Referent(1)))
	}
}

func TestMultigraphParallelEdges(t *testing.T) {
	g := New()
	a, b := ContentRoot(1), Referent(5)
	id1 := g.AddEdge(a, b, LabelAnnotates)
	id2 := g.AddEdge(a, b, LabelAnnotates)
	id3 := g.AddEdge(a, b, LabelRefersTo)
	if id1 == id2 || id2 == id3 {
		t.Fatal("edge IDs must be distinct")
	}
	if g.EdgeCount() != 3 {
		t.Fatalf("EdgeCount = %d", g.EdgeCount())
	}
	if got := len(g.Out(a, LabelAnnotates)); got != 2 {
		t.Fatalf("Out(annotates) = %d", got)
	}
	if got := len(g.Out(a)); got != 3 {
		t.Fatalf("Out() = %d", got)
	}
	if got := len(g.In(b, LabelRefersTo)); got != 1 {
		t.Fatalf("In(refersTo) = %d", got)
	}
	// Neighbors deduplicates.
	if got := g.Neighbors(a); len(got) != 1 || got[0] != b {
		t.Fatalf("Neighbors = %v", got)
	}
}

func TestFindPath(t *testing.T) {
	g := New()
	// content1 -> ref1 -> obj1 <- ref2 <- content2 (classic indirect
	// relation through a shared object).
	c1, c2 := ContentRoot(1), ContentRoot(2)
	r1, r2 := Referent(1), Referent(2)
	o := Object("sequences", "NC_1")
	g.AddEdge(c1, r1, LabelAnnotates)
	g.AddEdge(r1, o, LabelMarks)
	g.AddEdge(c2, r2, LabelAnnotates)
	g.AddEdge(r2, o, LabelMarks)

	p, err := g.FindPath(c1, c2)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 4 {
		t.Fatalf("path length = %d, want 4", p.Len())
	}
	if p.Nodes[0] != c1 || p.Nodes[len(p.Nodes)-1] != c2 {
		t.Fatalf("path endpoints wrong: %v", p.Nodes)
	}
	if len(p.Nodes) != p.Len()+1 {
		t.Fatal("nodes/edges arity wrong")
	}
	// Self path.
	p, err = g.FindPath(c1, c1)
	if err != nil || p.Len() != 0 {
		t.Fatalf("self path = %v, %v", p, err)
	}
	// Unknown node.
	if _, err := g.FindPath(c1, Referent(999)); !errors.Is(err, ErrNoSuchNode) {
		t.Fatalf("unknown node: err = %v", err)
	}
	// Disconnected.
	lone := Referent(100)
	g.AddNode(lone)
	if _, err := g.FindPath(c1, lone); !errors.Is(err, ErrNoPath) {
		t.Fatalf("disconnected: err = %v", err)
	}
}

func TestFindPathDirected(t *testing.T) {
	g := New()
	a, b, c := Referent(1), Referent(2), Referent(3)
	g.AddEdge(a, b, LabelMarks)
	g.AddEdge(b, c, LabelMarks)
	p, err := g.FindPathDirected(a, c)
	if err != nil || p.Len() != 2 {
		t.Fatalf("directed a->c = %v, %v", p, err)
	}
	// Against edge direction: no directed path, but undirected path exists.
	if _, err := g.FindPathDirected(c, a); !errors.Is(err, ErrNoPath) {
		t.Fatalf("directed c->a: err = %v", err)
	}
	if _, err := g.FindPath(c, a); err != nil {
		t.Fatalf("undirected c->a: err = %v", err)
	}
}

func TestShortestPathChosen(t *testing.T) {
	g := New()
	a, b := Referent(0), Referent(99)
	// Long way: a -> 1 -> 2 -> 3 -> b
	g.AddEdge(a, Referent(1), LabelMarks)
	g.AddEdge(Referent(1), Referent(2), LabelMarks)
	g.AddEdge(Referent(2), Referent(3), LabelMarks)
	g.AddEdge(Referent(3), b, LabelMarks)
	// Short way: a -> 10 -> b
	g.AddEdge(a, Referent(10), LabelMarks)
	g.AddEdge(Referent(10), b, LabelMarks)
	p, err := g.FindPath(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 2 {
		t.Fatalf("path length = %d, want 2 (shortest)", p.Len())
	}
}

func connectTestGraph() (*Graph, []NodeRef) {
	// Three annotation "stars" joined through shared referents:
	//   c1 - r1 - o1 - r2 - c2
	//             |
	//   c3 - r3 - o1
	g := New()
	c1, c2, c3 := ContentRoot(1), ContentRoot(2), ContentRoot(3)
	r1, r2, r3 := Referent(1), Referent(2), Referent(3)
	o1 := Object("images", "brain-1")
	g.AddEdge(c1, r1, LabelAnnotates)
	g.AddEdge(c2, r2, LabelAnnotates)
	g.AddEdge(c3, r3, LabelAnnotates)
	g.AddEdge(r1, o1, LabelMarks)
	g.AddEdge(r2, o1, LabelMarks)
	g.AddEdge(r3, o1, LabelMarks)
	return g, []NodeRef{c1, c2, c3}
}

func TestConnectStrategies(t *testing.T) {
	g, terms := connectTestGraph()
	for _, strat := range []ConnectStrategy{PairwiseBFS, ExpandingRing} {
		sg, err := g.ConnectWithStrategy(strat, terms...)
		if err != nil {
			t.Fatalf("%v: %v", strat, err)
		}
		for _, term := range terms {
			if !sg.Contains(term) {
				t.Fatalf("%v: missing terminal %v", strat, term)
			}
		}
		if !sg.Connected() {
			t.Fatalf("%v: subgraph not connected", strat)
		}
		// The minimal connector here has 7 nodes; neither heuristic should
		// return more than the whole graph.
		if sg.NodeCount() < 7 || sg.NodeCount() > g.NodeCount() {
			t.Fatalf("%v: %d nodes", strat, sg.NodeCount())
		}
	}
}

func TestConnectErrors(t *testing.T) {
	g, terms := connectTestGraph()
	if _, err := g.Connect(terms[0]); !errors.Is(err, ErrTerminals) {
		t.Fatalf("single terminal: err = %v", err)
	}
	if _, err := g.Connect(terms[0], terms[0]); !errors.Is(err, ErrTerminals) {
		t.Fatalf("duplicate terminals: err = %v", err)
	}
	if _, err := g.Connect(terms[0], Referent(12345)); !errors.Is(err, ErrNoSuchNode) {
		t.Fatalf("ghost terminal: err = %v", err)
	}
	lone := Referent(777)
	g.AddNode(lone)
	for _, strat := range []ConnectStrategy{PairwiseBFS, ExpandingRing} {
		if _, err := g.ConnectWithStrategy(strat, terms[0], lone); !errors.Is(err, ErrNoPath) {
			t.Fatalf("%v disconnected: err = %v", strat, err)
		}
	}
}

func TestConnectTwoTerminalsEqualsPath(t *testing.T) {
	g, terms := connectTestGraph()
	p, err := g.FindPath(terms[0], terms[1])
	if err != nil {
		t.Fatal(err)
	}
	sg, err := g.ConnectWithStrategy(PairwiseBFS, terms[0], terms[1])
	if err != nil {
		t.Fatal(err)
	}
	if sg.EdgeCount() != p.Len() {
		t.Fatalf("connect(2 terminals) has %d edges, path has %d", sg.EdgeCount(), p.Len())
	}
}

func TestConcurrentReadsDuringWrites(t *testing.T) {
	g := New()
	for i := 0; i < 100; i++ {
		g.AddEdge(Referent(uint64(i)), Referent(uint64(i+1)), LabelMarks)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				g.AddEdge(Referent(uint64(1000+w*100+i)), Referent(uint64(i)), LabelAnnotates)
				if _, err := g.FindPath(Referent(0), Referent(100)); err != nil {
					t.Errorf("path failed: %v", err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestQuickPathOnRandomGraphs checks that FindPath agrees with a simple
// reachability oracle and returns genuinely minimal paths.
func TestQuickPathOnRandomGraphs(t *testing.T) {
	check := func(seed int64, n uint8, extra uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		nodes := int(n%30) + 2
		g := New()
		refs := make([]NodeRef, nodes)
		for i := range refs {
			refs[i] = Referent(uint64(i))
			g.AddNode(refs[i])
		}
		// A random spanning structure over the first half, leaving the
		// second half mostly disconnected.
		half := nodes/2 + 1
		for i := 1; i < half; i++ {
			g.AddEdge(refs[i], refs[rng.Intn(i)], LabelMarks)
		}
		for i := 0; i < int(extra%20); i++ {
			a, b := rng.Intn(half), rng.Intn(half)
			if a != b {
				g.AddEdge(refs[a], refs[b], LabelAnnotates)
			}
		}
		// Oracle distances by plain BFS over an adjacency copy.
		dist := bfsOracle(g, refs[0])
		for i := 0; i < nodes; i++ {
			p, err := g.FindPath(refs[0], refs[i])
			d, reachable := dist[refs[i]]
			if reachable != (err == nil) {
				return false
			}
			if err == nil && p.Len() != d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickConnectInvariants: on random connected graphs, both strategies
// must return connected subgraphs containing all terminals.
func TestQuickConnectInvariants(t *testing.T) {
	check := func(seed int64, n uint8, k uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		nodes := int(n%40) + 3
		g := New()
		refs := make([]NodeRef, nodes)
		for i := range refs {
			refs[i] = Referent(uint64(i))
		}
		for i := 1; i < nodes; i++ {
			g.AddEdge(refs[i], refs[rng.Intn(i)], LabelMarks)
		}
		for i := 0; i < nodes/2; i++ {
			a, b := rng.Intn(nodes), rng.Intn(nodes)
			if a != b {
				g.AddEdge(refs[a], refs[b], LabelAnnotates)
			}
		}
		terms := make([]NodeRef, 0, int(k%4)+2)
		for len(terms) < cap(terms) {
			terms = append(terms, refs[rng.Intn(nodes)])
		}
		terms = dedupRefs(terms)
		if len(terms) < 2 {
			return true
		}
		for _, strat := range []ConnectStrategy{PairwiseBFS, ExpandingRing} {
			sg, err := g.ConnectWithStrategy(strat, terms...)
			if err != nil {
				return false
			}
			for _, term := range terms {
				if !sg.Contains(term) {
					return false
				}
			}
			if !sg.Connected() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func bfsOracle(g *Graph, src NodeRef) map[NodeRef]int {
	dist := map[NodeRef]int{src: 0}
	queue := []NodeRef{src}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, nb := range g.Neighbors(cur) {
			if _, ok := dist[nb]; !ok {
				dist[nb] = dist[cur] + 1
				queue = append(queue, nb)
			}
		}
	}
	return dist
}

func buildStarOfStars(nStars, size int) (*Graph, []NodeRef) {
	g := New()
	hub := Object("hub", "0")
	var terms []NodeRef
	for s := 0; s < nStars; s++ {
		c := ContentRoot(uint64(s))
		terms = append(terms, c)
		for i := 0; i < size; i++ {
			r := Referent(uint64(s*size + i))
			g.AddEdge(c, r, LabelAnnotates)
			if i == 0 {
				g.AddEdge(r, hub, LabelMarks)
			}
		}
	}
	return g, terms
}

func BenchmarkConnectStrategies(b *testing.B) {
	g, terms := buildStarOfStars(8, 500)
	for _, strat := range []ConnectStrategy{PairwiseBFS, ExpandingRing} {
		b.Run(strat.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := g.ConnectWithStrategy(strat, terms...); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
