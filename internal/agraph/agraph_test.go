package agraph

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
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
		if tc.ref.Kind != tc.kind || tc.ref.Key() != tc.key {
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
			if want := fmt.Sprintf("%d/%d", id, node); ref.Kind != ContentNode || ref.Key() != want {
				t.Errorf("Content(%d, %d) = %v, want content:%s", id, node, ref, want)
			}
			if a, n, ok := ContentID(ref); !ok || a != id || n != node {
				t.Errorf("ContentID(%v) = %d, %d, %v", ref, a, n, ok)
			}
		}
		ref := Referent(id)
		if want := fmt.Sprintf("%d", id); ref.Kind != ReferentNode || ref.Key() != want {
			t.Errorf("Referent(%d) = %v, want referent:%s", id, ref, want)
		}
		if got, ok := ReferentID(ref); !ok || got != id {
			t.Errorf("ReferentID(%v) = %d, %v", ref, got, ok)
		}
	}
}

// hasNode reports whether g holds ref.
func hasNode(g *Graph, ref NodeRef) bool { return slices.Contains(g.Nodes(), ref) }

// degree is the number of half-edges at ref.
func degree(g *Graph, ref NodeRef) int { return g.OutCount(ref) + g.InCount(ref) }

func TestAddRemove(t *testing.T) {
	var empty Graph
	e := empty.Edit()
	a, b := Referent(1), Referent(2)
	e.AddNode(a)
	if g := e.Graph(); !hasNode(g, a) || hasNode(g, b) {
		t.Fatal("AddNode wrong")
	}
	if id := e.AddEdge(a, b, LabelAnnotates); id != 1 {
		t.Fatalf("first edge ID = %d", id)
	}
	g := *e.Graph()
	if !hasNode(&g, b) {
		t.Fatal("AddEdge should create endpoints")
	}
	if g.NodeCount() != 2 || g.EdgeCount() != 1 {
		t.Fatalf("counts = %d nodes, %d edges", g.NodeCount(), g.EdgeCount())
	}
	if degree(&g, a) != 1 || degree(&g, b) != 1 {
		t.Fatal("degree wrong")
	}
	e = g.Edit()
	if err := e.RemoveNode(b); err != nil {
		t.Fatal(err)
	}
	if after := e.Graph(); after.EdgeCount() != 0 || degree(after, a) != 0 || after.NodeCount() != 1 {
		t.Fatal("edge not removed with its endpoint")
	}
	if err := e.RemoveNode(b); !errors.Is(err, ErrNoSuchNode) {
		t.Fatalf("remove missing node: err = %v", err)
	}
	if err := e.RemoveNode(a); err != nil {
		t.Fatal(err)
	}
	// The value the second session started from is what it was.
	if g.NodeCount() != 2 || g.EdgeCount() != 1 || degree(&g, b) != 1 {
		t.Fatal("an edit wrote through to the value it was opened on")
	}
	if empty.NodeCount() != 0 || empty.EdgeCount() != 0 || hasNode(&empty, a) {
		t.Fatal("the zero Graph is not empty")
	}
	// A removed node's dense index is handed out again.
	e.AddNode(Referent(3))
	if got := e.Graph(); got.slots != 2 || got.NodeCount() != 1 {
		t.Fatalf("%d slots for %d nodes after reuse", got.slots, got.NodeCount())
	}
}

func TestRemoveNodeDropsIncidentEdges(t *testing.T) {
	hub := Referent(0)
	g := build(func(e *Edit) {
		for i := 1; i <= 5; i++ {
			e.AddEdge(hub, Referent(uint64(i)), LabelMarks)
		}
		e.AddEdge(Referent(1), Referent(2), LabelMarks)
		e.AddEdge(hub, hub, LabelAbout) // a self-loop is one edge, stored at both ends of one node
		if err := e.RemoveNode(hub); err != nil {
			t.Fatal(err)
		}
	})
	if g.EdgeCount() != 1 {
		t.Fatalf("EdgeCount = %d, want 1", g.EdgeCount())
	}
	if degree(g, Referent(1)) != 1 {
		t.Fatalf("stale adjacency on peer: degree = %d", degree(g, Referent(1)))
	}
}

func TestMultigraphParallelEdges(t *testing.T) {
	a, b := ContentRoot(1), Referent(5)
	var ids [3]uint64
	g := build(func(e *Edit) {
		ids[0] = e.AddEdge(a, b, LabelAnnotates)
		ids[1] = e.AddEdge(a, b, LabelAnnotates)
		ids[2] = e.AddEdge(a, b, LabelRefersTo)
	})
	if ids[0] == ids[1] || ids[1] == ids[2] {
		t.Fatal("edge IDs must be distinct")
	}
	if g.EdgeCount() != 3 {
		t.Fatalf("EdgeCount = %d", g.EdgeCount())
	}
	if got := len(collect(g.OutEach, a, []EdgeLabel{LabelAnnotates})); got != 2 {
		t.Fatalf("OutEach(annotates) = %d", got)
	}
	if got := len(collect(g.OutEach, a, nil)); got != 3 {
		t.Fatalf("OutEach() = %d", got)
	}
	if got := len(collect(g.InEach, b, []EdgeLabel{LabelRefersTo})); got != 1 {
		t.Fatalf("InEach(refersTo) = %d", got)
	}
}

func TestFindPath(t *testing.T) {
	// content1 -> ref1 -> obj1 <- ref2 <- content2 (classic indirect
	// relation through a shared object).
	c1, c2 := ContentRoot(1), ContentRoot(2)
	r1, r2 := Referent(1), Referent(2)
	o := Object("sequences", "NC_1")
	lone := Referent(100)
	g := build(func(e *Edit) {
		e.AddEdge(c1, r1, LabelAnnotates)
		e.AddEdge(r1, o, LabelMarks)
		e.AddEdge(c2, r2, LabelAnnotates)
		e.AddEdge(r2, o, LabelMarks)
		e.AddNode(lone)
	})

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
	// Each edge keeps its stored orientation, whichever way it is walked.
	want := []Edge{{1, c1, r1, LabelAnnotates}, {2, r1, o, LabelMarks}, {4, r2, o, LabelMarks}, {3, c2, r2, LabelAnnotates}}
	if !slices.Equal(p.Edges, want) {
		t.Fatalf("path edges = %v, want %v", p.Edges, want)
	}
	// Against every edge's direction.
	if p, err := g.FindPath(o, c1); err != nil || p.Len() != 2 {
		t.Fatalf("path against edge direction = %v, %v", p, err)
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
	if _, err := g.FindPath(c1, lone); !errors.Is(err, ErrNoPath) {
		t.Fatalf("disconnected: err = %v", err)
	}
}

func TestShortestPathChosen(t *testing.T) {
	a, b := Referent(0), Referent(99)
	g := build(func(e *Edit) {
		// Long way: a -> 1 -> 2 -> 3 -> b
		e.AddEdge(a, Referent(1), LabelMarks)
		e.AddEdge(Referent(1), Referent(2), LabelMarks)
		e.AddEdge(Referent(2), Referent(3), LabelMarks)
		e.AddEdge(Referent(3), b, LabelMarks)
		// Short way: a -> 10 -> b
		e.AddEdge(a, Referent(10), LabelMarks)
		e.AddEdge(Referent(10), b, LabelMarks)
	})
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
	c1, c2, c3 := ContentRoot(1), ContentRoot(2), ContentRoot(3)
	r1, r2, r3 := Referent(1), Referent(2), Referent(3)
	o1 := Object("images", "brain-1")
	g := build(func(e *Edit) {
		e.AddEdge(c1, r1, LabelAnnotates)
		e.AddEdge(c2, r2, LabelAnnotates)
		e.AddEdge(c3, r3, LabelAnnotates)
		e.AddEdge(r1, o1, LabelMarks)
		e.AddEdge(r2, o1, LabelMarks)
		e.AddEdge(r3, o1, LabelMarks)
		e.AddNode(Referent(777)) // in no one's component
	})
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
		// The minimal connector here is every node but the lone one.
		if sg.NodeCount() != 7 {
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

// publishEach runs one writer that builds steps successor values of g, one
// edit session each, and publishes every one, while readers goroutines
// call read on whichever value is current until the writer is done; it
// returns the last value. Meant for -race: the writer extends adjacency
// tails in place under the readers' feet.
func publishEach(g *Graph, steps, readers int, edit func(e *Edit, step int), read func(g *Graph)) *Graph {
	var cur atomic.Pointer[Graph]
	cur.Store(g)
	var wg sync.WaitGroup
	done := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
					read(cur.Load())
				}
			}
		}()
	}
	for step := 0; step < steps; step++ {
		e := cur.Load().Edit()
		edit(&e, step)
		next := *e.Graph()
		cur.Store(&next)
	}
	close(done)
	wg.Wait()
	return cur.Load()
}

// TestConcurrentReadsDuringWrites: traversals of held values while the
// writer builds successors. Each reader checks the value it holds against
// itself: the chain it walks and the spokes it counts are those of one
// edge count.
func TestConcurrentReadsDuringWrites(t *testing.T) {
	g := build(func(e *Edit) {
		for i := 0; i < 100; i++ {
			e.AddEdge(Referent(uint64(i)), Referent(uint64(i+1)), LabelMarks)
		}
	})
	last := publishEach(g, 400, 4, func(e *Edit, step int) {
		e.AddEdge(Referent(uint64(1000+step)), Referent(uint64(step%100)), LabelAnnotates)
	}, func(g *Graph) {
		if p, err := g.FindPath(Referent(0), Referent(100)); err != nil || p.Len() != 100 {
			t.Errorf("path failed: %v", err)
		}
		spokes := 0
		for i := 0; i < 100; i++ {
			spokes += g.InCount(Referent(uint64(i)), LabelAnnotates)
		}
		if spokes != g.EdgeCount()-100 || g.NodeCount() != 101+spokes {
			t.Errorf("a held value has %d spokes, %d edges, %d nodes", spokes, g.EdgeCount(), g.NodeCount())
		}
	})
	if last.EdgeCount() != 500 || g.EdgeCount() != 100 {
		t.Fatalf("%d edges after 400 sessions, %d in the value they started from", last.EdgeCount(), g.EdgeCount())
	}
}

// TestQuickPathOnRandomGraphs checks that FindPath agrees with a simple
// reachability oracle and returns genuinely minimal paths.
func TestQuickPathOnRandomGraphs(t *testing.T) {
	check := func(seed int64, n uint8, extra uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		nodes := int(n%30) + 2
		s := session{new(Graph).Edit(), newModel()}
		refs := make([]NodeRef, nodes)
		for i := range refs {
			refs[i] = Referent(uint64(i))
			s.addNode(refs[i])
		}
		// A random spanning structure over the first half, leaving the
		// second half mostly disconnected.
		half := nodes/2 + 1
		for i := 1; i < half; i++ {
			s.addEdge(t, refs[i], refs[rng.Intn(i)], LabelMarks)
		}
		for i := 0; i < int(extra%20); i++ {
			a, b := rng.Intn(half), rng.Intn(half)
			if a != b {
				s.addEdge(t, refs[a], refs[b], LabelAnnotates)
			}
		}
		// Oracle distances by plain BFS over the model's edge list.
		g, dist := s.e.Graph(), s.m.dist(refs[0])
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
		refs := make([]NodeRef, nodes)
		for i := range refs {
			refs[i] = Referent(uint64(i))
		}
		g := build(func(e *Edit) {
			for i := 1; i < nodes; i++ {
				e.AddEdge(refs[i], refs[rng.Intn(i)], LabelMarks)
			}
			for i := 0; i < nodes/2; i++ {
				a, b := rng.Intn(nodes), rng.Intn(nodes)
				if a != b {
					e.AddEdge(refs[a], refs[b], LabelAnnotates)
				}
			}
		})
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

func buildStarOfStars(nStars, size int) (*Graph, []NodeRef) {
	hub := Object("hub", "0")
	var terms []NodeRef
	g := build(func(e *Edit) {
		for s := 0; s < nStars; s++ {
			c := ContentRoot(uint64(s))
			terms = append(terms, c)
			for i := 0; i < size; i++ {
				r := Referent(uint64(s*size + i))
				e.AddEdge(c, r, LabelAnnotates)
				if i == 0 {
					e.AddEdge(r, hub, LabelMarks)
				}
			}
		}
	})
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
