package agraph

import (
	"fmt"
	"slices"
	"testing"
)

// TestIterSliceParity: InEach/OutEach must visit exactly the edges the
// model lists, in the same (edge-ID) order, and the counts, probes and
// traversals must agree with it, for every node and label-filter shape.
func TestIterSliceParity(t *testing.T) {
	g, m, _ := buildMessyGraph(t, 7)
	checkGraph(t, g, m)
}

// TestIterOrdered: visitors see strictly ascending edge IDs (the
// ID-ordered adjacency invariant that replaced per-call sorting), within
// one label's chunks and across the merge of several.
func TestIterOrdered(t *testing.T) {
	g, _, refs := buildMessyGraph(t, 11)
	for _, ref := range refs {
		for _, each := range []func(NodeRef, func(Edge) bool, ...EdgeLabel){g.OutEach, g.InEach} {
			for _, labels := range [][]EdgeLabel{nil, {LabelAnnotates}, {LabelMarks, LabelRefersTo}} {
				got := collect(each, ref, labels)
				if !slices.IsSortedFunc(got, func(a, b Edge) int { return int(a.ID) - int(b.ID) }) {
					t.Fatalf("visit of %v under %v out of order: %v", ref, labels, got)
				}
			}
		}
	}
}

// TestIterEarlyStop: returning false stops iteration immediately, in a
// single list and in a merge.
func TestIterEarlyStop(t *testing.T) {
	a, b := Referent(1), Referent(2)
	g := build(func(e *Edit) {
		for i := 0; i < 10; i++ {
			e.AddEdge(a, b, LabelAnnotates)
			e.AddEdge(a, b, LabelMarks)
		}
	})
	n := 0
	g.OutEach(a, func(Edge) bool { n++; return n < 3 }, LabelAnnotates)
	if n != 3 {
		t.Fatalf("visited %d edges, want 3", n)
	}
	n = 0
	g.InEach(b, func(Edge) bool { n++; return n < 2 })
	if n != 2 {
		t.Fatalf("merge visited %d edges, want 2", n)
	}
}

// TestIterNestedDuringMutation: a visitor may read the graph it is
// visiting and edit a successor of it — the visit runs on the value it
// was called on.
func TestIterNestedDuringMutation(t *testing.T) {
	a, b, c := Referent(1), Referent(2), Referent(3)
	g := build(func(e *Edit) {
		e.AddEdge(a, b, LabelAnnotates)
		e.AddEdge(a, c, LabelAnnotates)
	})
	e := g.Edit()
	visited := 0
	g.OutEach(a, func(ed Edge) bool {
		visited++
		// A nested read, a nested traversal and a mutation mid-visit.
		g.InEach(ed.To, func(Edge) bool { return true })
		if _, err := g.FindPath(b, c); err != nil {
			t.Fatal(err)
		}
		e.AddEdge(a, Referent(100+ed.ID), LabelAnnotates)
		return true
	}, LabelAnnotates)
	if visited != 2 {
		t.Fatalf("visited %d, want 2 (a visit must not see edges added meanwhile)", visited)
	}
	if g.EdgeCount() != 2 || e.Graph().EdgeCount() != 4 {
		t.Fatalf("EdgeCount = %d, successor's %d; want 2 and 4", g.EdgeCount(), e.Graph().EdgeCount())
	}
}

func TestHasEdgeBetween(t *testing.T) {
	a, b, c := ContentRoot(1), Referent(2), Referent(3)
	g := build(func(e *Edit) {
		e.AddEdge(a, b, LabelAnnotates)
		e.AddEdge(b, c, LabelMarks)
		e.AddEdge(a, a, LabelAbout) // self-loop
	})
	cases := []struct {
		from, to NodeRef
		labels   []EdgeLabel
		want     bool
	}{
		{a, b, nil, true},
		{a, b, []EdgeLabel{LabelAnnotates}, true},
		{a, b, []EdgeLabel{LabelMarks}, false},
		{b, a, nil, false}, // direction matters
		{b, c, []EdgeLabel{LabelMarks, LabelAnnotates}, true},
		{a, a, []EdgeLabel{LabelAbout}, true},
		{a, c, nil, false},
		{Referent(99), b, nil, false},
		{a, Referent(99), nil, false},
		{NodeRef{Kind: nodeKinds, name: "2"}, b, nil, false}, // a kind no graph holds
	}
	for _, tc := range cases {
		if got := g.HasEdgeBetween(tc.from, tc.to, tc.labels...); got != tc.want {
			t.Errorf("HasEdgeBetween(%v, %v, %v) = %v, want %v", tc.from, tc.to, tc.labels, got, tc.want)
		}
	}
}

func TestReachableEach(t *testing.T) {
	g, m, refs := buildMessyGraph(t, 13)
	for _, src := range refs[:4] {
		want := m.dist(src)
		got := map[NodeRef]bool{}
		if err := g.ReachableEach(src, func(n NodeRef) bool { got[n] = true; return true }); err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("ReachableEach(%v): got %d nodes, want %d", src, len(got), len(want))
		}
		for n := range want {
			if !got[n] {
				t.Fatalf("ReachableEach(%v) missed %v", src, n)
			}
		}
	}
	if err := g.ReachableEach(Referent(424242), func(NodeRef) bool { return true }); err == nil {
		t.Fatal("ReachableEach on absent node: want error")
	}
	// Early stop.
	n := 0
	if err := g.ReachableEach(refs[0], func(NodeRef) bool { n++; return false }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("early stop visited %d, want 1", n)
	}
	n = 0
	if err := g.ReachableEach(refs[1], func(NodeRef) bool { n++; return n < 3 }); err != nil || n != 3 {
		t.Fatalf("early stop mid-traversal visited %d (%v), want 3", n, err)
	}
}

// TestRemovePreservesOrder: a list thinned by the removal of peers keeps
// the ID order of the survivors, whichever chunk loses an edge — the
// first, one that empties, the tail — and the value it was thinned from
// keeps them all.
func TestRemovePreservesOrder(t *testing.T) {
	a := Referent(0)
	const n = 2*listChunk + 3
	full := build(func(e *Edit) {
		for i := 1; i <= n; i++ {
			e.AddEdge(a, Referent(uint64(i)), LabelAnnotates)
		}
		// One peer holds a whole chunk of parallel edges: the second.
		for i := 0; i < listChunk; i++ {
			e.AddEdge(a, Referent(n+1), LabelMarks)
		}
	})
	e := full.Edit()
	gone := []uint64{1, 6, listChunk, listChunk + 1, n - 1, n, n + 1}
	for _, i := range gone {
		if err := e.RemoveNode(Referent(i)); err != nil {
			t.Fatal(err)
		}
	}
	thin := e.Graph()
	var want []uint64
	for id := uint64(1); id <= n; id++ {
		if !slices.Contains(gone, id) {
			want = append(want, id)
		}
	}
	var got []uint64
	thin.OutEach(a, func(ed Edge) bool { got = append(got, ed.ID); return true })
	if !slices.Equal(got, want) {
		t.Fatalf("survivors %v, want %v", got, want)
	}
	if thin.OutCount(a) != len(want) || thin.OutCount(a, LabelMarks) != 0 || thin.EdgeCount() != len(want) {
		t.Fatalf("%d out of a, %d marks, %d edges; want %d, 0, %d", thin.OutCount(a), thin.OutCount(a, LabelMarks), thin.EdgeCount(), len(want), len(want))
	}
	if full.OutCount(a, LabelAnnotates) != n || full.OutCount(a, LabelMarks) != listChunk || full.EdgeCount() != n+listChunk {
		t.Fatal("thinning a successor changed the value it was opened on")
	}
	// The thinned tail still takes appends.
	id := e.AddEdge(a, Referent(5000), LabelAnnotates)
	if got := collect(e.Graph().OutEach, a, nil); got[len(got)-1].ID != id || len(got) != len(want)+1 {
		t.Fatalf("append after thinning: last of %d is %v, want edge %d", len(got), got[len(got)-1], id)
	}
}

// TestConcurrentItersDuringAddEdge runs readers (visitors and traversals)
// on held values while one writer appends to and thins the list they
// read; meant for -race. Each reader sees, in ascending order, the in-list
// of the value it holds: as long as that value's own count says.
func TestConcurrentItersDuringAddEdge(t *testing.T) {
	hub := Object("hub", "0")
	g := build(func(e *Edit) {
		for i := 0; i < 50; i++ {
			e.AddEdge(Referent(uint64(i)), hub, LabelMarks)
		}
	})
	last := publishEach(g, 600, 3, func(e *Edit, step int) {
		e.AddEdge(Referent(uint64(1000+step)), hub, LabelMarks)
		if step%10 == 9 {
			if err := e.RemoveNode(Referent(uint64(1000 + step - 5))); err != nil {
				t.Errorf("remove: %v", err)
			}
		}
	}, func(g *Graph) {
		last, n := uint64(0), 0
		g.InEach(hub, func(e Edge) bool {
			if e.ID <= last || e.To != hub {
				t.Errorf("visitor saw %v after edge %d", e, last)
				return false
			}
			last = e.ID
			n++
			return true
		}, LabelMarks)
		if n != g.InCount(hub) || n != g.EdgeCount() || n != g.NodeCount()-1 {
			t.Errorf("visited %d of %d edges among %d nodes", n, g.EdgeCount(), g.NodeCount())
		}
		if p, err := g.FindPath(Referent(0), Referent(1)); err != nil || p.Len() != 2 {
			t.Errorf("path: %v", err)
		}
	})
	if want := 50 + 600 - 60; last.EdgeCount() != want || g.EdgeCount() != 50 {
		t.Fatalf("%d edges at the end, want %d; %d in the first value", last.EdgeCount(), want, g.EdgeCount())
	}
}

// TestNodeEditsUnderReaders runs readers on held values while one
// writer's sessions re-edit the nodes they walk: each session gives every
// hub two edges (the second written in place on the node the session
// copied for the first), takes one edge from the middle of a hub's list
// by removing its spoke, and the hubs are the nodes of the previous
// values the readers hold. Meant for -race. Every edge has one hub end,
// so a value's hub lists, walked and counted, add up to its edge count.
func TestNodeEditsUnderReaders(t *testing.T) {
	hubs := []NodeRef{Object("hub", "0"), Object("hub", "1"), Referent(0), ContentRoot(0)}
	spoke := func(step, h int) NodeRef { return Referent(uint64(1000 + 4*step + h)) }
	g := build(func(e *Edit) {
		for _, h := range hubs {
			e.AddNode(h)
		}
	})
	last := publishEach(g, 300, 3, func(e *Edit, step int) {
		for h, hub := range hubs {
			e.AddEdge(hub, spoke(step, h), LabelAnnotates)
			e.AddEdge(spoke(step, h), hubs[(h+1)%len(hubs)], LabelMarks)
		}
		if step%5 == 4 {
			if err := e.RemoveNode(spoke(step-3, step%len(hubs))); err != nil {
				t.Errorf("remove: %v", err)
			}
		}
	}, func(g *Graph) {
		total := 0
		for _, hub := range hubs {
			for _, each := range []func(NodeRef, func(Edge) bool, ...EdgeLabel){g.OutEach, g.InEach} {
				last, n := uint64(0), 0
				each(hub, func(e Edge) bool {
					if e.ID <= last || e.From != hub && e.To != hub {
						t.Errorf("visit of %v saw %v after edge %d", hub, e, last)
						return false
					}
					last = e.ID
					n++
					return true
				})
				total += n
			}
			if n := g.OutCount(hub) + g.InCount(hub); n != g.OutCount(hub, LabelAnnotates)+g.InCount(hub, LabelMarks) {
				t.Errorf("%v: %d edges, not all annotates out and marks in", hub, n)
			}
		}
		if total != g.EdgeCount() || g.NodeCount() != len(hubs)+g.EdgeCount()/2 {
			t.Errorf("hubs walk %d of %d edges among %d nodes", total, g.EdgeCount(), g.NodeCount())
		}
	})
	if want := 2*len(hubs)*300 - 2*300/5; last.EdgeCount() != want || g.EdgeCount() != 0 {
		t.Fatalf("%d edges at the end, want %d; %d in the first value", last.EdgeCount(), want, g.EdgeCount())
	}
}

// TestManyLabels: a graph that carries more labels than a filter's code
// mask holds (64) filters by the later ones too.
func TestManyLabels(t *testing.T) {
	a, b := Referent(1), Referent(2)
	label := func(i int) EdgeLabel { return EdgeLabel(fmt.Sprintf("l%d", i)) }
	g := build(func(e *Edit) {
		for i := 0; i < 70; i++ {
			e.AddEdge(a, b, label(i))
		}
	})
	if g.LabelCount() != 70 {
		t.Fatalf("%d labels, want 70", g.LabelCount())
	}
	for _, i := range []int{0, 63, 64, 69} {
		got := collect(g.OutEach, a, []EdgeLabel{label(i)})
		if len(got) != 1 || got[0].ID != uint64(i+1) || got[0].Label != label(i) {
			t.Errorf("OutEach(%s) = %v", label(i), got)
		}
		if g.InCount(b, label(i)) != 1 || !g.HasEdgeBetween(a, b, label(i)) || g.HasEdgeBetween(b, a, label(i)) {
			t.Errorf("%s: counted or probed wrong", label(i))
		}
	}
	if got := collect(g.InEach, b, []EdgeLabel{label(66), label(3), "l70"}); len(got) != 2 || got[0].ID != 4 || got[1].ID != 67 {
		t.Errorf("InEach(l66, l3, l70) = %v", got)
	}
	if g.OutCount(a, "l70") != 0 || g.OutCount(a) != 70 {
		t.Errorf("counts %d under an unknown label, %d in all", g.OutCount(a, "l70"), g.OutCount(a))
	}
}
