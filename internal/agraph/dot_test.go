package agraph

import (
	"strings"
	"testing"
)

func TestSubgraphDOT(t *testing.T) {
	g, terms := connectTestGraph()
	sg, err := g.Connect(terms...)
	if err != nil {
		t.Fatal(err)
	}
	dot := sg.DOT("demo")
	for _, want := range []string{
		`digraph "demo" {`,
		"rankdir=LR",
		"shape=box",     // content nodes
		"shape=ellipse", // referent nodes
		"shape=folder",  // object node
		`fillcolor="#ffd54f"`,
		"annotates",
		"marks",
		"}",
	} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q:\n%s", want, dot)
		}
	}
	// Every edge references declared nodes.
	for _, e := range sg.Edges {
		if !strings.Contains(dot, e.From.String()) || !strings.Contains(dot, e.To.String()) {
			t.Errorf("edge %v endpoints missing from DOT", e)
		}
	}
	// Default name.
	if !strings.Contains(sg.DOT(""), `digraph "agraph"`) {
		t.Error("default name not applied")
	}
}

func TestPathDOT(t *testing.T) {
	g, terms := connectTestGraph()
	p, err := g.FindPath(terms[0], terms[1])
	if err != nil {
		t.Fatal(err)
	}
	dot := p.DOT("path")
	if !strings.Contains(dot, terms[0].String()) || !strings.Contains(dot, terms[1].String()) {
		t.Fatalf("path endpoints missing:\n%s", dot)
	}
	// Endpoints are highlighted as terminals.
	if strings.Count(dot, `fillcolor="#ffd54f"`) != 2 {
		t.Fatalf("expected 2 highlighted terminals:\n%s", dot)
	}
	// Term node shape.
	g2 := build(func(e *Edit) { e.AddEdge(ContentRoot(1), Term("go", "protease"), LabelRefersTo) })
	p2, err := g2.FindPath(ContentRoot(1), Term("go", "protease"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(p2.DOT("t"), "shape=diamond") {
		t.Error("term shape missing")
	}
}
