package interact

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

// ns1Graph builds a small NS1-centred interactome:
//
//	NS1 - PKR (inhibits), NS1 - TRIM25 (binds), NS1 - CPSF30 (binds)
//	PKR - EIF2A (phosphorylates)
//	isolated: RIG-I - MAVS (signals)
func ns1Graph(t testing.TB) *Graph {
	g := NewGraph("NS1-interactome")
	mols := []struct {
		id  string
		typ MoleculeType
	}{
		{"NS1", ProteinMol}, {"PKR", ProteinMol}, {"TRIM25", ProteinMol},
		{"CPSF30", ProteinMol}, {"EIF2A", ProteinMol},
		{"RIG-I", ProteinMol}, {"MAVS", ProteinMol},
	}
	for _, m := range mols {
		if _, err := g.AddMolecule(m.id, m.id, m.typ); err != nil {
			t.Fatal(err)
		}
	}
	edges := []struct{ a, b, kind string }{
		{"NS1", "PKR", "inhibits"},
		{"NS1", "TRIM25", "binds"},
		{"NS1", "CPSF30", "binds"},
		{"PKR", "EIF2A", "phosphorylates"},
		{"RIG-I", "MAVS", "signals"},
	}
	for _, e := range edges {
		if err := g.AddInteraction(e.a, e.b, e.kind, 0.9); err != nil {
			t.Fatal(err)
		}
	}
	return g
}

func TestAddMolecule(t *testing.T) {
	g := NewGraph("x")
	if _, err := g.AddMolecule("", "x", ProteinMol); err == nil {
		t.Fatal("empty id accepted")
	}
	if _, err := g.AddMolecule("a", "A", GeneMol); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AddMolecule("a", "A2", GeneMol); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate: err = %v", err)
	}
	m, ok := g.Molecule("a")
	if !ok || m.Type != GeneMol {
		t.Fatalf("Molecule = %+v, %v", m, ok)
	}
}

func TestAddInteractionErrors(t *testing.T) {
	g := NewGraph("x")
	_, _ = g.AddMolecule("a", "A", ProteinMol)
	if err := g.AddInteraction("a", "a", "binds", 1); !errors.Is(err, ErrSelfEdge) {
		t.Fatalf("self edge: err = %v", err)
	}
	if err := g.AddInteraction("a", "ghost", "binds", 1); !errors.Is(err, ErrNoMolecule) {
		t.Fatalf("ghost: err = %v", err)
	}
}

func TestNeighborsAndDegree(t *testing.T) {
	g := ns1Graph(t)
	nbs, err := g.Neighbors("NS1")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"CPSF30", "PKR", "TRIM25"}
	if len(nbs) != 3 {
		t.Fatalf("neighbors = %v", nbs)
	}
	for i := range want {
		if nbs[i] != want[i] {
			t.Fatalf("neighbors = %v, want %v", nbs, want)
		}
	}
	if len(g.adj["NS1"]) != 3 || len(g.adj["EIF2A"]) != 1 {
		t.Fatal("degree wrong")
	}
	if _, err := g.Neighbors("ghost"); !errors.Is(err, ErrNoMolecule) {
		t.Fatalf("ghost: err = %v", err)
	}
	if len(g.Molecules()) != 7 || len(g.Interactions()) != 5 {
		t.Fatalf("counts = %d/%d", len(g.Molecules()), len(g.Interactions()))
	}
}

func TestInteractionsEmittedOnce(t *testing.T) {
	g := ns1Graph(t)
	es := g.Interactions()
	if len(es) != 5 {
		t.Fatalf("interactions = %d", len(es))
	}
	for _, e := range es {
		if e.A >= e.B {
			t.Fatalf("edge not normalised: %+v", e)
		}
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := ns1Graph(t)
	sg, err := g.InducedSubgraph("NS1", "PKR", "EIF2A")
	if err != nil {
		t.Fatal(err)
	}
	if len(sg.Molecules) != 3 || len(sg.Edges) != 2 {
		t.Fatalf("subgraph = %+v", sg)
	}
	if strings.Join(sg.Molecules, "|") != "EIF2A|NS1|PKR" {
		t.Fatalf("molecules = %q", sg.Molecules)
	}
	// Edges must stay inside the set: NS1-TRIM25 excluded.
	for _, e := range sg.Edges {
		if e.A == "TRIM25" || e.B == "TRIM25" {
			t.Fatal("edge outside subset")
		}
	}
	if _, err := g.InducedSubgraph(); !errors.Is(err, ErrEmptySubset) {
		t.Fatalf("empty: err = %v", err)
	}
	if _, err := g.InducedSubgraph("ghost"); !errors.Is(err, ErrNoMolecule) {
		t.Fatalf("ghost: err = %v", err)
	}
}

func TestNeighborhood(t *testing.T) {
	g := ns1Graph(t)
	sg, err := g.Neighborhood("NS1", 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sg.Molecules) != 4 {
		t.Fatalf("1-hop = %v", sg.Molecules)
	}
	sg, _ = g.Neighborhood("NS1", 2)
	if len(sg.Molecules) != 5 { // adds EIF2A
		t.Fatalf("2-hop = %v", sg.Molecules)
	}
	sg, _ = g.Neighborhood("NS1", 0)
	if len(sg.Molecules) != 1 {
		t.Fatalf("0-hop = %v", sg.Molecules)
	}
}

func TestComponents(t *testing.T) {
	g := ns1Graph(t)
	comps := g.Components()
	if len(comps) != 2 {
		t.Fatalf("components = %d", len(comps))
	}
	if len(comps[0]) != 5 || len(comps[1]) != 2 {
		t.Fatalf("component sizes = %d, %d", len(comps[0]), len(comps[1]))
	}
	if comps[1][0] != "MAVS" || comps[1][1] != "RIG-I" {
		t.Fatalf("second component = %v", comps[1])
	}
}

// TestQuickInducedSubgraphInvariants: induced edges always join molecules
// inside the subset, and the full-set induction returns every edge.
func TestQuickInducedSubgraphInvariants(t *testing.T) {
	check := func(n uint8, edges []uint16, pick []bool) bool {
		nodes := int(n%12) + 2
		g := NewGraph("q")
		for i := 0; i < nodes; i++ {
			if _, err := g.AddMolecule(fmt.Sprintf("m%02d", i), "", ProteinMol); err != nil {
				return false
			}
		}
		for _, e := range edges {
			a := int(e) % nodes
			b := int(e>>4) % nodes
			if a != b {
				_ = g.AddInteraction(fmt.Sprintf("m%02d", a), fmt.Sprintf("m%02d", b), "binds", 0.5)
			}
		}
		var subset []string
		for i := 0; i < nodes; i++ {
			if i < len(pick) && pick[i] {
				subset = append(subset, fmt.Sprintf("m%02d", i))
			}
		}
		if len(subset) == 0 {
			subset = []string{"m00"}
		}
		sg, err := g.InducedSubgraph(subset...)
		if err != nil {
			return false
		}
		inSet := map[string]bool{}
		for _, m := range sg.Molecules {
			inSet[m] = true
		}
		for _, e := range sg.Edges {
			if !inSet[e.A] || !inSet[e.B] {
				return false
			}
		}
		full, err := g.InducedSubgraph(g.Molecules()...)
		if err != nil {
			return false
		}
		return len(full.Edges) == len(g.Interactions())
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Neighborhood returns the subgraph induced by id and everything within
// the given number of hops.
func (g *Graph) Neighborhood(id string, hops int) (*Subgraph, error) {
	if _, ok := g.molecules[id]; !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoMolecule, id)
	}
	seen := map[string]bool{id: true}
	frontier := []string{id}
	for h := 0; h < hops; h++ {
		var next []string
		for _, cur := range frontier {
			nbs, _ := g.Neighbors(cur)
			for _, nb := range nbs {
				if !seen[nb] {
					seen[nb] = true
					next = append(next, nb)
				}
			}
		}
		frontier = next
	}
	ids := make([]string, 0, len(seen))
	for m := range seen {
		ids = append(ids, m)
	}
	return g.InducedSubgraph(ids...)
}

// Components returns the connected components as sorted slices of molecule
// IDs, largest first (ties by first element).
func (g *Graph) Components() [][]string {
	seen := map[string]bool{}
	var comps [][]string
	for _, start := range g.Molecules() {
		if seen[start] {
			continue
		}
		var comp []string
		queue := []string{start}
		seen[start] = true
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			comp = append(comp, cur)
			nbs, _ := g.Neighbors(cur)
			for _, nb := range nbs {
				if !seen[nb] {
					seen[nb] = true
					queue = append(queue, nb)
				}
			}
		}
		sort.Strings(comp)
		comps = append(comps, comp)
	}
	sort.Slice(comps, func(i, j int) bool {
		if len(comps[i]) != len(comps[j]) {
			return len(comps[i]) > len(comps[j])
		}
		return comps[i][0] < comps[j][0]
	})
	return comps
}

// Neighbors returns the distinct molecules interacting with id, sorted.
func (g *Graph) Neighbors(id string) ([]string, error) {
	if _, ok := g.molecules[id]; !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoMolecule, id)
	}
	seen := map[string]bool{}
	var out []string
	for _, e := range g.adj[id] {
		peer := e.A
		if peer == id {
			peer = e.B
		}
		if !seen[peer] {
			seen[peer] = true
			out = append(out, peer)
		}
	}
	sort.Strings(out)
	return out, nil
}
