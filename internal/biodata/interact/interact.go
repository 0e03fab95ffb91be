// Package interact models molecular interaction graphs, one of the data
// types in the paper's Avian-Influenza demonstration study ("interaction
// graphs").
//
// Nodes are molecules (proteins, genes, compounds); edges are typed
// interactions. Annotation marks on an interaction graph are subgraphs:
// a molecule set together with the interactions it induces.
package interact

import (
	"errors"
	"fmt"
	"sort"
)

// MoleculeType classifies a node.
type MoleculeType uint8

// Molecule types.
const (
	ProteinMol MoleculeType = iota
	GeneMol
	CompoundMol
)

func (t MoleculeType) String() string {
	switch t {
	case ProteinMol:
		return "protein"
	case GeneMol:
		return "gene"
	case CompoundMol:
		return "compound"
	default:
		return fmt.Sprintf("moltype(%d)", uint8(t))
	}
}

// Errors reported by interaction-graph operations.
var (
	ErrNoMolecule  = errors.New("interact: no such molecule")
	ErrDuplicate   = errors.New("interact: duplicate molecule")
	ErrSelfEdge    = errors.New("interact: self interaction")
	ErrEmptySubset = errors.New("interact: empty molecule subset")
)

// Molecule is a node of the interaction graph.
type Molecule struct {
	ID   string
	Name string
	Type MoleculeType
}

// Interaction is an edge: Kind is the interaction type (e.g. "binds",
// "phosphorylates"), Score an optional confidence.
type Interaction struct {
	A, B  string // molecule IDs; undirected, stored with A < B
	Kind  string
	Score float64
}

// Graph is a molecular interaction graph.
type Graph struct {
	// ID names the graph (e.g. "NS1-interactome").
	ID        string
	molecules map[string]*Molecule
	adj       map[string][]Interaction
}

// NewGraph returns an empty interaction graph.
func NewGraph(id string) *Graph {
	return &Graph{
		ID:        id,
		molecules: make(map[string]*Molecule),
		adj:       make(map[string][]Interaction),
	}
}

// AddMolecule adds a node.
func (g *Graph) AddMolecule(id, name string, typ MoleculeType) (*Molecule, error) {
	if id == "" {
		return nil, fmt.Errorf("%w: empty id", ErrNoMolecule)
	}
	if _, dup := g.molecules[id]; dup {
		return nil, fmt.Errorf("%w: %s", ErrDuplicate, id)
	}
	m := &Molecule{ID: id, Name: name, Type: typ}
	g.molecules[id] = m
	return m, nil
}

// Molecule returns the node with the given ID.
func (g *Graph) Molecule(id string) (*Molecule, bool) {
	m, ok := g.molecules[id]
	return m, ok
}

// Molecules returns all molecule IDs, sorted.
func (g *Graph) Molecules() []string {
	out := make([]string, 0, len(g.molecules))
	for id := range g.molecules {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// AddInteraction adds an undirected typed edge between two molecules.
func (g *Graph) AddInteraction(a, b, kind string, score float64) error {
	if a == b {
		return fmt.Errorf("%w: %s", ErrSelfEdge, a)
	}
	if _, ok := g.molecules[a]; !ok {
		return fmt.Errorf("%w: %s", ErrNoMolecule, a)
	}
	if _, ok := g.molecules[b]; !ok {
		return fmt.Errorf("%w: %s", ErrNoMolecule, b)
	}
	if a > b {
		a, b = b, a
	}
	e := Interaction{A: a, B: b, Kind: kind, Score: score}
	g.adj[a] = append(g.adj[a], e)
	g.adj[b] = append(g.adj[b], e)
	return nil
}

// Interactions returns all edges, sorted by (A, B, Kind).
func (g *Graph) Interactions() []Interaction {
	var out []Interaction
	for id, es := range g.adj {
		for _, e := range es {
			if e.A == id { // emit each undirected edge once
				out = append(out, e)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		if out[i].B != out[j].B {
			return out[i].B < out[j].B
		}
		return out[i].Kind < out[j].Kind
	})
	return out
}

// Subgraph is an annotation mark on an interaction graph: a molecule set
// plus the induced interactions.
type Subgraph struct {
	GraphID   string
	Molecules []string // sorted
	Edges     []Interaction
}

// InducedSubgraph returns the subgraph induced by the given molecule IDs.
func (g *Graph) InducedSubgraph(ids ...string) (*Subgraph, error) {
	if len(ids) == 0 {
		return nil, ErrEmptySubset
	}
	set := make(map[string]bool, len(ids))
	for _, id := range ids {
		if _, ok := g.molecules[id]; !ok {
			return nil, fmt.Errorf("%w: %s", ErrNoMolecule, id)
		}
		set[id] = true
	}
	sg := &Subgraph{GraphID: g.ID}
	for id := range set {
		sg.Molecules = append(sg.Molecules, id)
	}
	sort.Strings(sg.Molecules)
	for _, id := range sg.Molecules {
		for _, e := range g.adj[id] {
			if e.A == id && set[e.B] {
				sg.Edges = append(sg.Edges, e)
			}
		}
	}
	sort.Slice(sg.Edges, func(i, j int) bool {
		if sg.Edges[i].A != sg.Edges[j].A {
			return sg.Edges[i].A < sg.Edges[j].A
		}
		return sg.Edges[i].B < sg.Edges[j].B
	})
	return sg, nil
}
