// Package ontology is Graphitti's OntoQuest-equivalent ontology engine.
//
// The paper models ontologies "as graphs whose nodes correspond to terms
// and edges are domain-specific quantified binary relationships between
// term pairs"; annotations "only point to ontology nodes". This package
// implements that model together with the operations the system calls:
//
//	CI(c)                 all instances of concept c
//	CmRI(c, R+)           instances of c restricted to a relation set
//	                      (the paper's CRI is CmRI with one relation)
//	SubTree(X, R')        the subtree under X restricted to relation R'
//
// Edges point from the more specific term to the more general one (child →
// parent), so "the instances/subtree under X" are the terms that can reach
// X. Graphs may be DAGs; traversals are cycle-safe and Validate reports
// cycles in the is_a hierarchy.
package ontology

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// Standard relation labels.
const (
	IsA        = "is_a"
	InstanceOf = "instance_of"
	PartOf     = "part_of"
)

// InstanceRelations are the relations CI traverses.
var InstanceRelations = []string{IsA, InstanceOf}

// Quantifier qualifies an edge, per the paper's "quantified binary
// relationships" (existential or universal).
type Quantifier uint8

// Edge quantifiers.
const (
	Some Quantifier = iota // existential (default)
	All                    // universal
)

func (q Quantifier) String() string {
	if q == All {
		return "all"
	}
	return "some"
}

// Errors reported by ontology operations.
var (
	ErrNoSuchTerm    = errors.New("ontology: no such term")
	ErrDuplicateTerm = errors.New("ontology: duplicate term")
	ErrCycle         = errors.New("ontology: cycle in hierarchy")
)

// Term is an ontology node.
type Term struct {
	ID       string
	Name     string
	Synonyms []string
	Def      string
}

// Edge is a directed, labeled, quantified relationship between two terms.
type Edge struct {
	From, To string
	Rel      string
	Quant    Quantifier
}

// Ontology is a term graph. All methods are safe for concurrent use.
type Ontology struct {
	name string

	mu    sync.RWMutex
	terms map[string]*Term
	out   map[string][]Edge // edges leaving a term (child -> parent)
	in    map[string][]Edge // edges entering a term
}

// New returns an empty ontology with the given name.
func New(name string) *Ontology {
	return &Ontology{
		name:  name,
		terms: make(map[string]*Term),
		out:   make(map[string][]Edge),
		in:    make(map[string][]Edge),
	}
}

// Name returns the ontology's name.
func (o *Ontology) Name() string { return o.name }

// Len reports the number of terms.
func (o *Ontology) Len() int {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return len(o.terms)
}

// EdgeCount reports the number of edges.
func (o *Ontology) EdgeCount() int {
	o.mu.RLock()
	defer o.mu.RUnlock()
	n := 0
	for _, es := range o.out {
		n += len(es)
	}
	return n
}

// AddTerm adds a term with the given ID and name.
func (o *Ontology) AddTerm(id, name string) (*Term, error) {
	if id == "" {
		return nil, fmt.Errorf("%w: empty id", ErrNoSuchTerm)
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, dup := o.terms[id]; dup {
		return nil, fmt.Errorf("%w: %s", ErrDuplicateTerm, id)
	}
	t := &Term{ID: id, Name: name}
	o.terms[id] = t
	return t, nil
}

// Term returns the term with the given ID.
func (o *Ontology) Term(id string) (*Term, bool) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	t, ok := o.terms[id]
	return t, ok
}

// Terms returns all term IDs, sorted.
func (o *Ontology) Terms() []string {
	o.mu.RLock()
	defer o.mu.RUnlock()
	out := make([]string, 0, len(o.terms))
	for id := range o.terms {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// TermByName returns the first term whose name or synonym equals name.
func (o *Ontology) TermByName(name string) (*Term, bool) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	var ids []string
	for id := range o.terms {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		t := o.terms[id]
		if t.Name == name {
			return t, true
		}
		for _, s := range t.Synonyms {
			if s == name {
				return t, true
			}
		}
	}
	return nil, false
}

// AddEdge adds a quantified relationship from the more specific term to the
// more general one. Both terms must exist.
func (o *Ontology) AddEdge(from, to, rel string, q Quantifier) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, ok := o.terms[from]; !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchTerm, from)
	}
	if _, ok := o.terms[to]; !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchTerm, to)
	}
	e := Edge{From: from, To: to, Rel: rel, Quant: q}
	o.out[from] = append(o.out[from], e)
	o.in[to] = append(o.in[to], e)
	return nil
}

// Parents returns the edges leaving id (child -> parent), optionally
// filtered to a relation set.
func (o *Ontology) Parents(id string, rels ...string) []Edge {
	o.mu.RLock()
	defer o.mu.RUnlock()
	return filterEdges(o.out[id], rels)
}

func filterEdges(es []Edge, rels []string) []Edge {
	if len(rels) == 0 {
		return append([]Edge(nil), es...)
	}
	allowed := make(map[string]bool, len(rels))
	for _, r := range rels {
		allowed[r] = true
	}
	var out []Edge
	for _, e := range es {
		if allowed[e.Rel] {
			out = append(out, e)
		}
	}
	return out
}

// CI returns the set of all instances of concept c: every term that can
// reach c through is_a / instance_of edges. The result is sorted and
// excludes c itself.
func (o *Ontology) CI(c string) ([]string, error) {
	return o.CmRI(c, InstanceRelations)
}

// CmRI returns the set of all instances of concept c restricted to the
// given relation types: every term that reaches c using only edges whose
// relation is in rels.
func (o *Ontology) CmRI(c string, rels []string) ([]string, error) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	if _, ok := o.terms[c]; !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchTerm, c)
	}
	seen := o.descendantsLocked(c, rels)
	delete(seen, c)
	return sortedKeys(seen), nil
}

// descendantsLocked returns c plus every term that reaches c via rels.
func (o *Ontology) descendantsLocked(c string, rels []string) map[string]bool {
	allowed := make(map[string]bool, len(rels))
	for _, r := range rels {
		allowed[r] = true
	}
	seen := map[string]bool{c: true}
	queue := []string{c}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range o.in[cur] {
			if len(rels) > 0 && !allowed[e.Rel] {
				continue
			}
			if !seen[e.From] {
				seen[e.From] = true
				queue = append(queue, e.From)
			}
		}
	}
	return seen
}

// Ancestors returns every term reachable from id through the given
// relations (child -> parent edges): the upward closure the propagation
// engine materializes, per the paper's "an annotation only points to
// ontology nodes" — pointing at a term implicitly annotates everything
// the term specializes. Empty rels means all relations. The result is
// sorted and excludes id itself; traversal is cycle-safe.
func (o *Ontology) Ancestors(id string, rels []string) ([]string, error) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	if _, ok := o.terms[id]; !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchTerm, id)
	}
	allowed := make(map[string]bool, len(rels))
	for _, r := range rels {
		allowed[r] = true
	}
	seen := map[string]bool{id: true}
	queue := []string{id}
	for len(queue) > 0 {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range o.out[cur] {
			if len(rels) > 0 && !allowed[e.Rel] {
				continue
			}
			if !seen[e.To] {
				seen[e.To] = true
				queue = append(queue, e.To)
			}
		}
	}
	delete(seen, id)
	return sortedKeys(seen), nil
}

// SubTree is the result of the SubTree operations: a root, the set of terms
// under it, and the edges of the induced restriction.
type SubTree struct {
	Root  string
	Terms []string // sorted; includes Root
	Edges []Edge
}

// Size returns the number of terms in the subtree.
func (s *SubTree) Size() int { return len(s.Terms) }

// SubTree returns the subtree under x restricted to the given relations
// (all relations when rels is empty).
func (o *Ontology) SubTree(x string, rels []string) (*SubTree, error) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	if _, ok := o.terms[x]; !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchTerm, x)
	}
	return o.subTreeLocked(x, rels), nil
}

func (o *Ontology) subTreeLocked(x string, rels []string) *SubTree {
	seen := o.descendantsLocked(x, rels)
	st := &SubTree{Root: x, Terms: sortedKeys(seen)}
	allowed := make(map[string]bool, len(rels))
	for _, r := range rels {
		allowed[r] = true
	}
	for _, id := range st.Terms {
		for _, e := range o.out[id] {
			if len(rels) > 0 && !allowed[e.Rel] {
				continue
			}
			if seen[e.To] {
				st.Edges = append(st.Edges, e)
			}
		}
	}
	sort.Slice(st.Edges, func(i, j int) bool {
		if st.Edges[i].From != st.Edges[j].From {
			return st.Edges[i].From < st.Edges[j].From
		}
		if st.Edges[i].To != st.Edges[j].To {
			return st.Edges[i].To < st.Edges[j].To
		}
		return st.Edges[i].Rel < st.Edges[j].Rel
	})
	return st
}

// Validate checks the is_a hierarchy for cycles.
func (o *Ontology) Validate() error {
	o.mu.RLock()
	defer o.mu.RUnlock()
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := make(map[string]uint8, len(o.terms))
	var visit func(id string) error
	visit = func(id string) error {
		color[id] = grey
		for _, e := range o.out[id] {
			if e.Rel != IsA {
				continue
			}
			switch color[e.To] {
			case grey:
				return fmt.Errorf("%w: %s -> %s", ErrCycle, id, e.To)
			case white:
				if err := visit(e.To); err != nil {
					return err
				}
			}
		}
		color[id] = black
		return nil
	}
	ids := make([]string, 0, len(o.terms))
	for id := range o.terms {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		if color[id] == white {
			if err := visit(id); err != nil {
				return err
			}
		}
	}
	return nil
}

// Roots returns the terms with no outgoing is_a edges, sorted.
func (o *Ontology) Roots() []string {
	o.mu.RLock()
	defer o.mu.RUnlock()
	var roots []string
	for id := range o.terms {
		isRoot := true
		for _, e := range o.out[id] {
			if e.Rel == IsA {
				isRoot = false
				break
			}
		}
		if isRoot {
			roots = append(roots, id)
		}
	}
	sort.Strings(roots)
	return roots
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
