// Package query implements Graphitti's graph query language and its
// processor.
//
// The paper: "Queries in Graphitti are essentially graph queries that
// resemble SPARQL expressions extended to handle (i) XQuery-like path
// expressions on a-graphs, (ii) type-specific predicates on interval
// trees, (iii) XQuery fragments to retrieve fragments of annotation. The
// result of a query can be (a) a collection of heterogeneous substructures
// (b) fragments of XML documents and (c) connection subgraphs. The query
// processor operates by separating subqueries that belong to the different
// types of data elements, finding a feasible order among these subqueries,
// and collating partial results from these subqueries into a set of
// type-extended connection subgraphs."
//
// The processor resolves each variable's sub-query against one pinned
// store view, orders the variables with a cost-based planner (candidate
// counts plus a-graph degree sampling; see plan.go), and joins with a
// backtracking executor that binds pattern-connected variables by
// semi-join enumeration of the bound endpoint's edges. Stats carries
// the chosen plan — order, per-variable cost estimates and strategies —
// as the explain surface.
//
// A query looks like:
//
//	select graph
//	where {
//	  ?a isa annotation ; contains "protease" .
//	  ?r isa referent ; kind interval ; domain "segment4" ; overlaps [100, 240) .
//	  ?o isa object ; type dna_sequences .
//	  ?a annotates ?r .
//	  ?r marks ?o .
//	}
//	constrain disjoint(?r1, ?r2)
//
// Node classes are annotation, referent, object and term; edge patterns use
// the a-graph labels annotates, marks and refersTo. The constrain clause
// applies SUB_X-level graph constraints (disjoint, overlapping,
// consecutive, samedomain) to referent bindings — the paper's "conditions
// on the nodes, node groups, and graphs".
package query

import (
	"fmt"

	"graphitti/internal/interval"
	"graphitti/internal/rtree"
	"graphitti/internal/xquery"
)

// SelectKind chooses the result form, per the paper's three result types.
type SelectKind uint8

// Result forms.
const (
	// SelectContents returns annotation contents.
	SelectContents SelectKind = iota
	// SelectReferents returns heterogeneous sub-structures.
	SelectReferents
	// SelectGraph returns connection subgraphs.
	SelectGraph
)

func (k SelectKind) String() string {
	switch k {
	case SelectContents:
		return "contents"
	case SelectReferents:
		return "referents"
	default:
		return "graph"
	}
}

// NodeClass classifies a query variable.
type NodeClass uint8

// Variable classes, one per data-element type the processor separates
// sub-queries over.
const (
	ClassAnnotation NodeClass = iota
	ClassReferent
	ClassObject
	ClassTerm
)

func (c NodeClass) String() string {
	switch c {
	case ClassAnnotation:
		return "annotation"
	case ClassReferent:
		return "referent"
	case ClassObject:
		return "object"
	default:
		return "term"
	}
}

// PropKind enumerates per-class property predicates.
type PropKind uint8

// Property predicates.
const (
	// PropContains (annotation): content keyword containment.
	PropContains PropKind = iota
	// PropCreator (annotation): Dublin Core creator equality.
	PropCreator
	// PropXPath (annotation): a path expression that must be truthy.
	PropXPath
	// PropKindIs (referent): referent kind equality.
	PropKindIs
	// PropDomain (referent): coordinate domain equality.
	PropDomain
	// PropObjectIs (referent): marked object ID equality.
	PropObjectIs
	// PropOverlapsIv (referent): interval overlap.
	PropOverlapsIv
	// PropOverlapsRect (referent): region overlap.
	PropOverlapsRect
	// PropType (object): object type equality.
	PropType
	// PropID (object): object ID equality.
	PropID
	// PropOntology (term): owning ontology equality.
	PropOntology
	// PropTermIs (term): exact term ID.
	PropTermIs
	// PropUnder (term): term is the named concept or one of its instances
	// (CI closure).
	PropUnder
	// PropNamed (term): term's display name or a synonym equals the
	// operand (the GUI's ontology browser works by name, not ID).
	PropNamed
	// PropDerived (annotation): the annotation is the source of at least
	// one derived fact, optionally restricted to a rule ID ("*" = any).
	PropDerived
	// PropProvenance (any class): the node is the target of at least one
	// derived fact, optionally restricted to a rule ID ("*" = any) —
	// i.e. something was propagated onto it and can be traced back.
	PropProvenance
)

// String names the predicate as it appears in query source — the label
// the per-predicate query metrics and validation errors use.
func (k PropKind) String() string {
	switch k {
	case PropContains:
		return "contains"
	case PropCreator:
		return "creator"
	case PropXPath:
		return "xpath"
	case PropKindIs:
		return "kind"
	case PropDomain:
		return "domain"
	case PropObjectIs:
		return "object"
	case PropOverlapsIv:
		return "overlaps-interval"
	case PropOverlapsRect:
		return "overlaps-region"
	case PropType:
		return "type"
	case PropID:
		return "id"
	case PropOntology:
		return "ontology"
	case PropTermIs:
		return "term"
	case PropUnder:
		return "under"
	case PropNamed:
		return "named"
	case PropDerived:
		return "derived"
	case PropProvenance:
		return "provenance"
	}
	return fmt.Sprintf("prop(%d)", uint8(k))
}

// Prop is one property predicate attached to a variable.
type Prop struct {
	Kind PropKind
	Str  string
	Iv   interval.Interval
	Rect rtree.Rect

	xpath *xquery.Query // PropXPath's expression, compiled by Parse
	token string        // PropContains's word, normalized by Parse (core.NormalizeKeyword)
}

// VarDecl declares a query variable with its class and property
// predicates.
type VarDecl struct {
	Name  string
	Class NodeClass
	Props []Prop
}

// EdgePattern requires an a-graph edge with the given label between the
// bindings of two variables.
type EdgePattern struct {
	From, To string // variable names
	Label    string // "annotates", "marks", "refersTo"
}

// ConstraintKind enumerates graph constraints over referent bindings.
type ConstraintKind uint8

// Graph constraints.
const (
	// ConstraintDisjoint: the referents' marks are pairwise non-overlapping.
	ConstraintDisjoint ConstraintKind = iota
	// ConstraintOverlapping: the referents' marks pairwise overlap.
	ConstraintOverlapping
	// ConstraintConsecutive: interval referents can be ordered so each
	// ends at or before the next begins (the paper's "4 consecutive
	// non-overlapping intervals").
	ConstraintConsecutive
	// ConstraintSameDomain: the referents share a coordinate domain.
	ConstraintSameDomain
	// ConstraintDistinct: the variables bind to distinct nodes.
	ConstraintDistinct
)

func (k ConstraintKind) String() string {
	switch k {
	case ConstraintDisjoint:
		return "disjoint"
	case ConstraintOverlapping:
		return "overlapping"
	case ConstraintConsecutive:
		return "consecutive"
	case ConstraintSameDomain:
		return "samedomain"
	default:
		return "distinct"
	}
}

// Constraint applies a ConstraintKind to a variable group.
type Constraint struct {
	Kind ConstraintKind
	Vars []string
}

// Query is a parsed query.
type Query struct {
	Select      SelectKind
	Vars        []VarDecl
	Edges       []EdgePattern
	Constraints []Constraint
	// Limit caps the number of matches (0 = unlimited); set by the
	// optional "limit N" clause.
	Limit int

	varIndex map[string]int
}

// Var returns the declaration of a named variable.
func (q *Query) Var(name string) (*VarDecl, bool) {
	i, ok := q.varIndex[name]
	if !ok {
		return nil, false
	}
	return &q.Vars[i], true
}

// Components groups the query's variables by the edge patterns that join
// them: two variables are in one group when a chain of edges links them.
// Each group lists its variables in declaration order, and the groups
// come in the order of their first variable. A pattern of more than one
// group asks for the cross product of the groups' answers.
func (q *Query) Components() [][]string {
	root := make([]int, len(q.Vars))
	for i := range root {
		root[i] = i
	}
	find := func(i int) int {
		for root[i] != i {
			i = root[i]
		}
		return i
	}
	for _, e := range q.Edges {
		a, b := find(q.varIndex[e.From]), find(q.varIndex[e.To])
		root[max(a, b)] = min(a, b)
	}
	var groups [][]string
	at := map[int]int{} // a group's root → its index in groups
	for i, v := range q.Vars {
		r := find(i)
		g, ok := at[r]
		if !ok {
			g, at[r] = len(groups), len(groups)
			groups = append(groups, nil)
		}
		groups[g] = append(groups[g], v.Name)
	}
	return groups
}

func (q *Query) validate() error {
	if len(q.Vars) == 0 {
		return fmt.Errorf("%w: the query declares no variable", ErrSyntax)
	}
	q.varIndex = make(map[string]int, len(q.Vars))
	for i, v := range q.Vars {
		if _, dup := q.varIndex[v.Name]; dup {
			return fmt.Errorf("%w: variable ?%s declared twice", ErrSyntax, v.Name)
		}
		q.varIndex[v.Name] = i
	}
	for _, e := range q.Edges {
		from, ok := q.Var(e.From)
		if !ok {
			return fmt.Errorf("%w: edge references undeclared ?%s", ErrSyntax, e.From)
		}
		to, ok := q.Var(e.To)
		if !ok {
			return fmt.Errorf("%w: edge references undeclared ?%s", ErrSyntax, e.To)
		}
		switch e.Label {
		case "annotates":
			if from.Class != ClassAnnotation || to.Class != ClassReferent {
				return fmt.Errorf("%w: annotates joins annotation to referent, got %s to %s", ErrSyntax, from.Class, to.Class)
			}
		case "marks":
			if from.Class != ClassReferent || to.Class != ClassObject {
				return fmt.Errorf("%w: marks joins referent to object, got %s to %s", ErrSyntax, from.Class, to.Class)
			}
		case "refersTo":
			if from.Class != ClassAnnotation || to.Class != ClassTerm {
				return fmt.Errorf("%w: refersTo joins annotation to term, got %s to %s", ErrSyntax, from.Class, to.Class)
			}
		default:
			return fmt.Errorf("%w: unknown edge label %q", ErrSyntax, e.Label)
		}
	}
	for _, c := range q.Constraints {
		if len(c.Vars) < 2 {
			return fmt.Errorf("%w: constraint %s needs at least two variables", ErrSyntax, c.Kind)
		}
		for _, name := range c.Vars {
			v, ok := q.Var(name)
			if !ok {
				return fmt.Errorf("%w: constraint references undeclared ?%s", ErrSyntax, name)
			}
			if c.Kind != ConstraintDistinct && v.Class != ClassReferent {
				return fmt.Errorf("%w: constraint %s applies to referent variables, ?%s is a %s", ErrSyntax, c.Kind, name, v.Class)
			}
		}
	}
	// Property/class compatibility.
	for _, v := range q.Vars {
		for _, p := range v.Props {
			if !propAllowed(v.Class, p.Kind) {
				return fmt.Errorf("%w: property %s not valid on %s ?%s", ErrSyntax, p.Kind, v.Class, v.Name)
			}
		}
	}
	return nil
}

func propAllowed(c NodeClass, p PropKind) bool {
	switch p {
	case PropContains, PropCreator, PropXPath:
		return c == ClassAnnotation
	case PropKindIs, PropDomain, PropObjectIs, PropOverlapsIv, PropOverlapsRect:
		return c == ClassReferent
	case PropType, PropID:
		return c == ClassObject
	case PropOntology, PropTermIs, PropUnder, PropNamed:
		return c == ClassTerm
	case PropDerived:
		return c == ClassAnnotation
	case PropProvenance:
		return true
	default:
		return false
	}
}
