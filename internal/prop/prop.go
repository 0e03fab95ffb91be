// Package prop is Graphitti's propagation engine: it materializes
// derived annotations from committed ones, driven by rules, and
// maintains them incrementally as annotations commit and delete.
//
// The paper's core observation is that annotations on one object
// implicitly annotate related objects — "if the same referent is
// connected to two different annotations … the two annotations become
// indirectly related" — and the a-graph makes that relatedness
// queryable. This package makes it *material*: a Rule names a trigger
// (which committed annotations fire it) and a propagation edge (how the
// derived targets are found), and the engine keeps the set of derived
// facts exactly consistent with the committed state. Following "On
// Anomalies in Annotation Systems" (Brust & Rothkugel), maintenance is
// anomaly-free: a mutation and its derived consequences publish as one
// core.View, so readers never observe a stale or orphaned derived fact.
// Every fact carries provenance (rule ID, source annotation, edge
// witness), per the AGTK line of work on traceable annotations.
//
// # Propagation edges
//
//   - EdgeOverlap: a triggering interval/region referent of the source
//     propagates to every referent overlapping it in the same coordinate
//     domain / system (SUB_X ifOverlap, answered by the interval.Tree /
//     rtree.Tree values of the pinned view).
//   - EdgeCoRegistered: a region referent propagates to every other
//     image registered into the same coordinate system whose footprint
//     overlaps the region (the biodata registration maps).
//   - EdgeOntologyClosure: an ontology term reference propagates to the
//     term's ancestors under is_a/part_of (ontology.Ancestors) — marking
//     "serine protease" implicitly marks "protease" and "hydrolase".
//   - EdgeSharedReferent: one labeled a-graph hop, annotates ∘
//     annotatesᵀ — the source propagates to every annotation sharing one
//     of its referents (read from the a-graph of the same view: the
//     delta's pre and post views each hold their own).
//
// # Durability
//
// Rules are durable operations: the durable layer logs OpAddRule /
// OpDeleteRule and snapshots carry the rule set, while derived facts are
// never logged — they are epoch-tagged, recomputable state that recovery
// re-derives by replaying rules and commits in order.
//
// # Caveats
//
// Ontologies are consulted live: mutating a registered *ontology.Ontology
// in place (AddTerm/AddEdge after registration) does not retrigger
// propagation until the next affecting mutation or RecomputeDerived.
package prop

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"

	"graphitti/internal/ontology"
)

// Errors reported by the propagation engine.
var (
	ErrBadRule       = errors.New("prop: invalid rule")
	ErrDuplicateRule = errors.New("prop: duplicate rule")
	ErrNoSuchRule    = errors.New("prop: no such rule")
)

// EdgeKind names a propagation edge.
type EdgeKind string

// The propagation edges.
const (
	// EdgeOverlap propagates along SUB_X overlap within a coordinate
	// domain or system, via the spatial index snapshots.
	EdgeOverlap EdgeKind = "overlap"
	// EdgeCoRegistered propagates a region referent to co-registered
	// images of its coordinate system whose footprints overlap it.
	EdgeCoRegistered EdgeKind = "coregistered"
	// EdgeOntologyClosure propagates a term reference to the term's
	// ancestors (is_a/part_of by default).
	EdgeOntologyClosure EdgeKind = "closure"
	// EdgeSharedReferent propagates to annotations sharing a referent
	// with the source (one annotates-labeled a-graph hop each way).
	EdgeSharedReferent EdgeKind = "shared-referent"
)

// Rule is one propagation rule: a trigger selecting source annotations
// (and, for spatial edges, which of their referents participate) plus a
// propagation edge producing derived targets. The zero trigger matches
// every annotation. Rules serialize as JSON — the grammar of the HTTP
// rule API, the server's -rules file, and the persist snapshot.
type Rule struct {
	// ID names the rule; it is recorded in every fact's provenance.
	ID string `json:"id"`

	// Keyword, when set, requires the source annotation's content to
	// contain the (case-insensitive) keyword token.
	Keyword string `json:"keyword,omitempty"`
	// Ontology/Term, when Term is set, require the source annotation to
	// reference exactly that term. With EdgeOntologyClosure, Ontology
	// alone restricts which term references are expanded.
	Ontology string `json:"ontology,omitempty"`
	Term     string `json:"term,omitempty"`
	// Domain, when set, restricts which referents of the source trigger
	// spatial edges (the coordinate domain for intervals, the coordinate
	// system for regions).
	Domain string `json:"domain,omitempty"`
	// Kind, when set ("interval" or "region"), restricts the triggering
	// referent kind for spatial edges.
	Kind string `json:"kind,omitempty"`

	// Edge is the propagation edge.
	Edge EdgeKind `json:"edge"`
	// Relations restricts EdgeOntologyClosure's ancestor traversal;
	// empty means is_a + part_of.
	Relations []string `json:"relations,omitempty"`
}

// DefaultClosureRelations are the relations EdgeOntologyClosure traverses
// when a rule names none.
var DefaultClosureRelations = []string{ontology.IsA, ontology.PartOf}

// Validate checks the rule for structural problems.
func (r Rule) Validate() error {
	if r.ID == "" {
		return fmt.Errorf("%w: empty id", ErrBadRule)
	}
	switch r.Edge {
	case EdgeOverlap, EdgeCoRegistered, EdgeOntologyClosure, EdgeSharedReferent:
	default:
		return fmt.Errorf("%w: unknown edge %q", ErrBadRule, r.Edge)
	}
	switch r.Kind {
	case "", "interval", "region":
	default:
		return fmt.Errorf("%w: kind %q (want interval or region)", ErrBadRule, r.Kind)
	}
	if r.Term != "" && r.Ontology == "" {
		return fmt.Errorf("%w: term trigger %q needs an ontology", ErrBadRule, r.Term)
	}
	if len(r.Relations) > 0 && r.Edge != EdgeOntologyClosure {
		return fmt.Errorf("%w: relations only apply to the closure edge", ErrBadRule)
	}
	// Reject filters the edge would silently ignore or that make the
	// rule unable to ever fire — a 201 for a no-op rule helps nobody.
	if r.Edge == EdgeOntologyClosure && (r.Domain != "" || r.Kind != "") {
		return fmt.Errorf("%w: domain/kind filters do not apply to the closure edge", ErrBadRule)
	}
	if r.Edge == EdgeCoRegistered && r.Kind == "interval" {
		return fmt.Errorf("%w: the coregistered edge fires only on region marks", ErrBadRule)
	}
	return nil
}

// closureRelations returns the effective relation set of a closure rule.
func (r Rule) closureRelations() []string {
	if len(r.Relations) > 0 {
		return r.Relations
	}
	return DefaultClosureRelations
}

// ParseRules decodes a JSON array of rules (the -rules file format) and
// validates each.
func ParseRules(rd io.Reader) ([]Rule, error) {
	var rules []Rule
	if err := json.NewDecoder(rd).Decode(&rules); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadRule, err)
	}
	for _, r := range rules {
		if err := r.Validate(); err != nil {
			return nil, err
		}
	}
	return rules, nil
}

// sortRules orders rules by ID (the engine's canonical evaluation order).
func sortRules(rules []Rule) {
	sort.Slice(rules, func(i, j int) bool { return rules[i].ID < rules[j].ID })
}
