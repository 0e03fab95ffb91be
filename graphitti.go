// Package graphitti is an annotation management system for heterogeneous
// scientific objects, reproducing Gupta, Condit & Gupta, "Graphitti: An
// Annotation Management System for Heterogeneous Objects" (ICDE 2008).
//
// Graphitti treats an annotation as a linker object connecting an XML
// content document (Dublin Core plus user-defined tags) to one or more
// referents — marked sub-structures of heterogeneous data objects: DNA/RNA/
// protein sequence intervals, image regions registered to shared
// coordinate systems, phylogenetic-tree clades, interaction-graph
// subgraphs, alignment blocks and relational record sets — and to ontology
// terms. Contents and referents induce the a-graph, a directed labeled
// multigraph acting as a general-purpose labeled join index; annotations
// sharing a referent become indirectly related.
//
// The root package is a facade over the internal engine:
//
//	store := graphitti.New()
//	seq, _ := graphitti.NewDNA("NC_007362", "ACGT...")
//	store.RegisterSequence(seq)
//	mark, _ := store.View().MarkSequenceInterval("NC_007362", graphitti.Span(100, 240))
//	store.Commit(store.NewAnnotation().
//	        Creator("gupta").Date("2007-11-02").
//	        Body("protease cleavage site").Refer(mark))
//
// A read runs on a pinned view: store.View() returns one, and several
// reads that must agree share it. Queries run either through the view's
// compositional API (SearchContents, ReferentsOverlapping,
// RelatedAnnotations, DerivedFrom, DerivedOnto, …) or through the
// SPARQL-like graph query language (NewProcessor / Execute; see package
// internal/query). The two queries demonstrated in the paper are available
// directly as QueryTP53Images (the intro's "protein.TP53 … Deep Cerebellar
// nuclei" query) and QueryConsecutiveKeyword (the query tab's "4
// consecutive non-overlapping protease intervals").
package graphitti

import (
	"io"

	"graphitti/internal/agraph"
	"graphitti/internal/biodata/imaging"
	"graphitti/internal/biodata/interact"
	"graphitti/internal/biodata/msa"
	"graphitti/internal/biodata/phylo"
	"graphitti/internal/biodata/seq"
	"graphitti/internal/core"
	"graphitti/internal/interval"
	"graphitti/internal/ontology"
	"graphitti/internal/persist"
	"graphitti/internal/prop"
	"graphitti/internal/query"
	"graphitti/internal/rtree"
)

// Core model re-exports.
type (
	// Store is the annotation management system.
	Store = core.Store
	// View is an immutable snapshot of a store: Store.View() pins one,
	// and every read method runs lock-free against it. Pin a view when
	// several reads must observe the same consistent state.
	View = core.View
	// Annotation is a committed linker object.
	Annotation = core.Annotation
	// Builder assembles an annotation for Commit.
	Builder = core.Builder
	// Referent is a marked sub-structure.
	Referent = core.Referent
	// TermRef points at an ontology term.
	TermRef = core.TermRef
	// ObjectType names a registered data type.
	ObjectType = core.ObjectType
	// Stats summarises store contents.
	Stats = core.Stats
	// CorrelatedItem is an entry of the correlated-data view.
	CorrelatedItem = core.CorrelatedItem

	// Interval is a half-open 1-D range.
	Interval = interval.Interval
	// Rect is an axis-aligned 2-D/3-D box.
	Rect = rtree.Rect

	// Sequence is a DNA/RNA/protein sequence.
	Sequence = seq.Sequence
	// Alignment is a multiple sequence alignment.
	Alignment = msa.Alignment
	// PhyloTree is a phylogenetic tree.
	PhyloTree = phylo.Tree
	// InteractionGraph is a molecular interaction graph.
	InteractionGraph = interact.Graph
	// Image is a registered image.
	Image = imaging.Image
	// CoordinateSystem is a shared spatial reference.
	CoordinateSystem = imaging.CoordinateSystem
	// Ontology is a term graph.
	Ontology = ontology.Ontology

	// Rule is a propagation rule: a trigger selecting source annotations
	// plus an edge (overlap, coregistered, closure, shared-referent)
	// producing derived annotations.
	Rule = prop.Rule
	// PropagationEngine is a handle that adds and deletes a store's rules.
	PropagationEngine = prop.Engine
	// DerivedFact is one materialized derived annotation with provenance.
	DerivedFact = core.DerivedFact

	// Processor executes the graph query language.
	Processor = query.Processor
	// QueryOptions tune query execution: a cap on the matches.
	QueryOptions = query.Options
	// QueryResult is a query outcome.
	QueryResult = query.Result
	// Subgraph is a connection subgraph.
	Subgraph = agraph.Subgraph
	// Path is an a-graph path.
	Path = agraph.Path
	// NodeRef identifies an a-graph node.
	NodeRef = agraph.NodeRef
)

// Object types of the demonstration studies.
const (
	TypeDNA         = core.TypeDNA
	TypeRNA         = core.TypeRNA
	TypeProtein     = core.TypeProtein
	TypeAlignment   = core.TypeAlignment
	TypeTree        = core.TypeTree
	TypeInteraction = core.TypeInteraction
	TypeImage       = core.TypeImage
	TypeRecord      = core.TypeRecord
)

// The propagation edges (see internal/prop).
const (
	EdgeOverlap         = prop.EdgeOverlap
	EdgeCoRegistered    = prop.EdgeCoRegistered
	EdgeOntologyClosure = prop.EdgeOntologyClosure
	EdgeSharedReferent  = prop.EdgeSharedReferent
)

// New returns an empty Graphitti store.
func New() *Store { return core.NewStore() }

// AddRule registers a propagation rule on the store and materializes its
// derived annotations. Subsequent commits and deletes maintain them
// incrementally.
func AddRule(s *Store, r Rule) error { return prop.Attach(s).AddRule(r) }

// DeleteRule removes a propagation rule and every fact it derived.
func DeleteRule(s *Store, id string) error { return prop.Attach(s).DeleteRule(id) }

// Rules returns the propagation rules of the store's current view, sorted
// by ID: the ones its derived annotations were computed under.
func Rules(s *Store) []Rule { return prop.RulesOf(s.View()) }

// NewProcessor returns a query processor bound to a store.
func NewProcessor(s *Store) *Processor { return query.NewProcessor(s) }

// DefaultQueryOptions sets no cap beyond the query's own limit.
var DefaultQueryOptions = query.DefaultOptions

// Span returns the half-open interval [lo, hi).
func Span(lo, hi int64) Interval { return Interval{Lo: lo, Hi: hi} }

// Rect2D returns a 2-D rectangle.
func Rect2D(x0, y0, x1, y1 float64) Rect { return rtree.Rect2D(x0, y0, x1, y1) }

// Rect3D returns a 3-D box.
func Rect3D(x0, y0, z0, x1, y1, z1 float64) Rect {
	return rtree.Rect3D(x0, y0, z0, x1, y1, z1)
}

// NewDNA validates and returns a DNA sequence.
func NewDNA(id, residues string) (*Sequence, error) { return seq.New(id, seq.DNA, residues) }

// NewRNA validates and returns an RNA sequence.
func NewRNA(id, residues string) (*Sequence, error) { return seq.New(id, seq.RNA, residues) }

// NewProtein validates and returns a protein sequence.
func NewProtein(id, residues string) (*Sequence, error) {
	return seq.New(id, seq.Protein, residues)
}

// NewOntology returns an empty named ontology.
func NewOntology(name string) *Ontology { return ontology.New(name) }

// ParseNewick parses a phylogenetic tree from Newick text.
func ParseNewick(id, src string) (*PhyloTree, error) { return phylo.ParseNewick(id, src) }

// NewInteractionGraph returns an empty interaction graph.
func NewInteractionGraph(id string) *InteractionGraph { return interact.NewGraph(id) }

// NewAlignment validates and returns a multiple sequence alignment.
func NewAlignment(id string, rowIDs, rows []string) (*Alignment, error) {
	return msa.New(id, rowIDs, rows)
}

// NewCoordinateSystem validates and returns a coordinate system.
func NewCoordinateSystem(name string, bounds Rect) (*CoordinateSystem, error) {
	return imaging.NewCoordinateSystem(name, bounds)
}

// NewImage validates and returns an image registered into a coordinate
// system by the given affine registration.
func NewImage(id, system string, local Rect, reg imaging.Registration) (*Image, error) {
	return imaging.NewImage(id, system, local, reg)
}

// IdentityRegistration maps image-local coordinates 1:1 into the system.
func IdentityRegistration(dims int) imaging.Registration { return imaging.Identity(dims) }

// Save writes the store as a portable JSON snapshot. Load rebuilds a store
// by replaying the snapshot through the normal registration and commit
// pipeline (see internal/persist).
func Save(s *Store, w io.Writer) error { return persist.Write(s, w) }

// Load rebuilds a store from a snapshot produced by Save.
func Load(r io.Reader) (*Store, error) { return persist.Read(r) }
