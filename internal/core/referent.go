// Package core implements Graphitti's annotation model — the paper's
// primary contribution.
//
// An annotation is a "linker object" connecting an annotation content (an
// XML document with Dublin Core and user-defined elements) to one or more
// annotation referents (marked sub-structures of heterogeneous data
// objects) and to ontology terms. Committing an annotation updates the
// annotation and referent tables, the per-domain interval trees and
// per-system R-trees, and the a-graph that joins everything together.
package core

import (
	"errors"
	"fmt"
	"strings"

	"graphitti/internal/interval"
	"graphitti/internal/rtree"
	"graphitti/internal/subx"
)

// ObjectType names a registered data type. The paper's "DNA sequences,
// protein sequences, images etc. all have their metadata stored in
// separate tables" is the view's per-type registries: one keyed
// collection per type, holding the objects in their native form, and the
// copy every reader uses — mark constructors, the query processor, the
// exporter, every route. There is no second, relational copy of them.
type ObjectType string

// The data types of the two demonstration studies.
const (
	TypeDNA         ObjectType = "dna_sequences"
	TypeRNA         ObjectType = "rna_sequences"
	TypeProtein     ObjectType = "protein_sequences"
	TypeAlignment   ObjectType = "alignments"
	TypeTree        ObjectType = "phylo_trees"
	TypeInteraction ObjectType = "interaction_graphs"
	TypeImage       ObjectType = "images"
	TypeRecord      ObjectType = "records"
)

// ReferentKind discriminates the mark shapes of the heterogeneous data
// types.
type ReferentKind uint8

// Referent kinds.
const (
	// IntervalReferent marks a sub-interval of a sequence, addressed in
	// the sequence's shared coordinate domain.
	IntervalReferent ReferentKind = iota
	// RegionReferent marks a rectangular image region, addressed in the
	// image's shared coordinate system.
	RegionReferent
	// CladeReferent marks a clade of a phylogenetic tree (a leaf set).
	CladeReferent
	// SubgraphReferent marks an induced subgraph of an interaction graph
	// (a molecule set).
	SubgraphReferent
	// BlockReferent marks a block of an alignment (rows x column range).
	BlockReferent
	// RecordSetReferent marks a set of rows of a relational table.
	RecordSetReferent
	// ObjectReferent marks a whole data object.
	ObjectReferent
)

func (k ReferentKind) String() string {
	switch k {
	case IntervalReferent:
		return "interval"
	case RegionReferent:
		return "region"
	case CladeReferent:
		return "clade"
	case SubgraphReferent:
		return "subgraph"
	case BlockReferent:
		return "block"
	case RecordSetReferent:
		return "recordset"
	case ObjectReferent:
		return "object"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Errors reported by the annotation store.
var (
	ErrNoSuchObject     = errors.New("core: no such data object")
	ErrNoSuchAnnotation = errors.New("core: no such annotation")
	ErrNoSuchReferent   = errors.New("core: no such referent")
	ErrNoSuchOntology   = errors.New("core: no such ontology")
	ErrNoSuchTerm       = errors.New("core: no such ontology term")
	ErrNoSuchSystem     = errors.New("core: no such coordinate system")
	ErrDuplicate        = errors.New("core: duplicate registration")
	ErrEmptyAnnotation  = errors.New("core: annotation needs at least one referent or ontology reference")
	ErrBadMark          = errors.New("core: invalid mark")
)

// Referent is a marked sub-structure of a registered data object. A
// referent is created by one of the Store's Mark* constructors and becomes
// permanent (ID != 0) when an annotation referencing it is committed.
// Referents may be shared by multiple annotations — the paper's indirect
// relation ("if the same referent is connected to two different
// annotations … the two annotations become indirectly related").
type Referent struct {
	ID         uint64
	Kind       ReferentKind
	ObjectType ObjectType
	ObjectID   string
	// Domain is the coordinate space of the mark: the chromosome/segment
	// for intervals, the coordinate system for regions, and the owning
	// object ID for structural marks.
	Domain string
	// Interval is set for IntervalReferent (domain coordinates) and holds
	// the column range for BlockReferent.
	Interval interval.Interval
	// Region is set for RegionReferent (system coordinates).
	Region rtree.Rect
	// Keys is set for clade (leaf names), subgraph (molecule IDs), block
	// (row IDs) and record-set (primary keys) marks; sorted.
	Keys []string
}

// Mark converts the referent to its SUB_X algebra value.
func (r *Referent) Mark() subx.Mark {
	switch r.Kind {
	case IntervalReferent:
		return subx.IntervalMark{Domain: r.Domain, IV: r.Interval}
	case RegionReferent:
		return subx.RegionMark{System: r.Domain, R: r.Region}
	case ObjectReferent:
		return subx.NewSetMark(string(r.ObjectType), r.ObjectID)
	default:
		return subx.NewSetMark(r.Domain, r.Keys...)
	}
}

// Overlaps applies the SUB_X ifOverlap operator to two referents.
func (r *Referent) Overlaps(o *Referent) bool {
	return subx.IfOverlap(r.Mark(), o.Mark())
}

// String renders the referent for diagnostics.
func (r *Referent) String() string {
	switch r.Kind {
	case IntervalReferent:
		return fmt.Sprintf("ref%d interval %s on %s/%s %v", r.ID, r.ObjectType, r.ObjectID, r.Domain, r.Interval)
	case RegionReferent:
		return fmt.Sprintf("ref%d region on %s in %s %v", r.ID, r.ObjectID, r.Domain, r.Region)
	case ObjectReferent:
		return fmt.Sprintf("ref%d object %s/%s", r.ID, r.ObjectType, r.ObjectID)
	default:
		return fmt.Sprintf("ref%d %s on %s {%s}", r.ID, r.Kind, r.ObjectID, strings.Join(r.Keys, ","))
	}
}

// TermRef is a reference from an annotation to an ontology node. Per the
// paper, "an annotation only points to ontology nodes".
type TermRef struct {
	Ontology string
	TermID   string
}

func (t TermRef) String() string { return t.Ontology + "/" + t.TermID }
