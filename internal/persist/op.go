package persist

import (
	"fmt"

	"graphitti/internal/biodata/imaging"
	"graphitti/internal/biodata/interact"
	"graphitti/internal/biodata/msa"
	"graphitti/internal/biodata/phylo"
	"graphitti/internal/biodata/seq"
	"graphitti/internal/core"
	"graphitti/internal/ontology"
	"graphitti/internal/prop"
	"graphitti/internal/relstore"
)

// Op is one store mutation in serialised form: the op envelope a writer
// pipeline logs (internal/durable prefixes its sequence number) and a
// shard set routes (internal/shard). Exactly one dump field is set,
// matched by Kind. Field names and order are the WAL record format: never
// rename or reorder, only append.
type Op struct {
	Kind core.OpKind `json:"kind"`

	Ontology   *OntologyDump   `json:"ontology,omitempty"`
	System     *SystemDump     `json:"system,omitempty"`
	Sequence   *SequenceDump   `json:"sequence,omitempty"`
	Alignment  *AlignmentDump  `json:"alignment,omitempty"`
	Tree       *TreeDump       `json:"tree,omitempty"`
	Graph      *GraphDump      `json:"graph,omitempty"`
	Image      *ImageDump      `json:"image,omitempty"`
	Table      *TableDump      `json:"table,omitempty"` // schema only in a log; rows too in a snapshot section
	RecTable   string          `json:"recTable,omitempty"`
	Row        []ValueDump     `json:"row,omitempty"`
	Annotation *AnnotationDump `json:"annotation,omitempty"`
	DeleteID   uint64          `json:"deleteId,omitempty"`
	Rule       *RuleDump       `json:"rule,omitempty"`
	RuleID     string          `json:"ruleId,omitempty"`
}

// Apply performs the op on a store. Ops come off disk as well as from
// callers, so a corrupt or hand-edited one must produce an error, never a
// panic: every dump pointer is checked before it is dereferenced.
func (op Op) Apply(cs *core.Store) error {
	missing := func(field string) error {
		return fmt.Errorf("op %s missing %s dump", op.Kind, field)
	}
	switch op.Kind {
	case core.OpRegisterOntology:
		if op.Ontology == nil {
			return missing("ontology")
		}
		return ApplyOntology(cs, *op.Ontology)
	case core.OpRegisterSystem:
		if op.System == nil {
			return missing("system")
		}
		return ApplySystem(cs, *op.System)
	case core.OpRegisterSequence:
		if op.Sequence == nil {
			return missing("sequence")
		}
		return ApplySequence(cs, *op.Sequence)
	case core.OpRegisterAlignment:
		if op.Alignment == nil {
			return missing("alignment")
		}
		return ApplyAlignment(cs, *op.Alignment)
	case core.OpRegisterTree:
		if op.Tree == nil {
			return missing("tree")
		}
		return ApplyTree(cs, *op.Tree)
	case core.OpRegisterInteractionGraph:
		if op.Graph == nil {
			return missing("graph")
		}
		return ApplyGraph(cs, *op.Graph)
	case core.OpRegisterImage:
		if op.Image == nil {
			return missing("image")
		}
		return ApplyImage(cs, *op.Image)
	case core.OpCreateRecordTable:
		if op.Table == nil {
			return missing("table")
		}
		return ApplyTable(cs, *op.Table)
	case core.OpInsertRecord:
		return ApplyRecord(cs, op.RecTable, op.Row)
	case core.OpCommitAnnotation:
		if op.Annotation == nil {
			return missing("annotation")
		}
		return ApplyAnnotation(cs, *op.Annotation)
	case core.OpDeleteAnnotation:
		return cs.DeleteAnnotation(op.DeleteID)
	case core.OpAddRule:
		if op.Rule == nil {
			return missing("rule")
		}
		return ApplyRule(cs, *op.Rule)
	case core.OpDeleteRule:
		return prop.Attach(cs).DeleteRule(op.RuleID)
	default:
		return fmt.Errorf("unknown op kind %d", op.Kind)
	}
}

// The constructors below build the op that registers a live object. The
// op holds a dump, not the object: whatever applies it rebuilds its own
// copy, so nothing the caller does to the object afterwards reaches a
// store.

// OntologyOp registers a term graph.
func OntologyOp(o *ontology.Ontology) Op {
	d := DumpOntology(o)
	return Op{Kind: core.OpRegisterOntology, Ontology: &d}
}

// SystemOp registers a coordinate system.
func SystemOp(cs *imaging.CoordinateSystem) Op {
	d := DumpSystem(cs)
	return Op{Kind: core.OpRegisterSystem, System: &d}
}

// SequenceOp registers a sequence. An empty Domain is resolved to the
// sequence ID here, as core would on registration: the op carries the
// value the store ends up with.
func SequenceOp(sq *seq.Sequence) Op {
	d := DumpSequence(sq)
	if d.Domain == "" {
		d.Domain = d.ID
	}
	return Op{Kind: core.OpRegisterSequence, Sequence: &d}
}

// AlignmentOp registers an alignment.
func AlignmentOp(a *msa.Alignment) Op {
	d := DumpAlignment(a)
	return Op{Kind: core.OpRegisterAlignment, Alignment: &d}
}

// TreeOp registers a phylogenetic tree.
func TreeOp(t *phylo.Tree) Op {
	d := DumpTree(t)
	return Op{Kind: core.OpRegisterTree, Tree: &d}
}

// GraphOp registers an interaction graph.
func GraphOp(g *interact.Graph) Op {
	d := DumpGraph(g)
	return Op{Kind: core.OpRegisterInteractionGraph, Graph: &d}
}

// ImageOp registers an image.
func ImageOp(im *imaging.Image) Op {
	d := DumpImage(im)
	return Op{Kind: core.OpRegisterImage, Image: &d}
}

// TableOp creates a user record table.
func TableOp(schema *relstore.Schema) Op {
	d := DumpSchema(schema)
	return Op{Kind: core.OpCreateRecordTable, Table: &d}
}

// RecordOp inserts a row into a user record table.
func RecordOp(table string, row relstore.Row) Op {
	return Op{Kind: core.OpInsertRecord, RecTable: table, Row: DumpRow(row)}
}

// registrations yields the op that registers each object of the snapshot,
// in load order: ontologies, systems, sequences, alignments, trees,
// graphs, images, record tables (rows included).
func (snap *Snapshot) registrations(yield func(Op) bool) {
	_ = section(snap.Ontologies, yield, func(d *OntologyDump) Op { return Op{Kind: core.OpRegisterOntology, Ontology: d} }) &&
		section(snap.Systems, yield, func(d *SystemDump) Op { return Op{Kind: core.OpRegisterSystem, System: d} }) &&
		section(snap.Sequences, yield, func(d *SequenceDump) Op { return Op{Kind: core.OpRegisterSequence, Sequence: d} }) &&
		section(snap.Alignments, yield, func(d *AlignmentDump) Op { return Op{Kind: core.OpRegisterAlignment, Alignment: d} }) &&
		section(snap.Trees, yield, func(d *TreeDump) Op { return Op{Kind: core.OpRegisterTree, Tree: d} }) &&
		section(snap.Graphs, yield, func(d *GraphDump) Op { return Op{Kind: core.OpRegisterInteractionGraph, Graph: d} }) &&
		section(snap.Images, yield, func(d *ImageDump) Op { return Op{Kind: core.OpRegisterImage, Image: d} }) &&
		section(snap.RecordTables, yield, func(d *TableDump) Op { return Op{Kind: core.OpCreateRecordTable, Table: d} })
}

// section yields one section's ops until yield declines.
func section[D any](entries []D, yield func(Op) bool, op func(*D) Op) bool {
	for i := range entries {
		if !yield(op(&entries[i])) {
			return false
		}
	}
	return true
}
