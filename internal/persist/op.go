package persist

import (
	"fmt"
	"math"
	"slices"

	"graphitti/internal/biodata/imaging"
	"graphitti/internal/biodata/interact"
	"graphitti/internal/biodata/msa"
	"graphitti/internal/biodata/phylo"
	"graphitti/internal/biodata/seq"
	"graphitti/internal/core"
	"graphitti/internal/ontology"
	"graphitti/internal/prop"
	"graphitti/internal/relstore"
	"graphitti/internal/trace"
)

// Op is one store mutation in serialised form: the op envelope a writer
// pipeline logs (internal/durable prefixes its sequence number) and a
// shard set routes (internal/shard). Exactly one dump field is set,
// matched by Kind. A WAL record holds the op's binary form (AppendOp); the
// JSON field names are the export form, and the form of the records an
// older build logged, which still replay: never rename them. A live
// commit is an op whose IDs the session fills in (CommitOp, Run); once
// applied, an op's IDs are pins.
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

	// span is the request's trace span, never encoded: the layers a live op
	// crosses (router, shard writer, commit, WAL flush) hang theirs off it.
	span *trace.Span
}

// Span returns the op's trace span, or nil.
func (op Op) Span() *trace.Span { return op.span }

// WithSpan returns the op carrying sp as its trace span.
func (op Op) WithSpan(sp *trace.Span) Op {
	op.span = sp
	return op
}

// Apply performs the op as one op of a writer session; a store-level
// caller writes s.Batch(op.Apply). Ops come off disk as well as from
// callers, so a corrupt or hand-edited one must produce an error, never a
// panic: every dump pointer is checked before it is dereferenced.
func (op Op) Apply(x *core.Tx) error {
	_, err := op.apply(x)
	return err
}

// apply is Apply answering with what a commit op committed. An op carrying
// a float JSON cannot spell (NaN, ±Inf) is refused before it touches the
// session: the store would take it and then fail every export, and a
// pipeline would log it and replay it.
func (op Op) apply(x *core.Tx) (*core.Annotation, error) {
	if !op.finite() {
		return nil, fmt.Errorf("op %s carries a non-finite number", op.Kind)
	}
	missing := func(field string) error {
		return fmt.Errorf("op %s missing %s dump", op.Kind, field)
	}
	switch op.Kind {
	case core.OpRegisterOntology:
		if op.Ontology == nil {
			return nil, missing("ontology")
		}
		return nil, ApplyOntology(x, *op.Ontology)
	case core.OpRegisterSystem:
		if op.System == nil {
			return nil, missing("system")
		}
		return nil, ApplySystem(x, *op.System)
	case core.OpRegisterSequence:
		if op.Sequence == nil {
			return nil, missing("sequence")
		}
		return nil, ApplySequence(x, *op.Sequence)
	case core.OpRegisterAlignment:
		if op.Alignment == nil {
			return nil, missing("alignment")
		}
		return nil, ApplyAlignment(x, *op.Alignment)
	case core.OpRegisterTree:
		if op.Tree == nil {
			return nil, missing("tree")
		}
		return nil, ApplyTree(x, *op.Tree)
	case core.OpRegisterInteractionGraph:
		if op.Graph == nil {
			return nil, missing("graph")
		}
		return nil, ApplyGraph(x, *op.Graph)
	case core.OpRegisterImage:
		if op.Image == nil {
			return nil, missing("image")
		}
		return nil, ApplyImage(x, *op.Image)
	case core.OpCreateRecordTable:
		if op.Table == nil {
			return nil, missing("table")
		}
		return nil, ApplyTable(x, *op.Table)
	case core.OpInsertRecord:
		return nil, ApplyRecord(x, op.RecTable, op.Row)
	case core.OpCommitAnnotation:
		if op.Annotation == nil {
			return nil, missing("annotation")
		}
		return ApplyAnnotation(x, *op.Annotation, op.span)
	case core.OpDeleteAnnotation:
		return nil, x.DeleteAnnotation(op.DeleteID)
	case core.OpAddRule:
		if op.Rule == nil {
			return nil, missing("rule")
		}
		return nil, prop.AddRules(x, RestoreRule(*op.Rule))
	case core.OpDeleteRule:
		return nil, prop.DeleteRule(x, op.RuleID)
	default:
		return nil, fmt.Errorf("unknown op kind %d", op.Kind)
	}
}

// finite reports whether every float the op's dump carries is finite:
// the bounds of a system, the geometry of an image, interaction scores,
// record cells and region marks.
func (op Op) finite() bool {
	ok := true
	check := func(fs ...float64) {
		for _, f := range fs {
			ok = ok && !math.IsNaN(f) && !math.IsInf(f, 0)
		}
	}
	if s := op.System; s != nil {
		check(s.Bounds[0][:]...)
		check(s.Bounds[1][:]...)
	}
	if im := op.Image; im != nil {
		check(im.Local[0][:]...)
		check(im.Local[1][:]...)
		check(im.Scale[:]...)
		check(im.Offset[:]...)
	}
	if g := op.Graph; g != nil {
		for _, e := range g.Interactions {
			check(e.Score)
		}
	}
	if t := op.Table; t != nil {
		for _, row := range t.Rows {
			for _, v := range row {
				check(v.F)
			}
		}
	}
	for _, v := range op.Row {
		check(v.F)
	}
	if a := op.Annotation; a != nil {
		for i := range a.Referents {
			check(a.Referents[i].Rect[0][:]...)
			check(a.Referents[i].Rect[1][:]...)
		}
	}
	return ok
}

// Run is Apply answering with the op as applied and what a commit
// committed: a live commit op comes back with the IDs its session chose
// filled in — what a log records, so replay pins them — any other op as
// it went in. The op's dumps are never written to: a snapshot's are
// staged on several shards and may be loaded twice.
func (op Op) Run(x *core.Tx) (Op, *core.Annotation, error) {
	ann, err := op.apply(x)
	if err != nil || op.Kind != core.OpCommitAnnotation || op.Annotation.ID != 0 {
		return op, ann, err
	}
	d := *op.Annotation
	d.ID = ann.ID
	d.Referents = slices.Clone(d.Referents)
	for i := range d.Referents {
		d.Referents[i].ID = ann.ReferentIDs[i]
	}
	op.Annotation = &d
	return op, ann, nil
}

// CommitOp is the op that commits the annotation b assembles: its
// annotation ID is 0, a referent b reuses keeps its committed ID and a new
// mark has none, and it carries b's span. A builder with a recorded error
// is refused with the error commit would give.
func CommitOp(b *core.Builder) (Op, error) {
	if err := b.Err(); err != nil {
		return Op{}, err
	}
	d := AnnotationDump{DC: dumpDC(b.DC()), Body: b.BodyText(), Terms: dumpTerms(b.TermRefs())}
	for _, t := range b.Tags() {
		d.Tags = append(d.Tags, TagDump{Name: t.Name, Value: t.Value})
	}
	for _, ref := range b.Referents() {
		d.Referents = append(d.Referents, dumpReferent(ref))
	}
	return Op{Kind: core.OpCommitAnnotation, Annotation: &d, span: b.Span()}, nil
}

// RuleOp adds a propagation rule.
func RuleOp(r prop.Rule) Op {
	d := DumpRule(r)
	return Op{Kind: core.OpAddRule, Rule: &d}
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

// ops yields the op that registers each object of the snapshot and the
// op that commits each annotation, in load order: ontologies, systems,
// sequences, alignments, trees, graphs, images, record tables (rows
// included), annotations.
func (snap *Snapshot) ops(yield func(Op) bool) {
	_ = section(snap.Ontologies, yield, func(d *OntologyDump) Op { return Op{Kind: core.OpRegisterOntology, Ontology: d} }) &&
		section(snap.Systems, yield, func(d *SystemDump) Op { return Op{Kind: core.OpRegisterSystem, System: d} }) &&
		section(snap.Sequences, yield, func(d *SequenceDump) Op { return Op{Kind: core.OpRegisterSequence, Sequence: d} }) &&
		section(snap.Alignments, yield, func(d *AlignmentDump) Op { return Op{Kind: core.OpRegisterAlignment, Alignment: d} }) &&
		section(snap.Trees, yield, func(d *TreeDump) Op { return Op{Kind: core.OpRegisterTree, Tree: d} }) &&
		section(snap.Graphs, yield, func(d *GraphDump) Op { return Op{Kind: core.OpRegisterInteractionGraph, Graph: d} }) &&
		section(snap.Images, yield, func(d *ImageDump) Op { return Op{Kind: core.OpRegisterImage, Image: d} }) &&
		section(snap.RecordTables, yield, func(d *TableDump) Op { return Op{Kind: core.OpCreateRecordTable, Table: d} }) &&
		section(snap.Annotations, yield, func(d *AnnotationDump) Op { return Op{Kind: core.OpCommitAnnotation, Annotation: d} })
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
