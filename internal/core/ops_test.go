package core_test

import (
	"strings"
	"testing"

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
	"graphitti/internal/relstore"
	"graphitti/internal/rtree"
	"graphitti/internal/shard"
)

// TestOpKindsPinned pins every op kind's number and name: the number is in
// every WAL record on disk, the name is a metric label value. Then it
// walks the kinds up to the last one and asks the two other places that
// must learn a new kind whether they know it: persist.Op.Apply, which
// refuses a hollow op of a kind it knows for its missing dump (or the
// store refuses what it names), and the shard set's routing table. A
// fourteenth kind fails here until all three have it.
func TestOpKindsPinned(t *testing.T) {
	pinned := []struct {
		kind core.OpKind
		n    uint8
		name string
	}{
		{core.OpRegisterOntology, 1, "register-ontology"},
		{core.OpRegisterSystem, 2, "register-system"},
		{core.OpRegisterSequence, 3, "register-sequence"},
		{core.OpRegisterAlignment, 4, "register-alignment"},
		{core.OpRegisterTree, 5, "register-tree"},
		{core.OpRegisterInteractionGraph, 6, "register-interaction-graph"},
		{core.OpRegisterImage, 7, "register-image"},
		{core.OpCreateRecordTable, 8, "create-record-table"},
		{core.OpInsertRecord, 9, "insert-record"},
		{core.OpCommitAnnotation, 10, "commit-annotation"},
		{core.OpDeleteAnnotation, 11, "delete-annotation"},
		{core.OpAddRule, 12, "add-rule"},
		{core.OpDeleteRule, 13, "delete-rule"},
	}
	if core.OpInvalid != 0 {
		t.Errorf("OpInvalid = %d, want 0", core.OpInvalid)
	}
	for _, p := range pinned {
		if uint8(p.kind) != p.n || p.kind.String() != p.name {
			t.Errorf("kind %d %q, pinned as %d %q", uint8(p.kind), p.kind, p.n, p.name)
		}
	}
	last := pinned[len(pinned)-1].kind
	if next := last + 1; !strings.HasPrefix(next.String(), "op(") {
		t.Fatalf("kind %d (%s) exists and is not pinned here", next, next)
	}

	for k := core.OpInvalid + 1; k <= last; k++ {
		hollow := persist.Op{Kind: k}
		for where, err := range map[string]error{
			"persist.Op.Apply": core.NewStore().Batch(hollow.Apply),
			"shard.Apply":      shard.New(2).Apply(hollow),
		} {
			if err == nil {
				t.Errorf("%s accepted a hollow %s op", where, k)
			} else if msg := err.Error(); strings.Contains(msg, "unknown op kind") || strings.Contains(msg, "no route") {
				t.Errorf("%s does not know kind %s: %v", where, k, err)
			}
		}
	}
	for where, err := range map[string]error{
		"persist.Op.Apply": core.NewStore().Batch(persist.Op{Kind: last + 1}.Apply),
		"shard.Apply":      shard.New(2).Apply(persist.Op{Kind: last + 1}),
	} {
		if err == nil {
			t.Errorf("%s accepted a kind past the last", where)
		}
	}
}

// TestEveryOpKindAdvancesTheEpochByOne applies one valid op of every kind
// through persist.Op.Apply and requires each to publish exactly one view
// one epoch on: "the difference between two epochs is the number of
// mutations between them" holds for every kind, which is what lets a
// test name the op prefix a pinned view stands for. The rule ops come
// last, so the registrations run where a co-registration recompute cannot
// publish on its own.
func TestEveryOpKindAdvancesTheEpochByOne(t *testing.T) {
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	o := ontology.New("go")
	_, err := o.AddTerm("GO:1", "protease")
	must(err)
	cs, err := imaging.NewCoordinateSystem("atlas", rtree.Rect2D(0, 0, 1000, 1000))
	must(err)
	sq, err := seq.New("NC_1", seq.DNA, strings.Repeat("ACGT", 50))
	must(err)
	aln, err := msa.New("aln", []string{"a", "b"}, []string{"ACGT-", "AC-TT"})
	must(err)
	tree, err := phylo.ParseNewick("tree", "((a:0.1,b:0.1):0.05,c:0.2);")
	must(err)
	ig := interact.NewGraph("net")
	_, err = ig.AddMolecule("NS1", "NS1", interact.ProteinMol)
	must(err)
	im, err := imaging.NewImage("brain", "atlas", rtree.Rect2D(0, 0, 500, 500), imaging.Identity(2))
	must(err)
	schema := relstore.MustSchema("isolates", "acc", relstore.Column{Name: "acc", Type: relstore.String})

	// The annotation's dump comes off a scratch store holding the sequence
	// it marks.
	scratch := core.NewStore()
	must(scratch.Batch(persist.SequenceOp(sq).Apply))
	m, err := scratch.View().MarkSequenceInterval("NC_1", interval.Interval{Lo: 10, Hi: 50})
	must(err)
	ann, err := scratch.Commit(scratch.NewAnnotation().Creator("a").Date("2008-01-01").Body("protease site").Refer(m))
	must(err)
	dump, err := persist.DumpAnnotation(scratch.View(), ann)
	must(err)
	rule := persist.DumpRule(prop.Rule{ID: "ov", Edge: prop.EdgeOverlap, Domain: "NC_1"})

	ops := []persist.Op{
		persist.OntologyOp(o),
		persist.SystemOp(cs),
		persist.SequenceOp(sq),
		persist.AlignmentOp(aln),
		persist.TreeOp(tree),
		persist.GraphOp(ig),
		persist.ImageOp(im),
		persist.TableOp(schema),
		persist.RecordOp("isolates", relstore.Row{relstore.S("A/goose/1996")}),
		{Kind: core.OpCommitAnnotation, Annotation: &dump},
		{Kind: core.OpDeleteAnnotation, DeleteID: dump.ID},
		{Kind: core.OpAddRule, Rule: &rule},
		{Kind: core.OpDeleteRule, RuleID: rule.ID},
	}
	s := core.NewStore()
	applied := map[core.OpKind]bool{}
	for _, op := range ops {
		before := s.View().Epoch()
		if err := s.Batch(op.Apply); err != nil {
			t.Fatalf("%s: %v", op.Kind, err)
		}
		if after := s.View().Epoch(); after != before+1 {
			t.Errorf("%s moved the epoch %d -> %d, want one publish of one op", op.Kind, before, after)
		}
		applied[op.Kind] = true
	}
	for k := core.OpInvalid + 1; !strings.HasPrefix(k.String(), "op("); k++ {
		if !applied[k] {
			t.Errorf("no op of kind %s in the table", k)
		}
	}
}
