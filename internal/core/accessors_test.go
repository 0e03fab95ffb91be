package core

import (
	"strings"
	"testing"

	"graphitti/internal/interval"
	"graphitti/internal/relstore"
	"graphitti/internal/rtree"
)

func TestListingAccessors(t *testing.T) {
	s := newDemoStore(t)
	if got := s.View().SequenceIDs(); len(got) != 3 || got[0] != "NC_007362" {
		t.Fatalf("SequenceIDs = %v", got)
	}
	if got := s.View().AlignmentIDs(); len(got) != 1 || got[0] != "HA-aln" {
		t.Fatalf("AlignmentIDs = %v", got)
	}
	if got := s.View().TreeIDs(); len(got) != 1 || got[0] != "H5N1-tree" {
		t.Fatalf("TreeIDs = %v", got)
	}
	if got := s.View().InteractionGraphIDs(); len(got) != 1 || got[0] != "NS1-net" {
		t.Fatalf("InteractionGraphIDs = %v", got)
	}
	if got := s.View().Images(); len(got) != 2 || got[0] != "brain-1" {
		t.Fatalf("Images = %v", got)
	}
	if got := s.View().CoordinateSystems(); len(got) != 1 || got[0] != "atlas" {
		t.Fatalf("CoordinateSystems = %v", got)
	}
	if got := s.View().RecordTables(); len(got) != 1 || got[0] != "isolates" {
		t.Fatalf("RecordTables = %v", got)
	}
	if got := s.View().Ontologies(); len(got) != 2 || got[0] != "go" || got[1] != "nif" {
		t.Fatalf("Ontologies = %v", got)
	}
	if _, err := s.View().CoordinateSystem("atlas"); err != nil {
		t.Fatal(err)
	}
	// Object list covers every registered object plus the record table.
	objs := s.View().ObjectList()
	want := 3 + 1 + 1 + 1 + 2 + 1 // seqs + aln + tree + graph + images + record table
	if len(objs) != want {
		t.Fatalf("ObjectList = %d entries, want %d: %v", len(objs), want, objs)
	}
	for i := 1; i < len(objs); i++ {
		if objs[i-1].Type > objs[i].Type {
			t.Fatal("ObjectList not sorted by type")
		}
	}
}

func TestAnnotationAndReferentListing(t *testing.T) {
	s := newDemoStore(t)
	m1, _ := s.View().MarkSequenceInterval("NC_007362", interval.Interval{Lo: 0, Hi: 10})
	m2, _ := s.View().MarkSequenceInterval("NC_007362", interval.Interval{Lo: 20, Hi: 30})
	a1, err := s.Commit(s.NewAnnotation().Creator("a").Date("2008-01-01").Refer(m1))
	mustNoErr(t, err)
	a2, err := s.Commit(s.NewAnnotation().Creator("b").Date("2008-01-02").Refer(m2))
	mustNoErr(t, err)

	ids := s.View().AnnotationIDs()
	if len(ids) != 2 || ids[0] != a1.ID || ids[1] != a2.ID {
		t.Fatalf("AnnotationIDs = %v", ids)
	}
	refs := s.View().Referents()
	if len(refs) != 2 || refs[0].ID >= refs[1].ID {
		t.Fatalf("Referents = %v", refs)
	}
	if got := s.View().IntervalDomains(); len(got) != 1 || got[0] != "segment4" {
		t.Fatalf("IntervalDomains = %v", got)
	}
	if got := s.View().IntervalTreeSize("segment4"); got != 2 {
		t.Fatalf("IntervalTreeSize = %d", got)
	}
	if got := s.View().IntervalTreeSize("ghost"); got != 0 {
		t.Fatalf("IntervalTreeSize(ghost) = %d", got)
	}
}

func TestSubjectAndBuilderDCElements(t *testing.T) {
	s := newDemoStore(t)
	m, _ := s.View().MarkSequenceInterval("NC_007362", interval.Interval{Lo: 0, Hi: 10})
	ann, err := s.Commit(s.NewAnnotation().
		Creator("a").Date("2008-01-01").
		Subject("influenza").Subject("hemagglutinin").
		Refer(m))
	mustNoErr(t, err)
	xml := ann.Content.String()
	if !strings.Contains(xml, "<dc:subject>influenza</dc:subject>") ||
		!strings.Contains(xml, "<dc:subject>hemagglutinin</dc:subject>") {
		t.Fatalf("subjects missing:\n%s", xml)
	}
}

func TestReferentStringForms(t *testing.T) {
	s := newDemoStore(t)
	iv, _ := s.View().MarkSequenceInterval("NC_007362", interval.Interval{Lo: 1, Hi: 9})
	rg, _ := s.View().MarkImageRegion("brain-1", rtree.Rect2D(0, 0, 10, 10))
	cl, _ := s.View().MarkClade("H5N1-tree", "goose", "duck")
	ob, _ := s.View().MarkObject(TypeTree, "H5N1-tree")
	rc, _ := s.View().MarkRecords("isolates", relstore.S("A/goose/1996"))

	cases := []struct {
		ref  *Referent
		want string
	}{
		{iv, "interval"},
		{rg, "region"},
		{cl, "clade"},
		{ob, "object"},
		{rc, "recordset"},
	}
	for _, tc := range cases {
		if got := tc.ref.String(); !strings.Contains(got, tc.want) {
			t.Errorf("String() = %q missing %q", got, tc.want)
		}
	}
	// Kind strings.
	for k := IntervalReferent; k <= ObjectReferent; k++ {
		if k.String() == "" || strings.HasPrefix(k.String(), "kind(") {
			t.Errorf("missing name for kind %d", k)
		}
	}
	if (TermRef{Ontology: "go", TermID: "protease"}).String() != "go/protease" {
		t.Error("TermRef.String wrong")
	}
}

func TestMarkObjectAllTypes(t *testing.T) {
	s := newDemoStore(t)
	ok := []struct {
		typ ObjectType
		id  string
	}{
		{TypeDNA, "NC_007362"},
		{TypeProtein, "P03452"},
		{TypeAlignment, "HA-aln"},
		{TypeTree, "H5N1-tree"},
		{TypeInteraction, "NS1-net"},
		{TypeImage, "brain-1"},
		{ObjectType("isolates"), "anything"}, // record tables accept any id
	}
	for _, tc := range ok {
		if _, err := s.View().MarkObject(tc.typ, tc.id); err != nil {
			t.Errorf("MarkObject(%s,%s): %v", tc.typ, tc.id, err)
		}
	}
	// Wrong type for a registered id.
	if _, err := s.View().MarkObject(TypeRNA, "NC_007362"); err == nil {
		t.Error("DNA sequence accepted as RNA object")
	}
	if _, err := s.View().MarkObject(ObjectType("ghost-table"), "x"); err == nil {
		t.Error("unknown record table accepted")
	}
}

func TestPathBetweenAnnotationsErrors(t *testing.T) {
	s := newDemoStore(t)
	m, _ := s.View().MarkSequenceInterval("NC_007362", interval.Interval{Lo: 0, Hi: 10})
	ann, err := s.Commit(s.NewAnnotation().Creator("a").Date("2008-01-01").Refer(m))
	mustNoErr(t, err)
	if _, err := s.View().PathBetweenAnnotations(ann.ID, 999); err == nil {
		t.Fatal("ghost target accepted")
	}
	if _, err := s.View().PathBetweenAnnotations(999, ann.ID); err == nil {
		t.Fatal("ghost source accepted")
	}
	p, err := s.View().PathBetweenAnnotations(ann.ID, ann.ID)
	if err != nil || p.Len() != 0 {
		t.Fatalf("self path = %v, %v", p, err)
	}
}
