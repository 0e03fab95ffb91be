package core

import (
	"slices"
	"strings"
	"testing"

	"graphitti/internal/dublincore"
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

	ids := annIDs(s.View().Annotations())
	if len(ids) != 2 || ids[0] != a1.ID || ids[1] != a2.ID {
		t.Fatalf("Annotations = %v", ids)
	}
	var refs []*Referent
	s.View().ReferentsEach(func(r *Referent) bool { refs = append(refs, r); return true })
	if len(refs) != 2 || refs[0].ID >= refs[1].ID {
		t.Fatalf("ReferentsEach = %v", refs)
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

// IntervalTreeSize returns the number of entries in one domain's tree.
func (v *View) IntervalTreeSize(domain string) int {
	tree, _ := v.itrees.Get(domain)
	return tree.Len()
}

func TestSubjectAndBuilderDCElements(t *testing.T) {
	s := newDemoStore(t)
	m, _ := s.View().MarkSequenceInterval("NC_007362", interval.Interval{Lo: 0, Hi: 10})
	ann, err := s.Commit(s.NewAnnotation().
		Creator("a").Date("2008-01-01").
		DCElement(dublincore.Subject, "influenza", "hemagglutinin").
		Refer(m))
	mustNoErr(t, err)
	xml := ann.Content.String()
	if !strings.Contains(xml, "<dc:subject>influenza</dc:subject>") ||
		!strings.Contains(xml, "<dc:subject>hemagglutinin</dc:subject>") {
		t.Fatalf("subjects missing:\n%s", xml)
	}
}

// TestBuilderReuseLeavesCommittedAnnotation: a committed annotation is a
// published value. Every setter called on its builder afterwards, and a
// second commit of that builder, leave it reading as it was committed.
func TestBuilderReuseLeavesCommittedAnnotation(t *testing.T) {
	s := newDemoStore(t)
	iv, err := s.View().MarkSequenceInterval("NC_007362", interval.Interval{Lo: 0, Hi: 10})
	mustNoErr(t, err)
	clade, err := s.View().MarkClade("H5N1-tree", "goose", "duck")
	mustNoErr(t, err)
	b := s.NewAnnotation().Creator("ma").Date("2008-01-01").Title("first").DCElement(dublincore.Subject, "s1").
		DCElement(dublincore.Rights, "r1").Body("first body").Tag("grade", "1").
		Refer(iv).OntologyRef("go", "enzyme")
	first, err := s.Commit(b)
	mustNoErr(t, err)
	wantDC := map[dublincore.Element][]string{
		dublincore.Title: {"first"}, dublincore.Creator: {"ma"}, dublincore.Subject: {"s1"},
		dublincore.Date: {"2008-01-01"}, dublincore.Rights: {"r1"},
	}
	content, terms, refIDs := first.Content.String(), slices.Collect(first.Terms), slices.Collect(first.ReferentIDs)
	check := func(when string) {
		t.Helper()
		for _, e := range dublincore.Elements {
			if got := slices.Collect(first.DC.Get(e).All); !slices.Equal(got, wantDC[e]) {
				t.Errorf("%s: committed %s = %q, want %q", when, e, got, wantDC[e])
			}
		}
		values := 0
		for _, vs := range first.DC.All {
			values += vs.Len()
		}
		if values != len(wantDC) {
			t.Errorf("%s: committed record has %d values, want %d", when, values, len(wantDC))
		}
		if got := first.Content.String(); got != content {
			t.Errorf("%s: committed content changed:\n%s\nwant\n%s", when, got, content)
		}
		if gotTerms, gotRefs := slices.Collect(first.Terms), slices.Collect(first.ReferentIDs); !slices.Equal(gotTerms, terms) || !slices.Equal(gotRefs, refIDs) {
			t.Errorf("%s: committed terms %v and referents %v, want %v and %v",
				when, gotTerms, gotRefs, terms, refIDs)
		}
		if got, err := s.View().Annotation(first.ID); err != nil || got != first {
			t.Errorf("%s: the view holds %p (%v), not the committed annotation", when, got, err)
		}
	}

	b.Creator("lee").Date("2009-09-09").Title("second").
		DCElement(dublincore.Rights, "r2", "r3").DCElement(dublincore.Language, "en").
		Body("second body").Tag("grade", "2").Refer(clade).OntologyRef("go", "protease").WithSpan(nil)
	check("after every setter")
	second, err := s.Commit(b)
	mustNoErr(t, err)
	check("after the second commit")
	if got := slices.Collect(second.DC.Get(dublincore.Creator).All); !slices.Equal(got, []string{"ma", "lee"}) ||
		second.DC.First(dublincore.Title) != "second" || second.NumReferents() != 2 {
		t.Errorf("the second commit reads creators %q, title %q, %d referents",
			got, second.DC.First(dublincore.Title), second.NumReferents())
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

// TestAnnotationReadsDoNotAllocate: reading a committed annotation — its
// Dublin Core values, its referents and its ontology references — reads
// the document's value block in place and allocates nothing.
func TestAnnotationReadsDoNotAllocate(t *testing.T) {
	s := newDemoStore(t)
	iv, err := s.View().MarkSequenceInterval("NC_007362", interval.Interval{Lo: 0, Hi: 10})
	mustNoErr(t, err)
	clade, err := s.View().MarkClade("H5N1-tree", "goose", "duck")
	mustNoErr(t, err)
	ann, err := s.Commit(s.NewAnnotation().Creator("ma").Creator("lee").Date("2008-01-01").Title("t").
		Refer(iv).Refer(clade).OntologyRef("go", "enzyme").OntologyRef("go", "protease"))
	mustNoErr(t, err)
	var sum int
	read := func() {
		for _, vals := range ann.DC.All {
			sum += vals.Len()
		}
		for v := range ann.DC.Get(dublincore.Creator).All {
			sum += len(v)
		}
		sum += len(ann.DC.First(dublincore.Title))
		for id := range ann.ReferentIDs {
			sum += int(id)
		}
		for tr := range ann.Terms {
			sum += len(tr.Ontology) + len(tr.TermID)
		}
	}
	if got := slices.Collect(ann.Terms); !slices.Equal(got, []TermRef{{"go", "enzyme"}, {"go", "protease"}}) {
		t.Fatalf("Terms = %v", got)
	}
	if got := slices.Collect(ann.ReferentIDs); len(got) != 2 || ann.NumReferents() != 2 || ann.NumTerms() != 2 {
		t.Fatalf("ReferentIDs = %v, %d referents and %d terms", got, ann.NumReferents(), ann.NumTerms())
	}
	if allocs := testing.AllocsPerRun(100, read); allocs != 0 {
		t.Errorf("reading an annotation allocates %.0f times, want 0", allocs)
	}
}
