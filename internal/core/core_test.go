package core

import (
	"errors"
	"fmt"
	"graphitti/internal/xquery"
	"slices"
	"strings"
	"sync"
	"testing"

	"graphitti/internal/agraph"
	"graphitti/internal/biodata/imaging"
	"graphitti/internal/biodata/interact"
	"graphitti/internal/biodata/msa"
	"graphitti/internal/biodata/phylo"
	"graphitti/internal/biodata/seq"
	"graphitti/internal/interval"
	"graphitti/internal/ontology"
	"graphitti/internal/relstore"
	"graphitti/internal/rtree"
	"graphitti/internal/subx"
)

// newDemoStore builds a store shaped like the paper's demonstration:
// influenza sequences on a shared segment domain, an MSA, a phylogenetic
// tree, an interaction graph, brain images in a shared atlas, a record
// table, and two ontologies.
func newDemoStore(t testing.TB) *Store {
	s := NewStore()

	// Ontologies.
	enzymes := ontology.New("go")
	for _, id := range []string{"enzyme", "hydrolase", "protease", "serine-protease"} {
		if _, err := enzymes.AddTerm(id, id); err != nil {
			t.Fatal(err)
		}
	}
	mustNoErr(t, enzymes.AddEdge("hydrolase", "enzyme", ontology.IsA, ontology.Some))
	mustNoErr(t, enzymes.AddEdge("protease", "hydrolase", ontology.IsA, ontology.Some))
	mustNoErr(t, enzymes.AddEdge("serine-protease", "protease", ontology.IsA, ontology.Some))
	mustNoErr(t, s.RegisterOntology(enzymes))

	nif := ontology.New("nif")
	for _, id := range []string{"brain-region", "cerebellum", "deep-cerebellar-nuclei"} {
		if _, err := nif.AddTerm(id, id); err != nil {
			t.Fatal(err)
		}
	}
	mustNoErr(t, nif.AddEdge("cerebellum", "brain-region", ontology.IsA, ontology.Some))
	mustNoErr(t, nif.AddEdge("deep-cerebellar-nuclei", "cerebellum", ontology.IsA, ontology.Some))
	mustNoErr(t, s.RegisterOntology(nif))

	// Sequences on a shared segment domain.
	d1, err := seq.New("NC_007362", seq.DNA, strings.Repeat("ACGT", 100))
	mustNoErr(t, err)
	d1.Domain = "segment4"
	d1.Offset = 0
	mustNoErr(t, s.RegisterSequence(d1))

	d2, err := seq.New("NC_007363", seq.DNA, strings.Repeat("GGCC", 100))
	mustNoErr(t, err)
	d2.Domain = "segment4"
	d2.Offset = 200 // overlaps d1's [200,400)
	mustNoErr(t, s.RegisterSequence(d2))

	p1, err := seq.New("P03452", seq.Protein, strings.Repeat("MKVA", 50))
	mustNoErr(t, err)
	mustNoErr(t, s.RegisterSequence(p1))

	// Alignment.
	a, err := msa.New("HA-aln", []string{"NC_007362", "NC_007363"},
		[]string{"ACGT-ACGT-", "AC-TTAC-TT"})
	mustNoErr(t, err)
	mustNoErr(t, s.RegisterAlignment(a))

	// Phylogenetic tree.
	tr, err := phylo.ParseNewick("H5N1-tree", "((goose:0.1,duck:0.1)wild:0.05,human:0.2)root;")
	mustNoErr(t, err)
	mustNoErr(t, s.RegisterTree(tr))

	// Interaction graph.
	ig := interact.NewGraph("NS1-net")
	for _, m := range []string{"NS1", "PKR", "TRIM25"} {
		_, err := ig.AddMolecule(m, m, interact.ProteinMol)
		mustNoErr(t, err)
	}
	mustNoErr(t, ig.AddInteraction("NS1", "PKR", "inhibits", 0.9))
	mustNoErr(t, ig.AddInteraction("NS1", "TRIM25", "binds", 0.8))
	mustNoErr(t, s.RegisterInteractionGraph(ig))

	// Coordinate system + images.
	cs, err := imaging.NewCoordinateSystem("atlas", rtree.Rect2D(0, 0, 1000, 1000))
	mustNoErr(t, err)
	mustNoErr(t, s.RegisterCoordinateSystem(cs))
	im1, err := imaging.NewImage("brain-1", "atlas", rtree.Rect2D(0, 0, 500, 500), imaging.Identity(2))
	mustNoErr(t, err)
	im1.Modality = "confocal"
	im1.Subject = "mouse-17"
	mustNoErr(t, s.RegisterImage(im1))
	reg := imaging.Identity(2)
	reg.Offset = [rtree.MaxDims]float64{250, 250}
	im2, err := imaging.NewImage("brain-2", "atlas", rtree.Rect2D(0, 0, 500, 500), reg)
	mustNoErr(t, err)
	im2.Subject = "mouse-18"
	mustNoErr(t, s.RegisterImage(im2))

	// Record table.
	schema := relstore.MustSchema("isolates", "acc",
		relstore.Column{Name: "acc", Type: relstore.String},
		relstore.Column{Name: "host", Type: relstore.String},
		relstore.Column{Name: "year", Type: relstore.Int64},
	)
	mustNoErr(t, s.CreateRecordTable(schema))
	mustNoErr(t, s.InsertRecord("isolates", relstore.Row{
		relstore.S("A/goose/1996"), relstore.S("goose"), relstore.I(1996)}))
	mustNoErr(t, s.InsertRecord("isolates", relstore.Row{
		relstore.S("A/hk/1997"), relstore.S("human"), relstore.I(1997)}))

	return s
}

func mustNoErr(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestRegistrationErrors(t *testing.T) {
	s := newDemoStore(t)
	// Duplicates.
	d, _ := seq.New("NC_007362", seq.DNA, "ACGT")
	if err := s.RegisterSequence(d); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("dup sequence: %v", err)
	}
	o := ontology.New("go")
	if err := s.RegisterOntology(o); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("dup ontology: %v", err)
	}
	// Image without its coordinate system.
	im, _ := imaging.NewImage("x", "ghost-system", rtree.Rect2D(0, 0, 10, 10), imaging.Identity(2))
	if err := s.RegisterImage(im); !errors.Is(err, ErrNoSuchSystem) {
		t.Fatalf("image w/o system: %v", err)
	}
	// Missing lookups.
	if _, _, err := s.View().Sequence("ghost"); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("ghost sequence: %v", err)
	}
	if _, err := s.View().Ontology("ghost"); !errors.Is(err, ErrNoSuchOntology) {
		t.Fatalf("ghost ontology: %v", err)
	}
	if err := s.InsertRecord("not-a-record-table", nil); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("ghost record table: %v", err)
	}
}

// TestRegistrationFillsRelationalTables: what a registration stores is
// read back from the view, which holds the only copy — the native data
// through the typed accessor, every object through ObjectList, the record
// rows through RecordTable.
func TestRegistrationFillsRelationalTables(t *testing.T) {
	v := newDemoStore(t).View()
	perType := map[ObjectType]int{}
	for _, h := range v.ObjectList() {
		perType[h.Type]++
	}
	for typ, want := range map[ObjectType]int{
		TypeDNA:         2,
		TypeProtein:     1,
		TypeAlignment:   1,
		TypeTree:        1,
		TypeInteraction: 1,
		TypeImage:       2,
		TypeRecord:      1,
	} {
		if perType[typ] != want {
			t.Errorf("ObjectList has %d %s, want %d", perType[typ], typ, want)
		}
	}
	// Native data through the typed accessor.
	sq, typ, err := v.Sequence("NC_007362")
	mustNoErr(t, err)
	if typ != TypeDNA || !strings.HasPrefix(sq.Residues, "ACGTACGT") || sq.Domain != "segment4" {
		t.Fatalf("sequence = %s %q... in %s", typ, sq.Residues[:16], sq.Domain)
	}
	if _, typ, err := v.Sequence("P03452"); err != nil || typ != TypeProtein {
		t.Fatalf("protein: %s, %v", typ, err)
	}
	if a, err := v.Alignment("HA-aln"); err != nil || len(a.Rows) != 2 || a.NumCols() != 10 {
		t.Fatalf("alignment: %+v, %v", a, err)
	}
	if tr, err := v.Tree("H5N1-tree"); err != nil || tr.NumLeaves() != 3 {
		t.Fatalf("tree: %+v, %v", tr, err)
	}
	if g, err := v.InteractionGraph("NS1-net"); err != nil || len(g.Molecules()) != 3 || len(g.Interactions()) != 2 {
		t.Fatalf("interaction graph: %+v, %v", g, err)
	}
	for id, subject := range map[string]string{"brain-1": "mouse-17", "brain-2": "mouse-18"} {
		if im, err := v.Image(id); err != nil || im.System != "atlas" || im.Subject != subject {
			t.Fatalf("image %s: %+v, %v", id, im, err)
		}
	}
	// The record rows, in primary-key order.
	schema, rows, err := v.RecordTable("isolates")
	mustNoErr(t, err)
	if schema.Key != "acc" || len(rows) != 2 ||
		rows[0][0].Str() != "A/goose/1996" || rows[0][2].Int() != 1996 ||
		rows[1][0].Str() != "A/hk/1997" || rows[1][1].Str() != "human" {
		t.Fatalf("isolates = key %s, rows %v", schema.Key, rows)
	}
	if _, _, err := v.RecordTable(string(TypeDNA)); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("built-in type as a record table: %v", err)
	}
}

func TestMarkConstructors(t *testing.T) {
	s := newDemoStore(t)

	r, err := s.View().MarkSequenceInterval("NC_007363", interval.Interval{Lo: 10, Hi: 50})
	mustNoErr(t, err)
	if r.Domain != "segment4" || r.Interval != (interval.Interval{Lo: 210, Hi: 250}) {
		t.Fatalf("interval mark = %+v (domain normalisation failed)", r)
	}
	if _, err := s.View().MarkSequenceInterval("NC_007363", interval.Interval{Lo: 390, Hi: 410}); !errors.Is(err, ErrBadMark) {
		t.Fatalf("out-of-range mark: %v", err)
	}
	if _, err := s.View().MarkSequenceInterval("ghost", interval.Interval{Lo: 0, Hi: 1}); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("ghost sequence mark: %v", err)
	}

	r, err = s.MarkDomainInterval("segment4", interval.Interval{Lo: 100, Hi: 150})
	mustNoErr(t, err)
	if r.ObjectID != "NC_007362" {
		t.Fatalf("domain mark owner = %s", r.ObjectID)
	}
	if _, err := s.MarkDomainInterval("segment4", interval.Interval{Lo: 5000, Hi: 5100}); !errors.Is(err, ErrBadMark) {
		t.Fatalf("uncovered domain mark: %v", err)
	}

	r, err = s.View().MarkImageRegion("brain-2", rtree.Rect2D(0, 0, 100, 100))
	mustNoErr(t, err)
	if r.Domain != "atlas" || *r.Region != rtree.Rect2D(250, 250, 350, 350) {
		t.Fatalf("region mark = %+v (registration failed)", r)
	}
	if _, err := s.View().MarkImageRegion("brain-2", rtree.Rect2D(400, 400, 600, 600)); !errors.Is(err, ErrBadMark) {
		t.Fatalf("oversize region: %v", err)
	}

	r, err = s.View().MarkClade("H5N1-tree", "goose", "duck")
	mustNoErr(t, err)
	if len(r.Keys) != 2 || r.Keys[0] != "duck" {
		t.Fatalf("clade mark = %+v", r)
	}
	if _, err := s.View().MarkClade("H5N1-tree", "goose", "ghost"); !errors.Is(err, ErrBadMark) {
		t.Fatalf("ghost leaf: %v", err)
	}

	r, err = s.View().MarkSubgraph("NS1-net", "NS1", "PKR")
	mustNoErr(t, err)
	if len(r.Keys) != 2 {
		t.Fatalf("subgraph mark = %+v", r)
	}

	r, err = s.View().MarkAlignmentBlock("HA-aln", []string{"NC_007362"}, interval.Interval{Lo: 2, Hi: 6})
	mustNoErr(t, err)
	if r.Interval.Hi-r.Interval.Lo != 4 {
		t.Fatalf("block mark = %+v", r)
	}

	r, err = s.View().MarkRecords("isolates", relstore.S("A/goose/1996"))
	mustNoErr(t, err)
	if len(r.Keys) != 1 {
		t.Fatalf("record mark = %+v", r)
	}
	if _, err := s.View().MarkRecords("isolates", relstore.S("ghost")); !errors.Is(err, ErrBadMark) {
		t.Fatalf("ghost record: %v", err)
	}

	r, err = s.View().MarkObject(TypeTree, "H5N1-tree")
	mustNoErr(t, err)
	if r.Kind != ObjectReferent {
		t.Fatalf("object mark = %+v", r)
	}
	if _, err := s.View().MarkObject(TypeTree, "ghost"); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("ghost object: %v", err)
	}
}

func TestCommitPipeline(t *testing.T) {
	s := newDemoStore(t)
	mark, err := s.View().MarkSequenceInterval("NC_007362", interval.Interval{Lo: 100, Hi: 240})
	mustNoErr(t, err)

	ann, err := s.Commit(s.NewAnnotation().
		Creator("gupta").
		Date("2007-11-02").
		Title("protease site").
		Body("The protease cleavage site overlaps the HA segment.").
		Tag("confidence", "high").
		Refer(mark).
		OntologyRef("go", "protease"))
	mustNoErr(t, err)

	if ann.ID == 0 || ann.NumReferents() != 1 {
		t.Fatalf("annotation = %+v", ann)
	}
	// Content document shape.
	xml := ann.Content.String()
	for _, want := range []string{
		"<dc:creator>gupta</dc:creator>",
		"<dc:date>2007-11-02</dc:date>",
		"protease cleavage site",
		`kind="interval"`,
		`domain="segment4"`,
		`lo="100"`,
		`ontology="go"`,
		`term="protease"`,
		"<confidence>high</confidence>",
	} {
		if !strings.Contains(xml, want) {
			t.Errorf("content missing %q:\n%s", want, xml)
		}
	}
	// Referent stored and indexed.
	ref, err := s.View().Referent(slices.Collect(ann.ReferentIDs)[0])
	mustNoErr(t, err)
	if ref.Interval != (interval.Interval{Lo: 100, Hi: 240}) {
		t.Fatalf("stored referent = %+v", ref)
	}
	hits := s.ReferentsAt("segment4", 150)
	if len(hits) != 1 || hits[0].ID != ref.ID {
		t.Fatalf("stab = %v", hits)
	}
	// a-graph wiring.
	if s.View().Graph().OutCount(agraph2Content(ann.ID)) == 0 {
		t.Fatal("content node not wired")
	}
	anns := s.View().AnnotationsOfReferent(ref.ID)
	if len(anns) != 1 || anns[0].ID != ann.ID {
		t.Fatalf("AnnotationsOfReferent = %v", anns)
	}
	// Stats.
	st := s.Stats()
	if st.Annotations != 1 || st.Referents != 1 || st.IntervalTrees != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestCommitValidation(t *testing.T) {
	s := newDemoStore(t)
	mark, _ := s.View().MarkSequenceInterval("NC_007362", interval.Interval{Lo: 0, Hi: 10})

	// Missing creator/date.
	if _, err := s.Commit(s.NewAnnotation().Refer(mark)); err == nil {
		t.Fatal("missing DC accepted")
	}
	// Empty annotation.
	if _, err := s.Commit(s.NewAnnotation().Creator("x").Date("2008-01-01")); !errors.Is(err, ErrEmptyAnnotation) {
		t.Fatalf("empty: %v", err)
	}
	// Unknown ontology / term.
	if _, err := s.Commit(s.NewAnnotation().Creator("x").Date("2008-01-01").
		Refer(mark).OntologyRef("ghost", "t")); !errors.Is(err, ErrNoSuchOntology) {
		t.Fatalf("ghost ontology: %v", err)
	}
	if _, err := s.Commit(s.NewAnnotation().Creator("x").Date("2008-01-01").
		Refer(mark).OntologyRef("go", "ghost-term")); !errors.Is(err, ErrNoSuchTerm) {
		t.Fatalf("ghost term: %v", err)
	}
	// Nil referent.
	if _, err := s.Commit(s.NewAnnotation().Creator("x").Date("2008-01-01").
		Refer(nil)); err == nil {
		t.Fatal("nil referent accepted")
	}
	// Builder from another store.
	other := NewStore()
	if _, err := s.Commit(other.NewAnnotation().Creator("x").Date("2008-01-01").Refer(mark)); err == nil {
		t.Fatal("foreign builder accepted")
	}
	// Invalid DC element recorded at build time surfaces at commit.
	if _, err := s.Commit(s.NewAnnotation().Creator("x").Date("2008-01-01").
		DCElement("not-a-dc-element", "v").Refer(mark)); err == nil {
		t.Fatal("invalid DC element accepted")
	}
	// Failed commits must leave the store unchanged.
	if st := s.Stats(); st.Annotations != 0 || st.Referents != 0 {
		t.Fatalf("failed commits mutated the store: %+v", st)
	}
}

func TestSharedReferentIndirectRelation(t *testing.T) {
	s := newDemoStore(t)
	// Two scientists mark the identical interval.
	m1, _ := s.View().MarkSequenceInterval("NC_007362", interval.Interval{Lo: 100, Hi: 240})
	m2, _ := s.View().MarkSequenceInterval("NC_007362", interval.Interval{Lo: 100, Hi: 240})

	a1, err := s.Commit(s.NewAnnotation().Creator("gupta").Date("2007-11-01").
		Title("first").Body("looks like a protease site").Refer(m1))
	mustNoErr(t, err)
	a2, err := s.Commit(s.NewAnnotation().Creator("condit").Date("2007-11-02").
		Title("second").Body("replication observed here").Refer(m2))
	mustNoErr(t, err)

	// Identical marks resolve to one shared referent.
	if slices.Collect(a1.ReferentIDs)[0] != slices.Collect(a2.ReferentIDs)[0] {
		t.Fatalf("identical marks created distinct referents: %v vs %v",
			slices.Collect(a1.ReferentIDs), slices.Collect(a2.ReferentIDs))
	}
	if s.Stats().Referents != 1 {
		t.Fatalf("referent count = %d", s.Stats().Referents)
	}
	// Both annotations attach to the referent.
	anns := s.View().AnnotationsOfReferent(slices.Collect(a1.ReferentIDs)[0])
	if len(anns) != 2 {
		t.Fatalf("annotations of referent = %d", len(anns))
	}
	// Indirect relation.
	rel, err := s.RelatedAnnotations(a1.ID)
	mustNoErr(t, err)
	if len(rel) != 1 || rel[0].ID != a2.ID {
		t.Fatalf("related = %v", rel)
	}
	// And there is an a-graph path content1 - referent - content2.
	p, err := s.View().PathBetweenAnnotations(a1.ID, a2.ID)
	mustNoErr(t, err)
	if p.Len() != 2 {
		t.Fatalf("path length = %d, want 2", p.Len())
	}
}

func TestRelatedThroughSharedObject(t *testing.T) {
	s := newDemoStore(t)
	m1, _ := s.View().MarkSequenceInterval("NC_007362", interval.Interval{Lo: 0, Hi: 50})
	m2, _ := s.View().MarkSequenceInterval("NC_007362", interval.Interval{Lo: 300, Hi: 350})
	a1, err := s.Commit(s.NewAnnotation().Creator("a").Date("2008-01-01").Refer(m1))
	mustNoErr(t, err)
	a2, err := s.Commit(s.NewAnnotation().Creator("b").Date("2008-01-02").Refer(m2))
	mustNoErr(t, err)
	rel, err := s.RelatedAnnotations(a1.ID)
	mustNoErr(t, err)
	if len(rel) != 1 || rel[0].ID != a2.ID {
		t.Fatalf("object-level relation missed: %v", rel)
	}
}

func TestSearchContents(t *testing.T) {
	s := newDemoStore(t)
	m1, _ := s.View().MarkSequenceInterval("NC_007362", interval.Interval{Lo: 0, Hi: 50})
	m2, _ := s.View().MarkImageRegion("brain-1", rtree.Rect2D(10, 10, 40, 40))
	_, err := s.Commit(s.NewAnnotation().Creator("gupta").Date("2008-01-01").
		Title("protease observation").Body("contains protease motif").Refer(m1))
	mustNoErr(t, err)
	_, err = s.Commit(s.NewAnnotation().Creator("condit").Date("2008-01-02").
		Title("region note").Body("strong expression region").Refer(m2).
		OntologyRef("nif", "deep-cerebellar-nuclei"))
	mustNoErr(t, err)

	got, err := s.View().SearchContents("contains(/annotation/body, 'protease')")
	mustNoErr(t, err)
	if len(got) != 1 || got[0].DC.First("creator") != "gupta" {
		t.Fatalf("search protease = %v", got)
	}
	got, err = s.View().SearchContents("//referent[@kind='region']")
	mustNoErr(t, err)
	if len(got) != 1 || got[0].DC.First("creator") != "condit" {
		t.Fatalf("search region = %v", got)
	}
	got, err = s.View().SearchContents("//ref[@term='deep-cerebellar-nuclei']")
	mustNoErr(t, err)
	if len(got) != 1 {
		t.Fatalf("search term = %v", got)
	}
	if _, err := s.View().SearchContents("((("); err == nil {
		t.Fatal("bad query accepted")
	}
}

func TestSearchKeywordIndexVsScan(t *testing.T) {
	s := newDemoStore(t)
	for i := 0; i < 20; i++ {
		m, _ := s.View().MarkSequenceInterval("NC_007362", interval.Interval{Lo: int64(i * 10), Hi: int64(i*10 + 5)})
		body := "routine observation"
		if i%4 == 0 {
			body = "notable protease activity"
		}
		_, err := s.Commit(s.NewAnnotation().Creator("u").Date("2008-01-01").
			Body(body).Refer(m))
		mustNoErr(t, err)
	}
	idx := s.SearchKeyword("protease", true)
	scan := s.SearchKeyword("protease", false)
	if len(idx) != 5 || len(scan) != 5 {
		t.Fatalf("index %d, scan %d (want 5)", len(idx), len(scan))
	}
	for i := range idx {
		if idx[i].ID != scan[i].ID {
			t.Fatal("index and scan disagree")
		}
	}
	// Case insensitive.
	if got := s.SearchKeyword("PROTEASE", true); len(got) != 5 {
		t.Fatalf("case-insensitive index = %d", len(got))
	}
	if got := s.SearchKeyword("nonexistent-word", true); len(got) != 0 {
		t.Fatalf("ghost keyword = %d", len(got))
	}
}

func TestRegionQueriesAcrossImages(t *testing.T) {
	s := newDemoStore(t)
	// brain-1 occupies [0,500)^2, brain-2 occupies [250,750)^2 in atlas.
	m1, _ := s.View().MarkImageRegion("brain-1", rtree.Rect2D(200, 200, 300, 300)) // atlas [200,300)
	m2, _ := s.View().MarkImageRegion("brain-2", rtree.Rect2D(0, 0, 100, 100))     // atlas [250,350)
	_, err := s.Commit(s.NewAnnotation().Creator("a").Date("2008-01-01").Refer(m1))
	mustNoErr(t, err)
	_, err = s.Commit(s.NewAnnotation().Creator("b").Date("2008-01-02").Refer(m2))
	mustNoErr(t, err)

	// A query box covering the overlap finds both marks, though they come
	// from different images — the shared coordinate system at work.
	hits := s.View().RegionsOverlapping("atlas", rtree.Rect2D(260, 260, 290, 290))
	if len(hits) != 2 {
		t.Fatalf("cross-image region query = %d hits, want 2", len(hits))
	}
	// SUB_X overlap between the two referents.
	if !hits[0].Overlaps(hits[1]) {
		t.Fatal("registered marks should overlap in system space")
	}
}

func TestCorrelatedData(t *testing.T) {
	s := newDemoStore(t)
	m1, _ := s.View().MarkSequenceInterval("NC_007362", interval.Interval{Lo: 0, Hi: 50})
	a1, err := s.Commit(s.NewAnnotation().Creator("a").Date("2008-01-01").
		Title("anchor").Refer(m1).OntologyRef("go", "protease"))
	mustNoErr(t, err)
	m2, _ := s.View().MarkSequenceInterval("NC_007362", interval.Interval{Lo: 100, Hi: 150})
	_, err = s.Commit(s.NewAnnotation().Creator("b").Date("2008-01-02").
		Title("other").Refer(m2))
	mustNoErr(t, err)

	items, err := s.View().CorrelatedData(a1.ID)
	mustNoErr(t, err)
	var haveObject, haveTerm, haveRelated bool
	for _, it := range items {
		switch {
		case strings.HasPrefix(it.Description, "object"):
			haveObject = true
		case strings.HasPrefix(it.Description, "term"):
			haveTerm = true
		case strings.HasPrefix(it.Description, "annotation"):
			haveRelated = true
		}
	}
	if !haveObject || !haveTerm || !haveRelated {
		t.Fatalf("correlated view incomplete: %+v", items)
	}
	if _, err := s.View().CorrelatedData(9999); !errors.Is(err, ErrNoSuchAnnotation) {
		t.Fatalf("ghost annotation: %v", err)
	}
}

func TestAnnotationsWithTermUnder(t *testing.T) {
	s := newDemoStore(t)
	m, _ := s.View().MarkSequenceInterval("NC_007362", interval.Interval{Lo: 0, Hi: 10})
	_, err := s.Commit(s.NewAnnotation().Creator("a").Date("2008-01-01").
		Refer(m).OntologyRef("go", "serine-protease"))
	mustNoErr(t, err)

	// Exact term: no hit for the ancestor...
	if got := s.View().AnnotationsWithTerm("go", "hydrolase"); len(got) != 0 {
		t.Fatalf("exact ancestor = %d", len(got))
	}
	// ...but ontology-expanded retrieval finds it.
	got, err := s.View().AnnotationsWithTermUnder("go", "hydrolase")
	mustNoErr(t, err)
	if len(got) != 1 {
		t.Fatalf("expanded = %d", len(got))
	}
	if _, err := s.View().AnnotationsWithTermUnder("go", "ghost"); err == nil {
		t.Fatal("ghost root accepted")
	}
}

func TestConnectAnnotations(t *testing.T) {
	s := newDemoStore(t)
	// Three annotations share the image object through different regions.
	var ids []uint64
	for i := 0; i < 3; i++ {
		m, err := s.View().MarkImageRegion("brain-1", rtree.Rect2D(float64(i*50), 0, float64(i*50+40), 40))
		mustNoErr(t, err)
		ann, err := s.Commit(s.NewAnnotation().Creator("u").Date("2008-01-01").Refer(m))
		mustNoErr(t, err)
		ids = append(ids, ann.ID)
	}
	sg, err := s.View().ConnectAnnotations(ids...)
	mustNoErr(t, err)
	if !sg.Connected() {
		t.Fatal("connection subgraph disconnected")
	}
	for _, id := range ids {
		if !slices.Contains(sg.Nodes, agraph2Content(id)) {
			t.Fatalf("subgraph missing annotation %d", id)
		}
	}
	if _, err := s.View().ConnectAnnotations(ids[0], 9999); !errors.Is(err, ErrNoSuchAnnotation) {
		t.Fatalf("ghost: %v", err)
	}
}

func TestContentFragments(t *testing.T) {
	s := newDemoStore(t)
	m, _ := s.View().MarkSequenceInterval("NC_007362", interval.Interval{Lo: 0, Hi: 10})
	ann, err := s.Commit(s.NewAnnotation().Creator("gupta").Date("2008-01-01").
		Body("fragment me").Refer(m))
	mustNoErr(t, err)
	q, err := xquery.Compile("/annotation/body = 'fragment me'")
	mustNoErr(t, err)
	if got, err := q.EvalBool(ann.Content); err != nil || !got {
		t.Fatalf("/annotation/body = 'fragment me' is %v, %v", got, err)
	}
	if _, err := xquery.Compile("((("); err == nil {
		t.Fatal("bad expr accepted")
	}
	if _, err := s.View().Annotation(999); !errors.Is(err, ErrNoSuchAnnotation) {
		t.Fatalf("ghost: %v", err)
	}
}

func TestConcurrentCommits(t *testing.T) {
	s := newDemoStore(t)
	var wg sync.WaitGroup
	errCh := make(chan error, 32)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				m, err := s.MarkDomainInterval("segment4",
					interval.Interval{Lo: int64(i), Hi: int64(i + w + 1)})
				if err != nil {
					errCh <- err
					return
				}
				if _, err := s.Commit(s.NewAnnotation().
					Creator(fmt.Sprintf("user%d", w)).Date("2008-01-01").
					Body("concurrent").Refer(m)); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if got := s.Stats().Annotations; got != 400 {
		t.Fatalf("annotations = %d, want 400", got)
	}
	// Reads are consistent afterwards.
	if got := len(s.SearchKeyword("concurrent", true)); got != 400 {
		t.Fatalf("keyword hits = %d", got)
	}
}

func TestSubXOnHeterogeneousReferents(t *testing.T) {
	s := newDemoStore(t)
	seqMark, _ := s.View().MarkSequenceInterval("NC_007362", interval.Interval{Lo: 0, Hi: 50})
	imgMark, _ := s.View().MarkImageRegion("brain-1", rtree.Rect2D(0, 0, 50, 50))
	cladeMark, _ := s.View().MarkClade("H5N1-tree", "goose", "duck")
	// Heterogeneous marks never overlap.
	if subx.IfOverlap(seqMark.Mark(), imgMark.Mark()) ||
		seqMark.Overlaps(cladeMark) || imgMark.Overlaps(cladeMark) {
		t.Fatal("heterogeneous marks must not overlap")
	}
	// Same-kind overlap works through the referent layer.
	seqMark2, _ := s.View().MarkSequenceInterval("NC_007362", interval.Interval{Lo: 40, Hi: 90})
	if !seqMark.Overlaps(seqMark2) {
		t.Fatal("overlapping sequence marks not detected")
	}
}

func agraph2Content(annID uint64) agraph.NodeRef {
	return agraph.ContentRoot(annID)
}
