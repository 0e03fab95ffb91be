package graphitti

import (
	"strings"
	"testing"

	"graphitti/internal/workload"
)

func TestQuickstartFlow(t *testing.T) {
	s := New()
	d, err := NewDNA("NC_007362", strings.Repeat("ACGT", 100))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterSequence(d); err != nil {
		t.Fatal(err)
	}
	ann, err := MarkAndAnnotate(s, "NC_007362", Span(100, 240),
		"gupta", "2007-11-02", "protease cleavage site here")
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.View().SearchContents("contains(/annotation/body, 'protease')")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != ann.ID {
		t.Fatalf("search = %v", got)
	}
	hits := s.ReferentsAt(d.Domain, 150)
	if len(hits) != 1 {
		t.Fatalf("stab = %v", hits)
	}
}

// TestQ1AgainstGroundTruth runs the paper's intro query on the synthetic
// neuroscience study and checks the planted answers come back exactly.
func TestQ1AgainstGroundTruth(t *testing.T) {
	study, err := workload.Neuroscience(workload.DefaultNeuro)
	if err != nil {
		t.Fatal(err)
	}
	res, err := QueryTP53Images(study.Store, TP53Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.QualifyingImages) != len(study.QualifyingImages) {
		t.Fatalf("qualifying images = %v, want %v", res.QualifyingImages, study.QualifyingImages)
	}
	for i, img := range study.QualifyingImages {
		if res.QualifyingImages[i] != img {
			t.Fatalf("qualifying images = %v, want %v", res.QualifyingImages, study.QualifyingImages)
		}
	}
	if len(res.Annotations) != len(study.TP53Annotations) {
		t.Fatalf("answers = %d, want %d", len(res.Annotations), len(study.TP53Annotations))
	}
	want := make(map[uint64]bool)
	for _, id := range study.TP53Annotations {
		want[id] = true
	}
	for _, ann := range res.Annotations {
		if !want[ann.ID] {
			t.Fatalf("unexpected answer %d", ann.ID)
		}
	}
	// Region counts are populated for every image.
	if len(res.RegionCounts) != len(study.ImageIDs) {
		t.Fatalf("region counts = %d images", len(res.RegionCounts))
	}
	// Unknown ontology errors.
	if _, err := QueryTP53Images(study.Store, TP53Options{Ontology: "ghost"}); err == nil {
		t.Fatal("ghost ontology accepted")
	}
	if _, err := QueryTP53Images(study.Store, TP53Options{TermName: "No Such Term"}); err == nil {
		t.Fatal("ghost term accepted")
	}
	// With an unreachable region threshold no image qualifies, and "paths
	// to all qualifying images" is vacuously true: every keyword
	// candidate answers.
	vac, err := QueryTP53Images(study.Store, TP53Options{MinRegions: 1 << 30})
	if err != nil {
		t.Fatal(err)
	}
	if len(vac.QualifyingImages) != 0 {
		t.Fatalf("qualifying images = %v, want none", vac.QualifyingImages)
	}
	if len(vac.Annotations) != len(study.TP53Annotations) {
		t.Fatalf("vacuous join answers = %d, want all %d keyword candidates",
			len(vac.Annotations), len(study.TP53Annotations))
	}
}

// TestQ2AgainstGroundTruth runs the query-tab query on the influenza study
// and checks every planted chain is found.
func TestQ2AgainstGroundTruth(t *testing.T) {
	cfg := workload.DefaultInfluenza
	cfg.Annotations = 100
	study, err := workload.Influenza(cfg)
	if err != nil {
		t.Fatal(err)
	}
	chains, err := QueryConsecutiveKeyword(study.Store, ConsecutiveOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(chains) < cfg.ProteaseChains {
		t.Fatalf("chains = %d, want >= %d planted", len(chains), cfg.ProteaseChains)
	}
	foundSegments := make(map[string]bool)
	for _, c := range chains {
		if len(c.Referents) != 4 {
			t.Fatalf("chain length = %d", len(c.Referents))
		}
		// Verify consecutiveness and disjointness.
		for i := 1; i < len(c.Referents); i++ {
			if c.Referents[i-1].Interval.Hi > c.Referents[i].Interval.Lo {
				t.Fatalf("chain not disjoint/ordered: %v then %v",
					c.Referents[i-1].Interval, c.Referents[i].Interval)
			}
		}
		// Every link's witness annotation carries the keyword.
		for _, ann := range c.Annotations {
			if !ann.HasToken("protease") {
				t.Fatal("witness annotation lacks the keyword")
			}
		}
		if len(c.Sequences) == 0 {
			t.Fatal("chain has no owning sequences")
		}
		foundSegments[c.Domain] = true
	}
	for _, seg := range study.ChainSegments {
		if !foundSegments[seg] {
			t.Fatalf("planted chain on %s not found", seg)
		}
	}
	// Class-restricted variant still finds the planted chains (they are
	// tagged serine-protease, under hydrolase).
	chains, err = QueryConsecutiveKeyword(study.Store, ConsecutiveOptions{
		Ontology: "go", ClassTerm: "hydrolase",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(chains) < cfg.ProteaseChains {
		t.Fatalf("class-restricted chains = %d", len(chains))
	}
	// A class that excludes them returns none.
	chains, err = QueryConsecutiveKeyword(study.Store, ConsecutiveOptions{
		Ontology: "go", ClassTerm: "kinase",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(chains) != 0 {
		t.Fatalf("kinase-class chains = %d, want 0", len(chains))
	}
}

// TestFig1Scenario reproduces the paper's Figure 1: an interdisciplinary
// a-graph where annotations by different scientists become indirectly
// related through shared referents, and connect() recovers the scenario's
// connection structure.
func TestFig1Scenario(t *testing.T) {
	cfg := workload.DefaultInfluenza
	cfg.Annotations = 60
	study, err := workload.Influenza(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := study.Store

	// Two scientists annotate the same interval: shared referent.
	m1, err := s.MarkDomainInterval("segment1", Span(100, 180))
	if err != nil {
		t.Fatal(err)
	}
	a1, err := s.Commit(s.NewAnnotation().Creator("gupta").Date("2007-11-01").
		Title("observation A").Body("reassortment breakpoint?").Refer(m1))
	if err != nil {
		t.Fatal(err)
	}
	m2, err := s.MarkDomainInterval("segment1", Span(100, 180))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := s.Commit(s.NewAnnotation().Creator("martone").Date("2007-11-03").
		Title("observation B").Body("agrees with A, plus host shift").Refer(m2))
	if err != nil {
		t.Fatal(err)
	}
	rel, err := s.RelatedAnnotations(a1.ID)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range rel {
		if r.ID == a2.ID {
			found = true
		}
	}
	if !found {
		t.Fatal("indirect relation through shared referent not discovered")
	}
	// connect() over three annotations on the same study.
	ids := study.AnnotationIDs[:2]
	sg, err := s.View().ConnectAnnotations(append(ids, a1.ID)...)
	if err == nil {
		if !sg.Connected() {
			t.Fatal("connect returned a disconnected subgraph")
		}
	}
	// Correlated data view on a1 includes the marked object.
	items, err := s.View().CorrelatedData(a1.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(items) == 0 {
		t.Fatal("correlated data empty")
	}
}

func TestFacadeConstructors(t *testing.T) {
	if _, err := NewRNA("r", "ACGU"); err != nil {
		t.Fatal(err)
	}
	if _, err := NewProtein("p", "MKV"); err != nil {
		t.Fatal(err)
	}
	if _, err := NewAlignment("a", []string{"x"}, []string{"AC-G"}); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseNewick("t", "(a,b);"); err != nil {
		t.Fatal(err)
	}
	if NewInteractionGraph("g") == nil {
		t.Fatal("nil interaction graph")
	}
	if NewOntology("o") == nil {
		t.Fatal("nil ontology")
	}
	if _, err := NewCoordinateSystem("cs", Rect2D(0, 0, 1, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := NewImage("i", "cs", Rect2D(0, 0, 1, 1), IdentityRegistration(2)); err != nil {
		t.Fatal(err)
	}
	if Span(1, 5) != (Interval{Lo: 1, Hi: 5}) {
		t.Fatal("Span wrong")
	}
	if Rect3D(0, 0, 0, 1, 1, 1).Volume() != 1 {
		t.Fatal("Rect3D wrong")
	}
}

func TestQueryLanguageThroughFacade(t *testing.T) {
	cfg := workload.DefaultInfluenza
	cfg.Annotations = 40
	study, err := workload.Influenza(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := NewProcessor(study.Store)
	res, err := p.Execute(`
select contents
where {
  ?a isa annotation ; contains "protease" .
  ?t isa term ; ontology "go" ; under "protease" .
  ?a refersTo ?t .
}`, DefaultQueryOptions)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Annotations) < cfg.ProteaseChains*4 {
		t.Fatalf("query found %d annotations", len(res.Annotations))
	}
}
