package workload

import (
	"testing"

	"graphitti/internal/ontology"
)

func TestEnzymeOntology(t *testing.T) {
	o := EnzymeOntology()
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	ci, err := o.CI("protease")
	if err != nil {
		t.Fatal(err)
	}
	if len(ci) != 2 {
		t.Fatalf("CI(protease) = %v", ci)
	}
}

func TestBrainOntology(t *testing.T) {
	o := BrainOntology()
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	term, ok := o.TermByName("Deep Cerebellar nuclei")
	if !ok || term.ID != "deep-cerebellar-nuclei" {
		t.Fatalf("TermByName = %v, %v", term, ok)
	}
}

func TestLayeredOntology(t *testing.T) {
	o := LayeredOntology("bench", 4, 3, 1)
	// 1 + 3 + 9 + 27 + 81 terms.
	if o.Len() != 121 {
		t.Fatalf("terms = %d", o.Len())
	}
	if err := o.Validate(); err != nil {
		t.Fatal(err)
	}
	ci, err := o.CI("root")
	if err != nil {
		t.Fatal(err)
	}
	if len(ci) != 120 {
		t.Fatalf("CI(root) = %d", len(ci))
	}
	// Determinism: same seed, same graph.
	o2 := LayeredOntology("bench", 4, 3, 1)
	if o2.EdgeCount() != o.EdgeCount() {
		t.Fatal("generator not deterministic")
	}
	_ = ontology.InstanceRelations
}

func TestInfluenzaStudy(t *testing.T) {
	cfg := DefaultInfluenza
	cfg.Annotations = 50
	study, err := Influenza(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := study.Store.Stats()
	if st.Sequences != cfg.Segments*cfg.SeqsPerSeg {
		t.Fatalf("sequences = %d", st.Sequences)
	}
	// 50 random + 3 chains * 4 + 4 structural.
	want := 50 + cfg.ProteaseChains*4 + 4
	if st.Annotations != want {
		t.Fatalf("annotations = %d, want %d", st.Annotations, want)
	}
	if st.IntervalTrees == 0 || st.IntervalTrees > cfg.Segments {
		t.Fatalf("interval trees = %d (must be consolidated per segment)", st.IntervalTrees)
	}
	if len(study.ChainSegments) != cfg.ProteaseChains {
		t.Fatalf("chain segments = %v", study.ChainSegments)
	}
	// Planted chains are discoverable by keyword.
	hits := study.Store.View().SearchKeyword("protease")
	if len(hits) < cfg.ProteaseChains*4 {
		t.Fatalf("protease annotations = %d", len(hits))
	}
	// Determinism.
	study2, err := Influenza(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if study2.Store.Stats() != st {
		t.Fatal("influenza generator not deterministic")
	}
}

func TestNeuroscienceStudy(t *testing.T) {
	cfg := DefaultNeuro
	study, err := Neuroscience(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := study.Store.Stats()
	if st.Images != cfg.Images {
		t.Fatalf("images = %d", st.Images)
	}
	if st.RTrees != 1 {
		t.Fatalf("R-trees = %d (one shared system expected)", st.RTrees)
	}
	if len(study.QualifyingImages) != (cfg.Images+2)/3 {
		t.Fatalf("qualifying images = %d", len(study.QualifyingImages))
	}
	if len(study.TP53Annotations) != cfg.TP53Annotations {
		t.Fatalf("TP53 annotations = %d", len(study.TP53Annotations))
	}
	// The planted TP53 annotations carry the keyword.
	hits := study.Store.View().SearchKeyword("protein.tp53")
	if len(hits) != cfg.TP53Annotations {
		t.Fatalf("keyword hits = %d", len(hits))
	}
	// Each TP53 annotation has a path to every qualifying image.
	for _, annID := range study.TP53Annotations {
		for range study.QualifyingImages {
			// Path existence is exercised in the facade Q1 test; here we
			// just confirm the annotations committed.
			if _, err := study.Store.Annotation(annID); err != nil {
				t.Fatal(err)
			}
		}
	}
}
