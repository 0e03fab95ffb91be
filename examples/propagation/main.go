// Propagation: rule-driven derived annotations with provenance.
//
// Annotations on one object implicitly annotate related objects — two
// marks on overlapping spans of the same chromosome are about the same
// region; a reference to "serine protease" is also a reference to
// "protease". Propagation rules materialize those implications as
// derived annotations, maintain them incrementally as annotations commit
// and delete, and record provenance so every derived fact can be walked
// back to its source.
//
//	go run ./examples/propagation
package main

import (
	"fmt"
	"log"
	"strings"

	"graphitti"
)

func main() {
	store := graphitti.New()

	// A chromosome domain shared by one sequence, and a small ontology.
	dna, err := graphitti.NewDNA("NC_007362", strings.Repeat("ACGT", 500))
	if err != nil {
		log.Fatal(err)
	}
	dna.Domain = "segment4"
	if err := store.RegisterSequence(dna); err != nil {
		log.Fatal(err)
	}
	onto := graphitti.NewOntology("go")
	for _, term := range []string{"enzyme", "hydrolase", "protease", "serine-protease"} {
		if _, err := onto.AddTerm(term, term); err != nil {
			log.Fatal(err)
		}
	}
	for _, edge := range [][2]string{
		{"hydrolase", "enzyme"}, {"protease", "hydrolase"}, {"serine-protease", "protease"},
	} {
		if err := onto.AddEdge(edge[0], edge[1], "is_a", 0); err != nil {
			log.Fatal(err)
		}
	}
	if err := store.RegisterOntology(onto); err != nil {
		log.Fatal(err)
	}

	// Two propagation rules: overlap within the segment4 domain, and
	// ontology closure over is_a.
	for _, rule := range []graphitti.Rule{
		{ID: "seg4-overlap", Edge: graphitti.EdgeOverlap, Domain: "segment4"},
		{ID: "go-closure", Edge: graphitti.EdgeOntologyClosure, Ontology: "go"},
	} {
		if err := graphitti.AddRule(store, rule); err != nil {
			log.Fatal(err)
		}
	}

	commit := func(lo, hi int64, body, term string) *graphitti.Annotation {
		mark, err := store.MarkDomainInterval("segment4", graphitti.Span(lo, hi))
		if err != nil {
			log.Fatal(err)
		}
		b := store.NewAnnotation().
			Creator("gupta").Date("2007-11-02").Body(body).Refer(mark)
		if term != "" {
			b.OntologyRef("go", term)
		}
		ann, err := store.Commit(b)
		if err != nil {
			log.Fatal(err)
		}
		return ann
	}

	// Rules are live: these commits maintain the derived table
	// incrementally, no batch step.
	a1 := commit(100, 240, "protease cleavage site", "serine-protease")
	a2 := commit(200, 300, "high conservation window", "")

	fmt.Printf("annotation %d derives:\n", a1.ID)
	for _, f := range store.View().DerivedFrom(a1.ID) {
		fmt.Printf("  [%s] -> %s  (%s)\n", f.Rule, f.Target, f.Witness)
	}

	// Provenance walkthrough: what was derived ONTO annotation 2, and
	// from where? The witness names the edge that carried it.
	prov, err := store.View().DerivedOnto(a2.ID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nprovenance of annotation %d:\n", a2.ID)
	for _, f := range prov {
		fmt.Printf("  from annotation %d via rule %s (%s)\n", f.Source, f.Rule, f.Witness)
	}

	// Derived facts are first-class in the query language.
	proc := graphitti.NewProcessor(store)
	res, err := proc.Execute(`select contents where { ?a isa annotation ; derived "seg4-overlap" . }`,
		graphitti.DefaultQueryOptions)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nannotations deriving via seg4-overlap: %d\n", len(res.Annotations))

	// Deleting a source deletes its derived facts atomically.
	if err := store.DeleteAnnotation(a1.ID); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after deleting annotation %d: %d derived facts remain\n",
		a1.ID, store.Stats().Derived)
}
