// Collaboration: concurrent annotators building one a-graph.
//
// The paper motivates annotation as a collaboration medium: "scientists …
// often use annotations to share their opinions in a collaborative study".
// This example runs several annotators concurrently against one store,
// then explores the web of indirect relations and connection subgraphs
// their shared marks create.
//
//	go run ./examples/collaboration
package main

import (
	"fmt"
	"log"
	"strings"
	"sync"

	"graphitti"
)

func main() {
	store := graphitti.New()

	// Shared substrate: one chromosome-scale domain, three sequences.
	for i := 0; i < 3; i++ {
		dna, err := graphitti.NewDNA(fmt.Sprintf("NC_%d", i), strings.Repeat("ACGT", 2500))
		if err != nil {
			log.Fatal(err)
		}
		dna.Domain = "chr1"
		dna.Offset = int64(i * 5000)
		if err := store.RegisterSequence(dna); err != nil {
			log.Fatal(err)
		}
	}
	ont := graphitti.NewOntology("lab")
	for _, term := range []string{"feature", "binding-site", "repeat"} {
		if _, err := ont.AddTerm(term, term); err != nil {
			log.Fatal(err)
		}
	}
	if err := ont.AddEdge("binding-site", "feature", "is_a", 0); err != nil {
		log.Fatal(err)
	}
	if err := ont.AddEdge("repeat", "feature", "is_a", 0); err != nil {
		log.Fatal(err)
	}
	if err := store.RegisterOntology(ont); err != nil {
		log.Fatal(err)
	}

	// Four annotators sweep the domain concurrently. Every annotator marks
	// the same hotspot [4000,4100) once — identical marks resolve to one
	// shared referent, relating everyone's work.
	annotators := []string{"ada", "grace", "edsger", "barbara"}
	var wg sync.WaitGroup
	errCh := make(chan error, len(annotators))
	for w, who := range annotators {
		wg.Add(1)
		go func(w int, who string) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				lo := int64(w*3000 + i*110)
				m, err := store.MarkDomainInterval("chr1", graphitti.Span(lo, lo+90))
				if err != nil {
					errCh <- err
					return
				}
				term := "repeat"
				if i%3 == 0 {
					term = "binding-site"
				}
				if _, err := store.Commit(store.NewAnnotation().
					Creator(who).Date("2008-02-11").
					Title(fmt.Sprintf("%s sweep %d", who, i)).
					Body(fmt.Sprintf("feature candidate at offset %d", lo)).
					Refer(m).OntologyRef("lab", term)); err != nil {
					errCh <- err
					return
				}
			}
			// The shared hotspot.
			m, err := store.MarkDomainInterval("chr1", graphitti.Span(4000, 4100))
			if err != nil {
				errCh <- err
				return
			}
			if _, err := store.Commit(store.NewAnnotation().
				Creator(who).Date("2008-02-12").
				Title(who+" on the hotspot").
				Body("everyone sees something here").
				Refer(m).OntologyRef("lab", "binding-site")); err != nil {
				errCh <- err
				return
			}
		}(w, who)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		log.Fatal(err)
	}

	st := store.Stats()
	fmt.Printf("after concurrent annotation: %d annotations, %d referents (hotspot shared)\n",
		st.Annotations, st.Referents)

	// The hotspot's referent carries one annotation per annotator.
	hot := store.ReferentsAt("chr1", 4050)
	for _, r := range hot {
		anns := store.View().AnnotationsOfReferent(r.ID)
		if len(anns) < len(annotators) {
			continue
		}
		fmt.Printf("shared referent %d at %v carries %d annotations:\n", r.ID, r.Interval, len(anns))
		for _, a := range anns {
			fmt.Printf("  %d by %s\n", a.ID, a.DC.First("creator"))
		}
		// Connect all four annotators' hotspot annotations: the connection
		// subgraph is the star around the shared referent.
		ids := make([]uint64, len(anns))
		for i, a := range anns {
			ids[i] = a.ID
		}
		sg, err := store.View().ConnectAnnotations(ids...)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("connection subgraph: %d nodes, %d edges, connected=%v\n",
			sg.NodeCount(), sg.EdgeCount(), sg.Connected())
	}

	// Who worked near whom? Ontology-expanded retrieval plus the keyword
	// index make cross-annotator review queries one-liners.
	bindingSites, err := store.View().AnnotationsWithTermUnder("lab", "feature")
	if err != nil {
		log.Fatal(err)
	}
	perCreator := map[string]int{}
	for _, a := range bindingSites {
		perCreator[a.DC.First("creator")]++
	}
	fmt.Println("annotations under 'feature' per annotator:")
	for _, who := range annotators {
		fmt.Printf("  %-8s %d\n", who, perCreator[who])
	}
}
