// Neuroscience: the paper's brain-imaging study and the §I intro query.
//
// Builds mouse-brain images registered into one shared coordinate system
// (so regions from different images land in one R-tree), annotates regions
// with NIF-style ontology terms, and answers the paper's intro query:
//
//	"Find annotations that contain the term 'protein.TP53' and have paths
//	 to all mouse brain images having at least 2 regions annotated with
//	 ontology term 'Deep Cerebellar nuclei'."
//
//	go run ./examples/neuroscience
package main

import (
	"fmt"
	"log"

	"graphitti"
	"graphitti/internal/workload"
)

func main() {
	study, err := workload.Neuroscience(workload.DefaultNeuro)
	if err != nil {
		log.Fatal(err)
	}
	s := study.Store

	st := s.Stats()
	fmt.Printf("study: %d images in one coordinate system, %d R-tree(s), %d annotations\n\n",
		st.Images, st.RTrees, st.Annotations)

	// Cross-image spatial query: all region marks in a window of the
	// shared atlas, regardless of which image they came from.
	window := graphitti.Rect2D(2000, 2000, 4000, 4000)
	regions := s.View().RegionsOverlapping(study.System, window)
	fmt.Printf("region marks overlapping atlas window %v: %d\n", window, len(regions))
	byImage := map[string]int{}
	for _, r := range regions {
		byImage[r.ObjectID]++
	}
	for img, n := range byImage {
		fmt.Printf("  %s: %d\n", img, n)
	}
	fmt.Println()

	// The intro query.
	res, err := graphitti.QueryTP53Images(s, graphitti.TP53Options{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Q1: protein.TP53 annotations with paths to all qualifying images")
	fmt.Printf("images with >= 2 'Deep Cerebellar nuclei' regions: %d\n", len(res.QualifyingImages))
	for _, img := range res.QualifyingImages {
		fmt.Printf("  %s (%d regions)\n", img, res.RegionCounts[img])
	}
	fmt.Printf("answer annotations: %d\n", len(res.Annotations))
	for _, ann := range res.Annotations {
		fmt.Printf("  annotation %d: %s\n", ann.ID, ann.DC.First("title"))
	}
	fmt.Println()

	// Ontology-expanded retrieval: asking at the cerebellum level catches
	// deep-cerebellar-nuclei annotations through the CI closure.
	v := s.View()
	exact := v.AnnotationsWithTerm("nif", "cerebellum")
	expanded, err := v.AnnotationsWithTermUnder("nif", "cerebellum")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("annotations tagged exactly 'cerebellum': %d\n", len(exact))
	fmt.Printf("annotations tagged cerebellum-or-below:  %d (CI closure)\n", len(expanded))

	// Correlated-data view of the first TP53 answer.
	if len(res.Annotations) > 0 {
		items, err := s.View().CorrelatedData(res.Annotations[0].ID)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\ncorrelated data of annotation %d (first 8 items):\n", res.Annotations[0].ID)
		for i, it := range items {
			if i == 8 {
				fmt.Printf("  ... and %d more\n", len(items)-8)
				break
			}
			fmt.Printf("  [%s] %s\n", it.Label, it.Description)
		}
	}
}
