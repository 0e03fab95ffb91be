// Quickstart: register a sequence, annotate an interval, search.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"strings"

	"graphitti"
)

func main() {
	// 1. Create a store (in-memory; all tables and indexes are ready).
	store := graphitti.New()

	// 2. Register a data object — here a DNA sequence. Sequences carry the
	//    coordinate domain they live in; leaving it empty makes the
	//    sequence its own domain.
	dna, err := graphitti.NewDNA("NC_007362", strings.Repeat("ACGT", 500))
	if err != nil {
		log.Fatal(err)
	}
	dna.Description = "Influenza A virus (A/goose/Guangdong/1/96) segment 4"
	if err := store.RegisterSequence(dna); err != nil {
		log.Fatal(err)
	}

	// 3. Mark a sub-structure and commit an annotation pointing at it.
	mark, err := store.View().MarkSequenceInterval("NC_007362", graphitti.Span(100, 240))
	if err != nil {
		log.Fatal(err)
	}
	ann, err := store.Commit(store.NewAnnotation().
		Creator("gupta").
		Date("2007-11-02").
		Title("protease site").
		Body("The protease cleavage site overlaps this window.").
		Tag("confidence", "high").
		Refer(mark))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("committed annotation %d; content document:\n\n%s\n", ann.ID, ann.Content.String())

	// 4. Search annotation contents with a path-expression query.
	hits, err := store.View().SearchContents("contains(/annotation/body, 'protease')")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("content search matched %d annotation(s)\n", len(hits))

	// 5. Spatial retrieval: which marks contain position 150?
	refs := store.ReferentsAt(dna.Domain, 150)
	for _, r := range refs {
		fmt.Printf("referent at position 150: %v\n", r)
	}

	// 6. Admin view.
	st := store.Stats()
	fmt.Printf("store: %d annotation(s), %d referent(s), %d interval tree(s)\n",
		st.Annotations, st.Referents, st.IntervalTrees)
}
