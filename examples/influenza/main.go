// Influenza: the paper's virology demonstration study end to end.
//
// Reproduces the Figure 2 annotation-tab workflow (marking sub-structures
// of all six demo data types), the Figure 1 a-graph scenario (indirect
// relations through shared referents), and the Figure 3 / §III query-tab
// query (4 consecutive disjoint protease intervals).
//
//	go run ./examples/influenza
package main

import (
	"fmt"
	"log"
	"strings"

	"graphitti"
	"graphitti/internal/workload"
)

func main() {
	// Generate the synthetic Avian-Influenza study: DNA sequences on
	// shared segment domains, an alignment, a phylogeny, the NS1
	// interactome, isolate records, an enzyme ontology, and a few hundred
	// annotations including planted protease chains.
	cfg := workload.DefaultInfluenza
	cfg.Annotations = 300
	study, err := workload.Influenza(cfg)
	if err != nil {
		log.Fatal(err)
	}
	s := study.Store

	fmt.Println("=== admin view (paper's third tab) ===")
	st := s.Stats()
	fmt.Printf("sequences=%d alignments=%d trees=%d interaction-graphs=%d\n",
		st.Sequences, st.Alignments, st.Trees, st.InteractionGraphs)
	fmt.Printf("annotations=%d referents=%d interval-trees=%d (one per segment)\n",
		st.Annotations, st.Referents, st.IntervalTrees)
	fmt.Printf("a-graph: %d nodes, %d edges\n\n", st.GraphNodes, st.GraphEdges)

	// --- Fig. 2: the annotation-tab workflow across data types ---
	fmt.Println("=== annotation tab: marking heterogeneous sub-structures ===")

	// A clade of the phylogeny.
	clade, err := s.View().MarkClade(study.TreeID, "duck", "chicken")
	if err != nil {
		log.Fatal(err)
	}
	// A subgraph of the interactome.
	subgraph, err := s.View().MarkSubgraph(study.GraphID, "NS1", "PKR", "EIF2A")
	if err != nil {
		log.Fatal(err)
	}
	// One annotation linking BOTH referents — a cross-type annotation, the
	// heart of the heterogeneous model.
	ann, err := s.Commit(s.NewAnnotation().
		Creator("condit").
		Date("2007-11-20").
		Title("host-range correlation").
		Body("The avian clade correlates with the NS1-PKR inhibition module.").
		Refer(clade).
		Refer(subgraph).
		OntologyRef("go", "protease"))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("cross-type annotation %d commits a clade AND an interaction subgraph:\n%s\n",
		ann.ID, ann.Content.String())

	// --- Fig. 1: indirect relations through a shared referent ---
	fmt.Println("=== a-graph: indirect relations (Fig. 1) ===")
	m1, err := s.MarkDomainInterval("segment1", graphitti.Span(700, 800))
	if err != nil {
		log.Fatal(err)
	}
	first, err := s.Commit(s.NewAnnotation().Creator("gupta").Date("2007-11-21").
		Title("breakpoint?").Body("possible reassortment breakpoint").Refer(m1))
	if err != nil {
		log.Fatal(err)
	}
	m2, err := s.MarkDomainInterval("segment1", graphitti.Span(700, 800))
	if err != nil {
		log.Fatal(err)
	}
	second, err := s.Commit(s.NewAnnotation().Creator("martone").Date("2007-11-22").
		Title("confirmed").Body("agree; coverage supports the breakpoint").Refer(m2))
	if err != nil {
		log.Fatal(err)
	}
	related, err := s.RelatedAnnotations(first.ID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("annotation %d (gupta) is indirectly related to:\n", first.ID)
	for _, r := range related {
		fmt.Printf("  annotation %d by %s (%q)\n", r.ID, r.DC.First("creator"), r.DC.First("title"))
	}
	path, err := s.View().PathBetweenAnnotations(first.ID, second.ID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("a-graph path between them has %d edges (content-referent-content)\n\n", path.Len())

	// --- §III / Fig. 3: the query-tab query ---
	fmt.Println("=== query tab: 4 consecutive disjoint protease intervals (Q2) ===")
	chains, err := graphitti.QueryConsecutiveKeyword(s, graphitti.ConsecutiveOptions{})
	if err != nil {
		log.Fatal(err)
	}
	for i, c := range chains {
		fmt.Printf("chain %d on %s (sequences: %s)\n", i+1, c.Domain, strings.Join(c.Sequences, ", "))
		for _, r := range c.Referents {
			fmt.Printf("  interval %v\n", r.Interval)
		}
	}
	fmt.Println()

	// The same question through the graph query language.
	fmt.Println("=== the same through the SPARQL-like language ===")
	p := graphitti.NewProcessor(s)
	res, err := p.Execute(`
select contents
where {
  ?a isa annotation ; contains "protease" .
  ?t isa term ; ontology "go" ; under "protease" .
  ?a refersTo ?t .
}`, graphitti.DefaultQueryOptions)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("plan: bind %v; %d matches, %d candidate annotations / %d candidate terms\n",
		res.Stats.Order, res.Stats.Matches,
		res.Stats.CandidateCounts["a"], res.Stats.CandidateCounts["t"])
	fmt.Printf("%d annotation(s) reference a protease-family term AND contain the keyword\n",
		len(res.Annotations))
}
