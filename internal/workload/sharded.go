package workload

import (
	"fmt"

	"graphitti/internal/core"
	"graphitti/internal/persist"
	"graphitti/internal/prop"
	"graphitti/internal/rtree"
)

// ShardedScenario generates a deterministic mutation stream like
// RecoveryScenario but spread across several coordinate systems (each
// with its own image set), many sequence domains, and two record tables,
// so every pipeline of a sharded store sees traffic. Two properties make
// the stream byte-equivalent between a sharded and an unsharded store,
// which the differential and sharded crash tests assert:
//
//   - broadcast ops (the ontology and every propagation rule) sit in the
//     setup prefix, before any op a crash harness may cut at, so a kill
//     never lands mid-broadcast;
//   - every annotation's marks stay within one routing domain (one
//     image's system, one sequence's domain, or terms only), the
//     workload class the sharded store serves exactly.
func ShardedScenario(cfg RecoveryConfig, systems int) []persist.Op {
	if systems < 1 {
		systems = 1
	}
	g := newStream(&cfg)
	g.register(persist.OntologyOp(BrainOntology()))
	sysIDs := make([]string, systems)
	for j := range sysIDs {
		sysIDs[j] = fmt.Sprintf("atlas-%d", j)
		g.system(sysIDs[j])
	}
	var imageIDs []string
	for i := 0; i < cfg.Images; i++ {
		id := fmt.Sprintf("brain-%03d", i)
		imageIDs = append(imageIDs, id)
		g.image(id, sysIDs[i%systems])
	}
	tables := []string{"findings-a", "findings-b"}
	for _, tb := range tables {
		g.table(tb)
	}
	for j, sys := range sysIDs {
		g.emit(persist.RuleOp(prop.Rule{ID: fmt.Sprintf("sh-overlap-%d", j), Edge: prop.EdgeOverlap, Domain: sys}))
	}
	g.emit(persist.RuleOp(prop.Rule{ID: "sh-closure", Edge: prop.EdgeOntologyClosure, Ontology: "nif"}))

	// The mixed stream holds routed ops only.
	recCount, noise := 0, 0
	for len(g.ops) < cfg.Ops {
		switch p := g.rng.Intn(100); {
		case p < 20: // DCN region
			noise++
			g.region(g.pick(imageIDs), 100+noise, "deep-cerebellar-nuclei", dcnBody)
		case p < 32: // two marks on one image: multi-referent, one domain
			img := g.pick(imageIDs)
			x1, y1 := float64(g.rng.Intn(900)), float64(g.rng.Intn(900))
			x2, y2 := float64(g.rng.Intn(900)), float64(g.rng.Intn(900))
			g.commit(core.NewBuilder().
				Creator("gupta").Date("2007-11-20").
				Title(fmt.Sprintf("paired regions %d", g.commits+1)).
				Body("correlated expression of protein.TP53 across sections").
				Refer(g.markRegion(img, rtree.Rect2D(x1, y1, x1+40, y1+40))).
				Refer(g.markRegion(img, rtree.Rect2D(x2, y2, x2+25, y2+25))))
		case p < 44: // noise region without the DCN term
			noise++
			g.region(g.pick(imageIDs), 200+noise, "cortex", noiseBody)
		case p < 52: // term-only annotation: routed by its ontology
			g.commit(core.NewBuilder().
				Creator("chen").Date("2007-12-05").
				Body(fmt.Sprintf("literature note %d", g.commits+1)).
				OntologyRef("nif", "cerebellum"))
		case p < 66: // record insert, alternating tables
			recCount++
			g.record(tables[recCount%len(tables)], recCount)
		case p < 82: // new sequence (its own domain) + interval annotation
			g.motif()
		default: // delete an earlier annotation
			g.deleteOne()
		}
	}
	return g.ops
}
