package workload

import (
	"fmt"
	"math/rand"

	"graphitti/internal/biodata/imaging"
	"graphitti/internal/biodata/seq"
	"graphitti/internal/interval"
	"graphitti/internal/persist"
	"graphitti/internal/prop"
	"graphitti/internal/relstore"
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
func ShardedScenario(cfg RecoveryConfig, systems int) []RecoveryOp {
	if systems < 1 {
		systems = 1
	}
	if cfg.Images <= 0 {
		cfg.Images = DefaultRecovery.Images
	}
	if cfg.Ops <= 0 {
		cfg.Ops = DefaultRecovery.Ops
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var ops []RecoveryOp
	add := func(name string, apply func(Sink) error) {
		ops = append(ops, RecoveryOp{Seq: len(ops) + 1, Name: name, Apply: apply})
	}

	// --- setup: all broadcast ops live here ---
	add("register-ontology nif", func(s Sink) error {
		return s.Apply(persist.OntologyOp(BrainOntology()))
	})
	sysIDs := make([]string, systems)
	for j := range sysIDs {
		name := fmt.Sprintf("atlas-%d", j)
		sysIDs[j] = name
		add("register-system "+name, func(s Sink) error {
			cs, err := imaging.NewCoordinateSystem(name, rtree.Rect2D(0, 0, 100_000, 100_000))
			if err != nil {
				return err
			}
			return s.Apply(persist.SystemOp(cs))
		})
	}
	var imageIDs []string
	for i := 0; i < cfg.Images; i++ {
		id := fmt.Sprintf("brain-%03d", i)
		sys := sysIDs[i%systems]
		imageIDs = append(imageIDs, id)
		ox, oy := float64(rng.Intn(90_000)), float64(rng.Intn(90_000))
		add("register-image "+id, func(s Sink) error {
			reg := imaging.Identity(2)
			reg.Offset = [rtree.MaxDims]float64{ox, oy}
			im, err := imaging.NewImage(id, sys, rtree.Rect2D(0, 0, 1000, 1000), reg)
			if err != nil {
				return err
			}
			im.Modality = "confocal"
			return s.Apply(persist.ImageOp(im))
		})
	}
	tables := []string{"findings-a", "findings-b"}
	for _, tb := range tables {
		add("create-record-table "+tb, func(s Sink) error {
			schema, err := relstore.NewSchema(tb, "id",
				relstore.Column{Name: "id", Type: relstore.String},
				relstore.Column{Name: "gene", Type: relstore.String},
				relstore.Column{Name: "score", Type: relstore.Float64},
			)
			if err != nil {
				return err
			}
			return s.Apply(persist.TableOp(schema))
		})
	}
	for j, sys := range sysIDs {
		add("add-rule overlap-"+sys, func(s Sink) error {
			return s.AddRule(prop.Rule{
				ID: fmt.Sprintf("sh-overlap-%d", j), Edge: prop.EdgeOverlap, Domain: sys,
			})
		})
	}
	add("add-rule nif-closure", func(s Sink) error {
		return s.AddRule(prop.Rule{ID: "sh-closure", Edge: prop.EdgeOntologyClosure, Ontology: "nif"})
	})

	// --- mixed stream up to cfg.Ops; routed ops only ---
	commits := 0
	var live []uint64
	commitRegion := func(imgID string, k int, term, body string) {
		x := float64(rng.Intn(900))
		y := float64(rng.Intn(900))
		w := 20 + rng.Float64()*80
		commits++
		id := uint64(commits)
		live = append(live, id)
		add(fmt.Sprintf("commit-region %s/%d", imgID, k), func(s Sink) error {
			m, err := s.MarkImageRegion(imgID, rtree.Rect2D(x, y, x+w, y+w))
			if err != nil {
				return err
			}
			b := s.NewAnnotation().
				Creator("martone").Date("2007-10-12").
				Title(fmt.Sprintf("region %s/%d", imgID, k)).
				Body(body).
				Refer(m)
			if term != "" {
				b.OntologyRef("nif", term)
			}
			_, err = s.Commit(b)
			return err
		})
	}
	seqCount, recCount, noise := 0, 0, 0
	for len(ops) < cfg.Ops {
		switch p := rng.Intn(100); {
		case p < 20: // DCN region
			img := imageIDs[rng.Intn(len(imageIDs))]
			noise++
			commitRegion(img, 100+noise, "deep-cerebellar-nuclei",
				"expression in the Deep Cerebellar nuclei")
		case p < 32: // two marks on one image: multi-referent, one domain
			img := imageIDs[rng.Intn(len(imageIDs))]
			x1, y1 := float64(rng.Intn(900)), float64(rng.Intn(900))
			x2, y2 := float64(rng.Intn(900)), float64(rng.Intn(900))
			commits++
			id := uint64(commits)
			live = append(live, id)
			n := commits
			add(fmt.Sprintf("commit-pair %s/%d", img, n), func(s Sink) error {
				m1, err := s.MarkImageRegion(img, rtree.Rect2D(x1, y1, x1+40, y1+40))
				if err != nil {
					return err
				}
				m2, err := s.MarkImageRegion(img, rtree.Rect2D(x2, y2, x2+25, y2+25))
				if err != nil {
					return err
				}
				_, err = s.Commit(s.NewAnnotation().
					Creator("gupta").Date("2007-11-20").
					Title(fmt.Sprintf("paired regions %d", n)).
					Body("correlated expression of protein.TP53 across sections").
					Refer(m1).Refer(m2))
				return err
			})
		case p < 44: // noise region without the DCN term
			img := imageIDs[rng.Intn(len(imageIDs))]
			noise++
			commitRegion(img, 200+noise, "cortex", "background signal only")
		case p < 52: // term-only annotation: routed by its ontology
			commits++
			id := uint64(commits)
			live = append(live, id)
			n := commits
			add(fmt.Sprintf("commit-termonly %d", n), func(s Sink) error {
				_, err := s.Commit(s.NewAnnotation().
					Creator("chen").Date("2007-12-05").
					Body(fmt.Sprintf("literature note %d", n)).
					OntologyRef("nif", "cerebellum"))
				return err
			})
		case p < 66: // record insert, alternating tables
			recCount++
			tb := tables[recCount%len(tables)]
			rid := fmt.Sprintf("f-%04d", recCount)
			gene := []string{"TP53", "BRCA1", "EGFR", "MYC"}[rng.Intn(4)]
			score := rng.Float64()
			add("insert-record "+rid, func(s Sink) error {
				return s.Apply(persist.RecordOp(tb, relstore.Row{
					relstore.S(rid), relstore.S(gene), relstore.F(score),
				}))
			})
		case p < 82: // new sequence (its own domain) + interval annotation
			seqCount++
			sid := fmt.Sprintf("seq-%03d", seqCount)
			residues := randDNA(rng, 120+rng.Intn(200))
			add("register-sequence "+sid, func(s Sink) error {
				sq, err := seq.New(sid, seq.DNA, residues)
				if err != nil {
					return err
				}
				return s.Apply(persist.SequenceOp(sq))
			})
			lo := int64(rng.Intn(60))
			hi := lo + 10 + int64(rng.Intn(40))
			commits++
			id := uint64(commits)
			live = append(live, id)
			add("commit-interval "+sid, func(s Sink) error {
				m, err := s.MarkSequenceInterval(sid, interval.Interval{Lo: lo, Hi: hi})
				if err != nil {
					return err
				}
				_, err = s.Commit(s.NewAnnotation().
					Creator("chen").Date("2007-09-01").
					Body("conserved motif in " + sid).
					Refer(m))
				return err
			})
		default: // delete an earlier annotation
			if len(live) == 0 {
				continue
			}
			i := rng.Intn(len(live))
			victim := live[i]
			live = append(live[:i], live[i+1:]...)
			add(fmt.Sprintf("delete-annotation %d", victim), func(s Sink) error {
				return s.DeleteAnnotation(victim)
			})
		}
	}
	return ops
}

// BroadcastPrefixLen returns how many leading ops of a scenario are
// broadcast ops' upper bound: the position after the last broadcast op
// (ontology registrations and rule changes). A sharded crash harness
// must only kill after this point, so a kill never lands between the
// per-shard applications of one broadcast.
func BroadcastPrefixLen(ops []RecoveryOp) int {
	last := 0
	for _, op := range ops {
		switch {
		case hasPrefix(op.Name, "register-ontology"),
			hasPrefix(op.Name, "add-rule"),
			hasPrefix(op.Name, "delete-rule"):
			last = op.Seq
		}
	}
	return last
}

func hasPrefix(s, p string) bool { return len(s) >= len(p) && s[:len(p)] == p }
