package workload

import (
	"fmt"
	"math/rand"

	"graphitti/internal/biodata/imaging"
	"graphitti/internal/biodata/seq"
	"graphitti/internal/core"
	"graphitti/internal/interval"
	"graphitti/internal/persist"
	"graphitti/internal/prop"
	"graphitti/internal/relstore"
	"graphitti/internal/rtree"
)

// Sink is the mutation surface a recovery scenario drives: Apply for
// everything that is registered (persist has a constructor per kind),
// plus the calls that take or return live objects. The durable store and
// the shard set satisfy it directly; wrap a *core.Store with AsSink. The
// point: the crash-recovery harness applies the same deterministic op
// stream to an in-memory store and to a logged store (possibly killed and
// replayed partway) and compares the results op-for-op.
type Sink interface {
	Apply(persist.Op) error
	MarkImageRegion(imageID string, local rtree.Rect) (*core.Referent, error)
	MarkSequenceInterval(seqID string, local interval.Interval) (*core.Referent, error)
	NewAnnotation() *core.Builder
	Commit(*core.Builder) (*core.Annotation, error)
	DeleteAnnotation(uint64) error
	AddRule(prop.Rule) error
}

// coreSink adapts *core.Store to Sink: an op applies itself, rule ops go
// through the store's propagation engine (attached on first use),
// everything else is the store's own method.
type coreSink struct{ *core.Store }

func (c coreSink) Apply(op persist.Op) error { return op.Apply(c.Store) }
func (c coreSink) AddRule(r prop.Rule) error { return prop.Attach(c.Store).AddRule(r) }

// AsSink wraps an in-memory store as a scenario Sink.
func AsSink(s *core.Store) Sink { return coreSink{s} }

// RecoveryOp is one step of a recovery scenario. Apply is a pure function
// of the generation-time randomness: applying the same op list to two
// sinks produces identical stores (including assigned IDs, which are
// sequential in commit order).
type RecoveryOp struct {
	// Seq is the 1-based position in the stream — it equals the durable
	// store's op sequence number after the op is applied.
	Seq int
	// Name describes the op for test failure messages.
	Name string
	// Apply performs the mutation.
	Apply func(Sink) error
}

// RecoveryConfig sizes a recovery scenario.
type RecoveryConfig struct {
	Seed int64
	// Images is the brain-image count; images 0, 3, 6, … become Q1
	// qualifying (>= 2 DCN-term regions).
	Images int
	// Ops is the total number of mutations, setup included.
	Ops int
}

// DefaultRecovery is sized so a scenario exercises every op kind,
// includes TP53 ground truth for the paper's Q1 query, and crosses a
// small compaction threshold several times.
var DefaultRecovery = RecoveryConfig{Seed: 42, Images: 6, Ops: 400}

// RecoveryScenario generates a deterministic mutation stream: ontology,
// coordinate system and image setup, then a shuffled mix of DCN-region
// commits, TP53 commits (keyword "protein.TP53" with marks on every
// qualifying image), noise commits, sequence registrations with interval
// annotations, record-table inserts, and deletions of earlier
// annotations. All randomness is drawn at generation time, so Apply
// closures are replayable against any number of sinks.
func RecoveryScenario(cfg RecoveryConfig) []RecoveryOp {
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

	// --- setup ---
	add("register-ontology nif", func(s Sink) error {
		return s.Apply(persist.OntologyOp(BrainOntology()))
	})
	add("register-system atlas", func(s Sink) error {
		cs, err := imaging.NewCoordinateSystem("atlas", rtree.Rect2D(0, 0, 100_000, 100_000))
		if err != nil {
			return err
		}
		return s.Apply(persist.SystemOp(cs))
	})
	var imageIDs, qualifying []string
	for i := 0; i < cfg.Images; i++ {
		id := fmt.Sprintf("mouse-brain-%03d", i)
		imageIDs = append(imageIDs, id)
		if i%3 == 0 {
			qualifying = append(qualifying, id)
		}
		ox, oy := float64(rng.Intn(90_000)), float64(rng.Intn(90_000))
		add("register-image "+id, func(s Sink) error {
			reg := imaging.Identity(2)
			reg.Offset = [rtree.MaxDims]float64{ox, oy}
			im, err := imaging.NewImage(id, "atlas", rtree.Rect2D(0, 0, 1000, 1000), reg)
			if err != nil {
				return err
			}
			im.Modality = "confocal"
			return s.Apply(persist.ImageOp(im))
		})
	}
	add("create-record-table findings", func(s Sink) error {
		schema, err := relstore.NewSchema("findings", "id",
			relstore.Column{Name: "id", Type: relstore.String},
			relstore.Column{Name: "gene", Type: relstore.String},
			relstore.Column{Name: "score", Type: relstore.Float64},
		)
		if err != nil {
			return err
		}
		return s.Apply(persist.TableOp(schema))
	})
	// Propagation rules go in before the mixed stream so every commit and
	// delete below exercises the engine's incremental delta path; the
	// crash harness then checks the replayed derived table matches an
	// in-memory one fact-for-fact.
	add("add-rule atlas-overlap", func(s Sink) error {
		return s.AddRule(prop.Rule{ID: "rec-overlap", Edge: prop.EdgeOverlap, Domain: "atlas"})
	})
	add("add-rule nif-closure", func(s Sink) error {
		return s.AddRule(prop.Rule{ID: "rec-closure", Edge: prop.EdgeOntologyClosure, Ontology: "nif"})
	})
	// Ground truth for Q1: two DCN regions on every qualifying image.
	commits := 0 // annotation IDs are 1-based in commit order
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
	for _, imgID := range qualifying {
		for k := 0; k < 2; k++ {
			commitRegion(imgID, k, "deep-cerebellar-nuclei",
				"expression in the Deep Cerebellar nuclei")
		}
	}

	// --- mixed stream up to cfg.Ops ---
	seqCount, recCount, noise := 0, 0, 0
	for len(ops) < cfg.Ops {
		switch p := rng.Intn(100); {
		case p < 22: // DCN region on a random image
			img := imageIDs[rng.Intn(len(imageIDs))]
			noise++
			commitRegion(img, 100+noise, "deep-cerebellar-nuclei",
				"expression in the Deep Cerebellar nuclei")
		case p < 34: // TP53 annotation with marks on every qualifying image
			xs := make([]float64, len(qualifying))
			for i := range xs {
				xs[i] = float64(rng.Intn(900))
			}
			commits++
			id := uint64(commits)
			live = append(live, id)
			n := commits
			add(fmt.Sprintf("commit-tp53 %d", n), func(s Sink) error {
				b := s.NewAnnotation().
					Creator("gupta").Date("2007-11-20").
					Title(fmt.Sprintf("TP53 finding %d", n)).
					Body("correlated expression of protein.TP53 across cerebellar sections")
				for i, imgID := range qualifying {
					m, err := s.MarkImageRegion(imgID, rtree.Rect2D(xs[i], xs[i], xs[i]+35, xs[i]+35))
					if err != nil {
						return err
					}
					b.Refer(m)
				}
				_, err := s.Commit(b)
				return err
			})
		case p < 56: // noise region without the DCN term
			img := imageIDs[rng.Intn(len(imageIDs))]
			noise++
			commitRegion(img, 200+noise, "cortex", "background signal only")
		case p < 70: // record insert
			recCount++
			rid := fmt.Sprintf("f-%04d", recCount)
			gene := []string{"TP53", "BRCA1", "EGFR", "MYC"}[rng.Intn(4)]
			score := rng.Float64()
			add("insert-record "+rid, func(s Sink) error {
				return s.Apply(persist.RecordOp("findings", relstore.Row{
					relstore.S(rid), relstore.S(gene), relstore.F(score),
				}))
			})
		case p < 82: // new sequence + interval annotation on it
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

// ApplyOps applies ops[from:to] (0-based slice bounds in op order) to a
// sink, failing on the first error.
func ApplyOps(s Sink, ops []RecoveryOp) error {
	for _, op := range ops {
		if err := op.Apply(s); err != nil {
			return fmt.Errorf("workload: op %d (%s): %w", op.Seq, op.Name, err)
		}
	}
	return nil
}
