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
// annotations. Op i (0-based) is the durable store's op i+1; applied in
// order to any number of stores, the stream leaves them identical,
// assigned IDs included (annotation IDs are 1-based in commit order).
func RecoveryScenario(cfg RecoveryConfig) []persist.Op {
	g := newStream(&cfg)
	g.register(persist.OntologyOp(BrainOntology()))
	g.system("atlas")
	var imageIDs, qualifying []string
	for i := 0; i < cfg.Images; i++ {
		id := fmt.Sprintf("mouse-brain-%03d", i)
		imageIDs = append(imageIDs, id)
		if i%3 == 0 {
			qualifying = append(qualifying, id)
		}
		g.image(id, "atlas")
	}
	g.table("findings")
	// Propagation rules go in before the mixed stream so every commit and
	// delete below exercises the engine's incremental delta path; the
	// crash harness then checks the replayed derived table matches an
	// in-memory one fact-for-fact.
	g.emit(persist.RuleOp(prop.Rule{ID: "rec-overlap", Edge: prop.EdgeOverlap, Domain: "atlas"}))
	g.emit(persist.RuleOp(prop.Rule{ID: "rec-closure", Edge: prop.EdgeOntologyClosure, Ontology: "nif"}))
	// Ground truth for Q1: two DCN regions on every qualifying image.
	for _, imgID := range qualifying {
		for k := 0; k < 2; k++ {
			g.region(imgID, k, "deep-cerebellar-nuclei", dcnBody)
		}
	}

	recCount, noise := 0, 0
	for len(g.ops) < cfg.Ops {
		switch p := g.rng.Intn(100); {
		case p < 22: // DCN region on a random image
			noise++
			g.region(g.pick(imageIDs), 100+noise, "deep-cerebellar-nuclei", dcnBody)
		case p < 34: // TP53 annotation with marks on every qualifying image
			xs := make([]float64, len(qualifying))
			for i := range xs {
				xs[i] = float64(g.rng.Intn(900))
			}
			b := core.NewBuilder().
				Creator("gupta").Date("2007-11-20").
				Title(fmt.Sprintf("TP53 finding %d", g.commits+1)).
				Body("correlated expression of protein.TP53 across cerebellar sections")
			for i, imgID := range qualifying {
				b.Refer(g.markRegion(imgID, rtree.Rect2D(xs[i], xs[i], xs[i]+35, xs[i]+35)))
			}
			g.commit(b)
		case p < 56: // noise region without the DCN term
			noise++
			g.region(g.pick(imageIDs), 200+noise, "cortex", noiseBody)
		case p < 70: // record insert
			recCount++
			g.record("findings", recCount)
		case p < 82: // new sequence + interval annotation on it
			g.motif()
		default: // delete an earlier annotation
			g.deleteOne()
		}
	}
	return g.ops
}

const (
	dcnBody   = "expression in the Deep Cerebellar nuclei"
	noiseBody = "background signal only"
)

// stream builds a scenario's op list. Its marks resolve at generation time
// against reg, a store of the scenario's registrations alone: a mark is a
// function of the registered object it names, so it is the mark a store
// fed the stream would resolve. Every random draw happens here, in stream
// order.
type stream struct {
	rng     *rand.Rand
	reg     *core.Store
	ops     []persist.Op
	commits int      // annotation IDs are 1-based in commit order
	live    []uint64 // committed and not yet deleted
	seqs    int
}

// newStream starts the stream of cfg, whose zero sizes it sets to
// DefaultRecovery's.
func newStream(cfg *RecoveryConfig) *stream {
	if cfg.Images <= 0 {
		cfg.Images = DefaultRecovery.Images
	}
	if cfg.Ops <= 0 {
		cfg.Ops = DefaultRecovery.Ops
	}
	return &stream{rng: rand.New(rand.NewSource(cfg.Seed)), reg: core.NewStore()}
}

func must[T any](v T, err error) T {
	if err != nil {
		panic(err) // static construction
	}
	return v
}

func (g *stream) emit(op persist.Op) { g.ops = append(g.ops, op) }

// register emits a registration op and applies it to reg.
func (g *stream) register(op persist.Op) {
	if err := g.reg.Batch(op.Apply); err != nil {
		panic(err)
	}
	g.emit(op)
}

func (g *stream) commit(b *core.Builder) {
	g.commits++
	g.live = append(g.live, uint64(g.commits))
	g.emit(must(persist.CommitOp(b)))
}

func (g *stream) pick(ids []string) string { return ids[g.rng.Intn(len(ids))] }

func (g *stream) markRegion(imgID string, r rtree.Rect) *core.Referent {
	return must(g.reg.View().MarkImageRegion(imgID, r))
}

func (g *stream) system(name string) {
	g.register(persist.SystemOp(must(imaging.NewCoordinateSystem(name, rtree.Rect2D(0, 0, 100_000, 100_000)))))
}

// image registers a 1000×1000 confocal image at a random offset of sys.
func (g *stream) image(id, sys string) {
	reg := imaging.Identity(2)
	reg.Offset = [rtree.MaxDims]float64{float64(g.rng.Intn(90_000)), float64(g.rng.Intn(90_000))}
	im := must(imaging.NewImage(id, sys, rtree.Rect2D(0, 0, 1000, 1000), reg))
	im.Modality = "confocal"
	g.register(persist.ImageOp(im))
}

func (g *stream) table(name string) {
	g.register(persist.TableOp(must(relstore.NewSchema(name, "id",
		relstore.Column{Name: "id", Type: relstore.String},
		relstore.Column{Name: "gene", Type: relstore.String},
		relstore.Column{Name: "score", Type: relstore.Float64},
	))))
}

// record inserts finding n into table.
func (g *stream) record(table string, n int) {
	gene := []string{"TP53", "BRCA1", "EGFR", "MYC"}[g.rng.Intn(4)]
	g.emit(persist.RecordOp(table, relstore.Row{
		relstore.S(fmt.Sprintf("f-%04d", n)), relstore.S(gene), relstore.F(g.rng.Float64()),
	}))
}

// region commits one random square region on an image, tagged with term.
func (g *stream) region(imgID string, k int, term, body string) {
	x := float64(g.rng.Intn(900))
	y := float64(g.rng.Intn(900))
	w := 20 + g.rng.Float64()*80
	g.commit(core.NewBuilder().
		Creator("martone").Date("2007-10-12").
		Title(fmt.Sprintf("region %s/%d", imgID, k)).
		Body(body).
		Refer(g.markRegion(imgID, rtree.Rect2D(x, y, x+w, y+w))).
		OntologyRef("nif", term))
}

// motif registers a new random sequence (its own domain) and commits an
// interval annotation on it.
func (g *stream) motif() {
	g.seqs++
	sid := fmt.Sprintf("seq-%03d", g.seqs)
	g.register(persist.SequenceOp(must(seq.New(sid, seq.DNA, randDNA(g.rng, 120+g.rng.Intn(200))))))
	lo := int64(g.rng.Intn(60))
	hi := lo + 10 + int64(g.rng.Intn(40))
	g.commit(core.NewBuilder().
		Creator("chen").Date("2007-09-01").
		Body("conserved motif in " + sid).
		Refer(must(g.reg.View().MarkSequenceInterval(sid, interval.Interval{Lo: lo, Hi: hi}))))
}

// deleteOne deletes a random live annotation, if there is one.
func (g *stream) deleteOne() {
	if len(g.live) == 0 {
		return
	}
	i := g.rng.Intn(len(g.live))
	victim := g.live[i]
	g.live = append(g.live[:i], g.live[i+1:]...)
	g.emit(persist.Op{Kind: core.OpDeleteAnnotation, DeleteID: victim})
}

// ApplyOps hands ops to apply in order — a durable store's or a shard
// set's Apply — failing on the first error with the op's kind and 1-based
// position in ops.
func ApplyOps(apply func(persist.Op) error, ops []persist.Op) error {
	for i, op := range ops {
		if err := apply(op); err != nil {
			return fmt.Errorf("workload: op %d (%s): %w", i+1, op.Kind, err)
		}
	}
	return nil
}

// Serial is the oracle a scenario's targets are checked against: a fresh
// in-memory store fed ops in order, one writer session each, so each op
// is one publish and the view's epoch counts the ops applied.
func Serial(ops []persist.Op) (*core.Store, error) {
	cs := core.NewStore()
	return cs, ApplyOps(func(op persist.Op) error { return cs.Batch(op.Apply) }, ops)
}
