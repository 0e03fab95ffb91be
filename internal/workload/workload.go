// Package workload generates the synthetic studies used by Graphitti's
// examples, integration tests and benchmarks.
//
// The paper demonstrates on an Avian-Influenza virology study (DNA and RNA
// sequences, multiple sequence alignments, phylogenetic trees, interaction
// graphs, relational records) and a neuroscience study (brain images
// registered to a shared coordinate system, annotated with NIF-style
// ontology terms). Those datasets are not public; the generators here are
// seeded synthetic equivalents that preserve the structural properties the
// engine exercises — domain sharing, overlap distributions, ontology
// fan-out, annotation density — which is what reproduction of the system's
// behaviour depends on (see DESIGN.md §3).
package workload

import (
	"fmt"
	"math/rand"
	"strings"

	"graphitti/internal/biodata/imaging"
	"graphitti/internal/biodata/interact"
	"graphitti/internal/biodata/msa"
	"graphitti/internal/biodata/phylo"
	"graphitti/internal/biodata/seq"
	"graphitti/internal/core"
	"graphitti/internal/interval"
	"graphitti/internal/ontology"
	"graphitti/internal/relstore"
	"graphitti/internal/rtree"
)

// letters for random DNA.
const dnaLetters = "ACGT"

func randDNA(rng *rand.Rand, n int) string {
	var sb strings.Builder
	sb.Grow(n)
	for i := 0; i < n; i++ {
		sb.WriteByte(dnaLetters[rng.Intn(4)])
	}
	return sb.String()
}

// EnzymeOntology builds a small molecular-function ontology with a
// protease branch; used by the influenza study and the paper's query-tab
// query.
func EnzymeOntology() *ontology.Ontology {
	o := ontology.New("go")
	terms := []struct{ id, name string }{
		{"molecular-function", "molecular function"},
		{"enzyme", "enzyme"},
		{"hydrolase", "hydrolase"},
		{"protease", "protease"},
		{"serine-protease", "serine protease"},
		{"metallo-protease", "metallo protease"},
		{"kinase", "kinase"},
		{"polymerase", "polymerase"},
	}
	for _, t := range terms {
		if _, err := o.AddTerm(t.id, t.name); err != nil {
			panic(err) // static construction
		}
	}
	edges := [][2]string{
		{"enzyme", "molecular-function"},
		{"hydrolase", "enzyme"},
		{"protease", "hydrolase"},
		{"serine-protease", "protease"},
		{"metallo-protease", "protease"},
		{"kinase", "enzyme"},
		{"polymerase", "enzyme"},
	}
	for _, e := range edges {
		if err := o.AddEdge(e[0], e[1], ontology.IsA, ontology.Some); err != nil {
			panic(err)
		}
	}
	return o
}

// BrainOntology builds a small neuro-anatomy ontology containing the
// "Deep Cerebellar nuclei" term of the paper's intro query.
func BrainOntology() *ontology.Ontology {
	o := ontology.New("nif")
	terms := []struct{ id, name string }{
		{"brain", "brain"},
		{"hindbrain", "hindbrain"},
		{"cerebellum", "cerebellum"},
		{"deep-cerebellar-nuclei", "Deep Cerebellar nuclei"},
		{"cortex", "cortex"},
		{"hippocampus", "hippocampus"},
	}
	for _, t := range terms {
		if _, err := o.AddTerm(t.id, t.name); err != nil {
			panic(err)
		}
	}
	edges := [][2]string{
		{"hindbrain", "brain"},
		{"cerebellum", "hindbrain"},
		{"deep-cerebellar-nuclei", "cerebellum"},
		{"cortex", "brain"},
		{"hippocampus", "cortex"},
	}
	for _, e := range edges {
		if err := o.AddEdge(e[0], e[1], ontology.IsA, ontology.Some); err != nil {
			panic(err)
		}
	}
	return o
}

// LayeredOntology generates a random layered is_a DAG for ontology
// operator benchmarks (O2): `depth` layers with `fanout` children each.
func LayeredOntology(name string, depth, fanout int, seed int64) *ontology.Ontology {
	rng := rand.New(rand.NewSource(seed))
	o := ontology.New(name)
	if _, err := o.AddTerm("root", "root"); err != nil {
		panic(err)
	}
	frontier := []string{"root"}
	id := 0
	for d := 0; d < depth; d++ {
		var next []string
		for _, parent := range frontier {
			for i := 0; i < fanout; i++ {
				term := fmt.Sprintf("t%06d", id)
				id++
				if _, err := o.AddTerm(term, term); err != nil {
					panic(err)
				}
				if err := o.AddEdge(term, parent, ontology.IsA, ontology.Some); err != nil {
					panic(err)
				}
				// Occasional second parent keeps it a DAG, not a tree.
				if d > 0 && rng.Intn(8) == 0 {
					other := frontier[rng.Intn(len(frontier))]
					if other != parent {
						_ = o.AddEdge(term, other, ontology.PartOf, ontology.Some)
					}
				}
				next = append(next, term)
			}
		}
		frontier = next
	}
	return o
}

// InfluenzaConfig sizes the virology study.
type InfluenzaConfig struct {
	Seed        int64
	Segments    int // genome segments (shared 1-D domains)
	SeqsPerSeg  int // sequences registered per segment
	SeqLen      int // residues per sequence
	Annotations int // interval annotations spread across segments
	// ProteaseChains plants chains of 4 consecutive disjoint
	// protease-keyword annotations (ground truth for Q2).
	ProteaseChains int
}

// DefaultInfluenza is a laptop-scale configuration.
var DefaultInfluenza = InfluenzaConfig{
	Seed: 42, Segments: 8, SeqsPerSeg: 4, SeqLen: 2000,
	Annotations: 400, ProteaseChains: 3,
}

// InfluenzaStudy is the generated virology workload.
type InfluenzaStudy struct {
	Store *core.Store
	// Segments lists the shared domains.
	Segments []string
	// SequenceIDs lists all registered sequence accessions.
	SequenceIDs []string
	// AlignmentID, TreeID, GraphID name the structured objects.
	AlignmentID, TreeID, GraphID string
	// ChainSegments names the domains where protease chains were planted.
	ChainSegments []string
	// AnnotationIDs lists every committed annotation.
	AnnotationIDs []uint64
}

// Influenza generates the virology study into a fresh store.
func Influenza(cfg InfluenzaConfig) (*InfluenzaStudy, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := core.NewStore()
	study := &InfluenzaStudy{Store: s}

	if err := s.RegisterOntology(EnzymeOntology()); err != nil {
		return nil, err
	}

	// Sequences on shared segment domains.
	for seg := 0; seg < cfg.Segments; seg++ {
		domain := fmt.Sprintf("segment%d", seg+1)
		study.Segments = append(study.Segments, domain)
		for i := 0; i < cfg.SeqsPerSeg; i++ {
			id := fmt.Sprintf("NC_%03d%02d", seg, i)
			sq, err := seq.New(id, seq.DNA, randDNA(rng, cfg.SeqLen))
			if err != nil {
				return nil, err
			}
			sq.Description = fmt.Sprintf("Influenza A virus segment %d isolate %d", seg+1, i)
			sq.Domain = domain
			sq.Offset = int64(i * cfg.SeqLen / 2) // staggered, overlapping
			if err := s.RegisterSequence(sq); err != nil {
				return nil, err
			}
			study.SequenceIDs = append(study.SequenceIDs, id)
		}
	}

	// One alignment over the first segment's sequences.
	rowIDs := study.SequenceIDs[:cfg.SeqsPerSeg]
	rows := make([]string, len(rowIDs))
	width := 60
	for i := range rows {
		var sb strings.Builder
		for c := 0; c < width; c++ {
			if rng.Intn(6) == 0 {
				sb.WriteByte(msa.Gap)
			} else {
				sb.WriteByte(dnaLetters[rng.Intn(4)])
			}
		}
		rows[i] = sb.String()
	}
	aln, err := msa.New("HA-alignment", rowIDs, rows)
	if err != nil {
		return nil, err
	}
	if err := s.RegisterAlignment(aln); err != nil {
		return nil, err
	}
	study.AlignmentID = aln.ID

	// A host phylogeny.
	tree, err := phylo.ParseNewick("H5N1-phylogeny",
		"((goose:0.12,(duck:0.08,chicken:0.09)dc:0.03)wild:0.05,(human1:0.2,human2:0.18)hu:0.07)root;")
	if err != nil {
		return nil, err
	}
	if err := s.RegisterTree(tree); err != nil {
		return nil, err
	}
	study.TreeID = tree.ID

	// The NS1 interactome.
	ig := interact.NewGraph("NS1-interactome")
	mols := []string{"NS1", "PKR", "TRIM25", "CPSF30", "EIF2A", "RIG-I", "MAVS"}
	for _, m := range mols {
		if _, err := ig.AddMolecule(m, m, interact.ProteinMol); err != nil {
			return nil, err
		}
	}
	links := [][3]string{
		{"NS1", "PKR", "inhibits"}, {"NS1", "TRIM25", "binds"},
		{"NS1", "CPSF30", "binds"}, {"PKR", "EIF2A", "phosphorylates"},
		{"RIG-I", "MAVS", "signals"}, {"TRIM25", "RIG-I", "activates"},
	}
	for _, l := range links {
		if err := ig.AddInteraction(l[0], l[1], l[2], 0.5+rng.Float64()/2); err != nil {
			return nil, err
		}
	}
	if err := s.RegisterInteractionGraph(ig); err != nil {
		return nil, err
	}
	study.GraphID = ig.ID

	// Isolate records.
	schema := relstore.MustSchema("isolates", "acc",
		relstore.Column{Name: "acc", Type: relstore.String},
		relstore.Column{Name: "host", Type: relstore.String},
		relstore.Column{Name: "year", Type: relstore.Int64},
		relstore.Column{Name: "country", Type: relstore.String},
	)
	if err := s.CreateRecordTable(schema); err != nil {
		return nil, err
	}
	hosts := []string{"goose", "duck", "chicken", "human"}
	countries := []string{"VN", "HK", "ID", "TH", "CN"}
	for i := 0; i < 20; i++ {
		acc := fmt.Sprintf("A/%s/%d/%d", hosts[i%len(hosts)], i, 1996+i%10)
		row := relstore.Row{
			relstore.S(acc), relstore.S(hosts[i%len(hosts)]),
			relstore.I(int64(1996 + i%10)), relstore.S(countries[i%len(countries)]),
		}
		if err := s.InsertRecord("isolates", row); err != nil {
			return nil, err
		}
	}

	creators := []string{"gupta", "condit", "martone", "chen"}
	bodies := []string{
		"conserved motif near the polymerase binding site",
		"putative cleavage region",
		"high mutation density in this window",
		"binding footprint confirmed by pulldown",
		"kinase activity suspected",
	}
	terms := []string{"kinase", "polymerase", "hydrolase", "serine-protease", "metallo-protease"}

	// Random interval annotations.
	for i := 0; i < cfg.Annotations; i++ {
		seg := study.Segments[rng.Intn(len(study.Segments))]
		maxPos := int64(cfg.SeqLen + (cfg.SeqsPerSeg-1)*cfg.SeqLen/2)
		lo := rng.Int63n(maxPos - 100)
		m, err := s.MarkDomainInterval(seg, interval.Interval{Lo: lo, Hi: lo + 20 + rng.Int63n(80)})
		if err != nil {
			return nil, err
		}
		b := s.NewAnnotation().
			Creator(creators[rng.Intn(len(creators))]).
			Date(fmt.Sprintf("2007-%02d-%02d", 1+rng.Intn(12), 1+rng.Intn(28))).
			Title(fmt.Sprintf("observation %d", i)).
			Body(bodies[rng.Intn(len(bodies))]).
			Refer(m)
		if rng.Intn(3) == 0 {
			b.OntologyRef("go", terms[rng.Intn(len(terms))])
		}
		ann, err := s.Commit(b)
		if err != nil {
			return nil, err
		}
		study.AnnotationIDs = append(study.AnnotationIDs, ann.ID)
	}

	// Planted protease chains: 4 consecutive disjoint intervals whose
	// annotations all contain "protease" (Q2 ground truth).
	for c := 0; c < cfg.ProteaseChains; c++ {
		seg := study.Segments[c%len(study.Segments)]
		study.ChainSegments = append(study.ChainSegments, seg)
		base := int64(c * 500)
		for k := 0; k < 4; k++ {
			lo := base + int64(k*60)
			m, err := s.MarkDomainInterval(seg, interval.Interval{Lo: lo, Hi: lo + 50})
			if err != nil {
				return nil, err
			}
			ann, err := s.Commit(s.NewAnnotation().
				Creator("gupta").
				Date("2007-11-02").
				Title(fmt.Sprintf("protease chain %d link %d", c, k)).
				Body("protease cleavage site in this window").
				Refer(m).
				OntologyRef("go", "serine-protease"))
			if err != nil {
				return nil, err
			}
			study.AnnotationIDs = append(study.AnnotationIDs, ann.ID)
		}
	}

	// Structural annotations across the other data types (the Fig. 2
	// workflow touches all six demo types).
	cm, err := s.View().MarkClade(tree.ID, "duck", "chicken")
	if err != nil {
		return nil, err
	}
	sgm, err := s.View().MarkSubgraph(ig.ID, "NS1", "PKR", "EIF2A")
	if err != nil {
		return nil, err
	}
	bm, err := s.View().MarkAlignmentBlock(aln.ID, rowIDs[:2], interval.Interval{Lo: 10, Hi: 30})
	if err != nil {
		return nil, err
	}
	rm, err := s.View().MarkRecords("isolates", relstore.S("A/goose/0/1996"))
	if err != nil {
		return nil, err
	}
	for i, m := range []*core.Referent{cm, sgm, bm, rm} {
		ann, err := s.Commit(s.NewAnnotation().
			Creator("condit").Date("2007-12-01").
			Title(fmt.Sprintf("structural note %d", i)).
			Body("cross-type annotation produced by the annotation tab workflow").
			Refer(m))
		if err != nil {
			return nil, err
		}
		study.AnnotationIDs = append(study.AnnotationIDs, ann.ID)
	}
	return study, nil
}

// NeuroConfig sizes the neuroscience study.
type NeuroConfig struct {
	Seed   int64
	Images int
	// RegionsPerImage is the mean DCN-annotated regions per image; every
	// third image gets >= 2 regions (ground truth for Q1).
	RegionsPerImage int
	// TP53Annotations is the number of annotations containing the
	// "protein.TP53" keyword, each with a referent path to the qualifying
	// images.
	TP53Annotations int
	// NoiseAnnotations are region annotations without the DCN term.
	NoiseAnnotations int
}

// DefaultNeuro is a laptop-scale configuration.
var DefaultNeuro = NeuroConfig{
	Seed: 7, Images: 12, RegionsPerImage: 2, TP53Annotations: 4, NoiseAnnotations: 60,
}

// NeuroStudy is the generated neuroscience workload.
type NeuroStudy struct {
	Store *core.Store
	// System is the shared coordinate system name.
	System string
	// ImageIDs lists all registered images.
	ImageIDs []string
	// QualifyingImages have at least 2 DCN-annotated regions (Q1 ground
	// truth).
	QualifyingImages []string
	// TP53Annotations are the IDs of the planted TP53 annotations
	// (expected Q1 answers).
	TP53Annotations []uint64
}

// Neuroscience generates the brain-imaging workload into a fresh store.
func Neuroscience(cfg NeuroConfig) (*NeuroStudy, error) {
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := core.NewStore()
	study := &NeuroStudy{Store: s, System: "mouse-atlas"}

	if err := s.RegisterOntology(BrainOntology()); err != nil {
		return nil, err
	}
	cs, err := imaging.NewCoordinateSystem(study.System, rtree.Rect2D(0, 0, 10_000, 10_000))
	if err != nil {
		return nil, err
	}
	if err := s.RegisterCoordinateSystem(cs); err != nil {
		return nil, err
	}

	for i := 0; i < cfg.Images; i++ {
		reg := imaging.Identity(2)
		reg.Offset = [rtree.MaxDims]float64{float64(rng.Intn(9000)), float64(rng.Intn(9000))}
		im, err := imaging.NewImage(fmt.Sprintf("mouse-brain-%03d", i), study.System,
			rtree.Rect2D(0, 0, 1000, 1000), reg)
		if err != nil {
			return nil, err
		}
		im.Modality = "confocal"
		im.Subject = fmt.Sprintf("mouse-%d", i/3)
		if err := s.RegisterImage(im); err != nil {
			return nil, err
		}
		study.ImageIDs = append(study.ImageIDs, im.ID)
	}

	// DCN-annotated regions: every third image qualifies with >= 2.
	for i, imgID := range study.ImageIDs {
		n := 1
		if i%3 == 0 {
			n = cfg.RegionsPerImage
			if n < 2 {
				n = 2
			}
			study.QualifyingImages = append(study.QualifyingImages, imgID)
		}
		for k := 0; k < n; k++ {
			x, y := float64(rng.Intn(800)), float64(rng.Intn(800))
			m, err := s.View().MarkImageRegion(imgID, rtree.Rect2D(x, y, x+50+rng.Float64()*100, y+50+rng.Float64()*100))
			if err != nil {
				return nil, err
			}
			_, err = s.Commit(s.NewAnnotation().
				Creator("martone").
				Date("2007-10-12").
				Title(fmt.Sprintf("DCN region %s/%d", imgID, k)).
				Body("expression in the Deep Cerebellar nuclei").
				Refer(m).
				OntologyRef("nif", "deep-cerebellar-nuclei"))
			if err != nil {
				return nil, err
			}
		}
	}

	// Noise annotations on random regions without the DCN term.
	for i := 0; i < cfg.NoiseAnnotations; i++ {
		imgID := study.ImageIDs[rng.Intn(len(study.ImageIDs))]
		x, y := float64(rng.Intn(900)), float64(rng.Intn(900))
		m, err := s.View().MarkImageRegion(imgID, rtree.Rect2D(x, y, x+30, y+30))
		if err != nil {
			return nil, err
		}
		_, err = s.Commit(s.NewAnnotation().
			Creator("chen").Date("2007-09-01").
			Body("background signal only").
			Refer(m).
			OntologyRef("nif", "cortex"))
		if err != nil {
			return nil, err
		}
	}

	// Planted TP53 annotations: each marks a region on every qualifying
	// image, giving them paths to all of them (Q1 ground truth).
	for i := 0; i < cfg.TP53Annotations; i++ {
		b := s.NewAnnotation().
			Creator("gupta").
			Date("2007-11-20").
			Title(fmt.Sprintf("TP53 finding %d", i)).
			Body("correlated expression of protein.TP53 across cerebellar sections")
		for _, imgID := range study.QualifyingImages {
			x := float64(100 + i*40)
			m, err := s.View().MarkImageRegion(imgID, rtree.Rect2D(x, x, x+35, x+35))
			if err != nil {
				return nil, err
			}
			b.Refer(m)
		}
		ann, err := s.Commit(b)
		if err != nil {
			return nil, err
		}
		study.TP53Annotations = append(study.TP53Annotations, ann.ID)
	}
	return study, nil
}
