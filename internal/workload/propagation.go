package workload

import (
	"fmt"
	"math/rand"

	"graphitti/internal/biodata/seq"
	"graphitti/internal/core"
	"graphitti/internal/interval"
	"graphitti/internal/prop"
)

// PropagationConfig sizes the propagation study: a single shared
// coordinate domain densely covered with interval annotations carrying
// ontology term references, under a rule set exercising every
// propagation edge the engine supports.
type PropagationConfig struct {
	Seed int64
	// Sequences tile the shared domain.
	Sequences int
	// SeqLen is residues per sequence; sequences overlap by half.
	SeqLen int
	// Annotations is the committed annotation count.
	Annotations int
	// Span is the width of each annotation's interval mark. Together
	// with Annotations and the domain length it controls the overlap
	// degree — the fan-out of the overlap rule.
	Span int64
	// TermFraction (0..100) is the percentage of annotations carrying an
	// ontology term reference (closure-rule sources).
	TermFraction int
	// SkipRules generates the same store but installs no rules — the
	// control arm for benchmarks isolating the engine's marginal cost.
	SkipRules bool
}

// DefaultPropagation is a laptop-scale configuration with a mean overlap
// degree of a few facts per annotation.
var DefaultPropagation = PropagationConfig{
	Seed: 42, Sequences: 8, SeqLen: 25_000, Annotations: 2_000,
	Span: 40, TermFraction: 30,
}

// PropagationStudy is the generated propagation workload.
type PropagationStudy struct {
	Store  *core.Store
	Engine *prop.Engine
	// Domain is the shared coordinate domain all marks land in.
	Domain string
	// AnnotationIDs lists every committed annotation.
	AnnotationIDs []uint64
	// RuleIDs lists the installed rules.
	RuleIDs []string
}

// Propagation generates the propagation study: one shared domain,
// overlapping interval annotations (a fraction keyword-tagged
// "hotspot", a fraction term-tagged under the enzyme ontology), and
// rules for the overlap, closure and shared-referent edges. The store
// is deterministic in cfg.Seed.
func Propagation(cfg PropagationConfig) (*PropagationStudy, error) {
	// Default only the unset size fields; flags like SkipRules and an
	// explicit Seed/Annotations must survive partial configs.
	if cfg.Sequences <= 0 {
		cfg.Sequences = DefaultPropagation.Sequences
	}
	if cfg.SeqLen <= 0 {
		cfg.SeqLen = DefaultPropagation.SeqLen
	}
	if cfg.Annotations <= 0 {
		cfg.Annotations = DefaultPropagation.Annotations
	}
	if cfg.Span <= 0 {
		cfg.Span = DefaultPropagation.Span
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	s := core.NewStore()
	study := &PropagationStudy{Store: s, Domain: "chr1"}

	if err := s.RegisterOntology(EnzymeOntology()); err != nil {
		return nil, err
	}
	for i := 0; i < cfg.Sequences; i++ {
		id := fmt.Sprintf("NC_P%03d", i)
		sq, err := seq.New(id, seq.DNA, randDNA(rng, cfg.SeqLen))
		if err != nil {
			return nil, err
		}
		sq.Domain = study.Domain
		sq.Offset = int64(i * cfg.SeqLen / 2)
		if err := s.RegisterSequence(sq); err != nil {
			return nil, err
		}
	}
	domainLen := int64(cfg.Sequences+1) * int64(cfg.SeqLen) / 2

	terms := []string{"protease", "serine-protease", "metallo-protease", "kinase", "polymerase"}
	for i := 0; i < cfg.Annotations; i++ {
		lo := rng.Int63n(domainLen - cfg.Span)
		m, err := s.MarkDomainInterval(study.Domain, interval.Interval{Lo: lo, Hi: lo + cfg.Span})
		if err != nil {
			return nil, err
		}
		body := "signal window"
		if rng.Intn(4) == 0 {
			body = "hotspot signal window"
		}
		b := s.NewAnnotation().
			Creator("propgen").Date("2026-01-01").
			Title(fmt.Sprintf("window %d", i)).
			Body(body).Refer(m)
		if rng.Intn(100) < cfg.TermFraction {
			b.OntologyRef("go", terms[rng.Intn(len(terms))])
		}
		ann, err := s.Commit(b)
		if err != nil {
			return nil, err
		}
		study.AnnotationIDs = append(study.AnnotationIDs, ann.ID)
	}

	if cfg.SkipRules {
		return study, nil
	}
	study.Engine = prop.Attach(s)
	rules := []prop.Rule{
		{ID: "p-overlap", Edge: prop.EdgeOverlap, Domain: study.Domain},
		{ID: "p-hotspot", Edge: prop.EdgeOverlap, Keyword: "hotspot", Domain: study.Domain},
		{ID: "p-closure", Edge: prop.EdgeOntologyClosure, Ontology: "go"},
		{ID: "p-shared", Edge: prop.EdgeSharedReferent},
	}
	// One op: one derived recompute over the study, not one per rule.
	if err := s.Batch(func(x *core.Tx) error { return prop.AddRules(x, rules...) }); err != nil {
		return nil, err
	}
	for _, r := range rules {
		study.RuleIDs = append(study.RuleIDs, r.ID)
	}
	return study, nil
}
