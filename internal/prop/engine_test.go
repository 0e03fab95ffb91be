package prop

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"graphitti/internal/agraph"
	"graphitti/internal/biodata/imaging"
	"graphitti/internal/biodata/seq"
	"graphitti/internal/core"
	"graphitti/internal/interval"
	"graphitti/internal/ontology"
	"graphitti/internal/rtree"
)

// newSeqStore returns a store with one long DNA sequence owning domain
// "chr1".
func newSeqStore(t *testing.T) *core.Store {
	t.Helper()
	s := core.NewStore()
	sq, err := seq.New("NC_1", seq.DNA, strings.Repeat("ACGT", 2500))
	if err != nil {
		t.Fatal(err)
	}
	sq.Domain = "chr1"
	if err := s.RegisterSequence(sq); err != nil {
		t.Fatal(err)
	}
	return s
}

func commitInterval(t *testing.T, s *core.Store, lo, hi int64, body string, terms ...core.TermRef) *core.Annotation {
	t.Helper()
	m, err := s.MarkDomainInterval("chr1", interval.Interval{Lo: lo, Hi: hi})
	if err != nil {
		t.Fatal(err)
	}
	b := s.NewAnnotation().Creator("t").Date("2026-01-01").Body(body).Refer(m)
	for _, tr := range terms {
		b.OntologyRef(tr.Ontology, tr.TermID)
	}
	ann, err := s.Commit(b)
	if err != nil {
		t.Fatal(err)
	}
	return ann
}

// assertExact checks the incrementally-maintained derived table equals a
// from-scratch recompute of the same view, byte for byte.
func assertExact(t *testing.T, s *core.Store, e *Engine) {
	t.Helper()
	v := s.View()
	got := slices.Collect(v.DerivedEach)
	want := flatten(e.Recompute(v))
	if len(got) == 0 && len(want) == 0 {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("maintained derived set diverged from recompute:\n got %v\nwant %v", got, want)
	}
}

// flatten orders a recompute map the way View.DerivedAll does: ascending
// source, canonical fact order within a source.
func flatten(m map[uint64][]core.DerivedFact) []core.DerivedFact {
	var srcs []uint64
	for src := range m {
		srcs = append(srcs, src)
	}
	for i := 1; i < len(srcs); i++ {
		for j := i; j > 0 && srcs[j-1] > srcs[j]; j-- {
			srcs[j-1], srcs[j] = srcs[j], srcs[j-1]
		}
	}
	var out []core.DerivedFact
	for _, src := range srcs {
		out = append(out, m[src]...)
	}
	return out
}

func TestOverlapEdge(t *testing.T) {
	s := newSeqStore(t)
	e := Attach(s)
	a1 := commitInterval(t, s, 100, 200, "site one")
	a2 := commitInterval(t, s, 150, 250, "site two")
	commitInterval(t, s, 500, 600, "far away")

	if err := e.AddRule(Rule{ID: "ov", Edge: EdgeOverlap, Domain: "chr1"}); err != nil {
		t.Fatal(err)
	}
	// a1 and a2 overlap; each derives onto the other's referent.
	f1 := s.View().DerivedFrom(a1.ID)
	if len(f1) != 1 || f1[0].Target != agraph.Referent(slices.Collect(a2.ReferentIDs)[0]) {
		t.Fatalf("a1 facts = %v, want one fact targeting a2's referent", f1)
	}
	if f1[0].Rule != "ov" || f1[0].Source != a1.ID {
		t.Fatalf("bad provenance: %+v", f1[0])
	}
	if got := s.View().DerivedFrom(3); got != nil {
		t.Fatalf("non-overlapping annotation has facts: %v", got)
	}
	if s.View().Stats().Derived != 2 {
		t.Fatalf("derived count = %d, want 2", s.View().Stats().Derived)
	}
	assertExact(t, s, e)

	// Incremental: a new annotation overlapping both extends their sets.
	a4 := commitInterval(t, s, 180, 220, "bridges")
	if len(s.View().DerivedFrom(a4.ID)) != 2 {
		t.Fatalf("a4 facts = %v, want 2", s.View().DerivedFrom(a4.ID))
	}
	if len(s.View().DerivedFrom(a1.ID)) != 2 {
		t.Fatalf("a1 facts after bridge = %v, want 2", s.View().DerivedFrom(a1.ID))
	}
	assertExact(t, s, e)

	// Incremental: deleting the bridge restores the old sets and leaves
	// no fact targeting its garbage-collected referent.
	if err := s.DeleteAnnotation(a4.ID); err != nil {
		t.Fatal(err)
	}
	if len(s.View().DerivedFrom(a1.ID)) != 1 || len(s.View().DerivedFrom(a4.ID)) != 0 {
		t.Fatalf("facts after delete: a1=%v a4=%v", s.View().DerivedFrom(a1.ID), s.View().DerivedFrom(a4.ID))
	}
	assertExact(t, s, e)
}

func TestSharedReferentEdge(t *testing.T) {
	s := newSeqStore(t)
	e := Attach(s)
	if err := e.AddRule(Rule{ID: "sh", Edge: EdgeSharedReferent}); err != nil {
		t.Fatal(err)
	}
	// Identical marks dedup into one shared referent.
	a1 := commitInterval(t, s, 100, 200, "first opinion")
	a2 := commitInterval(t, s, 100, 200, "second opinion")
	f1 := s.View().DerivedFrom(a1.ID)
	if len(f1) != 1 || f1[0].Target != agraph.ContentRoot(a2.ID) {
		t.Fatalf("a1 facts = %v, want one fact targeting a2", f1)
	}
	wantWitness := fmt.Sprintf("shared ref%d", slices.Collect(a1.ReferentIDs)[0])
	if f1[0].Witness != wantWitness {
		t.Fatalf("witness = %q, want %q", f1[0].Witness, wantWitness)
	}
	assertExact(t, s, e)

	if err := s.DeleteAnnotation(a2.ID); err != nil {
		t.Fatal(err)
	}
	if got := s.View().DerivedFrom(a1.ID); got != nil {
		t.Fatalf("a1 still derives onto deleted a2: %v", got)
	}
	assertExact(t, s, e)
}

func TestOntologyClosureEdge(t *testing.T) {
	s := newSeqStore(t)
	o := ontology.New("go")
	for _, id := range []string{"enzyme", "hydrolase", "protease", "serine-protease", "cell", "membrane"} {
		if _, err := o.AddTerm(id, id); err != nil {
			t.Fatal(err)
		}
	}
	mustEdge := func(from, to, rel string) {
		if err := o.AddEdge(from, to, rel, ontology.Some); err != nil {
			t.Fatal(err)
		}
	}
	mustEdge("hydrolase", "enzyme", ontology.IsA)
	mustEdge("protease", "hydrolase", ontology.IsA)
	mustEdge("serine-protease", "protease", ontology.IsA)
	mustEdge("membrane", "cell", ontology.PartOf)
	if err := s.RegisterOntology(o); err != nil {
		t.Fatal(err)
	}
	e := Attach(s)
	if err := e.AddRule(Rule{ID: "cl", Edge: EdgeOntologyClosure, Ontology: "go"}); err != nil {
		t.Fatal(err)
	}

	ann := commitInterval(t, s, 10, 20, "cleaves", core.TermRef{Ontology: "go", TermID: "serine-protease"})
	facts := s.View().DerivedFrom(ann.ID)
	var targets []string
	for _, f := range facts {
		targets = append(targets, f.Target.Key())
	}
	want := []string{"go/enzyme", "go/hydrolase", "go/protease"}
	if !reflect.DeepEqual(targets, want) {
		t.Fatalf("closure targets = %v, want %v", targets, want)
	}
	assertExact(t, s, e)

	// Relation-restricted closure.
	if err := e.AddRule(Rule{ID: "po", Edge: EdgeOntologyClosure, Ontology: "go",
		Relations: []string{ontology.PartOf}}); err != nil {
		t.Fatal(err)
	}
	ann2 := commitInterval(t, s, 30, 40, "membrane bound", core.TermRef{Ontology: "go", TermID: "membrane"})
	var poTargets []string
	for _, f := range s.View().DerivedFrom(ann2.ID) {
		if f.Rule == "po" {
			poTargets = append(poTargets, f.Target.Key())
		}
	}
	if !reflect.DeepEqual(poTargets, []string{"go/cell"}) {
		t.Fatalf("part_of closure targets = %v, want [go/cell]", poTargets)
	}
	assertExact(t, s, e)
}

func TestCoRegisteredEdge(t *testing.T) {
	s := core.NewStore()
	cs, err := imaging.NewCoordinateSystem("atlas", rtree.Rect2D(0, 0, 10_000, 10_000))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterCoordinateSystem(cs); err != nil {
		t.Fatal(err)
	}
	addImage := func(id string, ox, oy float64) {
		reg := imaging.Identity(2)
		reg.Offset = [rtree.MaxDims]float64{ox, oy}
		im, err := imaging.NewImage(id, "atlas", rtree.Rect2D(0, 0, 1000, 1000), reg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.RegisterImage(im); err != nil {
			t.Fatal(err)
		}
	}
	addImage("img-a", 0, 0)
	addImage("img-b", 500, 500) // overlaps img-a's footprint
	addImage("img-c", 5000, 5000)

	e := Attach(s)
	if err := e.AddRule(Rule{ID: "co", Edge: EdgeCoRegistered}); err != nil {
		t.Fatal(err)
	}
	m, err := s.View().MarkImageRegion("img-a", rtree.Rect2D(600, 600, 900, 900))
	if err != nil {
		t.Fatal(err)
	}
	ann, err := s.Commit(s.NewAnnotation().Creator("t").Date("2026-01-01").Body("lesion").Refer(m))
	if err != nil {
		t.Fatal(err)
	}
	facts := s.View().DerivedFrom(ann.ID)
	if len(facts) != 1 || facts[0].Target != agraph.Object(string(core.TypeImage), "img-b") {
		t.Fatalf("coreg facts = %v, want one fact targeting img-b", facts)
	}
	assertExact(t, s, e)

	// Registering a new overlapping image retroactively extends the set
	// (the register hook recomputes).
	addImage("img-d", 700, 700)
	facts = s.View().DerivedFrom(ann.ID)
	if len(facts) != 2 {
		t.Fatalf("coreg facts after new image = %v, want 2", facts)
	}
	assertExact(t, s, e)
}

func TestTriggerFilters(t *testing.T) {
	s := newSeqStore(t)
	e := Attach(s)
	if err := e.AddRule(Rule{ID: "kw", Edge: EdgeOverlap, Keyword: "Protease"}); err != nil {
		t.Fatal(err)
	}
	a1 := commitInterval(t, s, 100, 200, "protease cleavage site")
	a2 := commitInterval(t, s, 150, 250, "unrelated signal")
	// Keyword matching is case-insensitive; only a1 fires the rule.
	if got := s.View().DerivedFrom(a1.ID); len(got) != 1 {
		t.Fatalf("keyword-matching source facts = %v, want 1", got)
	}
	if got := s.View().DerivedFrom(a2.ID); got != nil {
		t.Fatalf("non-matching source has facts: %v", got)
	}
	assertExact(t, s, e)

	// Domain filter: a rule for another domain never fires.
	if err := e.AddRule(Rule{ID: "other", Edge: EdgeOverlap, Domain: "chr2"}); err != nil {
		t.Fatal(err)
	}
	for _, f := range slices.Collect(s.View().DerivedEach) {
		if f.Rule == "other" {
			t.Fatalf("rule for foreign domain produced fact %+v", f)
		}
	}
	// Kind filter: region-only rule ignores interval marks.
	if err := e.AddRule(Rule{ID: "regonly", Edge: EdgeOverlap, Kind: "region"}); err != nil {
		t.Fatal(err)
	}
	for _, f := range slices.Collect(s.View().DerivedEach) {
		if f.Rule == "regonly" {
			t.Fatalf("region-only rule fired on interval mark: %+v", f)
		}
	}
	assertExact(t, s, e)
}

// TestPaddedKeywordTrigger: a rule's keyword matches an annotation
// exactly when View.SearchKeyword of the same word returns it — trimmed,
// then lower-cased. A padded trigger once matched nothing.
func TestPaddedKeywordTrigger(t *testing.T) {
	s := newSeqStore(t)
	e := Attach(s)
	const word = " Protease "
	if err := e.AddRule(Rule{ID: "padded", Edge: EdgeOverlap, Keyword: word}); err != nil {
		t.Fatal(err)
	}
	a1 := commitInterval(t, s, 100, 200, "protease cleavage site")
	a2 := commitInterval(t, s, 150, 250, "unrelated signal")
	if hits := s.View().SearchKeyword(word, true); len(hits) != 1 || hits[0].ID != a1.ID {
		t.Fatalf("SearchKeyword(%q) = %v, want annotation %d", word, hits, a1.ID)
	}
	if got := s.View().DerivedFrom(a1.ID); len(got) != 1 {
		t.Fatalf("facts from the source SearchKeyword(%q) returns = %v, want 1", word, got)
	}
	if got := s.View().DerivedFrom(a2.ID); got != nil {
		t.Fatalf("non-matching source has facts: %v", got)
	}
	assertExact(t, s, e)
}

func TestRuleCRUD(t *testing.T) {
	s := newSeqStore(t)
	e := Attach(s)
	if e2 := Attach(s); e2 != e {
		t.Fatal("Attach returned a second engine for the same store")
	}
	if err := e.AddRule(Rule{ID: "", Edge: EdgeOverlap}); !errors.Is(err, ErrBadRule) {
		t.Fatalf("empty ID: %v", err)
	}
	if err := e.AddRule(Rule{ID: "x", Edge: "teleport"}); !errors.Is(err, ErrBadRule) {
		t.Fatalf("bad edge: %v", err)
	}
	if err := e.AddRule(Rule{ID: "x", Edge: EdgeOverlap, Kind: "clade"}); !errors.Is(err, ErrBadRule) {
		t.Fatalf("bad kind: %v", err)
	}
	if err := e.AddRule(Rule{ID: "x", Edge: EdgeOverlap, Term: "t"}); !errors.Is(err, ErrBadRule) {
		t.Fatalf("term without ontology: %v", err)
	}
	if err := e.AddRule(Rule{ID: "x", Edge: EdgeOverlap, Relations: []string{"is_a"}}); !errors.Is(err, ErrBadRule) {
		t.Fatalf("relations on non-closure edge: %v", err)
	}
	if err := e.AddRule(Rule{ID: "x", Edge: EdgeOntologyClosure, Ontology: "go", Domain: "chr1"}); !errors.Is(err, ErrBadRule) {
		t.Fatalf("domain filter on closure edge: %v", err)
	}
	if err := e.AddRule(Rule{ID: "x", Edge: EdgeCoRegistered, Kind: "interval"}); !errors.Is(err, ErrBadRule) {
		t.Fatalf("interval kind on coregistered edge: %v", err)
	}

	if err := e.AddRule(Rule{ID: "ov", Edge: EdgeOverlap}); err != nil {
		t.Fatal(err)
	}
	if err := e.AddRule(Rule{ID: "ov", Edge: EdgeSharedReferent}); !errors.Is(err, ErrDuplicateRule) {
		t.Fatalf("duplicate: %v", err)
	}
	a1 := commitInterval(t, s, 1, 50, "a")
	commitInterval(t, s, 25, 75, "b")
	if len(s.View().DerivedFrom(a1.ID)) != 1 {
		t.Fatal("rule did not fire")
	}
	if got := RulesOf(s); len(got) != 1 || got[0].ID != "ov" {
		t.Fatalf("RulesOf = %v", got)
	}

	// Deleting the rule drops its facts atomically.
	if err := e.DeleteRule("ov"); err != nil {
		t.Fatal(err)
	}
	if err := e.DeleteRule("ov"); !errors.Is(err, ErrNoSuchRule) {
		t.Fatalf("double delete: %v", err)
	}
	if n := s.View().Stats().Derived; n != 0 {
		t.Fatalf("derived count after rule delete = %d", n)
	}
}

func TestParseRules(t *testing.T) {
	src := `[
	  {"id": "ov", "edge": "overlap", "domain": "chr1"},
	  {"id": "cl", "edge": "closure", "ontology": "go", "relations": ["is_a"]}
	]`
	rules, err := ParseRules(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 2 || rules[0].ID != "ov" || rules[1].Edge != EdgeOntologyClosure {
		t.Fatalf("parsed %v", rules)
	}
	if _, err := ParseRules(strings.NewReader(`[{"id":"x","edge":"nope"}]`)); !errors.Is(err, ErrBadRule) {
		t.Fatalf("bad edge: %v", err)
	}
	if _, err := ParseRules(strings.NewReader(`{not json`)); !errors.Is(err, ErrBadRule) {
		t.Fatalf("bad json: %v", err)
	}
	// The array is the whole input: whitespace may follow it, nothing else.
	for _, tail := range []string{"garbage", `[{"id":"x","edge":"overlap"}]`, "]", " , "} {
		if _, err := ParseRules(strings.NewReader(src + tail)); !errors.Is(err, ErrBadRule) {
			t.Errorf("rules followed by %q: %v, want ErrBadRule", tail, err)
		}
	}
	if rules, err := ParseRules(strings.NewReader(src + "\n\t \r\n")); err != nil || len(rules) != 2 {
		t.Errorf("rules followed by whitespace: %d rules, %v", len(rules), err)
	}
}

// TestProvenanceTrace checks a derived fact can be walked back to its
// source through the store's provenance APIs.
func TestProvenanceTrace(t *testing.T) {
	s := newSeqStore(t)
	e := Attach(s)
	if err := e.AddRule(Rule{ID: "sh", Edge: EdgeSharedReferent}); err != nil {
		t.Fatal(err)
	}
	a1 := commitInterval(t, s, 100, 200, "first")
	a2 := commitInterval(t, s, 100, 200, "second")

	incoming := derivedTargeting(s.View(), agraph.ContentRoot(a2.ID))
	if len(incoming) != 1 || incoming[0].Source != a1.ID || incoming[0].Rule != "sh" {
		t.Fatalf("provenance of a2 = %v, want one fact from a1 via sh", incoming)
	}
	if ep := s.View().DerivedSourceEpoch(a1.ID); ep == 0 {
		t.Fatal("source epoch not recorded")
	}
}

// derivedTargeting collects the derived facts targeting one node.
func derivedTargeting(v *core.View, target agraph.NodeRef) []core.DerivedFact {
	var out []core.DerivedFact
	v.DerivedTargetingEach(target, func(f core.DerivedFact) bool {
		out = append(out, f)
		return true
	})
	return out
}
