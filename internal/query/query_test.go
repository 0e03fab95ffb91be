package query

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"graphitti/internal/biodata/imaging"
	"graphitti/internal/biodata/seq"
	"graphitti/internal/core"
	"graphitti/internal/interval"
	"graphitti/internal/ontology"
	"graphitti/internal/rtree"
)

// newQueryStore builds a store with:
//   - a protein ontology (enzyme > hydrolase > protease > serine-protease)
//   - a nif ontology (brain-region > cerebellum > deep-cerebellar-nuclei)
//   - a DNA sequence on domain "segment4" carrying 4 consecutive disjoint
//     protease annotations at [0,10) [10,20) [20,30) [30,40) plus an
//     overlapping decoy at [5,15)
//   - two brain images in the "atlas" system, one with 2 DCN-annotated
//     regions, one with a single region
func newQueryStore(t testing.TB) *core.Store {
	s := core.NewStore()

	enz := ontology.New("go")
	for _, id := range []string{"enzyme", "hydrolase", "protease", "serine-protease"} {
		if _, err := enz.AddTerm(id, id); err != nil {
			t.Fatal(err)
		}
	}
	must(t, enz.AddEdge("hydrolase", "enzyme", ontology.IsA, ontology.Some))
	must(t, enz.AddEdge("protease", "hydrolase", ontology.IsA, ontology.Some))
	must(t, enz.AddEdge("serine-protease", "protease", ontology.IsA, ontology.Some))
	must(t, s.RegisterOntology(enz))

	nif := ontology.New("nif")
	for _, id := range []string{"brain-region", "cerebellum", "deep-cerebellar-nuclei"} {
		if _, err := nif.AddTerm(id, id); err != nil {
			t.Fatal(err)
		}
	}
	must(t, nif.AddEdge("cerebellum", "brain-region", ontology.IsA, ontology.Some))
	must(t, nif.AddEdge("deep-cerebellar-nuclei", "cerebellum", ontology.IsA, ontology.Some))
	must(t, s.RegisterOntology(nif))

	d, err := seq.New("NC_1", seq.DNA, strings.Repeat("ACGT", 50))
	must(t, err)
	d.Domain = "segment4"
	must(t, s.RegisterSequence(d))

	for i, body := range []string{
		"protease motif alpha", "protease motif beta",
		"protease motif gamma", "protease motif delta",
	} {
		m, err := s.MarkSequenceInterval("NC_1", interval.Interval{Lo: int64(i * 10), Hi: int64(i*10 + 10)})
		must(t, err)
		_, err = s.Commit(s.NewAnnotation().
			Creator("gupta").Date("2007-11-01").Body(body).
			Refer(m).OntologyRef("go", "serine-protease"))
		must(t, err)
	}
	// Decoy overlapping annotation without "protease".
	m, err := s.MarkSequenceInterval("NC_1", interval.Interval{Lo: 5, Hi: 15})
	must(t, err)
	_, err = s.Commit(s.NewAnnotation().
		Creator("condit").Date("2007-11-02").Body("replication signal").Refer(m))
	must(t, err)

	cs, err := imaging.NewCoordinateSystem("atlas", rtree.Rect2D(0, 0, 1000, 1000))
	must(t, err)
	must(t, s.RegisterCoordinateSystem(cs))
	im1, err := imaging.NewImage("brain-1", "atlas", rtree.Rect2D(0, 0, 400, 400), imaging.Identity(2))
	must(t, err)
	must(t, s.RegisterImage(im1))
	im2, err := imaging.NewImage("brain-2", "atlas", rtree.Rect2D(0, 0, 400, 400), imaging.Identity(2))
	must(t, err)
	must(t, s.RegisterImage(im2))

	// brain-1: two DCN regions; brain-2: one.
	for i, rect := range []rtree.Rect{
		rtree.Rect2D(10, 10, 60, 60), rtree.Rect2D(100, 100, 160, 160),
	} {
		rm, err := s.MarkImageRegion("brain-1", rect)
		must(t, err)
		_, err = s.Commit(s.NewAnnotation().
			Creator("martone").Date("2007-12-01").
			Body("DCN expression site "+string(rune('a'+i))).
			Refer(rm).OntologyRef("nif", "deep-cerebellar-nuclei"))
		must(t, err)
	}
	rm, err := s.MarkImageRegion("brain-2", rtree.Rect2D(50, 50, 90, 90))
	must(t, err)
	_, err = s.Commit(s.NewAnnotation().
		Creator("martone").Date("2007-12-02").Body("single DCN site").
		Refer(rm).OntologyRef("nif", "deep-cerebellar-nuclei"))
	must(t, err)

	return s
}

func must(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"",
		"select",
		"select things where {}",
		"select graph {}",
		"select graph where { ?a isa thing . }",
		"select graph where { ?a isa annotation . ?a annotates ?r . }",  // ?r undeclared
		"select graph where { ?a isa annotation ; bogus 'x' . }",        // unknown property
		"select graph where { ?a isa annotation ; kind interval . }",    // property/class mismatch
		"select graph where { ?a isa annotation . ?a marks ?a . }",      // label/class mismatch
		"select graph where { ?a isa annotation . } constrain nope(?a)", // unknown constraint
		"select graph where { ?a isa annotation . ?a isa annotation . }",
		"select graph where { ?r isa referent ; overlaps [1) . }",
		"select graph where { ?a isa annotation ",
		"select contents where { ?a isa annotation . } constrain disjoint(?a)", // arity
	}
	for i, src := range bad {
		if _, err := Parse(src); err == nil {
			t.Errorf("case %d: %q parsed without error", i, src)
		}
	}
}

func TestParseShapes(t *testing.T) {
	q := MustParse(`
# the query-tab protease query
select graph
where {
  ?a isa annotation ; contains "protease" ; creator "gupta" .
  ?r isa referent ; kind interval ; domain "segment4" ; overlaps [0, 40) .
  ?r2 isa referent ; kind interval .
  ?o isa object ; type dna_sequences .
  ?a annotates ?r .
  ?a annotates ?r2 .
  ?r marks ?o .
}
constrain disjoint(?r, ?r2) samedomain(?r, ?r2)`)
	_ = q
	// Missing declaration of ?r2 must fail validation, so redo correctly:
	if _, err := Parse(`select graph where { ?r isa referent . } constrain disjoint(?r, ?ghost)`); err == nil {
		t.Fatal("constraint on undeclared variable accepted")
	}
}

func TestExecuteContents(t *testing.T) {
	s := newQueryStore(t)
	p := NewProcessor(s)
	res, err := p.Execute(`
select contents
where {
  ?a isa annotation ; contains "protease" .
}`, DefaultOptions)
	must(t, err)
	if len(res.Annotations) != 4 {
		t.Fatalf("protease annotations = %d, want 4", len(res.Annotations))
	}
	// creator filter
	res, err = p.Execute(`
select contents
where {
  ?a isa annotation ; creator "condit" .
}`, DefaultOptions)
	must(t, err)
	if len(res.Annotations) != 1 {
		t.Fatalf("condit annotations = %d", len(res.Annotations))
	}
	// xpath property
	res, err = p.Execute(`
select contents
where {
  ?a isa annotation ; xpath "//referent[@kind='region']" .
}`, DefaultOptions)
	must(t, err)
	if len(res.Annotations) != 3 {
		t.Fatalf("region annotations = %d, want 3", len(res.Annotations))
	}
}

func TestExecuteReferentsWithIntervalPredicate(t *testing.T) {
	s := newQueryStore(t)
	p := NewProcessor(s)
	res, err := p.Execute(`
select referents
where {
  ?r isa referent ; kind interval ; domain "segment4" ; overlaps [12, 18) .
}`, DefaultOptions)
	must(t, err)
	// [10,20) and the decoy [5,15) overlap [12,18).
	if len(res.Referents) != 2 {
		t.Fatalf("referents = %d, want 2", len(res.Referents))
	}
}

func TestExecuteJoin(t *testing.T) {
	s := newQueryStore(t)
	p := NewProcessor(s)
	res, err := p.Execute(`
select contents
where {
  ?a isa annotation .
  ?r isa referent ; kind region .
  ?t isa term ; ontology "nif" ; under "cerebellum" .
  ?a annotates ?r .
  ?a refersTo ?t .
}`, DefaultOptions)
	must(t, err)
	if len(res.Annotations) != 3 {
		t.Fatalf("joined annotations = %d, want 3", len(res.Annotations))
	}
	// Join via object: annotations on brain-1 only.
	res, err = p.Execute(`
select contents
where {
  ?a isa annotation .
  ?r isa referent .
  ?o isa object ; id "brain-1" .
  ?a annotates ?r .
  ?r marks ?o .
}`, DefaultOptions)
	must(t, err)
	if len(res.Annotations) != 2 {
		t.Fatalf("brain-1 annotations = %d, want 2", len(res.Annotations))
	}
}

// TestQ2ProteaseConsecutive is the paper's query-tab query: "annotated
// sequences … where 4 consecutive non-overlapping intervals in the
// sequence has annotations having the keyword 'protease' in each of them."
func TestQ2ProteaseConsecutive(t *testing.T) {
	s := newQueryStore(t)
	p := NewProcessor(s)
	res, err := p.Execute(`
select graph
where {
  ?a1 isa annotation ; contains "protease" .
  ?a2 isa annotation ; contains "protease" .
  ?a3 isa annotation ; contains "protease" .
  ?a4 isa annotation ; contains "protease" .
  ?r1 isa referent ; kind interval ; domain "segment4" .
  ?r2 isa referent ; kind interval ; domain "segment4" .
  ?r3 isa referent ; kind interval ; domain "segment4" .
  ?r4 isa referent ; kind interval ; domain "segment4" .
  ?o isa object ; type dna_sequences .
  ?a1 annotates ?r1 .
  ?a2 annotates ?r2 .
  ?a3 annotates ?r3 .
  ?a4 annotates ?r4 .
  ?r1 marks ?o .
  ?r2 marks ?o .
  ?r3 marks ?o .
  ?r4 marks ?o .
}
constrain consecutive(?r1, ?r2, ?r3, ?r4) distinct(?r1, ?r2, ?r3, ?r4)`, DefaultOptions)
	must(t, err)
	// The 4 protease intervals can be bound in any order: 4! matches.
	if res.Stats.Matches != 24 {
		t.Fatalf("matches = %d, want 24 (4! orderings)", res.Stats.Matches)
	}
	if len(res.Subgraphs) != 24 {
		t.Fatalf("subgraphs = %d", len(res.Subgraphs))
	}
	for _, sg := range res.Subgraphs {
		if !sg.Connected() {
			t.Fatal("result subgraph disconnected")
		}
		// 4 contents + 4 referents + 1 object.
		if sg.NodeCount() != 9 {
			t.Fatalf("subgraph nodes = %d, want 9", sg.NodeCount())
		}
	}
}

func TestConstraintSemantics(t *testing.T) {
	s := newQueryStore(t)
	p := NewProcessor(s)
	// Overlapping: the decoy [5,15) overlaps [0,10) and [10,20).
	res, err := p.Execute(`
select referents
where {
  ?r1 isa referent ; kind interval ; domain "segment4" ; overlaps [5, 15) .
  ?r2 isa referent ; kind interval ; domain "segment4" .
}
constrain overlapping(?r1, ?r2) distinct(?r1, ?r2)`, DefaultOptions)
	must(t, err)
	if res.Stats.Matches == 0 {
		t.Fatal("no overlapping pairs found")
	}
	for _, m := range res.Matches {
		if m["r1"] == m["r2"] {
			t.Fatal("distinct constraint violated")
		}
	}
}

func TestPlannerOrderingAblation(t *testing.T) {
	s := newQueryStore(t)
	p := NewProcessor(s)
	src := `
select contents
where {
  ?a isa annotation .
  ?r isa referent ; kind region ; domain "atlas" ; overlaps [0, 0, 70, 70] .
  ?a annotates ?r .
}`
	smart, err := p.Execute(src, Options{OrderBySelectivity: true})
	must(t, err)
	naive, err := p.Execute(src, Options{OrderBySelectivity: false})
	must(t, err)
	// Same answers: brain-1's [10,60)² and brain-2's [50,90)² overlap the box.
	if len(smart.Annotations) != len(naive.Annotations) || len(smart.Annotations) != 2 {
		t.Fatalf("ablation changed results: %d vs %d", len(smart.Annotations), len(naive.Annotations))
	}
	// The selectivity-ordered plan starts from the 2-candidate referent,
	// not the 8-annotation set.
	if smart.Stats.Order[0] != "r" {
		t.Fatalf("smart order = %v", smart.Stats.Order)
	}
	if naive.Stats.Order[0] != "a" {
		t.Fatalf("naive order = %v", naive.Stats.Order)
	}
	if smart.Stats.BindingsTried >= naive.Stats.BindingsTried {
		t.Fatalf("selectivity ordering tried %d bindings, naive %d — expected fewer",
			smart.Stats.BindingsTried, naive.Stats.BindingsTried)
	}
}

func TestMaxResults(t *testing.T) {
	s := newQueryStore(t)
	p := NewProcessor(s)
	res, err := p.Execute(`
select contents
where {
  ?a isa annotation .
}`, Options{OrderBySelectivity: true, MaxResults: 3})
	must(t, err)
	if res.Stats.Matches != 3 {
		t.Fatalf("matches = %d, want 3", res.Stats.Matches)
	}
}

func TestTermUnderClosure(t *testing.T) {
	s := newQueryStore(t)
	p := NewProcessor(s)
	// "under protease" must catch serine-protease references.
	res, err := p.Execute(`
select contents
where {
  ?a isa annotation .
  ?t isa term ; ontology "go" ; under "protease" .
  ?a refersTo ?t .
}`, DefaultOptions)
	must(t, err)
	if len(res.Annotations) != 4 {
		t.Fatalf("under-closure annotations = %d, want 4", len(res.Annotations))
	}
	// Exact term does not.
	res, err = p.Execute(`
select contents
where {
  ?a isa annotation .
  ?t isa term ; ontology "go" ; term "protease" .
  ?a refersTo ?t .
}`, DefaultOptions)
	must(t, err)
	if len(res.Annotations) != 0 {
		t.Fatalf("exact-term annotations = %d, want 0", len(res.Annotations))
	}
}

func TestEmptyCandidateSets(t *testing.T) {
	s := newQueryStore(t)
	p := NewProcessor(s)
	res, err := p.Execute(`
select contents
where {
  ?a isa annotation ; contains "nonexistent-keyword" .
}`, DefaultOptions)
	must(t, err)
	if res.Stats.Matches != 0 || len(res.Annotations) != 0 {
		t.Fatalf("expected no matches, got %d", res.Stats.Matches)
	}
}

// TestPinnedViewQuery: a query's join steps and the subgraphs it collates
// read the a-graph of the view the execution pinned. With a view pinned,
// one of the four protease annotations is deleted and a new one commits on
// its neighbour's referent and on the decoy's; the same query over the
// pinned view answers exactly as before them — in either join strategy —
// and only a fresh view sees the new state.
func TestPinnedViewQuery(t *testing.T) {
	s := newQueryStore(t)
	q, err := Parse(`
select graph
where {
  ?a isa annotation ; contains "protease" .
  ?r isa referent ; kind interval .
  ?o isa object ; id "NC_1" .
  ?a annotates ?r .
  ?r marks ?o .
}`)
	must(t, err)
	v := s.View()
	// run renders the matches and their subgraphs (a match's terminals
	// come in map order; DOT sorts them).
	run := func(v *core.View, join JoinStrategy) []string {
		t.Helper()
		opts := DefaultOptions
		opts.Join = join
		res, err := (&execution{view: v, ctx: context.Background()}).execute(q, opts)
		must(t, err)
		out := make([]string, len(res.Matches))
		for i, m := range res.Matches {
			out[i] = fmt.Sprint(m, res.Subgraphs[i].DOT("match"))
		}
		return out
	}
	before := run(v, JoinAuto)
	if len(before) != 4 {
		t.Fatalf("fixture: %d matches", len(before))
	}

	anns := v.SearchKeyword("protease", true)
	must(t, s.DeleteAnnotation(anns[1].ID))
	shared, err := v.Referent(anns[0].ReferentIDs[0])
	must(t, err)
	decoy, err := s.MarkSequenceInterval("NC_1", interval.Interval{Lo: 5, Hi: 15})
	must(t, err)
	_, err = s.Commit(s.NewAnnotation().Creator("gupta").Date("2007-11-03").
		Body("protease motif epsilon").Refer(shared).Refer(decoy))
	must(t, err)

	for _, join := range []JoinStrategy{JoinAuto, JoinNestedLoop} {
		if after := run(v, join); !slices.Equal(after, before) {
			t.Fatalf("join %v over the pinned view after the delete and the commit:\n%v\nbefore them:\n%v", join, after, before)
		}
	}
	if now := run(s.View(), JoinAuto); len(now) != 5 {
		t.Fatalf("current view: %d matches, want 5 (three survivors, the new annotation on two referents)", len(now))
	}
}
