package query

import (
	"strings"
	"testing"

	"graphitti/internal/biodata/seq"
	"graphitti/internal/core"
	"graphitti/internal/interval"
)

func TestParse3DRectAndLabelForms(t *testing.T) {
	q := MustParse(`
select referents
where {
  ?r isa referent ; overlaps [0, 0, 0, 10, 10, 10] .
}`)
	if len(q.Vars) != 1 || q.Vars[0].Props[0].Rect.Dims != 3 {
		t.Fatalf("3-D rect not parsed: %+v", q.Vars[0].Props)
	}
	// refers-to / refersto label spellings.
	for _, label := range []string{"refersTo", "refersto", "refers-to"} {
		src := `select contents where {
  ?a isa annotation .
  ?t isa term .
  ?a ` + label + ` ?t .
}`
		q, err := Parse(src)
		if err != nil {
			t.Fatalf("label %q rejected: %v", label, err)
		}
		if q.Edges[0].Label != "refersTo" {
			t.Fatalf("label %q normalised to %q", label, q.Edges[0].Label)
		}
	}
	// Comments are skipped.
	if _, err := Parse("# leading comment\nselect contents where { ?a isa annotation . }"); err != nil {
		t.Fatal(err)
	}
}

func TestSelectKindAndClassStrings(t *testing.T) {
	if SelectContents.String() != "contents" || SelectReferents.String() != "referents" ||
		SelectGraph.String() != "graph" {
		t.Error("SelectKind strings wrong")
	}
	for _, c := range []NodeClass{ClassAnnotation, ClassReferent, ClassObject, ClassTerm} {
		if c.String() == "" {
			t.Error("NodeClass string missing")
		}
	}
	for _, k := range []ConstraintKind{ConstraintDisjoint, ConstraintOverlapping,
		ConstraintConsecutive, ConstraintSameDomain, ConstraintDistinct} {
		if k.String() == "" {
			t.Error("ConstraintKind string missing")
		}
	}
}

func TestReferentPropertyMismatches(t *testing.T) {
	s := newQueryStore(t)
	p := NewProcessor(s)
	// overlaps [..] on a region predicate filters out interval referents
	// (kind mismatch) and vice versa.
	res, err := p.Execute(`
select referents
where {
  ?r isa referent ; kind region ; overlaps [12, 18) .
}`, DefaultOptions)
	must(t, err)
	if len(res.Referents) != 0 {
		t.Fatalf("region referents matched an interval predicate: %d", len(res.Referents))
	}
	// object filter.
	res, err = p.Execute(`
select referents
where {
  ?r isa referent ; object "NC_1" .
}`, DefaultOptions)
	must(t, err)
	if len(res.Referents) != 5 {
		t.Fatalf("object-filtered referents = %d, want 5", len(res.Referents))
	}
	// rect overlap with domain-driven index seeding.
	res, err = p.Execute(`
select referents
where {
  ?r isa referent ; domain "atlas" ; overlaps [0, 0, 70, 70] .
}`, DefaultOptions)
	must(t, err)
	if len(res.Referents) != 2 {
		t.Fatalf("atlas rect referents = %d, want 2", len(res.Referents))
	}
}

func TestDisconnectedPatternGetsConnected(t *testing.T) {
	s := newQueryStore(t)
	p := NewProcessor(s)
	// Two annotations with no pattern edge between them: the collated
	// subgraph must be extended through connect().
	res, err := p.Execute(`
select graph
where {
  ?a1 isa annotation ; contains "alpha" .
  ?a2 isa annotation ; contains "beta" .
}`, DefaultOptions)
	must(t, err)
	if len(res.Subgraphs) != 1 {
		t.Fatalf("subgraphs = %d", len(res.Subgraphs))
	}
	sg := res.Subgraphs[0]
	if !sg.Connected() {
		t.Fatal("disconnected pattern result not extended via connect()")
	}
	if sg.NodeCount() < 3 {
		t.Fatalf("extended subgraph too small: %d nodes", sg.NodeCount())
	}
}

func TestSameDomainAndOverlapConstraintRejections(t *testing.T) {
	s := core.NewStore()
	d1, err := seq.New("A", seq.DNA, strings.Repeat("ACGT", 30))
	must(t, err)
	d1.Domain = "dom1"
	must(t, s.RegisterSequence(d1))
	d2, err := seq.New("B", seq.DNA, strings.Repeat("ACGT", 30))
	must(t, err)
	d2.Domain = "dom2"
	must(t, s.RegisterSequence(d2))
	for _, id := range []string{"A", "B"} {
		m, err := s.View().MarkSequenceInterval(id, interval.Interval{Lo: 0, Hi: 50})
		must(t, err)
		_, err = s.Commit(s.NewAnnotation().Creator("u").Date("2008-01-01").
			Body("cross-domain").Refer(m))
		must(t, err)
	}
	p := NewProcessor(s)
	// samedomain rejects marks from different domains.
	res, err := p.Execute(`
select referents
where {
  ?r1 isa referent ; domain "dom1" .
  ?r2 isa referent ; domain "dom2" .
}
constrain samedomain(?r1, ?r2)`, DefaultOptions)
	must(t, err)
	if res.Stats.Matches != 0 {
		t.Fatalf("samedomain across domains matched %d", res.Stats.Matches)
	}
	// consecutive rejects non-interval or cross-domain groups.
	res, err = p.Execute(`
select referents
where {
  ?r1 isa referent ; domain "dom1" .
  ?r2 isa referent ; domain "dom2" .
}
constrain consecutive(?r1, ?r2)`, DefaultOptions)
	must(t, err)
	if res.Stats.Matches != 0 {
		t.Fatalf("consecutive across domains matched %d", res.Stats.Matches)
	}
}

func TestNamedTermProperty(t *testing.T) {
	s := newQueryStore(t)
	p := NewProcessor(s)
	// The nif ontology terms are named like their IDs in newQueryStore;
	// the real lookup is by Term.Name or synonym via TermByName.
	res, err := p.Execute(`
select contents
where {
  ?a isa annotation .
  ?t isa term ; ontology "nif" ; named "deep-cerebellar-nuclei" .
  ?a refersTo ?t .
}`, DefaultOptions)
	must(t, err)
	if len(res.Annotations) != 3 {
		t.Fatalf("named-term annotations = %d, want 3", len(res.Annotations))
	}
	// Unknown name yields no candidates, not an error.
	res, err = p.Execute(`
select contents
where {
  ?a isa annotation .
  ?t isa term ; ontology "nif" ; named "No Such Region" .
  ?a refersTo ?t .
}`, DefaultOptions)
	must(t, err)
	if res.Stats.Matches != 0 {
		t.Fatalf("unknown name matched %d", res.Stats.Matches)
	}
	// named is a term-only property.
	if _, err := Parse(`select contents where { ?a isa annotation ; named "x" . }`); err == nil {
		t.Fatal("named on annotation accepted")
	}
}

func TestExecuteParseError(t *testing.T) {
	s := newQueryStore(t)
	p := NewProcessor(s)
	if _, err := p.Execute("select garbage", DefaultOptions); err == nil {
		t.Fatal("parse error not surfaced")
	}
}

func TestLimitClause(t *testing.T) {
	s := newQueryStore(t)
	p := NewProcessor(s)
	res, err := p.Execute(`
select contents
where {
  ?a isa annotation .
}
limit 3`, DefaultOptions)
	must(t, err)
	if res.Stats.Matches != 3 {
		t.Fatalf("limit clause: matches = %d", res.Stats.Matches)
	}
	// Caller's tighter cap wins.
	res, err = p.Execute(`
select contents
where {
  ?a isa annotation .
}
limit 5`, Options{MaxResults: 2})
	must(t, err)
	if res.Stats.Matches != 2 {
		t.Fatalf("tighter caller cap: matches = %d", res.Stats.Matches)
	}
	// limit after constrain.
	res, err = p.Execute(`
select referents
where {
  ?r1 isa referent ; kind interval ; domain "segment4" .
  ?r2 isa referent ; kind interval ; domain "segment4" .
}
constrain distinct(?r1, ?r2)
limit 4`, DefaultOptions)
	must(t, err)
	if res.Stats.Matches != 4 {
		t.Fatalf("constrain+limit: matches = %d", res.Stats.Matches)
	}
	// Bad limits.
	for _, src := range []string{
		"select contents where { ?a isa annotation . } limit",
		"select contents where { ?a isa annotation . } limit x",
		"select contents where { ?a isa annotation . } limit 0",
		"select contents where { ?a isa annotation . } limit -1",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("%q accepted", src)
		}
	}
}

func TestUnderUnknownConceptInNamedOntology(t *testing.T) {
	s := newQueryStore(t)
	p := NewProcessor(s)
	// "under" a concept that does not exist yields zero candidates, not an
	// error (the concept may live in another ontology).
	res, err := p.Execute(`
select contents
where {
  ?a isa annotation .
  ?t isa term ; ontology "go" ; under "no-such-concept" .
  ?a refersTo ?t .
}`, DefaultOptions)
	must(t, err)
	if res.Stats.Matches != 0 {
		t.Fatalf("matches = %d", res.Stats.Matches)
	}
}
