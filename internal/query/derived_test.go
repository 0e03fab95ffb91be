package query

import (
	"context"
	"strings"
	"testing"

	"graphitti/internal/biodata/seq"
	"graphitti/internal/core"
	"graphitti/internal/interval"
	"graphitti/internal/prop"
)

// derivedFixture builds a store with an active overlap rule: ann1
// [100,200) and ann2 [150,250) overlap (both derive), ann3 [500,600)
// does not.
func derivedFixture(t *testing.T) *core.Store {
	t.Helper()
	s := core.NewStore()
	sq, err := seq.New("NC_1", seq.DNA, strings.Repeat("ACGT", 500))
	if err != nil {
		t.Fatal(err)
	}
	sq.Domain = "chr1"
	if err := s.RegisterSequence(sq); err != nil {
		t.Fatal(err)
	}
	if err := prop.Attach(s).AddRule(prop.Rule{ID: "ov", Edge: prop.EdgeOverlap, Domain: "chr1"}); err != nil {
		t.Fatal(err)
	}
	for _, span := range []interval.Interval{{Lo: 100, Hi: 200}, {Lo: 150, Hi: 250}, {Lo: 500, Hi: 600}} {
		m, err := s.MarkDomainInterval("chr1", span)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Commit(s.NewAnnotation().Creator("t").Date("2026-01-01").Body("site").Refer(m)); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

func TestDerivedPredicate(t *testing.T) {
	s := derivedFixture(t)
	p := NewProcessor(s)

	res, err := p.Execute(`select contents where { ?a isa annotation ; derived . }`, DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	if got := annIDs(res.Annotations); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("derived annotations = %v, want [1 2]", got)
	}

	// Rule-scoped: a rule that derived nothing matches nothing.
	res, err = p.Execute(`select contents where { ?a isa annotation ; derived "nope" . }`, DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Annotations) != 0 {
		t.Fatalf("derived \"nope\" matched %v", annIDs(res.Annotations))
	}

	res, err = p.Execute(`select contents where { ?a isa annotation ; derived "ov" . }`, DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Annotations) != 2 {
		t.Fatalf("derived \"ov\" matched %v", annIDs(res.Annotations))
	}
}

func TestProvenancePredicate(t *testing.T) {
	s := derivedFixture(t)
	p := NewProcessor(s)

	// Referents 1 and 2 are each the target of the other annotation's
	// derived fact; referent 3 is not.
	res, err := p.Execute(`select referents where { ?r isa referent ; provenance . }`, DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Referents) != 2 {
		t.Fatalf("provenance referents = %v, want 2", res.Referents)
	}
	for _, r := range res.Referents {
		if r.ID == 3 {
			t.Fatalf("non-derived-onto referent surfaced: %v", r)
		}
	}

	// Joined with an edge pattern: annotations whose referent carries
	// provenance.
	res, err = p.Execute(`select contents where {
	  ?a isa annotation .
	  ?r isa referent ; provenance "ov" .
	  ?a annotates ?r .
	}`, DefaultOptions)
	if err != nil {
		t.Fatal(err)
	}
	if got := annIDs(res.Annotations); len(got) != 2 {
		t.Fatalf("joined provenance query matched %v", got)
	}
}

func TestDerivedPredicateValidation(t *testing.T) {
	// derived is annotation-only.
	if _, err := Parse(`select referents where { ?r isa referent ; derived . }`); err == nil {
		t.Fatal("derived on a referent variable parsed")
	}
	// provenance applies to every class.
	for _, q := range []string{
		`select contents where { ?a isa annotation ; provenance . }`,
		`select referents where { ?r isa referent ; provenance "x" . }`,
		`select graph where { ?o isa object ; provenance . }`,
		`select graph where { ?t isa term ; provenance . }`,
	} {
		if _, err := Parse(q); err != nil {
			t.Fatalf("parse %q: %v", q, err)
		}
	}
}

func annIDs(anns []*core.Annotation) []uint64 {
	out := make([]uint64, len(anns))
	for i, a := range anns {
		out[i] = a.ID
	}
	return out
}

// TestKeywordNormalizedOnce: a mixed-case word is normalized once — a
// contains word when the query is parsed, a rule's keyword when its rule
// set is built — and not once per annotation it is checked against. A
// contains query whose every candidate a later property refuses, and the
// rule change's recompute under a keyword rule no annotation fires,
// allocate as much at 1,000 annotations as at 100.
func TestKeywordNormalizedOnce(t *testing.T) {
	q, err := Parse(`select contents where { ?a isa annotation ; contains "Protease" ; derived "none" . }`)
	if err != nil {
		t.Fatal(err)
	}
	allocs := func(n int) (query, rule float64) {
		s := core.NewStore()
		sq, err := seq.New("NC_1", seq.DNA, strings.Repeat("ACGT", 500))
		if err != nil {
			t.Fatal(err)
		}
		sq.Domain = "chr1"
		if err := s.RegisterSequence(sq); err != nil {
			t.Fatal(err)
		}
		for i := range n {
			m, err := s.MarkDomainInterval("chr1", interval.Interval{Lo: int64(i), Hi: int64(i) + 10})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Commit(s.NewAnnotation().Creator("t").Date("2026-01-01").Body("protease site").Refer(m)); err != nil {
				t.Fatal(err)
			}
		}
		if err := prop.Attach(s).AddRule(prop.Rule{ID: "kw", Edge: prop.EdgeOverlap, Keyword: "Kinase"}); err != nil {
			t.Fatal(err)
		}
		v := s.View()
		query = testing.AllocsPerRun(5, func() {
			if res, err := Run(context.Background(), v, q, DefaultOptions); err != nil || len(res.Annotations) != 0 {
				t.Fatalf("%v, %v", res, err)
			}
		})
		rule = testing.AllocsPerRun(5, func() {
			if facts := v.Propagator().Recompute(v); len(facts) != 0 {
				t.Fatalf("the rule derived %d sets", len(facts))
			}
		})
		return query, rule
	}
	q100, r100 := allocs(100)
	q1000, r1000 := allocs(1000)
	t.Logf("allocations at 100 and 1,000 annotations: query %.0f and %.0f, recompute %.0f and %.0f", q100, q1000, r100, r1000)
	if q1000 != q100 {
		t.Errorf("a contains query allocates %.0f at 100 annotations and %.0f at 1,000", q100, q1000)
	}
	if r1000 != r100 {
		t.Errorf("a keyword rule's recompute allocates %.0f at 100 annotations and %.0f at 1,000", r100, r1000)
	}
}
