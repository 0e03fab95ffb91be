package graphitti

import (
	"strings"
	"testing"
)

// TestPropagationFacade exercises the facade surface of the propagation
// engine: AddRule, a view's DerivedFrom and DerivedOnto, Rules, DeleteRule.
func TestPropagationFacade(t *testing.T) {
	store := New()
	dna, err := NewDNA("NC_1", strings.Repeat("ACGT", 500))
	if err != nil {
		t.Fatal(err)
	}
	dna.Domain = "segment4"
	if err := store.RegisterSequence(dna); err != nil {
		t.Fatal(err)
	}
	if err := AddRule(store, Rule{ID: "ov", Edge: EdgeOverlap, Domain: "segment4"}); err != nil {
		t.Fatal(err)
	}

	commit := func(lo, hi int64) *Annotation {
		m, err := store.MarkDomainInterval("segment4", Span(lo, hi))
		if err != nil {
			t.Fatal(err)
		}
		ann, err := store.Commit(store.NewAnnotation().
			Creator("t").Date("2026-01-01").Body("w").Refer(m))
		if err != nil {
			t.Fatal(err)
		}
		return ann
	}
	a1 := commit(100, 200)
	a2 := commit(150, 250)

	v := store.View()
	facts := v.DerivedFrom(a1.ID)
	if len(facts) != 1 || facts[0].Rule != "ov" {
		t.Fatalf("DerivedFrom(a1) = %v", facts)
	}
	prov, err := v.DerivedOnto(a2.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(prov) != 1 || prov[0].Source != a1.ID {
		t.Fatalf("DerivedOnto(a2) = %v", prov)
	}
	if _, err := v.DerivedOnto(99999); err == nil {
		t.Fatal("DerivedOnto of a missing annotation returned no error")
	}
	if rules := Rules(store); len(rules) != 1 || rules[0].ID != "ov" {
		t.Fatalf("Rules = %v", rules)
	}
	if store.Stats().Derived != 2 {
		t.Fatalf("Stats().Derived = %d", store.Stats().Derived)
	}
	if err := DeleteRule(store, "ov"); err != nil {
		t.Fatal(err)
	}
	if store.Stats().Derived != 0 {
		t.Fatal("derived facts survived rule deletion")
	}

	// Save/Load round-trips rules and re-derives facts.
	if err := AddRule(store, Rule{ID: "ov2", Edge: EdgeOverlap, Domain: "segment4"}); err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if err := Save(store, &sb); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Stats().Derived != 2 || len(Rules(loaded)) != 1 {
		t.Fatalf("loaded store: derived=%d rules=%v", loaded.Stats().Derived, Rules(loaded))
	}
}
