package persist

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"

	"graphitti/internal/biodata/seq"
	"graphitti/internal/core"
	"graphitti/internal/interval"
	"graphitti/internal/prop"
)

// TestRuleRoundTrip checks rules survive a snapshot save/load and that
// the loaded store re-derives the same facts without them ever being
// serialized.
func TestRuleRoundTrip(t *testing.T) {
	s := core.NewStore()
	sq, err := seq.New("NC_1", seq.DNA, strings.Repeat("ACGT", 100))
	if err != nil {
		t.Fatal(err)
	}
	sq.Domain = "chr1"
	if err := s.RegisterSequence(sq); err != nil {
		t.Fatal(err)
	}
	commit := func(lo, hi int64) {
		m, err := s.MarkDomainInterval("chr1", interval.Interval{Lo: lo, Hi: hi})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Commit(s.NewAnnotation().Creator("t").Date("2026-01-01").Body("x").Refer(m)); err != nil {
			t.Fatal(err)
		}
	}
	commit(10, 50)
	commit(40, 90)
	rule := prop.Rule{ID: "ov", Edge: prop.EdgeOverlap, Domain: "chr1"}
	if err := prop.Attach(s).AddRule(rule); err != nil {
		t.Fatal(err)
	}
	if s.View().Stats().Derived != 2 {
		t.Fatalf("derived count = %d, want 2", s.View().Stats().Derived)
	}

	var buf bytes.Buffer
	if err := Write(s, &buf); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(buf.Bytes(), []byte("overlap ref")) {
		t.Fatal("snapshot serialized derived facts; they must be recomputed on load")
	}
	loaded, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := prop.RulesOf(loaded.View()); len(got) != 1 || !reflect.DeepEqual(got[0], rule) {
		t.Fatalf("loaded rules = %v, want [%+v]", got, rule)
	}
	if !reflect.DeepEqual(slices.Collect(loaded.View().DerivedEach), slices.Collect(s.View().DerivedEach)) {
		t.Fatalf("re-derived facts diverged:\n got %v\nwant %v", slices.Collect(loaded.View().DerivedEach), slices.Collect(s.View().DerivedEach))
	}
}
