package core_test

import (
	"runtime"
	"testing"

	"graphitti/internal/core"
	"graphitti/internal/prop"
)

// TestDerivedFootprint: what one derived fact costs the view that holds
// it — its bytes in its source's fact set, its share of that set's entry,
// and its source's place in its target's source list — measured over the
// live benchmark's annotations and its session rule (overlap from the
// annotations that name "protease"). A source's facts are one string, a
// fact in it its rule's code, its target's kind and number and the
// referent its witness is printed from, as uvarints: about 6 bytes. The
// target index is keyed by the target's code, a kind byte and a uvarint.
// The bound is 32 bytes: 29 were measured at the smaller size, and 21 at
// the larger. A fact was about 260 bytes while every fact carried its
// witness printed and the target index held a second copy of it, 107
// while a source list held its IDs as 8-byte words, and 86–96 while it
// was stored as a 64-byte record under a target index keyed by the
// printed target. Two sizes, so a cost that grows with the table shows;
// both paths that build the table, the from-scratch one a rule change
// takes and the per-commit delta.
func TestDerivedFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("commits 20k annotations")
	}
	rule := prop.Rule{ID: "bench-overlap", Keyword: "protease", Kind: "interval", Edge: prop.EdgeOverlap}
	// The live benchmark's segment domains are 5,000 positions long.
	const extent = 5000
	const bound = 32
	for _, size := range []struct {
		anns, facts int // facts: the size's order of magnitude
	}{{3300, 8000}, {6600, 32000}} {
		// The annotations alone, then the rule installed over them.
		s := core.BenchmarkStore(t)
		start := core.LiveBytes()
		for _, b := range core.BenchmarkShaped(size.anns, extent) {
			if _, err := s.Commit(b); err != nil {
				t.Fatal(err)
			}
		}
		bare := core.LiveBytes()
		if err := prop.Attach(s).AddRule(rule); err != nil {
			t.Fatal(err)
		}
		facts := s.Stats().Derived
		if facts < size.facts*3/4 || facts > size.facts*3/2 {
			t.Fatalf("%d annotations derive %d facts, want about %d", size.anns, facts, size.facts)
		}
		recomputed := float64(core.LiveBytes()-bare) / float64(facts)
		runtime.KeepAlive(s)

		// The rule first, then the same commits, one session each, so the
		// table is built by deltas; what the store holds beyond the bare
		// one's annotations is the table.
		d := core.BenchmarkStore(t)
		if err := prop.Attach(d).AddRule(rule); err != nil {
			t.Fatal(err)
		}
		start2 := core.LiveBytes()
		for _, b := range core.BenchmarkShaped(size.anns, extent) {
			if _, err := d.Commit(b); err != nil {
				t.Fatal(err)
			}
		}
		if got := d.Stats().Derived; got != facts {
			t.Fatalf("the deltas derive %d facts, the rule change %d", got, facts)
		}
		delta := (float64(core.LiveBytes()-start2) - float64(bare-start)) / float64(facts)
		runtime.KeepAlive(d)

		t.Logf("%d annotations, %d facts: %.0f live bytes per fact built by a rule change, %.0f by deltas",
			size.anns, facts, recomputed, delta)
		if recomputed > bound || delta > bound {
			t.Errorf("a derived fact keeps %.0f (rule change) and %.0f (deltas) bytes live, want at most %d",
				recomputed, delta, bound)
		}
	}
}
