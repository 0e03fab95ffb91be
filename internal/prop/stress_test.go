package prop

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"graphitti/internal/agraph"
	"graphitti/internal/biodata/seq"
	"graphitti/internal/core"
	"graphitti/internal/interval"
	"graphitti/internal/ontology"
)

// TestStressDeltaExactness is the acceptance gate for incremental
// maintenance: 8 writers race randomized commits and deletes (with
// overlap, shared-referent and closure rules active), and at quiescence
// the delta-maintained derived table must be byte-identical to a
// from-scratch recompute of the final view. Run under -race in CI.
func TestStressDeltaExactness(t *testing.T) {
	const (
		writers      = 8
		opsPerWriter = 120
	)
	s := core.NewStore()
	sq, err := seq.New("NC_1", seq.DNA, strings.Repeat("ACGT", 5000))
	if err != nil {
		t.Fatal(err)
	}
	sq.Domain = "chr1"
	if err := s.RegisterSequence(sq); err != nil {
		t.Fatal(err)
	}
	o := ontology.New("go")
	terms := []string{"enzyme", "hydrolase", "protease", "kinase"}
	for _, id := range terms {
		if _, err := o.AddTerm(id, id); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]string{{"hydrolase", "enzyme"}, {"protease", "hydrolase"}, {"kinase", "enzyme"}} {
		if err := o.AddEdge(e[0], e[1], ontology.IsA, ontology.Some); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.RegisterOntology(o); err != nil {
		t.Fatal(err)
	}

	e := Attach(s)
	for _, r := range []Rule{
		{ID: "ov", Edge: EdgeOverlap, Domain: "chr1"},
		{ID: "sh", Edge: EdgeSharedReferent},
		{ID: "cl", Edge: EdgeOntologyClosure, Ontology: "go"},
		{ID: "kw", Edge: EdgeOverlap, Keyword: "hotspot"},
	} {
		if err := e.AddRule(r); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	// A rule-churn writer races adds/deletes of one rule against the
	// annotation writers: every swap + recompute must be atomic with
	// respect to concurrent deltas (core.UpdateDerivedRules), or the
	// final table diverges from the final rule set's recompute.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			if err := e.AddRule(Rule{ID: "churn", Edge: EdgeOverlap, Domain: "chr1"}); err != nil {
				t.Errorf("churn add: %v", err)
				return
			}
			if err := e.DeleteRule("churn"); err != nil {
				t.Errorf("churn delete: %v", err)
				return
			}
		}
	}()
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) * 7919))
			var mine []uint64
			for i := 0; i < opsPerWriter; i++ {
				if len(mine) > 0 && rng.Intn(100) < 30 {
					// Delete one of this writer's own annotations (no
					// cross-writer deletes, so every delete succeeds).
					k := rng.Intn(len(mine))
					id := mine[k]
					mine = append(mine[:k], mine[k+1:]...)
					if err := s.DeleteAnnotation(id); err != nil {
						t.Errorf("writer %d delete %d: %v", w, id, err)
						return
					}
					continue
				}
				// Coarse positions make mark collisions (shared referents)
				// and overlaps both common.
				lo := int64(rng.Intn(195)) * 100
				hi := lo + 100 + int64(rng.Intn(3))*100
				m, err := s.MarkDomainInterval("chr1", interval.Interval{Lo: lo, Hi: hi})
				if err != nil {
					t.Errorf("writer %d mark: %v", w, err)
					return
				}
				body := "signal"
				if rng.Intn(3) == 0 {
					body = "hotspot signal"
				}
				b := s.NewAnnotation().Creator("w").Date("2026-01-01").Body(body).Refer(m)
				if rng.Intn(2) == 0 {
					b.OntologyRef("go", terms[rng.Intn(len(terms))])
				}
				ann, err := s.Commit(b)
				if err != nil {
					t.Errorf("writer %d commit: %v", w, err)
					return
				}
				mine = append(mine, ann.ID)
			}
		}(w)
	}
	wg.Wait()

	v := s.View()
	got := slices.Collect(v.DerivedEach)
	want := flatten(e.Recompute(v))
	if len(got) == 0 {
		t.Fatal("stress produced no derived facts; workload is not exercising the engine")
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("delta-maintained derived table diverged from recompute: %d maintained vs %d recomputed facts",
			len(got), len(want))
	}
	if v.Stats().Derived != len(got) {
		t.Fatalf("DerivedCount %d != len(DerivedAll) %d", v.Stats().Derived, len(got))
	}
	assertTargetIndexParity(t, v)
}

// assertTargetIndexParity proves the delta-maintained derived target
// index exactly mirrors the derived table: the indexed target set, and
// every per-target fact list (content and order), must match what a
// full table scan produces — no stale entries, no missing ones.
func assertTargetIndexParity(t *testing.T, v *core.View) {
	t.Helper()
	byTarget := make(map[agraph.NodeRef][]core.DerivedFact)
	v.DerivedEach(func(f core.DerivedFact) bool {
		byTarget[f.Target] = append(byTarget[f.Target], f)
		return true
	})
	// The index has one lookup, so ask it about every node a rule can
	// target: content roots and referents up to the ID counters, images
	// and ontology terms.
	nextAnn, nextRef := v.IDCounters()
	var candidates []agraph.NodeRef
	for id := uint64(1); id <= nextAnn; id++ {
		candidates = append(candidates, agraph.ContentRoot(id))
	}
	for id := uint64(1); id <= nextRef; id++ {
		candidates = append(candidates, agraph.Referent(id))
	}
	for _, img := range v.Images() {
		candidates = append(candidates, agraph.Object(string(core.TypeImage), img))
	}
	for _, name := range v.Ontologies() {
		o, err := v.Ontology(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, term := range o.Terms() {
			candidates = append(candidates, agraph.Term(name, term))
		}
	}
	indexed := 0
	for _, target := range candidates {
		var got []core.DerivedFact
		v.DerivedTargetingEach(target, func(f core.DerivedFact) bool {
			got = append(got, f)
			return true
		})
		want := byTarget[target]
		if len(got) > 0 {
			indexed++
			if want == nil {
				t.Fatalf("target index holds stale target %v", target)
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("index facts for %v diverged from table scan:\n got %v\nwant %v", target, got, want)
		}
	}
	if indexed != len(byTarget) {
		t.Fatalf("target index holds %d targets, table scan finds %d", indexed, len(byTarget))
	}
}
