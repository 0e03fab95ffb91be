package prop

import (
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

// TestDerivedReadersUnderDeltas: readers pin views and decode every fact
// set of each — the whole table, each source's set, each target's facts
// through the target index, each annotation's provenance — while one
// writer commits and deletes annotations and adds and removes rules, so
// the table changes by deltas and by rule-change rebuilds. Every pinned
// view's facts equal a from-scratch recompute under its own propagator,
// every index-driven read equals the same filter of the table, and the
// table read again after all of that is the one read first: a set a view
// published is never written again. Run with -race.
func TestDerivedReadersUnderDeltas(t *testing.T) {
	const anns, steps = 150, 90
	s := core.NewStore()
	sq, err := seq.New("NC_1", seq.DNA, strings.Repeat("ACGT", 2000))
	if err != nil {
		t.Fatal(err)
	}
	sq.Domain = "chr1"
	if err := s.RegisterSequence(sq); err != nil {
		t.Fatal(err)
	}
	o := ontology.New("go")
	for _, id := range []string{"root", "leaf"} {
		if _, err := o.AddTerm(id, id); err != nil {
			t.Fatal(err)
		}
	}
	if err := o.AddEdge("leaf", "root", ontology.IsA, ontology.Some); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterOntology(o); err != nil {
		t.Fatal(err)
	}
	// Annotation i marks [40i mod 6000, +60): neighbors overlap, and every
	// 150th start repeats, so marks are shared too.
	commit := func(i int) (*core.Annotation, error) {
		lo := int64(i*40) % 6000
		m, err := s.MarkDomainInterval("chr1", interval.Interval{Lo: lo, Hi: lo + 60})
		if err != nil {
			return nil, err
		}
		b := core.NewBuilder().Creator("u").Date("2026-01-01").Body([]string{"Protease site", "note"}[i%2]).Refer(m)
		if i%3 == 0 {
			b.OntologyRef("go", "leaf")
		}
		return s.Commit(b)
	}
	for i := range anns {
		if _, err := commit(i); err != nil {
			t.Fatal(err)
		}
	}
	e := Attach(s)
	if err := e.AddRule(Rule{ID: "ov", Edge: EdgeOverlap}); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if msg := checkPinnedFacts(s.View()); msg != "" {
					t.Error(msg)
					return
				}
			}
		}()
	}
	rules := []Rule{
		{ID: "cl", Edge: EdgeOntologyClosure},
		{ID: "kw", Edge: EdgeOverlap, Keyword: "PROTEASE"},
		{ID: "sh", Edge: EdgeSharedReferent},
	}
	var live []uint64
	for k := 0; k < steps && err == nil; k++ {
		switch {
		case k%10 == 9:
			r := rules[(k/10)%len(rules)]
			if indexOf(RulesOf(s.View()), r.ID) >= 0 {
				err = e.DeleteRule(r.ID)
			} else {
				err = e.AddRule(r)
			}
		case k%4 == 3 && len(live) > 0:
			err = s.DeleteAnnotation(live[0])
			live = live[1:]
		default:
			var ann *core.Annotation
			if ann, err = commit(anns + k); err == nil {
				live = append(live, ann.ID)
			}
		}
	}
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if msg := checkPinnedFacts(s.View()); msg != "" {
		t.Fatal(msg)
	}
}

// checkPinnedFacts reads every fact set of v through each reader and
// returns what disagrees, "" when nothing does.
func checkPinnedFacts(v *core.View) string {
	all := slices.Collect(v.DerivedEach)
	if want := flatten(v, recompute(v)); !reflect.DeepEqual(all, want) {
		return "the table is not its own rules' recompute"
	}
	var targets []agraph.NodeRef
	for _, f := range all {
		targets = append(targets, f.Target)
	}
	slices.SortFunc(targets, agraph.NodeRef.Compare)
	for _, target := range slices.Compact(targets) {
		var on []core.DerivedFact
		v.DerivedTargetingEach(target, func(f core.DerivedFact) bool {
			on = append(on, f)
			return true
		})
		if want := filter(all, func(f core.DerivedFact) bool { return f.Target == target }); !slices.Equal(on, want) {
			return "DerivedTargetingEach(" + target.String() + ") is not the table's facts on it"
		}
	}
	for _, ann := range v.Annotations() {
		if got, want := v.DerivedFrom(ann.ID), filter(all, func(f core.DerivedFact) bool { return f.Source == ann.ID }); !slices.Equal(got, want) {
			return "DerivedFrom is not the table's facts of its source"
		}
		onto, err := v.DerivedOnto(ann.ID)
		if err != nil {
			return err.Error()
		}
		refs := slices.Collect(ann.ReferentIDs)
		if want := filter(all, func(f core.DerivedFact) bool {
			id, ok := agraph.ReferentID(f.Target)
			return f.Target == agraph.ContentRoot(ann.ID) || ok && slices.Contains(refs, id)
		}); !slices.Equal(onto, want) {
			return "DerivedOnto is not the table's facts onto the annotation"
		}
	}
	if again := slices.Collect(v.DerivedEach); !slices.Equal(again, all) {
		return "a pinned view's facts changed while it was read"
	}
	return ""
}

// filter returns the facts keep keeps, in order.
func filter(facts []core.DerivedFact, keep func(core.DerivedFact) bool) []core.DerivedFact {
	var out []core.DerivedFact
	for _, f := range facts {
		if keep(f) {
			out = append(out, f)
		}
	}
	return out
}
