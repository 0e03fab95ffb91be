package query

import (
	"context"
	"fmt"
	"testing"

	"graphitti/internal/core"
	"graphitti/internal/workload"
)

// benchStores keeps each benchmark fixture for the test binary's life, so
// that -count=N builds it once.
var benchStores = map[string]*core.Store{}

// fluStore returns the influenza study store at the given size.
func fluStore(b *testing.B, annotations int) *core.Store {
	key := fmt.Sprint("flu/", annotations)
	if s, ok := benchStores[key]; ok {
		return s
	}
	cfg := workload.DefaultInfluenza
	cfg.Annotations = annotations
	study, err := workload.Influenza(cfg)
	if err != nil {
		b.Fatal(err)
	}
	benchStores[key] = study.Store
	return study.Store
}

// propStore returns a propagation study store at the given size: overlap
// facts derived by the study's rules, for provenance predicates to match.
func propStore(b *testing.B, annotations int) *core.Store {
	key := fmt.Sprint("prop/", annotations)
	if s, ok := benchStores[key]; ok {
		return s
	}
	study, err := workload.Propagation(workload.PropagationConfig{
		Seed: 42, Sequences: 8, SeqLen: 12 * annotations / 1000 * 125,
		Annotations: annotations, Span: 40, TermFraction: 30,
	})
	if err != nil {
		b.Fatal(err)
	}
	benchStores[key] = study.Store
	return study.Store
}

// BenchmarkA5PlannerOrdering compares the cost planner's binding order
// ("selectivity") with declaration order ("naive") on a join whose
// declared first variable is its least selective.
func BenchmarkA5PlannerOrdering(b *testing.B) {
	q := MustParse(`
select contents
where {
  ?a isa annotation .
  ?r isa referent ; kind interval ; domain "segment1" ; overlaps [0, 120) .
  ?a annotates ?r .
}`)
	for _, n := range []int{1000, 5000} {
		v := fluStore(b, n).View()
		for _, ordered := range []bool{true, false} {
			name, order := "selectivity", []string(nil)
			if !ordered {
				name, order = "naive", declarationOrder(q)
			}
			b.Run(fmt.Sprintf("%s/anns=%d", name, n), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := runRef(v, q, DefaultOptions, false, order); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkPlanner measures the cost-based planner's two wins at 10k
// annotations:
//
//   - join3: a 3-variable join (annotation -> referent -> object) where
//     the referent variable is unselective (~10k candidates). Semi-join
//     enumeration binds it from the bound annotation's a-graph edges;
//     the nested sub-benchmark runs the candidate×candidate
//     HasEdgeBetween reference. Results are verified identical and the
//     bindings-tried reduction (≥5x, in practice ~1000x) is asserted.
//   - provenance: a provenance-predicate query at two derived-table
//     sizes. Each candidate is one target-index probe, so the per-op
//     cost tracks the candidate count, not the table size.
func BenchmarkPlanner(b *testing.B) {
	v := fluStore(b, 10_000).View()
	join := MustParse(`
select contents
where {
  ?a isa annotation ; contains "protease" .
  ?r isa referent ; kind interval .
  ?o isa object ; type dna_sequences .
  ?a annotates ?r .
  ?r marks ?o .
}`)
	semi, err := Run(context.Background(), v, join, DefaultOptions)
	if err != nil {
		b.Fatal(err)
	}
	loop, err := runRef(v, join, DefaultOptions, true, nil)
	if err != nil {
		b.Fatal(err)
	}
	if semi.Stats.Matches == 0 || semi.Stats.Matches != loop.Stats.Matches {
		b.Fatalf("join strategies disagree: semi %d matches, nested %d", semi.Stats.Matches, loop.Stats.Matches)
	}
	if semi.Stats.BindingsTried*5 > loop.Stats.BindingsTried {
		b.Fatalf("semi-join tried %d bindings, nested %d — want ≥5x reduction",
			semi.Stats.BindingsTried, loop.Stats.BindingsTried)
	}
	for _, nested := range []bool{false, true} {
		name := "semijoin"
		if nested {
			name = "nested"
		}
		b.Run("join3/"+name+"/anns=10000", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := runRef(v, join, DefaultOptions, nested, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	prov := MustParse(`
select referents
where {
  ?r isa referent ; provenance "p-overlap" .
}`)
	for _, n := range []int{2000, 10_000} {
		pv := propStore(b, n).View()
		if res, err := Run(context.Background(), pv, prov, DefaultOptions); err != nil {
			b.Fatal(err)
		} else if len(res.Referents) == 0 {
			b.Fatal("provenance query found nothing; fixture has no overlap facts")
		}
		b.Run(fmt.Sprintf("provenance/anns=%d/facts=%d", n, pv.Stats().Derived), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Run(context.Background(), pv, prov, DefaultOptions); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
