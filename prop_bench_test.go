package graphitti

import (
	"fmt"
	"graphitti/internal/core"
	"testing"

	"graphitti/internal/interval"
	"graphitti/internal/workload"
)

// BenchmarkPropagation contrasts the engine's maintenance paths at 10k
// and 100k source annotations under the full rule set (overlap,
// keyword-gated overlap, ontology closure, shared-referent):
//
//   - delta: one commit+delete pair, i.e. two incremental maintenance
//     steps through the writer (the steady-state per-mutation cost);
//   - control: the same commit+delete pair on an identical store with
//     no rules installed — the baseline mutation cost (dominated at
//     scale by keyword-index posting rewrites for common tokens), so
//     delta minus control is the engine's marginal cost;
//   - recompute: rebuilding the whole derived table from scratch (what
//     every mutation would cost without incremental maintenance, and
//     what rule changes actually pay).
//
// The acceptance bar is delta ≥ 10x cheaper than recompute at 10k; in
// practice the gap is two orders of magnitude and grows linearly with
// the store. Overlap density is held constant across sizes (domain
// length scales with the annotation count), so the comparison isolates
// the maintenance strategy, not the fact count per source.
func BenchmarkPropagation(b *testing.B) {
	for _, n := range []int{10_000, 100_000} {
		cfg := workload.PropagationConfig{
			Seed: 42, Sequences: 8, SeqLen: 12 * n / 1000 * 125, // domain ≈ 54 bases/annotation
			Annotations: n, Span: 40, TermFraction: 30,
		}
		study, err := workload.Propagation(cfg)
		if err != nil {
			b.Fatal(err)
		}
		s := study.Store
		baseline := s.View().Stats().Derived
		if baseline == 0 {
			b.Fatal("propagation study produced no derived facts")
		}
		ctlCfg := cfg
		ctlCfg.SkipRules = true
		control, err := workload.Propagation(ctlCfg)
		if err != nil {
			b.Fatal(err)
		}
		domainLen := int64(cfg.Sequences+1) * int64(cfg.SeqLen) / 2

		probe := func(b *testing.B, s *Store, domain string) {
			b.Helper()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				lo := (int64(i)*9973 + 17) % (domainLen - cfg.Span)
				m, err := s.MarkDomainInterval(domain, interval.Interval{Lo: lo, Hi: lo + cfg.Span})
				if err != nil {
					b.Fatal(err)
				}
				ann, err := s.Commit(s.NewAnnotation().
					Creator("bench").Date("2026-01-01").Body("hotspot probe").Refer(m))
				if err != nil {
					b.Fatal(err)
				}
				if err := s.DeleteAnnotation(ann.ID); err != nil {
					b.Fatal(err)
				}
			}
		}

		b.Run(fmt.Sprintf("delta/anns=%d", n), func(b *testing.B) {
			probe(b, s, study.Domain)
			b.StopTimer()
			if got := s.View().Stats().Derived; got != baseline {
				b.Fatalf("delta maintenance leaked facts: %d != %d", got, baseline)
			}
		})

		b.Run(fmt.Sprintf("control/anns=%d", n), func(b *testing.B) {
			probe(b, control.Store, control.Domain)
			b.StopTimer()
			if got := control.Store.View().Stats().Derived; got != 0 {
				b.Fatalf("control store derived facts: %d", got)
			}
		})

		b.Run(fmt.Sprintf("recompute/anns=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				s.Batch(func(x *core.Tx) error { x.SetPropagator(x.Propagator()); return nil })
			}
			b.StopTimer()
			if got := s.View().Stats().Derived; got != baseline {
				b.Fatalf("recompute changed the fact count: %d != %d", got, baseline)
			}
		})
	}
}
