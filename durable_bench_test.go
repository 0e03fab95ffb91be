package graphitti

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"

	"graphitti/internal/biodata/imaging"
	"graphitti/internal/core"
	"graphitti/internal/durable"
	"graphitti/internal/persist"
	"graphitti/internal/rtree"
)

// BenchmarkW1DurableCommit measures logged-commit throughput against
// in-memory commit at 8 concurrent writers — the cost of durability. The
// durable mode fdatasyncs every acknowledged commit; group commit batches
// the concurrent writers into shared syncs, which is what keeps the
// logged path within a small factor of memory speed. durable-nosync
// isolates the logging/encoding overhead from the sync itself.
func BenchmarkW1DurableCommit(b *testing.B) {
	const writers = 8

	// A target is a store as the writers see it: Apply for registrations,
	// commit for the annotations, and the view a mark resolves against.
	type target struct {
		apply  func(persist.Op) error
		commit func(*core.Builder) (*core.Annotation, error)
		view   func() *core.View
	}
	logged := func(b *testing.B, opts durable.Options) target {
		s, err := durable.Open(b.TempDir(), opts)
		if err != nil {
			b.Fatal(err)
		}
		b.Cleanup(func() { s.Close() })
		return target{s.Apply, s.Commit, func() *core.View { return s.Core().View() }}
	}
	modes := []struct {
		name string
		open func(b *testing.B) target
	}{
		{"inmemory", func(b *testing.B) target {
			cs := core.NewStore()
			return target{func(op persist.Op) error { return cs.Batch(op.Apply) }, cs.Commit, cs.View}
		}},
		{"durable", func(b *testing.B) target { return logged(b, durable.Options{CompactThreshold: -1}) }},
		{"durable-nosync", func(b *testing.B) target {
			return logged(b, durable.Options{CompactThreshold: -1, NoSync: true})
		}},
	}

	for _, mode := range modes {
		b.Run(fmt.Sprintf("%s/writers=%d", mode.name, writers), func(b *testing.B) {
			s := mode.open(b)
			cs, err := imaging.NewCoordinateSystem("atlas", rtree.Rect2D(0, 0, 10_000, 10_000))
			if err != nil {
				b.Fatal(err)
			}
			if err := s.apply(persist.SystemOp(cs)); err != nil {
				b.Fatal(err)
			}
			im, err := imaging.NewImage("img-0", "atlas", rtree.Rect2D(0, 0, 1000, 1000), imaging.Identity(2))
			if err != nil {
				b.Fatal(err)
			}
			if err := s.apply(persist.ImageOp(im)); err != nil {
				b.Fatal(err)
			}

			b.ReportAllocs()
			b.ResetTimer()
			var next int64
			var wg sync.WaitGroup
			for g := 0; g < writers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for {
						i := atomic.AddInt64(&next, 1)
						if i > int64(b.N) {
							return
						}
						x := float64(i % 900)
						y := float64((i / 900) % 900)
						m, err := s.view().MarkImageRegion("img-0", rtree.Rect2D(x, y, x+7, y+7))
						if err != nil {
							b.Error(err)
							return
						}
						_, err = s.commit(core.NewBuilder().
							Creator(fmt.Sprintf("writer-%d", g)).
							Date("2026-07-29").
							Body(fmt.Sprintf("durable commit %d", i)).
							Refer(m))
						if err != nil {
							b.Error(err)
							return
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}
