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
	"graphitti/internal/workload"
)

// BenchmarkW1DurableCommit measures logged-commit throughput against
// in-memory commit at 8 concurrent writers — the cost of durability. The
// durable mode fdatasyncs every acknowledged commit; group commit batches
// the concurrent writers into shared syncs, which is what keeps the
// logged path within a small factor of memory speed. durable-nosync
// isolates the logging/encoding overhead from the sync itself.
func BenchmarkW1DurableCommit(b *testing.B) {
	const writers = 8

	modes := []struct {
		name string
		open func(b *testing.B) workload.Sink
	}{
		{"inmemory", func(b *testing.B) workload.Sink { return workload.AsSink(core.NewStore()) }},
		{"durable", func(b *testing.B) workload.Sink {
			s, err := durable.Open(b.TempDir(), durable.Options{CompactThreshold: -1})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { s.Close() })
			return s
		}},
		{"durable-nosync", func(b *testing.B) workload.Sink {
			s, err := durable.Open(b.TempDir(), durable.Options{CompactThreshold: -1, NoSync: true})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { s.Close() })
			return s
		}},
	}

	for _, mode := range modes {
		b.Run(fmt.Sprintf("%s/writers=%d", mode.name, writers), func(b *testing.B) {
			s := mode.open(b)
			cs, err := imaging.NewCoordinateSystem("atlas", rtree.Rect2D(0, 0, 10_000, 10_000))
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Apply(persist.SystemOp(cs)); err != nil {
				b.Fatal(err)
			}
			im, err := imaging.NewImage("img-0", "atlas", rtree.Rect2D(0, 0, 1000, 1000), imaging.Identity(2))
			if err != nil {
				b.Fatal(err)
			}
			if err := s.Apply(persist.ImageOp(im)); err != nil {
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
						m, err := s.MarkImageRegion("img-0", rtree.Rect2D(x, y, x+7, y+7))
						if err != nil {
							b.Error(err)
							return
						}
						_, err = s.Commit(s.NewAnnotation().
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
