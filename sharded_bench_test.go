package graphitti

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"graphitti/internal/biodata/imaging"
	"graphitti/internal/biodata/seq"
	"graphitti/internal/core"
	"graphitti/internal/durable"
	"graphitti/internal/interval"
	"graphitti/internal/persist"
	"graphitti/internal/rtree"
	"graphitti/internal/shard"
)

// The sharded scaling matrix: the W2 write side and the W1 durable
// commit path at 1/2/4/8 writer pipelines. scripts/bench.sh records
// these as shards:* rows in BENCH_<date>.json, outside the regression
// gate's guard set — they chart the scaling curve, not a floor.
//
// Writers are pinned to routing domains spread round-robin across the
// shards, so every commit is intra-shard and the measured speedup is
// the pipeline parallelism itself (router overhead included), not
// cross-shard coordination. Even on a single core the in-memory matrix
// gains from sharding — each pipeline's copy-on-write structures hold
// 1/N of the data, so publishing an epoch copies less — while the full
// parallel win needs a multi-core runner. The durable matrix cuts the
// other way at low core counts: one shard's group commit batches all
// writers into a single fdatasync stream, and splitting them across
// segments trades batching for parallel syncs.

// keyRoutedTo finds a key of the form "<prefix>-<i>" that the router
// places on the wanted shard.
func keyRoutedTo(b *testing.B, shards, want int, prefix string) string {
	b.Helper()
	r := core.Router{Shards: shards}
	for i := 0; i < 100_000; i++ {
		k := fmt.Sprintf("%s-%d", prefix, i)
		if r.ShardOfKey(k) == want {
			return k
		}
	}
	b.Fatalf("no %q key routes to shard %d/%d", prefix, want, shards)
	return ""
}

// BenchmarkW2ShardedCommits is the W2 mixed-workload write side — each
// writer churns commit+delete against its own coordinate domain so the
// store size stays steady — across shard counts. ns/op is per commit
// (the paired delete rides inside it), so commits/s = 1e9/ns_per_op.
func BenchmarkW2ShardedCommits(b *testing.B) {
	const (
		writers = 8
		preload = 500 // per-domain resident annotations
	)
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d/writers=%d", shards, writers), func(b *testing.B) {
			sh := shard.New(shards)
			domains := make([]string, writers)
			for w := 0; w < writers; w++ {
				domains[w] = keyRoutedTo(b, shards, w%shards, fmt.Sprintf("w%d-dom", w))
				sq, err := seq.New(domains[w], seq.DNA, strings.Repeat("ACGT", 2048))
				if err != nil {
					b.Fatal(err)
				}
				if err := sh.Apply(persist.SequenceOp(sq)); err != nil {
					b.Fatal(err)
				}
				for i := 0; i < preload; i++ {
					m, err := sh.MarkSequenceInterval(domains[w],
						interval.Interval{Lo: int64(i * 4), Hi: int64(i*4 + 16)})
					if err != nil {
						b.Fatal(err)
					}
					if _, err := sh.Commit(sh.NewAnnotation().Creator("pre").
						Date("2026-08-08").Body(fmt.Sprintf("resident %d", i)).Refer(m)); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			var next int64
			var wg sync.WaitGroup
			for g := 0; g < writers; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					var prev uint64
					for {
						i := atomic.AddInt64(&next, 1)
						if i > int64(b.N) {
							return
						}
						lo := int64(i%2000) * 4
						m, err := sh.MarkSequenceInterval(domains[g],
							interval.Interval{Lo: lo, Hi: lo + 20})
						if err != nil {
							b.Error(err)
							return
						}
						ann, err := sh.Commit(sh.NewAnnotation().
							Creator(fmt.Sprintf("w%d", g)).Date("2026-08-08").
							Body(fmt.Sprintf("churn %d", i)).Refer(m))
						if err != nil {
							b.Error(err)
							return
						}
						if prev != 0 {
							if err := sh.DeleteAnnotation(prev); err != nil {
								b.Error(err)
								return
							}
						}
						prev = ann.ID
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

// BenchmarkW1ShardedDurableCommit is the W1 logged-commit path across
// shard counts: every acknowledged commit fdatasyncs its shard's WAL
// segment, group commit batches writers that share a shard, and
// separate shards sync independently.
func BenchmarkW1ShardedDurableCommit(b *testing.B) {
	const writers = 8
	for _, shards := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d/writers=%d", shards, writers), func(b *testing.B) {
			sh, err := shard.Open(b.TempDir(), shards, durable.Options{CompactThreshold: -1})
			if err != nil {
				b.Fatal(err)
			}
			b.Cleanup(func() { sh.Close() })
			// One coordinate system + image per writer, spread across the
			// shards; images route with their system.
			images := make([]string, writers)
			for w := 0; w < writers; w++ {
				sys := keyRoutedTo(b, shards, w%shards, fmt.Sprintf("w%d-atlas", w))
				cs, err := imaging.NewCoordinateSystem(sys, rtree.Rect2D(0, 0, 10_000, 10_000))
				if err != nil {
					b.Fatal(err)
				}
				if err := sh.Apply(persist.SystemOp(cs)); err != nil {
					b.Fatal(err)
				}
				images[w] = sys + "-img"
				im, err := imaging.NewImage(images[w], sys, rtree.Rect2D(0, 0, 1000, 1000), imaging.Identity(2))
				if err != nil {
					b.Fatal(err)
				}
				if err := sh.Apply(persist.ImageOp(im)); err != nil {
					b.Fatal(err)
				}
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
						m, err := sh.MarkImageRegion(images[g], rtree.Rect2D(x, y, x+7, y+7))
						if err != nil {
							b.Error(err)
							return
						}
						if _, err := sh.Commit(sh.NewAnnotation().
							Creator(fmt.Sprintf("writer-%d", g)).Date("2026-08-08").
							Body(fmt.Sprintf("durable commit %d", i)).Refer(m)); err != nil {
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
