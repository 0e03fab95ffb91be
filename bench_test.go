// The in-process benchmark suites. The paper (an ICDE 2008 demonstration)
// publishes no quantitative tables; the experiment set is the three
// figures' scenarios (F1–F3), the two fully-specified queries (Q1, Q2),
// the operator inventories (O1–O3), and ablations of the design choices
// stated in prose (A1–A3, A6, A7; A5 and the planner suite live beside
// the planner in internal/query, and internal/agraph's BenchmarkConnect
// measures connect()). scripts/bench.sh records their rows.
package graphitti

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"graphitti/internal/agraph"
	"graphitti/internal/core"
	"graphitti/internal/httpapi"
	"graphitti/internal/interval"
	"graphitti/internal/ontology"
	"graphitti/internal/persist"
	"graphitti/internal/query"
	"graphitti/internal/relstore"
	"graphitti/internal/rtree"
	"graphitti/internal/trace"
	"graphitti/internal/workload"
)

// --- shared fixtures (built once per size) ---

var (
	fluMu    sync.Mutex
	fluCache = map[int]*workload.InfluenzaStudy{}

	neuroMu    sync.Mutex
	neuroCache = map[int]*workload.NeuroStudy{}
)

func fluStudy(b *testing.B, annotations int) *workload.InfluenzaStudy {
	b.Helper()
	fluMu.Lock()
	defer fluMu.Unlock()
	if s, ok := fluCache[annotations]; ok {
		return s
	}
	cfg := workload.DefaultInfluenza
	cfg.Annotations = annotations
	s, err := workload.Influenza(cfg)
	if err != nil {
		b.Fatal(err)
	}
	fluCache[annotations] = s
	return s
}

func neuroStudy(b *testing.B, images int) *workload.NeuroStudy {
	b.Helper()
	neuroMu.Lock()
	defer neuroMu.Unlock()
	if s, ok := neuroCache[images]; ok {
		return s
	}
	cfg := workload.DefaultNeuro
	cfg.Images = images
	cfg.NoiseAnnotations = images * 5
	s, err := workload.Neuroscience(cfg)
	if err != nil {
		b.Fatal(err)
	}
	neuroCache[images] = s
	return s
}

// --- F1: Fig. 1 scenario — a-graph construction and primitives ---

func BenchmarkF1AGraphScenario(b *testing.B) {
	for _, n := range []int{200, 1000, 5000} {
		study := fluStudy(b, n)
		s := study.Store
		ids := study.AnnotationIDs
		b.Run(fmt.Sprintf("path/anns=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				a := ids[i%len(ids)]
				c := ids[(i*7+13)%len(ids)]
				_, _ = s.View().PathBetweenAnnotations(a, c)
			}
		})
		b.Run(fmt.Sprintf("connect3/anns=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				t1 := ids[i%len(ids)]
				t2 := ids[(i*5+1)%len(ids)]
				t3 := ids[(i*11+2)%len(ids)]
				_, _ = s.View().ConnectAnnotations(t1, t2, t3)
			}
		})
	}
}

// --- F2: Fig. 2 — annotation workflow across the six demo data types ---

func BenchmarkF2AnnotateWorkflow(b *testing.B) {
	mkStore := func(b *testing.B) *core.Store {
		cfg := workload.DefaultInfluenza
		cfg.Annotations = 0
		cfg.ProteaseChains = 0
		study, err := workload.Influenza(cfg)
		if err != nil {
			b.Fatal(err)
		}
		return study.Store
	}
	b.Run("sequence-interval", func(b *testing.B) {
		s := mkStore(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m, err := s.MarkDomainInterval("segment1", interval.Interval{Lo: int64(i % 2000), Hi: int64(i%2000 + 25)})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.Commit(s.NewAnnotation().Creator("u").Date("2008-01-01").
				Body(fmt.Sprintf("bench note %d", i)).Refer(m)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("clade", func(b *testing.B) {
		s := mkStore(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m, err := s.View().MarkClade("H5N1-phylogeny", "duck", "chicken")
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.Commit(s.NewAnnotation().Creator("u").Date("2008-01-01").
				Body(fmt.Sprintf("clade note %d", i)).Refer(m)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("subgraph", func(b *testing.B) {
		s := mkStore(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m, err := s.View().MarkSubgraph("NS1-interactome", "NS1", "PKR")
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.Commit(s.NewAnnotation().Creator("u").Date("2008-01-01").
				Body(fmt.Sprintf("subgraph note %d", i)).Refer(m)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("alignment-block", func(b *testing.B) {
		s := mkStore(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m, err := s.View().MarkAlignmentBlock("HA-alignment",
				[]string{"NC_00000", "NC_00001"}, interval.Interval{Lo: int64(i % 40), Hi: int64(i%40 + 10)})
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.Commit(s.NewAnnotation().Creator("u").Date("2008-01-01").
				Body(fmt.Sprintf("block note %d", i)).Refer(m)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("record-set", func(b *testing.B) {
		s := mkStore(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m, err := s.View().MarkRecords("isolates", relstore.S("A/goose/0/1996"))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.Commit(s.NewAnnotation().Creator("u").Date("2008-01-01").
				Body(fmt.Sprintf("record note %d", i)).Refer(m)); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("image-region", func(b *testing.B) {
		study, err := workload.Neuroscience(workload.NeuroConfig{
			Seed: 1, Images: 4, RegionsPerImage: 0, TP53Annotations: 0, NoiseAnnotations: 0,
		})
		if err != nil {
			b.Fatal(err)
		}
		s := study.Store
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			x := float64(i % 900)
			m, err := s.View().MarkImageRegion(study.ImageIDs[i%len(study.ImageIDs)],
				rtree.Rect2D(x, x, x+20, x+20))
			if err != nil {
				b.Fatal(err)
			}
			if _, err := s.Commit(s.NewAnnotation().Creator("u").Date("2008-01-01").
				Body(fmt.Sprintf("region note %d", i)).Refer(m)); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkCommitAtStoreSize is the write path at three store sizes: the
// live benchmark's annotate mix (create 90 / delete 10, a delete removing
// the oldest annotation the run created) on an influenza study preloaded
// with n annotations. One op is one mutation, and B/op is the mean over
// them — the number the per-commit medians of the live benchmark hide,
// because a delete costs several creates. The run's own annotations are
// dropped, off the clock, whenever they reach an eighth of the preload, so
// every op runs against a store of n to 1.125n annotations whatever b.N
// is. The study has a sequence per 64 annotations and the run's marks are
// spread over all of them: the a-graph copies a data object's whole
// adjacency list when a mark on it goes, which is a cost of hot objects
// and not of the store's size or of the indexes measured here.
func BenchmarkCommitAtStoreSize(b *testing.B) {
	for _, n := range []int{2_000, 8_000, 32_000} {
		b.Run(fmt.Sprintf("anns=%d", n), func(b *testing.B) {
			cfg := workload.DefaultInfluenza
			cfg.Annotations, cfg.SeqsPerSeg = n, n/64/cfg.Segments
			study, err := workload.Influenza(cfg)
			if err != nil {
				b.Fatal(err)
			}
			s := study.Store
			var mine []uint64 // oldest first
			drop := func(id uint64) {
				if err := s.DeleteAnnotation(id); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%10 == 9 && len(mine) > 0 {
					drop(mine[0])
					mine = mine[1:]
					continue
				}
				lo := int64(i*37) % int64(cfg.SeqLen-25)
				m, err := s.View().MarkSequenceInterval(study.SequenceIDs[i%len(study.SequenceIDs)],
					interval.Interval{Lo: lo, Hi: lo + 25})
				if err != nil {
					b.Fatal(err)
				}
				ann, err := s.Commit(s.NewAnnotation().Creator("u").Date("2008-01-01").
					Title(fmt.Sprintf("note-%d", i)).Body(fmt.Sprintf("binding footprint near gene%04d", i%2000)).Refer(m))
				if err != nil {
					b.Fatal(err)
				}
				if mine = append(mine, ann.ID); len(mine) >= n/8 {
					b.StopTimer()
					for _, id := range mine {
						drop(id)
					}
					mine = mine[:0]
					b.StartTimer()
				}
			}
		})
	}
}

// --- F3: Fig. 3 — query-tab graph query + correlated data ---

func BenchmarkF3QueryTab(b *testing.B) {
	const src = `
select graph
where {
  ?a isa annotation ; contains "protease" .
  ?r isa referent ; kind interval .
  ?o isa object ; type dna_sequences .
  ?a annotates ?r .
  ?r marks ?o .
}`
	for _, n := range []int{200, 1000, 5000} {
		study := fluStudy(b, n)
		p := query.NewProcessor(study.Store)
		q := mustParseQuery(b, src)
		b.Run(fmt.Sprintf("query/anns=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := p.ExecuteParsedCtx(context.Background(), q, query.DefaultOptions); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("correlated/anns=%d", n), func(b *testing.B) {
			ids := study.AnnotationIDs
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := study.Store.View().CorrelatedData(ids[i%len(ids)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Q1: the intro query ---

func BenchmarkQ1TP53(b *testing.B) {
	for _, images := range []int{12, 48, 96} {
		study := neuroStudy(b, images)
		b.Run(fmt.Sprintf("images=%d", images), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := QueryTP53Images(study.Store, TP53Options{})
				if err != nil {
					b.Fatal(err)
				}
				if len(res.Annotations) != len(study.TP53Annotations) {
					b.Fatalf("wrong answer: %d", len(res.Annotations))
				}
			}
		})
	}
}

// --- Q2: the query-tab query ---

func BenchmarkQ2Protease(b *testing.B) {
	for _, n := range []int{200, 1000, 5000} {
		study := fluStudy(b, n)
		b.Run(fmt.Sprintf("anns=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				chains, err := QueryConsecutiveKeyword(study.Store, ConsecutiveOptions{})
				if err != nil {
					b.Fatal(err)
				}
				if len(chains) < workload.DefaultInfluenza.ProteaseChains {
					b.Fatalf("missed planted chains: %d", len(chains))
				}
			}
		})
	}
}

// --- O1: SUB_X operators ---

func BenchmarkO1SubXOps(b *testing.B) {
	b.Run("interval-ifOverlap", func(b *testing.B) {
		a := interval.Interval{Lo: 0, Hi: 100}
		for i := 0; i < b.N; i++ {
			q := interval.Interval{Lo: int64(i % 200), Hi: int64(i%200 + 50)}
			_ = a.Overlaps(q)
		}
	})
	b.Run("rect-ifOverlap", func(b *testing.B) {
		a := rtree.Rect2D(0, 0, 100, 100)
		for i := 0; i < b.N; i++ {
			x := float64(i % 200)
			_ = a.Overlaps(rtree.Rect2D(x, x, x+50, x+50))
		}
	})
}

// --- O2: ontology operators ---

func BenchmarkO2OntologyOps(b *testing.B) {
	for _, shape := range []struct{ depth, fanout int }{{4, 4}, {6, 4}} {
		o := workload.LayeredOntology("bench", shape.depth, shape.fanout, 1)
		name := fmt.Sprintf("d%d-f%d-terms=%d", shape.depth, shape.fanout, o.Len())
		b.Run("CI/"+name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := o.CI("root"); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("CmRI/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := o.CmRI("root", []string{ontology.IsA, ontology.PartOf}); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("SubTree/"+name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := o.SubTree("root", []string{ontology.IsA}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- O3: a-graph primitives vs graph size ---

func benchGraph(stars, size int) (*agraph.Graph, []agraph.NodeRef) {
	e := new(agraph.Graph).Edit()
	hub := agraph.Object("hub", "0")
	var terms []agraph.NodeRef
	for s := 0; s < stars; s++ {
		c := agraph.ContentRoot(uint64(s))
		terms = append(terms, c)
		for i := 0; i < size; i++ {
			r := agraph.Referent(uint64(s*size + i))
			e.AddEdge(c, r, agraph.LabelAnnotates)
			if i == 0 {
				e.AddEdge(r, hub, agraph.LabelMarks)
			}
		}
	}
	return e.Graph(), terms
}

func BenchmarkO3AGraphPrimitives(b *testing.B) {
	for _, size := range []int{100, 1000, 10_000} {
		g, terms := benchGraph(6, size)
		b.Run(fmt.Sprintf("path/nodes=%d", g.NodeCount()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := g.FindPath(terms[0], terms[1]); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("connect4/nodes=%d", g.NodeCount()), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := g.Connect(terms[0], terms[1], terms[2], terms[3]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- A1: per-chromosome consolidation vs per-sequence trees ---

func BenchmarkA1IndexConsolidation(b *testing.B) {
	const (
		domains      = 8
		seqsPerDom   = 16
		marksPerSeq  = 64
		domainLength = 100_000
	)
	rng := rand.New(rand.NewSource(9))
	type mark struct {
		domain, seqID string
		iv            interval.Interval
	}
	var marks []mark
	for d := 0; d < domains; d++ {
		for q := 0; q < seqsPerDom; q++ {
			for m := 0; m < marksPerSeq; m++ {
				lo := rng.Int63n(domainLength - 200)
				marks = append(marks, mark{
					domain: fmt.Sprintf("chr%d", d),
					seqID:  fmt.Sprintf("chr%d-seq%d", d, q),
					iv:     interval.Interval{Lo: lo, Hi: lo + 20 + rng.Int63n(180)},
				})
			}
		}
	}
	// Consolidated: one tree per domain (the paper's design).
	consolidated := map[string]interval.Tree[string]{}
	for i, m := range marks {
		tr, err := consolidated[m.domain].Insert(m.iv, uint64(i), m.seqID)
		if err != nil {
			b.Fatal(err)
		}
		consolidated[m.domain] = tr
	}
	// Fragmented: one tree per annotated sequence (the rejected design).
	fragmented := map[string]interval.Tree[string]{}
	perDomainSeqs := map[string][]string{}
	for i, m := range marks {
		if _, seen := fragmented[m.seqID]; !seen {
			perDomainSeqs[m.domain] = append(perDomainSeqs[m.domain], m.seqID)
		}
		tr, err := fragmented[m.seqID].Insert(m.iv, uint64(i), m.seqID)
		if err != nil {
			b.Fatal(err)
		}
		fragmented[m.seqID] = tr
	}
	b.Run("consolidated", func(b *testing.B) {
		b.ReportAllocs()
		b.ReportMetric(float64(len(consolidated)), "trees")
		total := 0
		for i := 0; i < b.N; i++ {
			d := fmt.Sprintf("chr%d", i%domains)
			lo := int64((i * 911) % (domainLength - 500))
			total += countOverlapping(consolidated[d], interval.Interval{Lo: lo, Hi: lo + 500})
		}
		_ = total
	})
	b.Run("per-sequence", func(b *testing.B) {
		b.ReportAllocs()
		b.ReportMetric(float64(len(fragmented)), "trees")
		total := 0
		for i := 0; i < b.N; i++ {
			d := fmt.Sprintf("chr%d", i%domains)
			lo := int64((i * 911) % (domainLength - 500))
			q := interval.Interval{Lo: lo, Hi: lo + 500}
			for _, seqID := range perDomainSeqs[d] {
				total += countOverlapping(fragmented[seqID], q)
			}
		}
		_ = total
	})
}

// --- A2: interval tree vs naive scan ---

func BenchmarkA2IntervalVsScan(b *testing.B) {
	for _, n := range []int{100, 1000, 10_000, 100_000} {
		rng := rand.New(rand.NewSource(3))
		var tr interval.Tree[int]
		var sc interval.Scan[int]
		for i := 0; i < n; i++ {
			lo := rng.Int63n(1_000_000)
			iv := interval.Interval{Lo: lo, Hi: lo + 1 + rng.Int63n(500)}
			var err error
			if tr, err = tr.Insert(iv, uint64(i), i); err != nil {
				b.Fatal(err)
			}
			if err := sc.Insert(iv, uint64(i), i); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("tree/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lo := int64((i * 7919) % 999_000)
				countOverlapping(tr, interval.Interval{Lo: lo, Hi: lo + 300})
			}
		})
		b.Run(fmt.Sprintf("scan/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				lo := int64((i * 7919) % 999_000)
				sc.CountOverlapping(interval.Interval{Lo: lo, Hi: lo + 300})
			}
		})
	}
}

// --- A3: R-tree vs naive scan ---

func BenchmarkA3RTreeVsScan(b *testing.B) {
	for _, n := range []int{100, 1000, 10_000, 50_000} {
		rng := rand.New(rand.NewSource(5))
		tr, err := rtree.NewTree[int](2)
		if err != nil {
			b.Fatal(err)
		}
		sc, err := rtree.NewScan[int](2)
		if err != nil {
			b.Fatal(err)
		}
		for i := 0; i < n; i++ {
			x, y := rng.Float64()*10_000, rng.Float64()*10_000
			r := rtree.Rect2D(x, y, x+1+rng.Float64()*40, y+1+rng.Float64()*40)
			if tr, err = tr.Insert(r, uint64(i), i); err != nil {
				b.Fatal(err)
			}
			if err := sc.Insert(r, uint64(i), i); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(fmt.Sprintf("rtree/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				x := float64((i * 7919) % 9900)
				countRect(tr, rtree.Rect2D(x, x, x+100, x+100))
			}
		})
		b.Run(fmt.Sprintf("scan/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				x := float64((i * 7919) % 9900)
				sc.Count(rtree.Rect2D(x, x, x+100, x+100))
			}
		})
	}
}

// --- A7: STR bulk load vs incremental R-tree construction ---

func BenchmarkA7BulkLoadVsIncremental(b *testing.B) {
	for _, n := range []int{10_000, 50_000} {
		rng := rand.New(rand.NewSource(11))
		entries := make([]rtree.Entry[int], n)
		for i := 0; i < n; i++ {
			x, y := rng.Float64()*10_000, rng.Float64()*10_000
			entries[i] = rtree.Entry[int]{
				Rect: rtree.Rect2D(x, y, x+1+rng.Float64()*30, y+1+rng.Float64()*30),
				ID:   uint64(i), Value: i,
			}
		}
		b.Run(fmt.Sprintf("incremental/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				tr, err := rtree.NewTree[int](2)
				if err != nil {
					b.Fatal(err)
				}
				for _, e := range entries {
					if tr, err = tr.Insert(e.Rect, e.ID, e.Value); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
		b.Run(fmt.Sprintf("str-bulk/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := rtree.BulkLoad(2, entries); err != nil {
					b.Fatal(err)
				}
			}
		})
		// Query cost on the two trees (packing quality).
		inc, _ := rtree.NewTree[int](2)
		for _, e := range entries {
			inc, _ = inc.Insert(e.Rect, e.ID, e.Value)
		}
		bulk, err := rtree.BulkLoad(2, entries)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("query-incremental/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				x := float64((i * 7919) % 9900)
				countRect(inc, rtree.Rect2D(x, x, x+80, x+80))
			}
		})
		b.Run(fmt.Sprintf("query-str/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				x := float64((i * 7919) % 9900)
				countRect(bulk, rtree.Rect2D(x, x, x+80, x+80))
			}
		})
	}
}

// --- Snapshot load: restart / restore cost per annotation ---

// BenchmarkLoadSnapshot measures a load of an exported influenza study
// from its bytes — what every restart, restore and -snapshot start pays:
// the decode and the replay through the normal pipeline — in both forms,
// the JSON export and the binary checkpoint, and reports it per
// annotation, so the two sizes read directly as "is load cost linear in
// the store". One op is one whole load.
func BenchmarkLoadSnapshot(b *testing.B) {
	for _, n := range []int{10_000, 40_000} {
		src := fluStudy(b, n).Store
		want := src.Stats()
		var js, bin bytes.Buffer
		if err := persist.Write(src, &js); err != nil {
			b.Fatal(err)
		}
		if err := persist.WriteCheckpoint([]*core.View{src.View()}, &bin); err != nil {
			b.Fatal(err)
		}
		for _, form := range []struct {
			name string
			file []byte
		}{{"json", js.Bytes()}, {"checkpoint", bin.Bytes()}} {
			b.Run(fmt.Sprintf("anns=%d/form=%s", n, form.name), func(b *testing.B) {
				b.ReportAllocs()
				var ms0, ms1 runtime.MemStats
				runtime.ReadMemStats(&ms0)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s, err := persist.Read(bytes.NewReader(form.file))
					if err != nil {
						b.Fatal(err)
					}
					if got := s.Stats(); got != want {
						b.Fatalf("loaded store differs:\n got %+v\nwant %+v", got, want)
					}
				}
				b.StopTimer()
				runtime.ReadMemStats(&ms1)
				anns := float64(b.N) * float64(want.Annotations)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/anns, "ns/ann")
				b.ReportMetric(float64(ms1.TotalAlloc-ms0.TotalAlloc)/anns, "B/ann")
				b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/anns, "allocs/ann")
			})
		}
	}
}

// --- SearchContents: parallel collection scan vs worker count ---

// BenchmarkSearchContentsParallel measures the XQuery collection scan as
// the worker pool grows (SearchContents fans out across GOMAXPROCS over a
// pinned immutable view; results are byte-identical to the serial scan).
func BenchmarkSearchContentsParallel(b *testing.B) {
	study := fluStudy(b, 5000)
	const expr = `contains(/annotation/body, "protease")`
	serial, err := study.Store.View().SearchContents(expr)
	if err != nil || len(serial) == 0 {
		b.Fatalf("bad fixture: %d hits, err %v", len(serial), err)
	}
	maxProcs := runtime.GOMAXPROCS(0)
	procsList := []int{1, 2, 4, maxProcs}
	seen := map[int]bool{}
	for _, procs := range procsList {
		if procs < 1 || procs > maxProcs || seen[procs] {
			continue
		}
		seen[procs] = true
		b.Run(fmt.Sprintf("procs=%d/anns=5000", procs), func(b *testing.B) {
			prev := runtime.GOMAXPROCS(procs)
			defer runtime.GOMAXPROCS(prev)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				got, err := study.Store.View().SearchContents(expr)
				if err != nil || len(got) != len(serial) {
					b.Fatalf("wrong answer: %d hits, err %v", len(got), err)
				}
			}
		})
	}
}

// --- W2: mixed read/write contention ---

// contentionWriters starts n goroutines that keep the store under write
// load (commit one annotation, delete the previous one, so the store size
// stays steady) until stop closes. commit must create one annotation and
// return its ID. Writers are paced (~1k ops/sec each) so the measured
// read latency reflects reader/writer interference, not raw CPU
// oversubscription — unpaced, a single-core runner turns this into a
// noisy fair-share scheduling benchmark.
func contentionWriters(b *testing.B, n int, stop <-chan struct{}, wg *sync.WaitGroup,
	commit func(w, i int) (uint64, error), del func(id uint64) error) {
	b.Helper()
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var prev uint64
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				time.Sleep(time.Millisecond)
				id, err := commit(w, i)
				if err != nil {
					b.Errorf("writer %d: %v", w, err)
					return
				}
				if prev != 0 {
					if err := del(prev); err != nil {
						b.Errorf("writer %d: delete: %v", w, err)
						return
					}
				}
				prev = id
			}
		}(w)
	}
}

// BenchmarkW2MixedReadWrite measures read latency with 8 concurrent
// writers churning commits and deletions — the regression gate for the
// snapshot-isolated read path (under the old global RWMutex, every one of
// these reads serialized against the writers).
func BenchmarkW2MixedReadWrite(b *testing.B) {
	const writers = 8

	fluWriter := func(s *core.Store, domain string) (func(w, i int) (uint64, error), func(id uint64) error) {
		return func(w, i int) (uint64, error) {
				m, err := s.MarkDomainInterval(domain, interval.Interval{Lo: int64(i % 1500), Hi: int64(i%1500 + 20)})
				if err != nil {
					return 0, err
				}
				ann, err := s.Commit(s.NewAnnotation().Creator(fmt.Sprintf("w%d", w)).
					Date("2008-01-01").Body(fmt.Sprintf("contention note %d", i)).Refer(m))
				if err != nil {
					return 0, err
				}
				return ann.ID, nil
			}, func(id uint64) error {
				return s.DeleteAnnotation(id)
			}
	}

	b.Run(fmt.Sprintf("SearchContents/anns=1000/writers=%d", writers), func(b *testing.B) {
		cfg := workload.DefaultInfluenza
		cfg.Annotations = 1000
		study, err := workload.Influenza(cfg)
		if err != nil {
			b.Fatal(err)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		commit, del := fluWriter(study.Store, study.Segments[0])
		contentionWriters(b, writers, stop, &wg, commit, del)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := study.Store.View().SearchContents(`contains(/annotation/body, "protease")`); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		close(stop)
		wg.Wait()
	})

	b.Run(fmt.Sprintf("Q2Protease/anns=1000/writers=%d", writers), func(b *testing.B) {
		cfg := workload.DefaultInfluenza
		cfg.Annotations = 1000
		study, err := workload.Influenza(cfg)
		if err != nil {
			b.Fatal(err)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		commit, del := fluWriter(study.Store, study.Segments[0])
		contentionWriters(b, writers, stop, &wg, commit, del)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := QueryConsecutiveKeyword(study.Store, ConsecutiveOptions{}); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		close(stop)
		wg.Wait()
	})

	b.Run(fmt.Sprintf("Q1TP53/images=48/writers=%d", writers), func(b *testing.B) {
		cfg := workload.DefaultNeuro
		cfg.Images = 48
		cfg.NoiseAnnotations = 48 * 5
		study, err := workload.Neuroscience(cfg)
		if err != nil {
			b.Fatal(err)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		commit := func(w, i int) (uint64, error) {
			x := float64((w*97 + i) % 900)
			m, err := study.Store.View().MarkImageRegion(study.ImageIDs[i%len(study.ImageIDs)],
				rtree.Rect2D(x, x, x+15, x+15))
			if err != nil {
				return 0, err
			}
			ann, err := study.Store.Commit(study.Store.NewAnnotation().Creator(fmt.Sprintf("w%d", w)).
				Date("2008-01-01").Body(fmt.Sprintf("region churn %d", i)).Refer(m))
			if err != nil {
				return 0, err
			}
			return ann.ID, nil
		}
		contentionWriters(b, writers, stop, &wg, commit, study.Store.DeleteAnnotation)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := QueryTP53Images(study.Store, TP53Options{}); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		close(stop)
		wg.Wait()
	})

	b.Run(fmt.Sprintf("A4Related/anns=1000/writers=%d", writers), func(b *testing.B) {
		cfg := workload.DefaultInfluenza
		cfg.Annotations = 1000
		study, err := workload.Influenza(cfg)
		if err != nil {
			b.Fatal(err)
		}
		ids := study.AnnotationIDs
		stop := make(chan struct{})
		var wg sync.WaitGroup
		commit, del := fluWriter(study.Store, study.Segments[0])
		contentionWriters(b, writers, stop, &wg, commit, del)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := study.Store.RelatedAnnotations(ids[i%len(ids)]); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		close(stop)
		wg.Wait()
	})
}

// BenchmarkW2TracedMixedReadWrite is the W2 SearchContents scenario with
// span tracing fully engaged: every writer commit carries a root span
// down the pipeline and every measured read runs under a traced context,
// with finished traces recorded into a live ring. Compared against
// BenchmarkW2MixedReadWrite/SearchContents by scripts/bench.sh to bound
// the always-on tracing overhead (recorded as trace:* rows, outside the
// cross-PR guard set).
func BenchmarkW2TracedMixedReadWrite(b *testing.B) {
	const writers = 8
	b.Run(fmt.Sprintf("SearchContents/anns=1000/writers=%d", writers), func(b *testing.B) {
		cfg := workload.DefaultInfluenza
		cfg.Annotations = 1000
		study, err := workload.Influenza(cfg)
		if err != nil {
			b.Fatal(err)
		}
		tracer := trace.NewTracer(trace.Options{})
		s := study.Store
		domain := study.Segments[0]
		commit := func(w, i int) (uint64, error) {
			sp := trace.NewRoot("http", "")
			defer func() {
				sp.Finish()
				tracer.Record(sp, false)
			}()
			m, err := s.MarkDomainInterval(domain, interval.Interval{Lo: int64(i % 1500), Hi: int64(i%1500 + 20)})
			if err != nil {
				return 0, err
			}
			ann, err := s.Commit(s.NewAnnotation().WithSpan(sp).Creator(fmt.Sprintf("w%d", w)).
				Date("2008-01-01").Body(fmt.Sprintf("contention note %d", i)).Refer(m))
			if err != nil {
				return 0, err
			}
			return ann.ID, nil
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		contentionWriters(b, writers, stop, &wg, commit, s.DeleteAnnotation)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sp := trace.NewRoot("http", "")
			ctx := trace.NewContext(context.Background(), sp)
			if _, err := s.View().SearchContentsCtx(ctx, `contains(/annotation/body, "protease")`); err != nil {
				b.Fatal(err)
			}
			sp.Finish()
			tracer.Record(sp, false)
		}
		b.StopTimer()
		close(stop)
		wg.Wait()
	})
}

// --- A6: content keyword index vs document scan ---

func BenchmarkA6ContentIndex(b *testing.B) {
	for _, n := range []int{200, 1000, 5000} {
		study := fluStudy(b, n)
		b.Run(fmt.Sprintf("indexed/anns=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := study.Store.SearchKeyword("protease", true); len(got) == 0 {
					b.Fatal("no hits")
				}
			}
		})
		b.Run(fmt.Sprintf("scan/anns=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := study.Store.SearchKeyword("protease", false); len(got) == 0 {
					b.Fatal("no hits")
				}
			}
		})
	}
}

// join3 is the three-variable join of internal/query's BenchmarkPlanner,
// run here end to end as BenchmarkReadPath's query route.
const join3 = `
select contents
where {
  ?a isa annotation ; contains "protease" .
  ?r isa referent ; kind interval .
  ?o isa object ; type dna_sequences .
  ?a annotates ?r .
  ?r marks ?o .
}`

// countingWriter is an http.ResponseWriter that keeps nothing: it records
// the status and counts the body's bytes. A recorder's buffer would grow by
// doubling over a streamed answer's chunks and bill that to the handler.
type countingWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *countingWriter) Header() http.Header { return w.h }

func (w *countingWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	w.n += len(p)
	return len(p), nil
}

// BenchmarkReadPath drives the three read routes that answer with
// annotations through the HTTP handler, in process, into a writer that
// keeps nothing: what a reader pays per request from routing to the last
// response byte, store work and encoding together. related walks the a-graph from each of 32
// annotations in turn (hundreds of related annotations per answer),
// keyword lists one word's postings, query runs the planner suite's join.
// Every request encodes each annotation it answers with from its values
// and its document shape's skeleton; nothing is kept per annotation, so
// the first round costs what later ones do but for the few shapes'
// skeletons (BenchmarkWireEncode in internal/httpapi isolates the
// encoder).
func BenchmarkReadPath(b *testing.B) {
	study := fluStudy(b, 10_000)
	h := httpapi.NewHandler(study.Store)
	var ids []uint64
	study.Store.View().AnnotationsEach(func(a *core.Annotation) bool { ids = append(ids, a.ID); return true })
	var related []string
	for i := 0; i < 32; i++ {
		related = append(related, fmt.Sprintf("/api/annotations/%d/related", ids[i*len(ids)/32]))
	}
	queryBody, err := json.Marshal(map[string]string{"query": join3})
	if err != nil {
		b.Fatal(err)
	}
	for _, route := range []struct {
		name, method string
		targets      []string
		body         []byte
	}{
		{"related", "GET", related, nil},
		{"keyword", "GET", []string{"/api/annotations?keyword=protease"}, nil},
		{"query", "POST", []string{"/api/query"}, queryBody},
	} {
		b.Run(route.name+"/anns=10k", func(b *testing.B) {
			b.ReportAllocs()
			sent := 0
			w := &countingWriter{h: http.Header{}}
			for i := 0; i < b.N; i++ {
				clear(w.h)
				w.status, w.n = 0, 0
				h.ServeHTTP(w, httptest.NewRequest(route.method,
					route.targets[i%len(route.targets)], bytes.NewReader(route.body)))
				if w.status != 200 || w.n < 100 {
					b.Fatalf("%s: status %d, %d bytes", route.name, w.status, w.n)
				}
				sent += w.n
			}
			b.ReportMetric(float64(sent)/float64(b.N), "resp-B/op")
		})
	}
}

// countOverlapping counts a tree's entries overlapping q.
func countOverlapping[V any](t interval.Tree[V], q interval.Interval) int {
	n := 0
	t.VisitOverlapping(q, func(interval.Entry[V]) bool {
		n++
		return true
	})
	return n
}

// countRect counts a tree's entries overlapping q.
func countRect[V any](t rtree.Tree[V], q rtree.Rect) int {
	n := 0
	t.Visit(q, func(rtree.Entry[V]) bool {
		n++
		return true
	})
	return n
}

// mustParseQuery parses a benchmark's fixed query.
func mustParseQuery(b *testing.B, src string) *query.Query {
	b.Helper()
	q, err := query.Parse(src)
	if err != nil {
		b.Fatal(err)
	}
	return q
}
