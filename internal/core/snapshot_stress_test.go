// Snapshot-isolation stress test: 8 writers churn commits and deletions
// while 8 readers pin views and check that no pinned view ever shows an
// anomaly (workload.Check: nothing half-applied, orphaned or mislocated,
// in its tables, its indexes or its a-graph), then the interleaved
// history, as ops, is replayed serially (workload.Serial) and the final
// states compared (workload.Diff).
package core_test

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"graphitti/internal/biodata/seq"
	"graphitti/internal/core"
	"graphitti/internal/interval"
	"graphitti/internal/persist"
	"graphitti/internal/workload"
)

const stressDomain = "chrStress"

func TestSnapshotIsolationStress(t *testing.T) {
	const writers, readers = 8, 8
	iters := 150
	if testing.Short() {
		iters = 40
	}

	s := core.NewStore()
	sq, err := seq.New("stress-seq", seq.DNA, strings.Repeat("ACGT", 50_000))
	if err != nil {
		t.Fatal(err)
	}
	sq.Domain = stressDomain
	// The interleaved history, in completion order, for the serial replay.
	history := []persist.Op{persist.SequenceOp(sq)}
	if err := s.Batch(history[0].Apply); err != nil {
		t.Fatal(err)
	}
	var histMu sync.Mutex
	record := func(op persist.Op) {
		histMu.Lock()
		history = append(history, op)
		histMu.Unlock()
	}

	var writersWG, readersWG sync.WaitGroup
	stop := make(chan struct{})

	// Writers: every annotation carries the invariant shape the readers
	// check — keyword "stress", a writer tag, and >= 1 interval referent.
	// Even iterations use marks that collide across writers, exercising
	// concurrent referent dedup; odd iterations use writer-unique marks,
	// and only those annotations are ever deleted. (Shared-mark referents
	// are never garbage-collected, so the completion-order history stays
	// a valid serialization: pinned-ID replay of never-recreated marks is
	// order-insensitive, and each writer's own delete-after-recreate
	// sequences are recorded in that writer's true order.)
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			var deletable []uint64
			for i := 0; i < iters; i++ {
				var lo int64
				if i%2 == 0 {
					lo = int64((i % 40) * 100) // shared across writers
				} else {
					lo = int64(100_000 + w*10_000 + (i%40)*100) // writer-unique
				}
				m, err := s.MarkDomainInterval(stressDomain, interval.Interval{Lo: lo, Hi: lo + 50})
				if err != nil {
					t.Errorf("writer %d: mark: %v", w, err)
					return
				}
				b := s.NewAnnotation().
					Creator(fmt.Sprintf("writer-%d", w)).
					Date("2008-01-01").
					Body(fmt.Sprintf("stress alpha w%dnote%d", w, i)).
					Refer(m)
				ann, err := s.Commit(b)
				if err != nil {
					t.Errorf("writer %d: commit: %v", w, err)
					return
				}
				dump, err := persist.DumpAnnotation(s.View(), ann)
				if err != nil {
					t.Errorf("writer %d: dump: %v", w, err)
					return
				}
				record(persist.Op{Kind: core.OpCommitAnnotation, Annotation: &dump})
				if i%2 == 1 {
					deletable = append(deletable, ann.ID)
				}
				if i%5 == 4 && len(deletable) > 2 {
					victim := deletable[0]
					deletable = deletable[1:]
					if err := s.DeleteAnnotation(victim); err != nil {
						t.Errorf("writer %d: delete %d: %v", w, victim, err)
						return
					}
					record(persist.Op{Kind: core.OpDeleteAnnotation, DeleteID: victim})
				}
			}
		}(w)
	}

	// Readers: pin a view per round, check it (workload.Check), and check
	// what this workload implies of it: every annotation is a writer's,
	// complete, carries the keyword "stress" and the body word "alpha",
	// and marks the sequence through interval referents.
	for r := 0; r < readers; r++ {
		readersWG.Add(1)
		go func(r int) {
			defer readersWG.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := s.View()
				if err := workload.Check([]*core.View{v}); err != nil {
					t.Errorf("reader %d: %v", r, err)
					return
				}
				idx := v.SearchKeyword("stress")
				st := v.Stats()
				if len(idx) != st.Annotations {
					t.Errorf("reader %d: %d of %d annotations carry the keyword", r, len(idx), st.Annotations)
					return
				}
				for _, ann := range idx {
					if ann.Content == nil || ann.NumReferents() == 0 {
						t.Errorf("reader %d: annotation %d half-applied", r, ann.ID)
						return
					}
					if got := ann.DC.First("creator"); !strings.HasPrefix(got, "writer-") {
						t.Errorf("reader %d: annotation %d creator %q", r, ann.ID, got)
						return
					}
					for refID := range ann.ReferentIDs {
						if ref, err := v.Referent(refID); err != nil || ref.Kind != core.IntervalReferent || ref.Domain != stressDomain {
							t.Errorf("reader %d: annotation %d referent %d malformed: %+v, %v", r, ann.ID, refID, ref, err)
							return
						}
					}
				}

				// The a-graph is the pinned epoch's too. Its size is what
				// this view's tables imply: a node per annotation, per
				// referent and for the sequence; an edge per referent an
				// annotation lists and one from each referent to the
				// sequence. Every annotation marks that sequence, so any
				// one of them is related to all the others.
				edges := st.Referents
				for _, ann := range idx {
					edges += ann.NumReferents()
				}
				if st.GraphNodes != st.Annotations+st.Referents+1 || st.GraphEdges != edges {
					t.Errorf("reader %d: %d graph nodes, %d edges over %d annotations, %d referents (want %d edges)",
						r, st.GraphNodes, st.GraphEdges, st.Annotations, st.Referents, edges)
					return
				}
				if len(idx) > 1 {
					first, last := idx[0], idx[len(idx)-1]
					related, err := v.RelatedAnnotations(first.ID)
					if err != nil || len(related) != len(idx)-1 {
						t.Errorf("reader %d: annotation %d related to %d of %d others: %v", r, first.ID, len(related), len(idx)-1, err)
						return
					}
					if p, err := v.PathBetweenAnnotations(first.ID, last.ID); err != nil || p.Len() > 4 {
						t.Errorf("reader %d: path %d to %d: %v, %v", r, first.ID, last.ID, p, err)
						return
					}
				}

				// A content scan on the pinned view matches the keyword
				// index on the pinned view (every stress body says alpha).
				hits, err := v.SearchContentsCtx(context.Background(), `contains(/annotation/body, "alpha")`)
				if err != nil {
					t.Errorf("reader %d: search: %v", r, err)
					return
				}
				if len(hits) != len(idx) {
					t.Errorf("reader %d: content scan %d hits, keyword index %d", r, len(hits), len(idx))
					return
				}
			}
		}(r)
	}

	writersWG.Wait()
	close(stop)
	readersWG.Wait()
	if t.Failed() {
		return
	}

	// Serial reference: replay the recorded history, in completion
	// order, into a fresh store through the same writer path (pinned
	// IDs). Counters match too: failed commits never burn IDs under the
	// publish-on-success design, and replay re-derives the same maxima
	// from the pinned IDs.
	ref, err := workload.Serial(history)
	if err != nil {
		t.Fatalf("serial replay: %v", err)
	}
	if err := workload.Diff([]*core.View{s.View()}, []*core.View{ref.View()}); err != nil {
		t.Fatalf("concurrent final state against the serial replay: %v", err)
	}
}
