// Snapshot-isolation stress test: 8 writers churn commits and deletions
// while 8 readers pin views and check that no pinned view ever observes a
// half-applied mutation — in its tables, its indexes or its a-graph — then
// the interleaved history is replayed serially and the final states
// compared export-for-export.
package core_test

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"graphitti/internal/biodata/seq"
	"graphitti/internal/core"
	"graphitti/internal/interval"
	"graphitti/internal/persist"
)

const stressDomain = "chrStress"

// stressOp is one entry of the interleaved history, recorded in
// completion order for the serial replay.
type stressOp struct {
	commit *persist.AnnotationDump // set for commits
	delete uint64                  // set for deletions
}

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
	if err := s.RegisterSequence(sq); err != nil {
		t.Fatal(err)
	}

	var (
		histMu  sync.Mutex
		history []stressOp
	)
	record := func(op stressOp) {
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
				record(stressOp{commit: &dump})
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
					record(stressOp{delete: victim})
				}
			}
		}(w)
	}

	// Readers: pin a view per round and verify its internal consistency.
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

				// Index and scan answers over the SAME view must agree
				// exactly: a half-applied commit (annotation in the table
				// but postings missing, or vice versa) would break this.
				idx := v.SearchKeyword("stress", true)
				scan := v.SearchKeyword("stress", false)
				if len(idx) != len(scan) {
					t.Errorf("reader %d: index %d hits, scan %d", r, len(idx), len(scan))
					return
				}
				for i := range idx {
					if idx[i].ID != scan[i].ID {
						t.Errorf("reader %d: hit %d: index %d vs scan %d", r, i, idx[i].ID, scan[i].ID)
						return
					}
				}

				// Annotation atomicity: every visible annotation is
				// complete — content, its Dublin Core values, and all
				// referents resolvable in the same view.
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
						ref, err := v.Referent(refID)
						if err != nil {
							t.Errorf("reader %d: annotation %d referent %d missing from its own view: %v",
								r, ann.ID, refID, err)
							return
						}
						if ref.Kind != core.IntervalReferent || ref.Domain != stressDomain {
							t.Errorf("reader %d: referent %d malformed: %+v", r, refID, ref)
							return
						}
					}
				}

				// Aggregates agree with enumerations on the same view.
				st := v.Stats()
				if anns := v.Annotations(); len(anns) != st.Annotations {
					t.Errorf("reader %d: Stats.Annotations=%d but %d enumerated", r, st.Annotations, len(anns))
					return
				} else {
					for i := 1; i < len(anns); i++ {
						if anns[i-1].ID >= anns[i].ID {
							t.Errorf("reader %d: annotations not sorted", r)
							return
						}
					}
				}
				nrefs := 0
				v.ReferentsEach(func(*core.Referent) bool { nrefs++; return true })
				if nrefs != st.Referents {
					t.Errorf("reader %d: Stats.Referents=%d but %d enumerated", r, st.Referents, nrefs)
					return
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
					if of := v.AnnotationsOfReferent(slices.Collect(last.ReferentIDs)[0]); !slices.Contains(of, last) {
						t.Errorf("reader %d: annotation %d missing from its own referent's annotators", r, last.ID)
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
	// IDs), and compare the final exports byte-for-byte.
	ref := core.NewStore()
	sq2, err := seq.New("stress-seq", seq.DNA, strings.Repeat("ACGT", 50_000))
	if err != nil {
		t.Fatal(err)
	}
	sq2.Domain = stressDomain
	if err := ref.RegisterSequence(sq2); err != nil {
		t.Fatal(err)
	}
	for i, op := range history {
		if op.commit != nil {
			if err := ref.Batch(func(x *core.Tx) (err error) {
				_, err = persist.ApplyAnnotation(x, *op.commit, nil)
				return err
			}); err != nil {
				t.Fatalf("serial replay op %d: %v", i, err)
			}
		} else {
			if err := ref.DeleteAnnotation(op.delete); err != nil {
				t.Fatalf("serial replay delete %d (op %d): %v", op.delete, i, err)
			}
		}
	}
	gotSnap, err := persist.Export(s)
	if err != nil {
		t.Fatal(err)
	}
	wantSnap, err := persist.Export(ref)
	if err != nil {
		t.Fatal(err)
	}
	// Counters match too: failed commits never burn IDs under the
	// publish-on-success design, and replay re-derives the same maxima
	// from the pinned IDs.
	got, err := json.Marshal(gotSnap)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(wantSnap)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("concurrent final state differs from serial replay:\nconcurrent: %.2000s\nserial: %.2000s", got, want)
	}
}
