package core

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"graphitti/internal/interval"
	"graphitti/internal/rtree"
)

func segmentNote(t testing.TB, s *Store, lo int64, body string) *Builder {
	t.Helper()
	m, err := s.MarkDomainInterval("segment4", interval.Interval{Lo: lo, Hi: lo + 10})
	mustNoErr(t, err)
	return NewBuilder().Creator("u").Date("2008-01-01").Body(body).Refer(m)
}

// TestPinnedIDCeiling: pinned IDs and restored counters above MaxID are
// refused before anything is mutated — the indexes, the a-graph and the
// view stay exactly as they were — and MaxID itself is accepted.
func TestPinnedIDCeiling(t *testing.T) {
	for _, tc := range []struct {
		id uint64
		ok bool
	}{{1 << 62, false}, {1 << 40, false}, {MaxID + 1, false}, {MaxID, true}} {
		for _, what := range []string{"annotation", "referent", "counters"} {
			t.Run(fmt.Sprintf("%s=%d", what, tc.id), func(t *testing.T) {
				s := newDemoStore(t)
				_, err := s.Commit(segmentNote(t, s, 5, "before"))
				mustNoErr(t, err)
				before, epoch := s.Stats(), s.View().Epoch()
				switch what {
				case "annotation":
					_, err = s.CommitWithIDs(segmentNote(t, s, 50, "pinned"), tc.id, nil)
				case "referent":
					_, err = s.CommitWithIDs(segmentNote(t, s, 50, "pinned"), 7, []uint64{tc.id})
				case "counters":
					err = s.RestoreIDCounters(tc.id, tc.id)
				}
				if tc.ok {
					mustNoErr(t, err)
					return
				}
				if err == nil {
					t.Fatalf("%s ID %d accepted", what, tc.id)
				}
				if got := s.Stats(); got != before || s.View().Epoch() != epoch {
					t.Fatalf("rejected ID mutated the store:\n got %+v\nwant %+v", got, before)
				}
				if n := len(s.ReferentsAt("segment4", 55)); n != 0 {
					t.Fatalf("rejected commit left %d interval index entries", n)
				}
			})
		}
	}
}

// TestBatchSeesItsOwnOps: an op reads the session's state, not the last
// published view — shared marks dedup, pinned IDs collide, and a delete
// finds an annotation committed earlier in the same batch.
func TestBatchSeesItsOwnOps(t *testing.T) {
	s := newDemoStore(t)
	start := s.View().Epoch()
	var first, second *Annotation
	err := s.Batch(func(tx *Tx) (err error) {
		if first, err = tx.Commit(segmentNote(t, s, 20, "first")); err != nil {
			return err
		}
		if second, err = tx.Commit(segmentNote(t, s, 20, "second")); err != nil {
			return err
		}
		if _, err := tx.CommitWithIDs(segmentNote(t, s, 90, "dup"), first.ID, nil); err == nil {
			t.Error("pinned ID of an earlier op in the batch accepted")
		}
		if _, err := tx.CommitWithIDs(segmentNote(t, s, 90, "dup"), 50, []uint64{first.ReferentIDs[0]}); err == nil {
			t.Error("pinned referent ID of an earlier op's mark accepted for a different mark")
		}
		if got := s.View().Epoch(); got != start {
			t.Errorf("batch published mid-way: epoch %d, want %d", got, start)
		}
		return tx.DeleteAnnotation(first.ID)
	})
	mustNoErr(t, err)
	if first.ReferentIDs[0] != second.ReferentIDs[0] {
		t.Fatalf("identical marks in one batch got referents %d and %d", first.ReferentIDs[0], second.ReferentIDs[0])
	}
	v := s.View()
	if got := v.Epoch(); got != start+3 {
		t.Fatalf("epoch advanced by %d, want 3 (two commits, one delete)", got-start)
	}
	if _, err := v.Annotation(first.ID); err == nil {
		t.Fatal("annotation deleted in the batch is visible")
	}
	if refs := v.ReferentsAt("segment4", 25); len(refs) != 1 || refs[0].ID != second.ReferentIDs[0] {
		t.Fatalf("shared referent after batch: %v", refs)
	}
}

// TestBatchRollsBackFailedOp: an op that fails after indexing some of its
// referents leaves no trace in the session, and the ops around it publish.
func TestBatchRollsBackFailedOp(t *testing.T) {
	s := newDemoStore(t)
	before := s.Stats()
	err := s.Batch(func(tx *Tx) error {
		if _, err := tx.Commit(segmentNote(t, s, 20, "kept")); err != nil {
			return err
		}
		b := segmentNote(t, s, 300, "torn")
		b.Refer(&Referent{Kind: RegionReferent, ObjectType: TypeImage, ObjectID: "brain-1",
			Domain: "no-such-system", Region: rtree.Rect2D(1, 1, 2, 2)})
		_, err := tx.Commit(b)
		return err
	})
	if err == nil {
		t.Fatal("region mark in an unregistered system accepted")
	}
	after := s.Stats()
	if after.Annotations != before.Annotations+1 || after.Referents != before.Referents+1 {
		t.Fatalf("prefix not published: %+v -> %+v", before, after)
	}
	if n := len(s.ReferentsAt("segment4", 305)); n != 0 {
		t.Fatalf("failed op left %d interval index entries", n)
	}
	if n := len(s.ReferentsAt("segment4", 25)); n != 1 {
		t.Fatalf("kept op has %d interval index entries", n)
	}
}

// TestBatchIsOnePublishForReaders: readers pinning views throughout a
// batch only ever get the pre-batch or the post-batch view, each with
// table counts that match its epoch. (GraphNodes/GraphEdges come from the
// shared a-graph handle, which is live by contract, so they are not
// compared.) Run with -race.
func TestBatchIsOnePublishForReaders(t *testing.T) {
	const ops = 400
	s := newDemoStore(t)
	_, err := s.Commit(segmentNote(t, s, 0, "seed"))
	mustNoErr(t, err)
	pre := s.View()
	preStats := pre.Stats()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := s.View()
				st := v.Stats()
				want := preStats
				switch v.Epoch() {
				case pre.Epoch():
				case pre.Epoch() + ops:
					want.Annotations += ops
					want.Referents += ops
				default:
					t.Errorf("reader pinned epoch %d: neither pre-batch %d nor post-batch %d",
						v.Epoch(), pre.Epoch(), pre.Epoch()+ops)
					return
				}
				if st.Annotations != want.Annotations || st.Referents != want.Referents ||
					st.IntervalTrees != want.IntervalTrees || len(v.Annotations()) != want.Annotations ||
					v.IntervalTreeSize("segment4") != want.Referents {
					t.Errorf("epoch %d: stats %+v inconsistent with %+v", v.Epoch(), st, want)
					return
				}
			}
		}()
	}
	err = s.Batch(func(tx *Tx) error {
		for i := 0; i < ops; i++ {
			if _, err := tx.Commit(segmentNote(t, s, int64(20+i), fmt.Sprintf("note %d", i))); err != nil {
				return err
			}
		}
		return nil
	})
	close(stop)
	wg.Wait()
	mustNoErr(t, err)
	if got := s.View().Epoch(); got != pre.Epoch()+ops {
		t.Fatalf("epoch %d after batch, want %d", got, pre.Epoch()+ops)
	}
	// The pinned pre-batch view never changed.
	if got := pre.Stats(); got.Annotations != preStats.Annotations || got.Keywords != preStats.Keywords {
		t.Fatalf("pre-batch view mutated: %+v, was %+v", got, preStats)
	}
}

// TestTableEditAgainstOracle drives tableEdit sessions with random sets
// and deletes against a map, checking after every session that the edit
// published the oracle's state and left the table it started from intact.
func TestTableEditAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	oracle := map[uint64]*int{}
	var table idtable[int]
	check := func(tb idtable[int], want map[uint64]*int) {
		t.Helper()
		if tb.len() != len(want) {
			t.Fatalf("len %d, want %d", tb.len(), len(want))
		}
		for id, v := range want {
			if tb.get(id) != v {
				t.Fatalf("id %d: got %p want %p", id, tb.get(id), v)
			}
		}
	}
	for session := 0; session < 60; session++ {
		base, baseOracle := table, map[uint64]*int{}
		for id, v := range oracle {
			baseOracle[id] = v
		}
		e := table.edit()
		for op := rng.Intn(40); op >= 0; op-- {
			id := uint64(1 + rng.Intn(3*tableChunkSize))
			if rng.Intn(3) == 0 {
				e.delete(id)
				delete(oracle, id)
			} else {
				v := new(int)
				e.set(id, v)
				oracle[id] = v
			}
			check(e.idtable, oracle) // reads see earlier writes
		}
		table = e.idtable
		check(table, oracle)
		check(base, baseOracle)
	}
}
