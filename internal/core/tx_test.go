package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"graphitti/internal/biodata/seq"
	"graphitti/internal/cow"
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
				pinned := func(annID uint64, refIDs []uint64) error {
					return s.Batch(func(x *Tx) (err error) {
						_, err = x.CommitWithIDs(segmentNote(t, s, 50, "pinned"), annID, refIDs)
						return err
					})
				}
				switch what {
				case "annotation":
					err = pinned(tc.id, nil)
				case "referent":
					err = pinned(7, []uint64{tc.id})
				case "counters":
					err = s.Batch(func(x *Tx) error { return x.RestoreIDCounters(tc.id, tc.id) })
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
		if _, err := tx.CommitWithIDs(segmentNote(t, s, 90, "dup"), 50, []uint64{slices.Collect(first.ReferentIDs)[0]}); err == nil {
			t.Error("pinned referent ID of an earlier op's mark accepted for a different mark")
		}
		if got := s.View().Epoch(); got != start {
			t.Errorf("batch published mid-way: epoch %d, want %d", got, start)
		}
		return tx.DeleteAnnotation(first.ID)
	})
	mustNoErr(t, err)
	if slices.Collect(first.ReferentIDs)[0] != slices.Collect(second.ReferentIDs)[0] {
		t.Fatalf("identical marks in one batch got referents %d and %d", slices.Collect(first.ReferentIDs)[0], slices.Collect(second.ReferentIDs)[0])
	}
	v := s.View()
	if got := v.Epoch(); got != start+3 {
		t.Fatalf("epoch advanced by %d, want 3 (two commits, one delete)", got-start)
	}
	if _, err := v.Annotation(first.ID); err == nil {
		t.Fatal("annotation deleted in the batch is visible")
	}
	if refs := v.ReferentsAt("segment4", 25); len(refs) != 1 || refs[0].ID != slices.Collect(second.ReferentIDs)[0] {
		t.Fatalf("shared referent after batch: %v", refs)
	}
}

// TestBatchRollsBackFailedOp: an op that fails after building the successor
// tree for some of its referents leaves no trace in the session, and the
// ops around it publish.
func TestBatchRollsBackFailedOp(t *testing.T) {
	s := newDemoStore(t)
	before := s.Stats()
	err := s.Batch(func(tx *Tx) error {
		if _, err := tx.Commit(segmentNote(t, s, 20, "kept")); err != nil {
			return err
		}
		b := segmentNote(t, s, 300, "torn")
		region := rtree.Rect2D(1, 1, 2, 2)
		b.Refer(&Referent{Kind: RegionReferent, ObjectType: TypeImage, ObjectID: "brain-1",
			Domain: "no-such-system", Region: &region})
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
// batch of creates and deletes only ever get the pre-batch or the
// post-batch view, each with table counts that match its epoch and, for a
// word every annotation carries, exactly that view's posting list — the
// batch appends to the list's tail in place and rewrites chunks of its
// head while they read. Run with -race.
func TestBatchIsOnePublishForReaders(t *testing.T) {
	const seeds, creates, deletes = 280, 300, 120 // the list spans chunks before and after
	// seed commits the annotations the batch starts from; batch deletes
	// every third of them, then every fifth of its own creates.
	seed := func(s *Store) (ids []uint64) {
		for i := 0; i < seeds; i++ {
			ann, err := s.Commit(segmentNote(t, s, int64(i), fmt.Sprintf("seed %d", i)))
			mustNoErr(t, err)
			ids = append(ids, ann.ID)
		}
		return ids
	}
	batch := func(s *Store, ids []uint64) ([]uint64, error) {
		return ids, s.Batch(func(tx *Tx) error {
			for i := 0; i < creates; i++ {
				ann, err := tx.Commit(segmentNote(t, s, int64(seeds+i), fmt.Sprintf("note %d", i)))
				if err != nil {
					return err
				}
				ids = append(ids, ann.ID)
			}
			for i, doomed := 0, 0; doomed < deletes; i++ {
				if i < seeds && i%3 == 0 || i >= seeds && i%5 == 0 {
					if err := tx.DeleteAnnotation(ids[i]); err != nil {
						return err
					}
					ids[i] = 0
					doomed++
				}
			}
			ids = slices.DeleteFunc(ids, func(id uint64) bool { return id == 0 })
			return nil
		})
	}
	// What the batch leaves behind is read off a twin that has run it.
	twin := newDemoStore(t)
	postIDs, err := batch(twin, seed(twin))
	mustNoErr(t, err)
	postStats := twin.Stats()

	s := newDemoStore(t)
	preIDs := seed(s)
	pre := s.View()
	preStats := pre.Stats()
	const ops = creates + deletes

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
				want, wantIDs := preStats, preIDs
				switch v.Epoch() {
				case pre.Epoch():
				case pre.Epoch() + ops:
					want, wantIDs = postStats, postIDs
				default:
					t.Errorf("reader pinned epoch %d: neither pre-batch %d nor post-batch %d",
						v.Epoch(), pre.Epoch(), pre.Epoch()+ops)
					return
				}
				if st != want || len(v.Annotations()) != want.Annotations ||
					v.IntervalTreeSize("segment4") != want.Referents {
					t.Errorf("epoch %d: stats %+v inconsistent with %+v", v.Epoch(), st, want)
					return
				}
				var got []uint64
				for _, ann := range v.SearchKeyword("2008-01-01") {
					got = append(got, ann.ID)
				}
				if !slices.Equal(got, wantIDs) {
					t.Errorf("epoch %d: keyword search returned %d annotations, want %d: %v", v.Epoch(), len(got), len(wantIDs), got)
					return
				}
			}
		}()
	}
	gotIDs, err := batch(s, slices.Clone(preIDs))
	close(stop)
	wg.Wait()
	mustNoErr(t, err)
	if got := s.View().Epoch(); got != pre.Epoch()+ops {
		t.Fatalf("epoch %d after batch, want %d", got, pre.Epoch()+ops)
	}
	if !slices.Equal(gotIDs, postIDs) {
		t.Fatalf("the batch left %d annotations, its twin's %d", len(gotIDs), len(postIDs))
	}
	// The pinned pre-batch view never changed.
	if got := pre.Stats(); got != preStats {
		t.Fatalf("pre-batch view mutated: %+v, was %+v", got, preStats)
	}
}

// TestTableEditAgainstOracle drives cow.TableEdit sessions with random sets
// and deletes against a map, checking after every session that the edit
// published the oracle's state and left the table it started from intact.
func TestTableEditAgainstOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	oracle := map[uint64]*int{}
	var table cow.Table[int]
	check := func(tb cow.Table[int], want map[uint64]*int) {
		t.Helper()
		if tb.Len() != len(want) {
			t.Fatalf("len %d, want %d", tb.Len(), len(want))
		}
		for id, v := range want {
			if tb.Get(id) != v {
				t.Fatalf("id %d: got %p want %p", id, tb.Get(id), v)
			}
		}
	}
	for session := 0; session < 60; session++ {
		base, baseOracle := table, map[uint64]*int{}
		for id, v := range oracle {
			baseOracle[id] = v
		}
		e := table.Edit()
		for op := rng.Intn(40); op >= 0; op-- {
			id := uint64(1 + rng.Intn(3*256)) // three chunks
			if rng.Intn(3) == 0 {
				e.Delete(id)
				delete(oracle, id)
			} else {
				v := new(int)
				e.Set(id, v)
				oracle[id] = v
			}
			check(e.Table, oracle) // reads see earlier writes
		}
		table = e.Table
		check(table, oracle)
		check(base, baseOracle)
	}
}

// TestCommitCostIsFlatInStoreSize: the bytes a commit and a delete
// allocate follow the mutation, not the store. Each annotation carries a
// word of its own, a few words one annotation in sixteen has and several
// that all have, so the keyword index grows with the store and its longest
// posting lists hold every annotation; the deletes hit old annotations,
// whose IDs sit deep in those lists. Once the marks are spread 64 to a
// sequence, in eight domains (a publish copies the map of domains, a cost
// of many domains and not of the store's size), and once they all sit on
// one sequence, whose a-graph node then has every referent of the store in
// one adjacency list: a mark appends to its tail and a delete copies one
// chunk of it.
func TestCommitCostIsFlatInStoreSize(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 16k-annotation stores")
	}
	const pairs = 200
	perPair := func(n, perSeq int) float64 {
		note := func(s *Store, i int) *Builder {
			m, err := s.View().MarkSequenceInterval(fmt.Sprintf("seq%d", i/perSeq),
				interval.Interval{Lo: int64(i % perSeq), Hi: int64(i%perSeq + 10)})
			mustNoErr(t, err)
			return s.NewAnnotation().Creator("p").Date("2008-01-01").Title(fmt.Sprintf("note-%d", i)).
				Body(fmt.Sprintf("binding footprint confirmed near gene%04d", i%16*(i%977))).Refer(m)
		}
		s := NewStore()
		for i := 0; i <= (n+pairs)/perSeq; i++ {
			sq, err := seq.New(fmt.Sprintf("seq%d", i), seq.DNA, strings.Repeat("ACGT", perSeq/4+3))
			mustNoErr(t, err)
			sq.Domain, sq.Offset = fmt.Sprintf("segment%d", i%8), int64(i/8)*2*int64(perSeq)
			mustNoErr(t, s.RegisterSequence(sq))
		}
		var ids []uint64
		mustNoErr(t, s.Batch(func(tx *Tx) error {
			for i := 0; i < n; i++ {
				ann, err := tx.Commit(note(s, i))
				if err != nil {
					return err
				}
				ids = append(ids, ann.ID)
			}
			return nil
		}))
		rng := rand.New(rand.NewSource(int64(n)))
		builders := make([]*Builder, pairs)
		for i := range builders {
			builders[i] = note(s, n+i)
		}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		for _, b := range builders {
			ann, err := s.Commit(b)
			mustNoErr(t, err)
			k := rng.Intn(len(ids))
			mustNoErr(t, s.DeleteAnnotation(ids[k]))
			ids[k] = ann.ID
		}
		runtime.ReadMemStats(&after)
		return float64(after.TotalAlloc-before.TotalAlloc) / pairs
	}
	for _, tc := range []struct {
		name   string
		perSeq int
	}{{"marks spread 64 to a sequence", 64}, {"every mark on one sequence", 1 << 15}} {
		small, large := perPair(2_000, tc.perSeq), perPair(16_000, tc.perSeq)
		t.Logf("%s: bytes per commit+delete pair: %.0f at 2k annotations, %.0f at 16k (%.2fx)", tc.name, small, large, large/small)
		if large > 1.5*small {
			t.Errorf("%s: a commit+delete pair allocates %.0f bytes at 16k annotations, %.0f at 2k: more than 1.5x", tc.name, large, small)
		}
	}
}
