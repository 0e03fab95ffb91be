package prop

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"graphitti/internal/biodata/seq"
	"graphitti/internal/core"
	"graphitti/internal/interval"
)

// TestRuleAttachedBatchIsOnePublish: with an overlap rule attached, a
// Batch of creates and deletes is one publish, as it is without one.
// Readers pinning views throughout only ever get the pre-batch view or
// the post-batch one — epochs e and e+n, each with the stats and derived
// table of its own op prefix — and the batch ends with the stats and
// derived facts of a twin that ran the same ops as sessions of one. Run
// with -race.
func TestRuleAttachedBatchIsOnePublish(t *testing.T) {
	const seeds, creates, deletes = 120, 160, 60
	note := func(s *core.Store, i int) *core.Builder {
		lo := int64(i%97) * 40
		m, err := s.MarkDomainInterval("chr1", interval.Interval{Lo: lo, Hi: lo + 120})
		if err != nil {
			t.Fatal(err)
		}
		return core.NewBuilder().Creator("u").Date("2026-01-01").Body(fmt.Sprintf("note %d", i)).Refer(m)
	}
	seeded := func() (*core.Store, []uint64) {
		s := core.NewStore()
		sq, err := seq.New("NC_1", seq.DNA, strings.Repeat("ACGT", 1000))
		if err != nil {
			t.Fatal(err)
		}
		sq.Domain = "chr1"
		if err := s.RegisterSequence(sq); err != nil {
			t.Fatal(err)
		}
		if err := Attach(s).AddRule(Rule{ID: "ov", Edge: EdgeOverlap, Domain: "chr1"}); err != nil {
			t.Fatal(err)
		}
		var ids []uint64
		for i := 0; i < seeds; i++ {
			ann, err := s.Commit(note(s, i))
			if err != nil {
				t.Fatal(err)
			}
			ids = append(ids, ann.ID)
		}
		return s, ids
	}
	// run applies the ops through a session (the batch) or through the
	// store itself (the twin, one session per op): the creates, then
	// deletes of every fourth annotation, seeds and creates alike.
	type mutator interface {
		Commit(*core.Builder) (*core.Annotation, error)
		DeleteAnnotation(uint64) error
	}
	run := func(s *core.Store, m mutator, ids []uint64) error {
		for i := 0; i < creates; i++ {
			ann, err := m.Commit(note(s, seeds+i))
			if err != nil {
				return err
			}
			ids = append(ids, ann.ID)
		}
		for i := 0; i < deletes; i++ {
			if err := m.DeleteAnnotation(ids[4*i]); err != nil {
				return err
			}
		}
		return nil
	}
	const ops = creates + deletes

	twin, twinIDs := seeded()
	if err := run(twin, twin, twinIDs); err != nil {
		t.Fatal(err)
	}
	postStats, postDerived := twin.Stats(), slices.Collect(twin.View().DerivedEach)
	if len(postDerived) == 0 {
		t.Fatal("the ops derive nothing")
	}

	s, ids := seeded()
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
				want := preStats
				switch v.Epoch() {
				case pre.Epoch():
				case pre.Epoch() + ops:
					want = postStats
				default:
					t.Errorf("reader pinned epoch %d: neither pre-batch %d nor post-batch %d",
						v.Epoch(), pre.Epoch(), pre.Epoch()+ops)
					return
				}
				if st := v.Stats(); st != want || len(slices.Collect(v.DerivedEach)) != want.Derived {
					t.Errorf("epoch %d: stats %+v inconsistent with %+v", v.Epoch(), st, want)
					return
				}
			}
		}()
	}
	err := s.Batch(func(x *core.Tx) error {
		if err := run(s, x, ids); err != nil {
			return err
		}
		if got := s.View().Epoch(); got != pre.Epoch() {
			t.Errorf("rule-attached batch published before it ended: epoch %d, want %d", got, pre.Epoch())
		}
		return nil
	})
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	v := s.View()
	if got := v.Epoch(); got != pre.Epoch()+ops || got != twin.View().Epoch() {
		t.Fatalf("epoch %d after batch, want %d (twin %d)", got, pre.Epoch()+ops, twin.View().Epoch())
	}
	if got := v.Stats(); got != postStats {
		t.Fatalf("stats after batch %+v, twin %+v", got, postStats)
	}
	if got := slices.Collect(v.DerivedEach); !reflect.DeepEqual(got, postDerived) {
		t.Fatalf("derived table after batch: %d facts, twin %d", len(got), len(postDerived))
	}
	assertTargetIndexParity(t, v)
	if got := pre.Stats(); got != preStats {
		t.Fatalf("pre-batch view mutated: %+v, was %+v", got, preStats)
	}
}
