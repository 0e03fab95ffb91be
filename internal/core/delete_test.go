package core

import (
	"errors"
	"slices"
	"testing"

	"graphitti/internal/interval"
	"graphitti/internal/rtree"
)

func TestDeleteAnnotationBasic(t *testing.T) {
	s := newDemoStore(t)
	m, _ := s.View().MarkSequenceInterval("NC_007362", interval.Interval{Lo: 10, Hi: 60})
	ann, err := s.Commit(s.NewAnnotation().Creator("a").Date("2008-01-01").
		Body("transient protease note").Refer(m))
	mustNoErr(t, err)

	if err := s.DeleteAnnotation(ann.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Annotation(ann.ID); !errors.Is(err, ErrNoSuchAnnotation) {
		t.Fatalf("annotation still present: %v", err)
	}
	if err := s.DeleteAnnotation(ann.ID); !errors.Is(err, ErrNoSuchAnnotation) {
		t.Fatalf("double delete: %v", err)
	}
	// Keyword index cleaned.
	if got := s.View().SearchKeyword("protease"); len(got) != 0 {
		t.Fatalf("stale keyword entries: %d", len(got))
	}
	// Referent garbage-collected from the interval tree.
	if got := s.ReferentsAt("segment4", 20); len(got) != 0 {
		t.Fatalf("stale interval entries: %v", got)
	}
	st := s.Stats()
	if st.Annotations != 0 || st.Referents != 0 {
		t.Fatalf("stats after delete: %+v", st)
	}
}

func TestDeleteKeepsSharedReferent(t *testing.T) {
	s := newDemoStore(t)
	m1, _ := s.View().MarkSequenceInterval("NC_007362", interval.Interval{Lo: 10, Hi: 60})
	m2, _ := s.View().MarkSequenceInterval("NC_007362", interval.Interval{Lo: 10, Hi: 60})
	a1, err := s.Commit(s.NewAnnotation().Creator("a").Date("2008-01-01").Refer(m1))
	mustNoErr(t, err)
	a2, err := s.Commit(s.NewAnnotation().Creator("b").Date("2008-01-02").Refer(m2))
	mustNoErr(t, err)
	if slices.Collect(a1.ReferentIDs)[0] != slices.Collect(a2.ReferentIDs)[0] {
		t.Fatal("marks did not share a referent")
	}
	refID := slices.Collect(a1.ReferentIDs)[0]

	// Deleting one annotation keeps the shared referent alive.
	mustNoErr(t, s.DeleteAnnotation(a1.ID))
	if _, err := s.View().Referent(refID); err != nil {
		t.Fatalf("shared referent collected too early: %v", err)
	}
	if got := s.ReferentsAt("segment4", 20); len(got) != 1 {
		t.Fatalf("interval entries = %d, want 1", len(got))
	}
	// Deleting the second collects it.
	mustNoErr(t, s.DeleteAnnotation(a2.ID))
	if _, err := s.View().Referent(refID); !errors.Is(err, ErrNoSuchReferent) {
		t.Fatalf("orphan referent survived: %v", err)
	}
	if got := s.ReferentsAt("segment4", 20); len(got) != 0 {
		t.Fatalf("stale interval entries: %v", got)
	}
}

func TestDeleteThenRemarkReusesNothingStale(t *testing.T) {
	s := newDemoStore(t)
	m, _ := s.View().MarkSequenceInterval("NC_007362", interval.Interval{Lo: 5, Hi: 25})
	ann, err := s.Commit(s.NewAnnotation().Creator("a").Date("2008-01-01").Refer(m))
	mustNoErr(t, err)
	oldRef := slices.Collect(ann.ReferentIDs)[0]
	mustNoErr(t, s.DeleteAnnotation(ann.ID))

	// Re-annotating the identical mark must mint a fresh referent (the
	// dedup table was cleaned), and queries must see exactly one entry.
	m2, _ := s.View().MarkSequenceInterval("NC_007362", interval.Interval{Lo: 5, Hi: 25})
	ann2, err := s.Commit(s.NewAnnotation().Creator("b").Date("2008-01-02").Refer(m2))
	mustNoErr(t, err)
	if slices.Collect(ann2.ReferentIDs)[0] == oldRef {
		t.Fatal("deleted referent ID reused from a stale dedup entry")
	}
	if got := s.ReferentsAt("segment4", 10); len(got) != 1 {
		t.Fatalf("interval entries = %d, want 1", len(got))
	}
}

func TestDeleteRegionAnnotation(t *testing.T) {
	s := newDemoStore(t)
	m, _ := s.View().MarkImageRegion("brain-1", rtree.Rect2D(10, 10, 50, 50))
	ann, err := s.Commit(s.NewAnnotation().Creator("a").Date("2008-01-01").Refer(m))
	mustNoErr(t, err)
	if got := s.View().RegionsOverlapping("atlas", rtree.Rect2D(0, 0, 100, 100)); len(got) != 1 {
		t.Fatalf("regions = %d", len(got))
	}
	mustNoErr(t, s.DeleteAnnotation(ann.ID))
	if got := s.View().RegionsOverlapping("atlas", rtree.Rect2D(0, 0, 100, 100)); len(got) != 0 {
		t.Fatalf("stale region entries: %v", got)
	}
	// The coordinate system and its (now empty) R-tree remain usable.
	m2, _ := s.View().MarkImageRegion("brain-1", rtree.Rect2D(10, 10, 50, 50))
	if _, err := s.Commit(s.NewAnnotation().Creator("b").Date("2008-01-02").Refer(m2)); err != nil {
		t.Fatalf("re-annotation after delete failed: %v", err)
	}
}

func TestDeletePreservesUnrelatedState(t *testing.T) {
	s := newDemoStore(t)
	m1, _ := s.View().MarkSequenceInterval("NC_007362", interval.Interval{Lo: 0, Hi: 30})
	keep, err := s.Commit(s.NewAnnotation().Creator("a").Date("2008-01-01").
		Body("keep protease").Refer(m1).OntologyRef("go", "protease"))
	mustNoErr(t, err)
	m2, _ := s.View().MarkSequenceInterval("NC_007362", interval.Interval{Lo: 100, Hi: 130})
	drop, err := s.Commit(s.NewAnnotation().Creator("b").Date("2008-01-02").
		Body("drop protease").Refer(m2))
	mustNoErr(t, err)

	mustNoErr(t, s.DeleteAnnotation(drop.ID))

	// The surviving annotation is fully intact.
	if got := s.View().SearchKeyword("protease"); len(got) != 1 || got[0].ID != keep.ID {
		t.Fatalf("keyword survivors = %v", got)
	}
	if got := s.View().AnnotationsWithTerm("go", "protease"); len(got) != 1 {
		t.Fatalf("term survivors = %d", len(got))
	}
	if got := s.ReferentsAt("segment4", 10); len(got) != 1 {
		t.Fatalf("interval survivors = %d", len(got))
	}
	// Related/correlated queries still work.
	if _, err := s.View().CorrelatedData(keep.ID); err != nil {
		t.Fatal(err)
	}
}
