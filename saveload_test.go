package graphitti

import (
	"bytes"
	"slices"
	"strings"
	"testing"
)

func TestSaveLoadFacade(t *testing.T) {
	s := New()
	dna, err := NewDNA("NC_1", strings.Repeat("ACGT", 60))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterSequence(dna); err != nil {
		t.Fatal(err)
	}
	if _, err := MarkAndAnnotate(s, "NC_1", Span(10, 50),
		"gupta", "2008-01-01", "snapshot me"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(s, &buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Stats() != s.Stats() {
		t.Fatalf("restored stats %+v, want %+v", restored.Stats(), s.Stats())
	}
	hits := restored.View().SearchKeyword("snapshot")
	if len(hits) != 1 {
		t.Fatalf("restored keyword hits = %d", len(hits))
	}
	if _, err := Load(strings.NewReader("not json")); err == nil {
		t.Fatal("bad snapshot accepted")
	}
}

// TestSaveLoadPreservesIDs pins the v2 snapshot guarantee the durable
// layer depends on: a loaded store re-assigns the original annotation and
// referent IDs, including across deletion gaps, and continues the ID
// sequence where the original stopped.
func TestSaveLoadPreservesIDs(t *testing.T) {
	s := New()
	dna, err := NewDNA("NC_1", strings.Repeat("ACGT", 60))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterSequence(dna); err != nil {
		t.Fatal(err)
	}
	var ids []uint64
	for i := 0; i < 5; i++ {
		ann, err := MarkAndAnnotate(s, "NC_1", Span(int64(i*20), int64(i*20+10)),
			"gupta", "2008-01-01", "annotation body")
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, ann.ID)
	}
	// Punch a hole in the ID sequence.
	if err := s.DeleteAnnotation(ids[2]); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := Save(s, &buf); err != nil {
		t.Fatal(err)
	}
	restored, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []uint64{ids[0], ids[1], ids[3], ids[4]} {
		orig, err := s.Annotation(id)
		if err != nil {
			t.Fatal(err)
		}
		got, err := restored.Annotation(id)
		if err != nil {
			t.Fatalf("annotation %d lost in round trip: %v", id, err)
		}
		if got.Content.String() != orig.Content.String() {
			t.Fatalf("annotation %d content differs", id)
		}
		for i, refID := range slices.Collect(orig.ReferentIDs) {
			if slices.Collect(got.ReferentIDs)[i] != refID {
				t.Fatalf("annotation %d referent %d: got ID %d want %d",
					id, i, slices.Collect(got.ReferentIDs)[i], refID)
			}
		}
	}
	if _, err := restored.Annotation(ids[2]); err == nil {
		t.Fatal("deleted annotation resurrected by round trip")
	}
	// The counters must continue past the gap, not refill it.
	ann, err := MarkAndAnnotate(restored, "NC_1", Span(200, 210),
		"gupta", "2008-01-02", "post-restore")
	if err != nil {
		t.Fatal(err)
	}
	if want := ids[4] + 1; ann.ID != want {
		t.Fatalf("post-restore annotation ID %d, want %d", ann.ID, want)
	}
}
