package core

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"graphitti/internal/biodata/seq"
	"graphitti/internal/cow"
	"graphitti/internal/interval"
	"graphitti/internal/xquery"
)

// seqStore builds a store with one domain sequence and n committed
// annotations; every third annotation carries the word "special".
func seqStore(t testing.TB, n int) *Store {
	t.Helper()
	s := NewStore()
	sq, err := seq.New("chrP", seq.DNA, strings.Repeat("ACGT", 2500))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterSequence(sq); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		m, err := s.View().MarkSequenceInterval("chrP", interval.Interval{Lo: int64(i % 5000), Hi: int64(i%5000 + 10)})
		if err != nil {
			t.Fatal(err)
		}
		body := fmt.Sprintf("note number %d", i)
		if i%3 == 0 {
			body += " special"
		}
		if _, err := s.Commit(s.NewAnnotation().Creator("p").Date("2008-01-01").Body(body).Refer(m)); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestSearchContentsParallelMatchesSerial checks the fan-out scan returns
// exactly what a serial scan over the same pinned view returns — same
// annotations, same order.
func TestSearchContentsParallelMatchesSerial(t *testing.T) {
	s := seqStore(t, 500) // well past searchParallelThreshold
	v := s.View()
	const expr = `contains(/annotation/body, "special")`

	got, err := v.SearchContentsCtx(context.Background(), expr)
	if err != nil {
		t.Fatal(err)
	}

	// Serial reference over the same view.
	q, err := xquery.Compile(expr)
	if err != nil {
		t.Fatal(err)
	}
	want, err := searchChunk(context.Background(), q, expr, v.Annotations())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("parallel returned %d, serial %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] { // pointer identity: same view, same objects
			t.Fatalf("result %d differs: %d vs %d", i, got[i].ID, want[i].ID)
		}
	}
	if len(got) == 0 {
		t.Fatal("no hits: bad fixture")
	}
}

// TestSearchContentsEvalError covers the error path: an expression that
// compiles but fails during evaluation must abort the scan (serial and
// parallel), return no partial results, and identify the failing
// annotation.
func TestSearchContentsEvalError(t *testing.T) {
	const expr = `count(string(/annotation/body))` // compiles; eval rejects count() of a string
	for _, n := range []int{10, 500} {             // below and above the parallel threshold
		s := seqStore(t, n)
		out, err := s.View().SearchContentsCtx(context.Background(), expr)
		if err == nil {
			t.Fatalf("n=%d: expected evaluation error", n)
		}
		if out != nil {
			t.Fatalf("n=%d: partial results returned alongside error", n)
		}
		if !strings.Contains(err.Error(), "count() requires a node set") {
			t.Fatalf("n=%d: unexpected error: %v", n, err)
		}
		if !strings.Contains(err.Error(), "on annotation") {
			t.Fatalf("n=%d: error does not identify the annotation: %v", n, err)
		}
	}
}

// TestSearchContentsCancellation checks a canceled context stops the scan
// with the context error.
func TestSearchContentsCancellation(t *testing.T) {
	s := seqStore(t, 500)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.View().SearchContentsCtx(ctx, `contains(/annotation/body, "special")`)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// TestKeywordIndexSorted asserts the invariant SearchKeyword relies on to
// skip per-call sorting: every posting list in the keyword index is kept
// sorted by annotation ID, through commits and deletions.
func TestKeywordIndexSorted(t *testing.T) {
	s := seqStore(t, 120)
	// Churn: delete a third of the annotations.
	for _, ann := range s.View().Annotations() {
		if ann.ID%5 == 0 {
			if err := s.DeleteAnnotation(ann.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	v := s.View()
	checked := 0
	v.keywordIdx.Each(func(word string, post cow.Postings) bool {
		var ids []uint64
		post.Each(func(id uint64) bool { ids = append(ids, id); return true })
		if len(ids) == 0 {
			t.Fatalf("keyword %q has an empty posting list (should have been deleted)", word)
		}
		for i := 1; i < len(ids); i++ {
			if ids[i-1] >= ids[i] {
				t.Fatalf("keyword %q postings not strictly sorted: %v", word, ids)
			}
		}
		for _, id := range ids {
			if v.annotations.Get(id) == nil {
				t.Fatalf("keyword %q references deleted annotation %d", word, id)
			}
		}
		checked++
		return true
	})
	if checked == 0 {
		t.Fatal("keyword index empty: bad fixture")
	}
	// And the indexed search returns ID-sorted results equal to a scan
	// of the same view.
	idx := v.SearchKeyword("special")
	scan := scanKeyword(v, "special")
	if len(idx) != len(scan) || len(idx) == 0 {
		t.Fatalf("index %d hits, scan %d", len(idx), len(scan))
	}
	for i := range idx {
		if idx[i] != scan[i] {
			t.Fatalf("hit %d differs: %d vs %d", i, idx[i].ID, scan[i].ID)
		}
	}
}
