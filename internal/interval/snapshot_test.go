package interval

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestSnapshotImmutable keeps a tree value, derives many successors from
// it, and checks the kept value still answers exactly as it did — the
// property core relies on to hold trees in its published read views.
func TestSnapshotImmutable(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var tr Tree[int]
	ivs := map[uint64]Interval{}
	insertRand := func(id uint64) {
		lo := rng.Int63n(10_000)
		ivs[id] = Interval{Lo: lo, Hi: lo + 1 + rng.Int63n(300)}
		var err error
		if tr, err = tr.Insert(ivs[id], id, int(id)); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(0); i < 500; i++ {
		insertRand(i)
	}

	snap := tr
	wantAll := snap.All()
	wantSpan, _ := snap.Span()
	q := Interval{Lo: 2000, Hi: 2600}
	wantOverlap := snap.Overlapping(q)
	wantNext, wantNextOK := snap.Next(Interval{Lo: 0, Hi: 5000})

	// Churn: deletions, insertions, enough to force many rotations.
	for i := uint64(0); i < 400; i++ {
		tr, _ = tr.Delete(ivs[i], i)
	}
	for i := uint64(1000); i < 1800; i++ {
		insertRand(i)
	}

	if got := snap.All(); !reflect.DeepEqual(got, wantAll) {
		t.Fatalf("snapshot All changed after mutation: %d vs %d entries", len(got), len(wantAll))
	}
	if got, _ := snap.Span(); got != wantSpan {
		t.Fatalf("snapshot Span changed: %v vs %v", got, wantSpan)
	}
	if got := snap.Overlapping(q); !reflect.DeepEqual(got, wantOverlap) {
		t.Fatalf("snapshot Overlapping changed")
	}
	if got, ok := snap.Next(Interval{Lo: 0, Hi: 5000}); ok != wantNextOK || got != wantNext {
		t.Fatalf("snapshot Next changed")
	}
	if snap.Len() != len(wantAll) {
		t.Fatalf("snapshot Len %d != %d", snap.Len(), len(wantAll))
	}

	// The latest value, meanwhile, reflects the churn.
	if tr.Len() != 500-400+800 || len(tr.All()) != tr.Len() {
		t.Fatalf("latest tree Len = %d, All = %d", tr.Len(), len(tr.All()))
	}
}
