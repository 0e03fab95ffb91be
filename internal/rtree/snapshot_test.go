package rtree

import (
	"math/rand"
	"reflect"
	"testing"
)

// TestSnapshotImmutable keeps a tree value, derives many successors from
// it (enough inserts and deletes to force splits and condensation), and
// checks the kept value still answers exactly as it did.
func TestSnapshotImmutable(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	tr, err := NewTree[int](2)
	if err != nil {
		t.Fatal(err)
	}
	rects := map[uint64]Rect{}
	insertRand := func(id uint64) {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		rects[id] = Rect2D(x, y, x+1+rng.Float64()*40, y+1+rng.Float64()*40)
		mustInsert(t, &tr, rects[id], id, int(id))
	}
	for i := uint64(0); i < 600; i++ {
		insertRand(i)
	}

	snap := tr
	q := Rect2D(100, 100, 400, 400)
	wantSearch := snap.Search(q)
	wantBounds, _ := snap.Bounds()
	wantLen := snap.Len()

	for i := uint64(0); i < 500; i++ {
		tr, _ = tr.Delete(rects[i], i)
	}
	for i := uint64(1000); i < 1900; i++ {
		insertRand(i)
	}

	if got := snap.Search(q); !reflect.DeepEqual(got, wantSearch) {
		t.Fatalf("snapshot Search changed after mutation: %d vs %d hits", len(got), len(wantSearch))
	}
	if got, _ := snap.Bounds(); got != wantBounds {
		t.Fatalf("snapshot Bounds changed: %v vs %v", got, wantBounds)
	}
	if snap.Len() != wantLen {
		t.Fatalf("snapshot Len changed: %d vs %d", snap.Len(), wantLen)
	}
	all := Rect2D(-1, -1, 2000, 2000)
	if tr.Len() != 600-500+900 || len(tr.Search(all)) != tr.Len() {
		t.Fatalf("latest tree Len = %d, Search = %d", tr.Len(), len(tr.Search(all)))
	}
}
