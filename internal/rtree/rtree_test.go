package rtree

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestRectValidity(t *testing.T) {
	tests := []struct {
		r     Rect
		valid bool
	}{
		{Rect2D(0, 0, 1, 1), true},
		{Rect2D(0, 0, 0, 1), false},
		{Rect2D(0, 0, 1, 0), false},
		{Rect2D(5, 5, 1, 8), false},
		{Rect3D(0, 0, 0, 1, 1, 1), true},
		{Rect3D(0, 0, 0, 1, 1, 0), false},
		{Rect{Dims: 1}, false},
		{Rect{Dims: 4}, false},
	}
	for _, tc := range tests {
		if got := tc.r.Valid(); got != tc.valid {
			t.Errorf("%v.Valid() = %v, want %v", tc.r, got, tc.valid)
		}
	}
}

func TestRectOverlapIntersect(t *testing.T) {
	a := Rect2D(0, 0, 10, 10)
	b := Rect2D(5, 5, 15, 15)
	c := Rect2D(10, 0, 20, 10) // touching edge: no overlap (half-open)
	d := Rect3D(0, 0, 0, 1, 1, 1)

	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("a and b should overlap")
	}
	if a.Overlaps(c) {
		t.Error("touching rectangles must not overlap under half-open semantics")
	}
	if a.Overlaps(d) {
		t.Error("2-D and 3-D rectangles must never overlap")
	}
	got, ok := a.Intersect(b)
	if !ok || got != Rect2D(5, 5, 10, 10) {
		t.Errorf("Intersect = (%v,%v)", got, ok)
	}
	if _, ok := a.Intersect(c); ok {
		t.Error("Intersect of touching rects should be empty")
	}
	if u := a.Union(b); u != Rect2D(0, 0, 15, 15) {
		t.Errorf("Union = %v", u)
	}
	if !a.Contains(Rect2D(1, 1, 9, 9)) || a.Contains(b) {
		t.Error("Contains wrong")
	}
	if a.Volume() != 100 {
		t.Errorf("Volume = %g", a.Volume())
	}
	if d.Volume() != 1 {
		t.Errorf("3-D Volume = %g", d.Volume())
	}
}

func TestNewTreeDims(t *testing.T) {
	if _, err := NewTree[int](1); !errors.Is(err, ErrInvalid) {
		t.Fatal("dims=1 should be rejected")
	}
	if _, err := NewTree[int](4); !errors.Is(err, ErrInvalid) {
		t.Fatal("dims=4 should be rejected")
	}
	tr, err := NewTree[int](3)
	if err != nil || tr.Dims() != 3 {
		t.Fatalf("NewTree(3) = (%v,%v)", tr, err)
	}
}

func TestTreeInsertErrors(t *testing.T) {
	tr, _ := NewTree[int](2)
	if _, err := tr.Insert(Rect2D(0, 0, 0, 1), 1, 0); !errors.Is(err, ErrInvalid) {
		t.Fatalf("invalid rect: err = %v", err)
	}
	if _, err := tr.Insert(Rect3D(0, 0, 0, 1, 1, 1), 1, 0); !errors.Is(err, ErrInvalid) {
		t.Fatalf("dims mismatch: err = %v", err)
	}
	// Enough entries around the repeated key that it sits below the root.
	for i := 0; i < 100; i++ {
		x := float64(i % 10 * 5)
		y := float64(i / 10 * 5)
		mustInsert(t, &tr, Rect2D(x, y, x+7, y+7), uint64(i), i)
	}
	got, err := tr.Insert(Rect2D(5, 5, 12, 12), 11, 0)
	if !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("repeated key: err = %v", err)
	}
	if got != tr {
		t.Fatal("a refused insert returned a different tree")
	}
	if _, ok := tr.Delete(Rect2D(5, 5, 12, 13), 11); ok {
		t.Fatal("Delete matched an ID under another rectangle")
	}
}

func TestTreeSearchSmall(t *testing.T) {
	tr, _ := NewTree[string](2)
	rects := map[uint64]Rect{
		1: Rect2D(0, 0, 10, 10),
		2: Rect2D(5, 5, 15, 15),
		3: Rect2D(20, 20, 30, 30),
		4: Rect2D(-5, -5, 1, 1),
	}
	for id, r := range rects {
		mustInsert(t, &tr, r, id, "")
	}
	tests := []struct {
		q    Rect
		want []uint64
	}{
		{Rect2D(0, 0, 1, 1), []uint64{1, 4}},
		{Rect2D(6, 6, 7, 7), []uint64{1, 2}},
		{Rect2D(100, 100, 110, 110), nil},
		{Rect2D(-100, -100, 100, 100), []uint64{1, 2, 3, 4}},
		{Rect2D(10, 10, 20, 20), []uint64{2}}, // rect 1 touches at corner only
	}
	for _, tc := range tests {
		got := entryIDs(tr.Search(tc.q))
		if !sameIDs(got, tc.want) {
			t.Errorf("Search(%v) = %v, want %v", tc.q, got, tc.want)
		}
	}
}

func TestTreeLargeRandom(t *testing.T) {
	tr, _ := NewTree[int](2)
	sc, _ := NewScan[int](2)
	rng := rand.New(rand.NewSource(21))
	const n = 5000
	for i := 0; i < n; i++ {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		r := Rect2D(x, y, x+1+rng.Float64()*20, y+1+rng.Float64()*20)
		mustInsert(t, &tr, r, uint64(i), i)
		if err := sc.Insert(r, uint64(i), i); err != nil {
			t.Fatal(err)
		}
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d", tr.Len())
	}
	for i := 0; i < 200; i++ {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		q := Rect2D(x, y, x+30, y+30)
		a, b := entryIDs(tr.Search(q)), entryIDs(sc.Search(q))
		if !sameIDs(a, b) {
			t.Fatalf("query %d: tree %d hits, scan %d hits", i, len(a), len(b))
		}
	}
}

func TestTreeDelete(t *testing.T) {
	tr, _ := NewTree[int](2)
	sc, _ := NewScan[int](2)
	rng := rand.New(rand.NewSource(33))
	const n = 1500
	rects := make([]Rect, n)
	for i := range rects {
		x, y := rng.Float64()*500, rng.Float64()*500
		rects[i] = Rect2D(x, y, x+1+rng.Float64()*10, y+1+rng.Float64()*10)
		mustInsert(t, &tr, rects[i], uint64(i), i)
		_ = sc.Insert(rects[i], uint64(i), i)
	}
	perm := rng.Perm(n)
	var ok bool
	for k, i := range perm[:n/2] {
		if tr, ok = tr.Delete(rects[i], uint64(i)); !ok {
			t.Fatalf("Delete(%d) missed at step %d", i, k)
		}
		sc.Delete(uint64(i))
	}
	if tr.Len() != n/2 {
		t.Fatalf("Len = %d, want %d", tr.Len(), n/2)
	}
	for i := 0; i < 100; i++ {
		x, y := rng.Float64()*500, rng.Float64()*500
		q := Rect2D(x, y, x+25, y+25)
		if !sameIDs(entryIDs(tr.Search(q)), entryIDs(sc.Search(q))) {
			t.Fatalf("after deletes, query %d disagrees with oracle", i)
		}
	}
	// Delete the rest.
	for _, i := range perm[n/2:] {
		if tr, ok = tr.Delete(rects[i], uint64(i)); !ok {
			t.Fatalf("Delete(%d) missed", i)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after deleting all", tr.Len())
	}
	if _, ok := tr.Delete(rects[0], 0); ok {
		t.Fatal("Delete on empty tree reported a hit")
	}
}

func TestTree3D(t *testing.T) {
	tr, _ := NewTree[int](3)
	sc, _ := NewScan[int](3)
	rng := rand.New(rand.NewSource(5))
	const n = 2000
	for i := 0; i < n; i++ {
		x, y, z := rng.Float64()*100, rng.Float64()*100, rng.Float64()*100
		r := Rect3D(x, y, z, x+1+rng.Float64()*5, y+1+rng.Float64()*5, z+1+rng.Float64()*5)
		mustInsert(t, &tr, r, uint64(i), i)
		_ = sc.Insert(r, uint64(i), i)
	}
	for i := 0; i < 100; i++ {
		x, y, z := rng.Float64()*100, rng.Float64()*100, rng.Float64()*100
		q := Rect3D(x, y, z, x+10, y+10, z+10)
		if !sameIDs(entryIDs(tr.Search(q)), entryIDs(sc.Search(q))) {
			t.Fatalf("3-D query %d disagrees with oracle", i)
		}
	}
}

func TestBulkLoad(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const n = 3000
	entries := make([]Entry[int], n)
	sc, _ := NewScan[int](2)
	for i := 0; i < n; i++ {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		r := Rect2D(x, y, x+1+rng.Float64()*15, y+1+rng.Float64()*15)
		entries[i] = Entry[int]{Rect: r, ID: uint64(i), Value: i}
		_ = sc.Insert(r, uint64(i), i)
	}
	tr, err := BulkLoad(2, entries)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d", tr.Len())
	}
	for i := 0; i < 150; i++ {
		x, y := rng.Float64()*1000, rng.Float64()*1000
		q := Rect2D(x, y, x+40, y+40)
		if !sameIDs(entryIDs(tr.Search(q)), entryIDs(sc.Search(q))) {
			t.Fatalf("bulk-loaded tree disagrees with oracle on query %d", i)
		}
	}
	// Bulk-loaded trees should be shallow.
	if h := tr.Height(); h > 4 {
		t.Errorf("Height = %d for %d STR-packed entries", h, n)
	}
}

func TestBulkLoadErrors(t *testing.T) {
	if _, err := BulkLoad(2, []Entry[int]{{Rect: Rect2D(0, 0, 0, 0), ID: 1}}); !errors.Is(err, ErrInvalid) {
		t.Fatal("invalid rect should be rejected")
	}
	es := []Entry[int]{
		{Rect: Rect2D(0, 0, 1, 1), ID: 1},
		{Rect: Rect2D(2, 2, 3, 3), ID: 1},
	}
	if _, err := BulkLoad(2, es); !errors.Is(err, ErrDuplicateID) {
		t.Fatal("duplicate IDs should be rejected")
	}
	tr, err := BulkLoad[int](2, nil)
	if err != nil || tr.Len() != 0 {
		t.Fatalf("empty bulk load = (%v, %v)", tr.Len(), err)
	}
}

func TestVisitEarlyStop(t *testing.T) {
	tr, _ := NewTree[int](2)
	for i := 0; i < 200; i++ {
		mustInsert(t, &tr, Rect2D(0, 0, 100, 100), uint64(i), i)
	}
	count := 0
	tr.Visit(Rect2D(1, 1, 2, 2), func(Entry[int]) bool {
		count++
		return count < 5
	})
	if count != 5 {
		t.Fatalf("visited %d, want 5", count)
	}
}

func TestBoundsAndHeight(t *testing.T) {
	tr, _ := NewTree[int](2)
	if _, ok := tr.Bounds(); ok {
		t.Fatal("Bounds of empty tree reported ok")
	}
	mustInsert(t, &tr, Rect2D(3, 4, 5, 6), 1, 0)
	mustInsert(t, &tr, Rect2D(-1, -2, 0, 0), 2, 0)
	b, ok := tr.Bounds()
	if !ok || b != Rect2D(-1, -2, 5, 6) {
		t.Fatalf("Bounds = (%v,%v)", b, ok)
	}
	if tr.Height() != 1 {
		t.Fatalf("Height = %d", tr.Height())
	}
}

// TestQuickTreeVsScan compares the tree value against the oracle under
// random insert/delete workloads. Every fifth intermediate value is kept
// with a copy of the oracle at that point and checked again once the whole
// sequence has run: a successor never disturbs its predecessors.
func TestQuickTreeVsScan(t *testing.T) {
	type op struct {
		X, Y uint8
		W, H uint8
		Del  bool
	}
	agree := func(tr Tree[int], sc *Scan[int]) bool {
		for qx := 0.0; qx < 256; qx += 41 {
			for qy := 0.0; qy < 256; qy += 41 {
				q := Rect2D(qx, qy, qx+60, qy+60)
				if !sameIDs(entryIDs(tr.Search(q)), entryIDs(sc.Search(q))) {
					return false
				}
				if tr.Count(q) != sc.Count(q) {
					return false
				}
			}
		}
		return tr.Len() == sc.Len()
	}
	check := func(ops []op) bool {
		tr, _ := NewTree[int](2)
		sc, _ := NewScan[int](2)
		type pinned struct {
			tr Tree[int]
			sc Scan[int]
		}
		var kept []pinned
		var live []Entry[int]
		for i, o := range ops {
			if o.Del && len(live) > 0 {
				k := int(o.X) % len(live)
				e := live[k]
				live = append(live[:k], live[k+1:]...)
				var ok bool
				if tr, ok = tr.Delete(e.Rect, e.ID); !ok || !sc.Delete(e.ID) {
					return false
				}
			} else {
				r := Rect2D(float64(o.X), float64(o.Y), float64(o.X)+float64(o.W)+1, float64(o.Y)+float64(o.H)+1)
				var err error
				if tr, err = tr.Insert(r, uint64(i), 0); err != nil || sc.Insert(r, uint64(i), 0) != nil {
					return false
				}
				live = append(live, Entry[int]{Rect: r, ID: uint64(i)})
			}
			if i%5 == 0 {
				kept = append(kept, pinned{tr, Scan[int]{2, slices.Clone(sc.entries)}})
			}
		}
		for i := range kept {
			if !agree(kept[i].tr, &kept[i].sc) {
				return false
			}
		}
		return agree(tr, sc)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickRectAlgebra checks the SUB_X operator identities on rectangles.
func TestQuickRectAlgebra(t *testing.T) {
	mk := func(x, y, w, h uint8) Rect {
		return Rect2D(float64(x), float64(y), float64(x)+float64(w)+1, float64(y)+float64(h)+1)
	}
	commutative := func(ax, ay, aw, ah, bx, by, bw, bh uint8) bool {
		a, b := mk(ax, ay, aw, ah), mk(bx, by, bw, bh)
		x, okx := a.Intersect(b)
		y, oky := b.Intersect(a)
		return okx == oky && x == y && a.Overlaps(b) == b.Overlaps(a)
	}
	if err := quick.Check(commutative, nil); err != nil {
		t.Errorf("rect intersect not commutative: %v", err)
	}
	consistent := func(ax, ay, aw, ah, bx, by, bw, bh uint8) bool {
		a, b := mk(ax, ay, aw, ah), mk(bx, by, bw, bh)
		_, ok := a.Intersect(b)
		return ok == a.Overlaps(b)
	}
	if err := quick.Check(consistent, nil); err != nil {
		t.Errorf("rect intersect/ifOverlap inconsistent: %v", err)
	}
	unionContains := func(ax, ay, aw, ah, bx, by, bw, bh uint8) bool {
		a, b := mk(ax, ay, aw, ah), mk(bx, by, bw, bh)
		u := a.Union(b)
		return u.Contains(a) && u.Contains(b)
	}
	if err := quick.Check(unionContains, nil); err != nil {
		t.Errorf("union does not contain operands: %v", err)
	}
}

func entryIDs[V any](es []Entry[V]) []uint64 {
	out := make([]uint64, len(es))
	for i, e := range es {
		out[i] = e.ID
	}
	return out
}

func sameIDs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	seen := make(map[uint64]int, len(a))
	for _, x := range a {
		seen[x]++
	}
	for _, x := range b {
		seen[x]--
		if seen[x] < 0 {
			return false
		}
	}
	return true
}

func mustInsert[V any](t testing.TB, tr *Tree[V], r Rect, id uint64, v V) {
	t.Helper()
	var err error
	if *tr, err = tr.Insert(r, id, v); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTreeSearch(b *testing.B) {
	tr, _ := NewTree[int](2)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50_000; i++ {
		x, y := rng.Float64()*10_000, rng.Float64()*10_000
		mustInsert(b, &tr, Rect2D(x, y, x+1+rng.Float64()*30, y+1+rng.Float64()*30), uint64(i), i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := float64(i*7919%10_000 + 1)
		tr.Count(Rect2D(x, x, x+50, x+50))
	}
}
