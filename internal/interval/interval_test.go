package interval

import (
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestIntervalValidity(t *testing.T) {
	tests := []struct {
		iv    Interval
		valid bool
	}{
		{Interval{0, 1}, true},
		{Interval{-5, 5}, true},
		{Interval{3, 3}, false},
		{Interval{4, 2}, false},
	}
	for _, tc := range tests {
		if got := tc.iv.Valid(); got != tc.valid {
			t.Errorf("%v.Valid() = %v, want %v", tc.iv, got, tc.valid)
		}
	}
}

func TestOverlaps(t *testing.T) {
	tests := []struct {
		a, b Interval
		want bool
	}{
		{Interval{0, 10}, Interval{5, 15}, true},
		{Interval{0, 10}, Interval{10, 20}, false}, // half-open: touching does not overlap
		{Interval{0, 10}, Interval{9, 10}, true},
		{Interval{5, 6}, Interval{0, 100}, true},
		{Interval{0, 1}, Interval{2, 3}, false},
		{Interval{-10, -5}, Interval{-7, 0}, true},
	}
	for _, tc := range tests {
		if got := tc.a.Overlaps(tc.b); got != tc.want {
			t.Errorf("%v.Overlaps(%v) = %v, want %v", tc.a, tc.b, got, tc.want)
		}
		if got := tc.b.Overlaps(tc.a); got != tc.want {
			t.Errorf("Overlaps not symmetric for %v, %v", tc.a, tc.b)
		}
	}
}

func TestIntersect(t *testing.T) {
	tests := []struct {
		a, b   Interval
		want   Interval
		wantOK bool
	}{
		{Interval{0, 10}, Interval{5, 15}, Interval{5, 10}, true},
		{Interval{0, 10}, Interval{10, 20}, Interval{}, false},
		{Interval{0, 100}, Interval{40, 60}, Interval{40, 60}, true},
		{Interval{0, 5}, Interval{0, 5}, Interval{0, 5}, true},
	}
	for _, tc := range tests {
		got, ok := tc.a.Intersect(tc.b)
		if ok != tc.wantOK || got != tc.want {
			t.Errorf("%v.Intersect(%v) = (%v,%v), want (%v,%v)", tc.a, tc.b, got, ok, tc.want, tc.wantOK)
		}
	}
}

func TestUnionPrecedesContains(t *testing.T) {
	a, b := Interval{0, 5}, Interval{10, 20}
	if got := a.Union(b); got != (Interval{0, 20}) {
		t.Errorf("Union = %v", got)
	}
	if !a.Precedes(b) || b.Precedes(a) {
		t.Error("Precedes wrong")
	}
	if !a.Contains(0) || a.Contains(5) || !a.Contains(4) {
		t.Error("Contains wrong at boundaries")
	}
	if a.Len() != 5 {
		t.Errorf("Len = %d", a.Len())
	}
}

func TestTreeInsertErrors(t *testing.T) {
	var tr Tree[string]
	if _, err := tr.Insert(Interval{5, 5}, 1, "x"); !errors.Is(err, ErrInvalid) {
		t.Fatalf("empty interval: err = %v, want ErrInvalid", err)
	}
	mustInsert(t, &tr, Interval{0, 10}, 1)
	mustInsert(t, &tr, Interval{20, 30}, 2)
	got, err := tr.Insert(Interval{0, 10}, 1, "y")
	if !errors.Is(err, ErrDuplicateID) {
		t.Fatalf("repeated key: err = %v, want ErrDuplicateID", err)
	}
	if got != tr {
		t.Fatal("a refused insert returned a different tree")
	}
	if _, ok := tr.Delete(Interval{0, 11}, 1); ok {
		t.Fatal("Delete matched an ID under another interval")
	}
}

func TestTreeStab(t *testing.T) {
	var tr Tree[string]
	mustInsert(t, &tr, Interval{0, 10}, 1)
	mustInsert(t, &tr, Interval{5, 15}, 2)
	mustInsert(t, &tr, Interval{20, 30}, 3)
	tests := []struct {
		p    int64
		want []uint64
	}{
		{0, []uint64{1}},
		{5, []uint64{1, 2}},
		{9, []uint64{1, 2}},
		{10, []uint64{2}},
		{15, nil},
		{25, []uint64{3}},
		{30, nil},
		{-1, nil},
	}
	for _, tc := range tests {
		got := ids(tr.Stab(tc.p))
		if !equalIDs(got, tc.want) {
			t.Errorf("Stab(%d) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestTreeNext(t *testing.T) {
	var tr Tree[string]
	mustInsert(t, &tr, Interval{0, 10}, 1)
	mustInsert(t, &tr, Interval{10, 20}, 2)
	mustInsert(t, &tr, Interval{15, 25}, 3)
	mustInsert(t, &tr, Interval{40, 50}, 4)

	e, ok := tr.Next(Interval{0, 10})
	if !ok || e.ID != 2 {
		t.Fatalf("Next([0,10)) = (%v,%v), want entry 2", e, ok)
	}
	e, ok = tr.Next(Interval{10, 12})
	if !ok || e.ID != 3 {
		t.Fatalf("Next([10,12)) = (%v,%v), want entry 3", e, ok)
	}
	e, ok = tr.Next(Interval{20, 30})
	if !ok || e.ID != 4 {
		t.Fatalf("Next([20,30)) = (%v,%v), want entry 4", e, ok)
	}
	if _, ok = tr.Next(Interval{45, 60}); ok {
		t.Fatal("Next past the last entry should report !ok")
	}
}

func TestTreeDelete(t *testing.T) {
	var tr Tree[int]
	const n = 2000
	rng := rand.New(rand.NewSource(7))
	ivs := make([]Interval, n)
	for i := range ivs {
		lo := int64(rng.Intn(100_000))
		ivs[i] = Interval{lo, lo + int64(1+rng.Intn(500))}
		mustInsertVal(t, &tr, ivs[i], uint64(i), i)
	}
	if tr.Len() != n {
		t.Fatalf("Len = %d, want %d", tr.Len(), n)
	}
	for _, i := range rng.Perm(n) {
		var ok bool
		if tr, ok = tr.Delete(ivs[i], uint64(i)); !ok {
			t.Fatalf("Delete(%d) missed", i)
		}
	}
	if tr.Len() != 0 {
		t.Fatalf("Len = %d after deleting all", tr.Len())
	}
	if got := tr.Overlapping(Interval{0, 200_000}); len(got) != 0 {
		t.Fatalf("%d entries remain after deleting all", len(got))
	}
	if _, ok := tr.Delete(ivs[0], 0); ok {
		t.Fatal("Delete on empty tree reported a hit")
	}
}

func TestTreeSpan(t *testing.T) {
	var tr Tree[struct{}]
	if _, ok := tr.Span(); ok {
		t.Fatal("Span of empty tree reported ok")
	}
	mustInsert2(t, &tr, Interval{10, 20}, 1)
	mustInsert2(t, &tr, Interval{-5, 3}, 2)
	mustInsert2(t, &tr, Interval{100, 400}, 3)
	span, ok := tr.Span()
	if !ok || span != (Interval{-5, 400}) {
		t.Fatalf("Span = (%v,%v), want ([-5,400), true)", span, ok)
	}
}

func TestTreeBalanced(t *testing.T) {
	var tr Tree[struct{}]
	for i := 0; i < 1<<14; i++ {
		mustInsert2(t, &tr, Interval{int64(i), int64(i + 1)}, uint64(i))
	}
	// A perfectly balanced tree of 2^14 nodes has height 14; AVL allows
	// ~1.44 * log2(n).
	if h := tr.Height(); h > 21 {
		t.Fatalf("Height = %d for 16384 sequential inserts; tree is unbalanced", h)
	}
}

func TestVisitOverlappingEarlyStop(t *testing.T) {
	var tr Tree[struct{}]
	for i := 0; i < 100; i++ {
		mustInsert2(t, &tr, Interval{0, 1000}, uint64(i))
	}
	count := 0
	tr.VisitOverlapping(Interval{5, 6}, func(Entry[struct{}]) bool {
		count++
		return count < 7
	})
	if count != 7 {
		t.Fatalf("visited %d entries, want 7", count)
	}
}

func TestScanMatchesTreeSmall(t *testing.T) {
	var tr Tree[int]
	var sc Scan[int]
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		lo := int64(rng.Intn(1000))
		iv := Interval{lo, lo + int64(1+rng.Intn(60))}
		mustInsertVal(t, &tr, iv, uint64(i), i)
		if err := sc.Insert(iv, uint64(i), i); err != nil {
			t.Fatal(err)
		}
	}
	for q := int64(-10); q < 1100; q += 13 {
		qiv := Interval{q, q + 37}
		a, b := ids(tr.Overlapping(qiv)), ids(sc.Overlapping(qiv))
		if !equalIDs(a, b) {
			t.Fatalf("Overlapping(%v): tree %v, scan %v", qiv, a, b)
		}
		ta, oka := tr.Next(qiv)
		sa, okb := sc.Next(qiv)
		if oka != okb || (oka && ta.ID != sa.ID) {
			t.Fatalf("Next(%v): tree (%v,%v), scan (%v,%v)", qiv, ta, oka, sa, okb)
		}
	}
}

// TestQuickTreeVsScan drives random insert/delete/query sequences against
// the tree value and the naive oracle. Every fifth intermediate value is
// kept with a copy of the oracle at that point and checked again once the
// whole sequence has run: a successor never disturbs its predecessors.
func TestQuickTreeVsScan(t *testing.T) {
	type op struct {
		Lo   int16
		Len  uint8
		Del  bool
		Seed uint8
	}
	agree := func(tr Tree[int], sc *Scan[int]) bool {
		for q := int64(-300); q <= 300; q += 37 {
			qiv := Interval{q, q + 50}
			if !equalIDs(ids(tr.Overlapping(qiv)), ids(sc.Overlapping(qiv))) {
				return false
			}
			if tr.CountOverlapping(qiv) != sc.CountOverlapping(qiv) {
				return false
			}
			te, tok := tr.Next(qiv)
			se, sok := sc.Next(qiv)
			if tok != sok || (tok && te.ID != se.ID) {
				return false
			}
		}
		return tr.Len() == sc.Len() && len(tr.All()) == sc.Len()
	}
	check := func(ops []op) bool {
		var tr Tree[int]
		var sc Scan[int]
		type pinned struct {
			tr Tree[int]
			sc Scan[int]
		}
		var kept []pinned
		var live []Entry[int]
		for i, o := range ops {
			if o.Del && len(live) > 0 {
				k := int(o.Seed) % len(live)
				e := live[k]
				live = append(live[:k], live[k+1:]...)
				var ok bool
				if tr, ok = tr.Delete(e.Interval, e.ID); !ok || !sc.Delete(e.ID) {
					return false
				}
			} else {
				e := Entry[int]{Interval: Interval{int64(o.Lo), int64(o.Lo) + int64(o.Len) + 1}, ID: uint64(i)}
				live = append(live, e)
				var err error
				if tr, err = tr.Insert(e.Interval, e.ID, 0); err != nil {
					return false
				}
				if err := sc.Insert(e.Interval, e.ID, 0); err != nil {
					return false
				}
			}
			if i%5 == 0 {
				kept = append(kept, pinned{tr, Scan[int]{slices.Clone(sc.entries)}})
			}
		}
		for i := range kept {
			if !agree(kept[i].tr, &kept[i].sc) {
				return false
			}
		}
		return agree(tr, &sc)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickIntersectAlgebra checks algebraic identities of the SUB_X
// intersect operator.
func TestQuickIntersectAlgebra(t *testing.T) {
	mk := func(lo int16, ln uint8) Interval {
		return Interval{int64(lo), int64(lo) + int64(ln) + 1}
	}
	commutative := func(alo int16, aln uint8, blo int16, bln uint8) bool {
		a, b := mk(alo, aln), mk(blo, bln)
		x, okx := a.Intersect(b)
		y, oky := b.Intersect(a)
		return okx == oky && x == y
	}
	if err := quick.Check(commutative, nil); err != nil {
		t.Errorf("intersect not commutative: %v", err)
	}
	idempotent := func(alo int16, aln uint8) bool {
		a := mk(alo, aln)
		x, ok := a.Intersect(a)
		return ok && x == a
	}
	if err := quick.Check(idempotent, nil); err != nil {
		t.Errorf("intersect not idempotent: %v", err)
	}
	consistent := func(alo int16, aln uint8, blo int16, bln uint8) bool {
		a, b := mk(alo, aln), mk(blo, bln)
		_, ok := a.Intersect(b)
		return ok == a.Overlaps(b)
	}
	if err := quick.Check(consistent, nil); err != nil {
		t.Errorf("intersect/ifOverlap inconsistent: %v", err)
	}
	shrinking := func(alo int16, aln uint8, blo int16, bln uint8) bool {
		a, b := mk(alo, aln), mk(blo, bln)
		x, ok := a.Intersect(b)
		if !ok {
			return true
		}
		return x.Len() <= a.Len() && x.Len() <= b.Len() && x.Lo >= a.Lo && x.Hi <= a.Hi
	}
	if err := quick.Check(shrinking, nil); err != nil {
		t.Errorf("intersect does not shrink: %v", err)
	}
}

func ids[V any](es []Entry[V]) []uint64 {
	out := make([]uint64, len(es))
	for i, e := range es {
		out[i] = e.ID
	}
	return out
}

func equalIDs(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	as, bs := append([]uint64(nil), a...), append([]uint64(nil), b...)
	sort.Slice(as, func(i, j int) bool { return as[i] < as[j] })
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	for i := range as {
		if as[i] != bs[i] {
			return false
		}
	}
	return true
}

func mustInsert(t *testing.T, tr *Tree[string], iv Interval, id uint64) {
	t.Helper()
	var err error
	if *tr, err = tr.Insert(iv, id, ""); err != nil {
		t.Fatal(err)
	}
}

func mustInsertVal(t *testing.T, tr *Tree[int], iv Interval, id uint64, v int) {
	t.Helper()
	var err error
	if *tr, err = tr.Insert(iv, id, v); err != nil {
		t.Fatal(err)
	}
}

func mustInsert2(t *testing.T, tr *Tree[struct{}], iv Interval, id uint64) {
	t.Helper()
	var err error
	if *tr, err = tr.Insert(iv, id, struct{}{}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkTreeOverlapping(b *testing.B) {
	var tr Tree[int]
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100_000; i++ {
		lo := int64(rng.Intn(10_000_000))
		var err error
		if tr, err = tr.Insert(Interval{lo, lo + int64(1+rng.Intn(1000))}, uint64(i), i); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := int64(i*7919) % 10_000_000
		tr.CountOverlapping(Interval{q, q + 500})
	}
}
