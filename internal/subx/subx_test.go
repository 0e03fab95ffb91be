package subx

import (
	"testing"
	"testing/quick"

	"graphitti/internal/interval"
	"graphitti/internal/rtree"
)

func TestHeterogeneityRules(t *testing.T) {
	iv := IntervalMark{Domain: "chr1", IV: interval.Interval{Lo: 0, Hi: 10}}
	ivOther := IntervalMark{Domain: "chr2", IV: interval.Interval{Lo: 0, Hi: 10}}
	rg := RegionMark{System: "atlas", R: rtree.Rect2D(0, 0, 10, 10)}
	st := NewSetMark("tree1", "duck", "goose")

	// Different kinds never overlap.
	if IfOverlap(iv, rg) || IfOverlap(rg, st) || IfOverlap(st, iv) {
		t.Fatal("marks of different kinds must not overlap")
	}
	// Same kind, different space never overlap.
	if IfOverlap(iv, ivOther) {
		t.Fatal("marks in different domains must not overlap")
	}
	// Nil safety.
	if IfOverlap(nil, iv) || IfOverlap(iv, nil) {
		t.Fatal("nil marks must not overlap")
	}
	if IfOverlap(nil, nil) {
		t.Fatal("nil marks must not overlap")
	}
}

func TestIntervalMarks(t *testing.T) {
	a := IntervalMark{Domain: "chr1", IV: interval.Interval{Lo: 0, Hi: 100}}
	b := IntervalMark{Domain: "chr1", IV: interval.Interval{Lo: 50, Hi: 150}}
	c := IntervalMark{Domain: "chr1", IV: interval.Interval{Lo: 100, Hi: 200}}
	if !IfOverlap(a, b) {
		t.Fatal("a and b overlap")
	}
	if IfOverlap(a, c) {
		t.Fatal("touching intervals do not overlap")
	}
	if a.Empty() {
		t.Fatal("valid mark reported empty")
	}
	if !(IntervalMark{Domain: "chr1"}).Empty() {
		t.Fatal("zero interval should be empty")
	}
}

func TestRegionMarks(t *testing.T) {
	a := RegionMark{System: "atlas", R: rtree.Rect2D(0, 0, 10, 10)}
	b := RegionMark{System: "atlas", R: rtree.Rect2D(5, 5, 15, 15)}
	c := RegionMark{System: "atlas2", R: rtree.Rect2D(5, 5, 15, 15)}
	if !IfOverlap(a, b) || IfOverlap(a, c) {
		t.Fatal("region overlap wrong")
	}
	if a.Kind() != "region" || a.Space() != "atlas" {
		t.Fatal("kind/space wrong")
	}
}

func TestSetMarks(t *testing.T) {
	a := NewSetMark("tree1", "duck", "goose", "duck") // dedup
	if len(a.Keys) != 2 || a.Keys[0] != "duck" {
		t.Fatalf("NewSetMark = %+v", a)
	}
	b := NewSetMark("tree1", "goose", "chicken")
	c := NewSetMark("tree1", "human")
	if !IfOverlap(a, b) || IfOverlap(a, c) {
		t.Fatal("set overlap wrong")
	}
	if !NewSetMark("x").Empty() {
		t.Fatal("empty set mark should be empty")
	}
}

// TestQuickOperatorConsistency: ifOverlap is symmetric and agrees with the
// intersection of the marks' intervals and of their key sets.
func TestQuickOperatorConsistency(t *testing.T) {
	ivCheck := func(alo, blo int16, aw, bw uint8) bool {
		a := IntervalMark{Domain: "d", IV: interval.Interval{Lo: int64(alo), Hi: int64(alo) + int64(aw) + 1}}
		b := IntervalMark{Domain: "d", IV: interval.Interval{Lo: int64(blo), Hi: int64(blo) + int64(bw) + 1}}
		ok := max(a.IV.Lo, b.IV.Lo) < min(a.IV.Hi, b.IV.Hi)
		return ok == IfOverlap(a, b) && IfOverlap(a, b) == IfOverlap(b, a)
	}
	if err := quick.Check(ivCheck, nil); err != nil {
		t.Errorf("interval: %v", err)
	}
	setCheck := func(aRaw, bRaw []uint8) bool {
		toKeys := func(raw []uint8) []string {
			var ks []string
			for _, r := range raw {
				ks = append(ks, string(rune('a'+r%16)))
			}
			return ks
		}
		a := NewSetMark("s", toKeys(aRaw)...)
		b := NewSetMark("s", toKeys(bRaw)...)
		shared := false
		for _, k := range a.Keys {
			shared = shared || contains(b.Keys, k)
		}
		return shared == IfOverlap(a, b) && IfOverlap(a, b) == IfOverlap(b, a)
	}
	if err := quick.Check(setCheck, &quick.Config{MaxCount: 200}); err != nil {
		t.Errorf("set: %v", err)
	}
}

func contains(ks []string, k string) bool {
	for _, x := range ks {
		if x == k {
			return true
		}
	}
	return false
}
