package core_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"graphitti/internal/biodata/imaging"
	"graphitti/internal/biodata/seq"
	"graphitti/internal/core"
	"graphitti/internal/interval"
	"graphitti/internal/persist"
	"graphitti/internal/rtree"
	"graphitti/internal/subx"
)

// newIndexStore registers what the spatial-index tests mark: a sequence on
// domain "s1" and an image in the 2-D system "atlas".
func newIndexStore(t testing.TB) *core.Store {
	t.Helper()
	s := core.NewStore()
	sq, err := seq.New("seq1", seq.DNA, "ACGTACGTACGTACGTACGT")
	must(t, err)
	sq.Domain = "s1"
	must(t, s.RegisterSequence(sq))
	cs, err := imaging.NewCoordinateSystem("atlas", rtree.Rect2D(0, 0, 1000, 1000))
	must(t, err)
	must(t, s.RegisterCoordinateSystem(cs))
	im, err := imaging.NewImage("img1", "atlas", rtree.Rect2D(0, 0, 1000, 1000), imaging.Identity(2))
	must(t, err)
	must(t, s.RegisterImage(im))
	return s
}

func must(t testing.TB, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func intervalMark(domain string, lo, hi int64) *core.Referent {
	return &core.Referent{Kind: core.IntervalReferent, ObjectType: core.TypeDNA, ObjectID: "seq1",
		Domain: domain, Interval: interval.Interval{Lo: lo, Hi: hi}}
}

func regionMark(system string, r rtree.Rect) *core.Referent {
	return &core.Referent{Kind: core.RegionReferent, ObjectType: core.TypeImage, ObjectID: "img1",
		Domain: system, Region: &r}
}

func note(body string, marks ...*core.Referent) *core.Builder {
	b := core.NewBuilder().Creator("u").Date("2008-01-01").Body(body)
	for _, m := range marks {
		b.Refer(m)
	}
	return b
}

func referentIDs(refs []*core.Referent) []uint64 {
	out := make([]uint64, len(refs))
	for i, r := range refs {
		out[i] = r.ID
	}
	return out
}

// TestRefusedCommitLeavesNoTrace: a commit the store refuses — whichever
// check refuses it, alone or in the middle of a Batch — changes nothing a
// later reader, export or commit can see: after one more good commit the
// store equals, to the exported byte, a store that only ever saw the good
// ops, and a view pinned before the refusal still answers as it did.
func TestRefusedCommitLeavesNoTrace(t *testing.T) {
	// The seed commit's marks take referent IDs 1 and 2.
	seed := func() *core.Builder {
		return note("seed", intervalMark("s1", 2, 9), regionMark("atlas", rtree.Rect2D(10, 10, 50, 50)))
	}
	good := func() *core.Builder { return note("good", intervalMark("s1", 4, 12)) }
	// Each is committed under pinned annotation ID 77; pins, when given,
	// are the pinned referent IDs of its marks.
	refusals := []struct {
		name  string
		marks []*core.Referent
		pins  []uint64
	}{
		{name: "invalid interval alone in a new domain",
			marks: []*core.Referent{intervalMark("ghost", 5, 5)}},
		{name: "valid mark then invalid interval",
			marks: []*core.Referent{intervalMark("ghost", 5, 8), intervalMark("ghost", 9, 3)}},
		{name: "region in an unregistered system",
			marks: []*core.Referent{intervalMark("ghost", 5, 8), regionMark("nowhere", rtree.Rect2D(1, 1, 2, 2))}},
		{name: "wrong-dims region after a valid one",
			marks: []*core.Referent{regionMark("atlas", rtree.Rect2D(1, 1, 2, 2)), regionMark("atlas", rtree.Rect3D(1, 1, 1, 2, 2, 2))}},
		{name: "pinned referent ID of a different mark",
			marks: []*core.Referent{intervalMark("ghost", 5, 8), intervalMark("ghost", 6, 9)}, pins: []uint64{900, 1}},
	}
	export := func(s *core.Store) []byte {
		var buf bytes.Buffer
		must(t, persist.Write(s, &buf))
		return buf.Bytes()
	}
	for _, rf := range refusals {
		for _, batched := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/batched=%v", rf.name, batched), func(t *testing.T) {
				want, got := newIndexStore(t), newIndexStore(t)
				for _, s := range []*core.Store{want, got} {
					_, err := s.Commit(seed())
					must(t, err)
				}
				_, err := want.Commit(good())
				must(t, err)

				pinned := got.View()
				at := referentIDs(pinned.ReferentsAt("s1", 5))
				in := referentIDs(pinned.RegionsOverlapping("atlas", rtree.Rect2D(0, 0, 100, 100)))
				if len(at) != 1 || len(in) != 1 {
					t.Fatalf("seed marks not indexed: %v %v", at, in)
				}

				var refused error
				if batched {
					must(t, got.Batch(func(tx *core.Tx) error {
						_, refused = tx.CommitWithIDs(note("torn", rf.marks...), 77, rf.pins)
						_, err := tx.Commit(good())
						return err
					}))
				} else {
					_ = got.Batch(func(tx *core.Tx) error {
						_, refused = tx.CommitWithIDs(note("torn", rf.marks...), 77, rf.pins)
						return refused
					})
					_, err := got.Commit(good())
					must(t, err)
				}
				if refused == nil {
					t.Fatal("commit accepted")
				}

				if g, w := got.View().IntervalDomains(), want.View().IntervalDomains(); !slices.Equal(g, w) {
					t.Errorf("IntervalDomains = %v, want %v", g, w)
				}
				if g, w := got.Stats(), want.Stats(); g != w {
					t.Errorf("Stats:\n got %+v\nwant %+v", g, w)
				}
				if g, w := got.View().Epoch(), want.View().Epoch(); g != w {
					t.Errorf("epoch %d, want %d", g, w)
				}
				if !bytes.Equal(export(got), export(want)) {
					t.Error("export differs from a store that only saw the good ops")
				}
				if g := referentIDs(pinned.ReferentsAt("s1", 5)); !slices.Equal(g, at) {
					t.Errorf("pinned view ReferentsAt = %v, was %v", g, at)
				}
				if g := referentIDs(pinned.RegionsOverlapping("atlas", rtree.Rect2D(0, 0, 100, 100))); !slices.Equal(g, in) {
					t.Errorf("pinned view RegionsOverlapping = %v, was %v", g, in)
				}
			})
		}
	}
}

// TestQuickSpatialIndexVsScan applies a random stream of creates and
// deletes in writer sessions of random length and checks every spatial read
// — on the view each session publishes and, at the end, again on every
// third of those views — against a linear scan of that view's own referent
// table.
func TestQuickSpatialIndexVsScan(t *testing.T) {
	domains := []string{"s1", "s2", "s3"}
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := newIndexStore(t)
		var live []uint64
		var pinned []*core.View
		for session := 0; session < 12; session++ {
			must(t, s.Batch(func(tx *core.Tx) error {
				for op := 1 + rng.Intn(6); op > 0; op-- {
					if len(live) > 0 && rng.Intn(3) == 0 {
						k := rng.Intn(len(live))
						if err := tx.DeleteAnnotation(live[k]); err != nil {
							return err
						}
						live = slices.Delete(live, k, k+1)
						continue
					}
					b := note("n")
					for marks := 1 + rng.Intn(3); marks > 0; marks-- {
						if rng.Intn(3) == 0 {
							x, y := float64(rng.Intn(40)), float64(rng.Intn(40))
							b.Refer(regionMark("atlas", rtree.Rect2D(x, y, x+1+float64(rng.Intn(8)), y+1+float64(rng.Intn(8)))))
						} else {
							lo := int64(rng.Intn(40))
							b.Refer(intervalMark(domains[rng.Intn(len(domains))], lo, lo+1+int64(rng.Intn(8))))
						}
					}
					ann, err := tx.Commit(b)
					if err != nil {
						return err
					}
					live = append(live, ann.ID)
				}
				return nil
			}))
			v := s.View()
			if !spatialReadsMatchScan(t, v, domains) {
				return false
			}
			if session%3 == 0 {
				pinned = append(pinned, v)
			}
		}
		for _, v := range pinned {
			if !spatialReadsMatchScan(t, v, domains) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// spatialReadsMatchScan compares the view's index-backed reads with a scan
// of its referent table.
func spatialReadsMatchScan(t *testing.T, v *core.View, domains []string) bool {
	scan := func(keep func(*core.Referent) bool) []uint64 {
		var out []uint64
		v.ReferentsEach(func(r *core.Referent) bool {
			if keep(r) {
				out = append(out, r.ID)
			}
			return true
		})
		return out
	}
	ok := true
	expect := func(what string, got, want []uint64) {
		if !slices.Equal(got, want) {
			t.Errorf("epoch %d: %s = %v, scan says %v", v.Epoch(), what, got, want)
			ok = false
		}
	}
	var live []string
	for _, d := range domains {
		inDomain := func(r *core.Referent) bool { return r.Kind == core.IntervalReferent && r.Domain == d }
		size := len(scan(inDomain))
		if size > 0 {
			live = append(live, d)
		}
		if got := v.IntervalTreeSize(d); got != size {
			t.Errorf("epoch %d: IntervalTreeSize(%s) = %d, scan says %d", v.Epoch(), d, got, size)
			ok = false
		}
		for lo := int64(-2); lo < 50; lo += 5 {
			q := interval.Interval{Lo: lo, Hi: lo + 7}
			expect(fmt.Sprintf("ReferentsOverlapping(%s %v)", d, q),
				referentIDs(v.ReferentsOverlapping(subx.IntervalMark{Domain: d, IV: q})),
				scan(func(r *core.Referent) bool { return inDomain(r) && r.Interval.Overlaps(q) }))
			expect(fmt.Sprintf("ReferentsAt(%s, %d)", d, lo),
				referentIDs(v.ReferentsAt(d, lo)),
				scan(func(r *core.Referent) bool { return inDomain(r) && r.Interval.Lo <= lo && lo < r.Interval.Hi }))
		}
	}
	if got := v.IntervalDomains(); !slices.Equal(got, live) {
		t.Errorf("epoch %d: IntervalDomains = %v, scan says %v", v.Epoch(), got, live)
		ok = false
	}
	for x := 0.0; x < 50; x += 9 {
		for y := 0.0; y < 50; y += 9 {
			q := rtree.Rect2D(x, y, x+10, y+10)
			expect(fmt.Sprintf("RegionsOverlapping(%v)", q),
				referentIDs(v.RegionsOverlapping("atlas", q)),
				scan(func(r *core.Referent) bool { return r.Kind == core.RegionReferent && r.Region.Overlaps(q) }))
		}
	}
	return ok
}
