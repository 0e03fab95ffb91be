package core

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"graphitti/internal/biodata/imaging"
	"graphitti/internal/biodata/msa"
	"graphitti/internal/biodata/seq"
	"graphitti/internal/interval"
	"graphitti/internal/ontology"
	"graphitti/internal/relstore"
	"graphitti/internal/rtree"
)

// TestRegistryNamespaces pins what the view's registries keep apart and
// what they merge: DNA, RNA and protein sequences share one ID namespace
// and list merged in ID order; MarkDomainInterval picks the least
// covering ID whatever the alphabet, allocating nothing but the referent
// it returns; ontologies, coordinate systems, images and sequences are
// namespaces of their own; and a view pinned before a batch of
// registrations sees none of them while one pinned after sees them all.
func TestRegistryNamespaces(t *testing.T) {
	s := NewStore()
	// On chr1: s1 DNA [0,4), s2 protein [4,12), s3 DNA [8,16), s4 protein
	// [8,16); s0 is RNA, its own domain.
	sequence := func(id string, k seq.Kind, residues string, offset int64) *seq.Sequence {
		sq, err := seq.New(id, k, residues)
		mustNoErr(t, err)
		if k != seq.RNA {
			sq.Domain, sq.Offset = "chr1", offset
		}
		return sq
	}
	before := s.View()
	mustNoErr(t, s.Batch(func(x *Tx) error {
		for _, sq := range []*seq.Sequence{
			sequence("s3", seq.DNA, "ACGTACGT", 8),
			sequence("s0", seq.RNA, "ACGU", 0),
			sequence("s4", seq.Protein, "MKVAMKVA", 8),
			sequence("s1", seq.DNA, "ACGT", 0),
			sequence("s2", seq.Protein, "MKVAMKVA", 4),
		} {
			if err := x.RegisterSequence(sq); err != nil {
				return err
			}
		}
		return nil
	}))
	after := s.View()

	if got := before.SequenceIDs(); len(got) != 0 || before.Stats().Sequences != 0 || len(before.ObjectList()) != 0 {
		t.Fatalf("view pinned before the batch sees %v", got)
	}
	if _, _, err := before.Sequence("s1"); !errors.Is(err, ErrNoSuchObject) {
		t.Fatalf("view pinned before the batch: Sequence(s1) = %v", err)
	}
	if got, want := after.SequenceIDs(), []string{"s0", "s1", "s2", "s3", "s4"}; !slices.Equal(got, want) {
		t.Fatalf("SequenceIDs = %v, want %v", got, want)
	}
	if n := after.Stats().Sequences; n != 5 {
		t.Fatalf("Stats().Sequences = %d, want 5", n)
	}
	for _, tc := range []struct {
		lo, hi int64
		owner  string
		typ    ObjectType
	}{
		{0, 1, "s1", TypeDNA},
		{9, 10, "s2", TypeProtein}, // s2, s3 and s4 cover it
		{12, 13, "s3", TypeDNA},    // s3 and s4 cover it
	} {
		r, err := after.MarkDomainInterval("chr1", interval.Interval{Lo: tc.lo, Hi: tc.hi})
		mustNoErr(t, err)
		if r.ObjectID != tc.owner || r.ObjectType != tc.typ {
			t.Errorf("MarkDomainInterval(chr1 [%d,%d)) owned by %s %s, want %s %s",
				tc.lo, tc.hi, r.ObjectType, r.ObjectID, tc.typ, tc.owner)
		}
	}
	if _, err := after.MarkDomainInterval("chr1", interval.Interval{Lo: 20, Hi: 21}); !errors.Is(err, ErrBadMark) {
		t.Fatalf("uncovered span: %v", err)
	}
	mark := func() { _, _ = after.MarkDomainInterval("chr1", interval.Interval{Lo: 9, Hi: 10}) }
	if n := testing.AllocsPerRun(100, mark); n != 1 {
		t.Errorf("MarkDomainInterval allocates %.0f times, want 1 (its referent)", n)
	}
	if err := s.RegisterSequence(sequence("s1", seq.Protein, "MK", 0)); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("protein with a DNA sequence's ID: %v", err)
	}

	// One name, four namespaces.
	cs, err := imaging.NewCoordinateSystem("atlas", rtree.Rect2D(0, 0, 100, 100))
	mustNoErr(t, err)
	im, err := imaging.NewImage("atlas", "atlas", rtree.Rect2D(0, 0, 10, 10), imaging.Identity(2))
	mustNoErr(t, err)
	mustNoErr(t, s.RegisterOntology(ontology.New("atlas")))
	mustNoErr(t, s.RegisterCoordinateSystem(cs))
	mustNoErr(t, s.RegisterImage(im))
	mustNoErr(t, s.RegisterSequence(sequence("atlas", seq.DNA, "ACGT", 0)))
	v := s.View()
	if st := v.Stats(); st.Ontologies != 1 || st.Images != 1 || st.Sequences != 6 || st.RTrees != 1 {
		t.Fatalf("stats after one name in four namespaces: %+v", st)
	}
	if !slices.Equal(v.Ontologies(), []string{"atlas"}) || !slices.Equal(v.CoordinateSystems(), []string{"atlas"}) ||
		!slices.Equal(v.Images(), []string{"atlas"}) {
		t.Fatalf("ontologies %v, systems %v, images %v", v.Ontologies(), v.CoordinateSystems(), v.Images())
	}
}

// TestRepeatedKeysMarkOneReferent: a block given a row twice and a record
// set given a key twice are the block and the set given each once, so
// two annotations that mark them share one stored referent.
func TestRepeatedKeysMarkOneReferent(t *testing.T) {
	s := newDemoStore(t)
	v := s.View()
	cols := interval.Interval{Lo: 2, Hi: 6}
	goose := relstore.S("A/goose/1996")
	pairs := [][2]func() (*Referent, error){
		{
			func() (*Referent, error) { return v.MarkAlignmentBlock("HA-aln", []string{"NC_007362"}, cols) },
			func() (*Referent, error) {
				return v.MarkAlignmentBlock("HA-aln", []string{"NC_007362", "NC_007362"}, cols)
			},
		},
		{
			func() (*Referent, error) { return v.MarkRecords("isolates", goose) },
			func() (*Referent, error) { return v.MarkRecords("isolates", goose, goose) },
		},
	}
	before := v.Stats().Referents
	for _, pair := range pairs {
		var ids [2]uint64
		for i, mark := range pair {
			r, err := mark()
			mustNoErr(t, err)
			ann, err := s.Commit(s.NewAnnotation().Creator("a").Date("2008-01-01").Refer(r))
			mustNoErr(t, err)
			for id := range ann.ReferentIDs {
				ids[i] = id
			}
		}
		if ids[0] != ids[1] {
			t.Errorf("one sub-structure, two referents: %d and %d", ids[0], ids[1])
		}
	}
	if got := s.View().Stats().Referents - before; got != len(pairs) {
		t.Fatalf("%d referents stored for %d sub-structures", got, len(pairs))
	}
}

// TestDistinctMarksDistinctReferents: a mark's identity is each of its
// fields and keys whole, whatever characters they hold. A block over the
// one row "a,b" is not the block over rows a and b, a record set keyed
// "x,y" is not the set of x and y, and the interval of sequence "s|t"
// in domain "u" is not the same interval of sequence "s" in domain "t|u".
// Each mark committed gets a referent of its own, holding the keys it
// was marked with.
func TestDistinctMarksDistinctReferents(t *testing.T) {
	s := NewStore()
	aln, err := msa.New("commas", []string{"a,b", "a", "b"}, []string{"ACGT", "ACGT", "ACGT"})
	mustNoErr(t, err)
	mustNoErr(t, s.RegisterAlignment(aln))
	mustNoErr(t, s.CreateRecordTable(relstore.MustSchema("pairs", "k",
		relstore.Column{Name: "k", Type: relstore.String})))
	for _, k := range []string{"x,y", "x", "y"} {
		mustNoErr(t, s.InsertRecord("pairs", relstore.Row{relstore.S(k)}))
	}
	for _, ids := range [][2]string{{"s|t", "u"}, {"s", "t|u"}} {
		sq, err := seq.New(ids[0], seq.DNA, "ACGT")
		mustNoErr(t, err)
		sq.Domain = ids[1]
		mustNoErr(t, s.RegisterSequence(sq))
	}
	v := s.View()
	cols := interval.Interval{Lo: 0, Hi: 2}
	marks := []func() (*Referent, error){
		func() (*Referent, error) { return v.MarkAlignmentBlock("commas", []string{"a,b"}, cols) },
		func() (*Referent, error) { return v.MarkAlignmentBlock("commas", []string{"a", "b"}, cols) },
		func() (*Referent, error) { return v.MarkAlignmentBlock("commas", []string{"a"}, cols) },
		func() (*Referent, error) { return v.MarkRecords("pairs", relstore.S("x,y")) },
		func() (*Referent, error) { return v.MarkRecords("pairs", relstore.S("x"), relstore.S("y")) },
		func() (*Referent, error) { return v.MarkRecords("pairs", relstore.S("y")) },
		func() (*Referent, error) { return v.MarkSequenceInterval("s|t", cols) },
		func() (*Referent, error) { return v.MarkSequenceInterval("s", cols) },
	}
	seen := map[uint64]int{}
	for i, mark := range marks {
		r, err := mark()
		mustNoErr(t, err)
		ann, err := s.Commit(s.NewAnnotation().Creator("a").Date("2008-01-01").Refer(r))
		mustNoErr(t, err)
		for id := range ann.ReferentIDs {
			if j, ok := seen[id]; ok {
				t.Errorf("marks %d and %d share referent %d", j, i, id)
			}
			seen[id] = i
			stored, err := s.View().Referent(id)
			mustNoErr(t, err)
			if !slices.Equal(stored.Keys, r.Keys) || stored.ObjectID != r.ObjectID || stored.Domain != r.Domain {
				t.Errorf("mark %d: stored referent %v, marked %v", i, stored, r)
			}
		}
	}
	if got := s.View().Stats().Referents; got != len(marks) {
		t.Fatalf("%d referents stored for %d distinct marks", got, len(marks))
	}
}

// TestRegisterCostFlat: what a registration allocates does not grow with
// the registry. Stores of 1,000 and of 16,000 sequences, each registered
// in one Batch, take 64 more, one session each; per registration, the
// larger store allocates at most registerAllocSlack objects and
// registerByteSlack bytes more than the smaller one. The margins cover
// the deeper trie paths a registration copies at 16k and the a-graph's
// longer chunk spine. When a registration cloned its kind's Go map and
// its sorted ID list, it was 26 allocations and 192 KiB at 1k against
// 148 and 2.8 MiB at 16k.
func TestRegisterCostFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation counts over 17k registrations")
	}
	const (
		more               = 64
		registerAllocSlack = 8
		registerByteSlack  = 2048
	)
	cost := func(n int) (allocs, bytes float64) {
		seqs := make([]*seq.Sequence, n+more)
		for i := range seqs {
			sq, err := seq.New(fmt.Sprintf("s%06d", i), seq.DNA, "ACGT")
			mustNoErr(t, err)
			seqs[i] = sq
		}
		s := NewStore()
		mustNoErr(t, s.Batch(func(x *Tx) error {
			for _, sq := range seqs[:n] {
				if err := x.RegisterSequence(sq); err != nil {
					return err
				}
			}
			return nil
		}))
		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		for _, sq := range seqs[n:] {
			mustNoErr(t, s.RegisterSequence(sq))
		}
		runtime.ReadMemStats(&m1)
		return float64(m1.Mallocs-m0.Mallocs) / more, float64(m1.TotalAlloc-m0.TotalAlloc) / more
	}
	smallAllocs, smallBytes := cost(1000)
	largeAllocs, largeBytes := cost(16000)
	t.Logf("per registration: %.1f allocations, %.0f B at 1k; %.1f allocations, %.0f B at 16k",
		smallAllocs, smallBytes, largeAllocs, largeBytes)
	if largeAllocs > smallAllocs+registerAllocSlack {
		t.Errorf("a registration at 16k allocates %.1f times, at 1k %.1f: more than %d apart",
			largeAllocs, smallAllocs, registerAllocSlack)
	}
	if largeBytes > smallBytes+registerByteSlack {
		t.Errorf("a registration at 16k allocates %.0f B, at 1k %.0f B: more than %d apart",
			largeBytes, smallBytes, registerByteSlack)
	}
}

// TestRegistryReadersUnderRegistrations: readers pin views and read the
// registries (Sequence, Image, ObjectList, Ontologies, Stats) while one
// writer registers objects in sessions of one to four registrations. A
// session edits its registry maps in place, on nodes no published view
// holds; every reader's answers, and a kept view's answers at the end,
// equal the registrations its view's epoch covers.
func TestRegistryReadersUnderRegistrations(t *testing.T) {
	const total = 240
	s := NewStore()
	cs, err := imaging.NewCoordinateSystem("atlas", rtree.Rect2D(0, 0, 100, 100))
	mustNoErr(t, err)
	mustNoErr(t, s.RegisterCoordinateSystem(cs)) // epoch 1; registration i is epoch i+2

	// Registration i is a sequence, an image or an ontology by i mod 3.
	name := func(i int) string { return fmt.Sprintf("o%03d", i) }
	register := func(x *Tx, i int) error {
		switch i % 3 {
		case 0:
			sq, err := seq.New(name(i), seq.DNA, "ACGT")
			if err != nil {
				return err
			}
			return x.RegisterSequence(sq)
		case 1:
			im, err := imaging.NewImage(name(i), "atlas", rtree.Rect2D(0, 0, 10, 10), imaging.Identity(2))
			if err != nil {
				return err
			}
			return x.RegisterImage(im)
		}
		return x.RegisterOntology(ontology.New(name(i)))
	}
	check := func(v *View) error {
		n := int(v.Epoch()) - 1 // registrations the view covers
		var seqs, images []ObjectHandle
		var onts []string
		for i := range n {
			switch i % 3 {
			case 0:
				seqs = append(seqs, ObjectHandle{TypeDNA, name(i)})
			case 1:
				images = append(images, ObjectHandle{TypeImage, name(i)})
			default:
				onts = append(onts, name(i))
			}
		}
		if st := v.Stats(); st.Sequences != len(seqs) || st.Images != len(images) || st.Ontologies != len(onts) {
			return fmt.Errorf("epoch %d: stats %+v, want %d sequences, %d images, %d ontologies",
				v.Epoch(), st, len(seqs), len(images), len(onts))
		}
		if got := v.Ontologies(); !slices.Equal(got, onts) {
			return fmt.Errorf("epoch %d: Ontologies = %v, want %v", v.Epoch(), got, onts)
		}
		if got, want := v.ObjectList(), append(seqs, images...); !slices.Equal(got, want) {
			return fmt.Errorf("epoch %d: ObjectList = %v, want %v", v.Epoch(), got, want)
		}
		for i := max(n-3, 0); i <= n; i++ { // the newest of each kind and the next one
			_, _, serr := v.Sequence(name(i))
			_, ierr := v.Image(name(i))
			if (serr == nil) != (i < n && i%3 == 0) || (ierr == nil) != (i < n && i%3 == 1) {
				return fmt.Errorf("epoch %d: %s: Sequence %v, Image %v", v.Epoch(), name(i), serr, ierr)
			}
		}
		return nil
	}

	// The writer waits for a read after each session, so reads land
	// between all of them.
	var done, failed atomic.Bool
	var reads atomic.Int64
	var wg sync.WaitGroup
	kept := make([][]*View, 4)
	for r := range kept {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !done.Load() {
				v := s.View()
				if err := check(v); err != nil {
					t.Error(err)
					failed.Store(true)
					return
				}
				if reads.Add(1)%16 == 0 {
					kept[r] = append(kept[r], v)
				}
			}
		}()
	}
	for i, session := 0, 0; i < total && !failed.Load(); session++ {
		size := min(1+session%4, total-i)
		mustNoErr(t, s.Batch(func(x *Tx) error {
			for j := range size {
				if err := register(x, i+j); err != nil {
					return err
				}
			}
			return nil
		}))
		i += size
		for last := reads.Load(); reads.Load() == last && !failed.Load(); {
			runtime.Gosched()
		}
	}
	done.Store(true)
	wg.Wait()
	for _, vs := range append(kept, []*View{s.View()}) {
		for _, v := range vs {
			if err := check(v); err != nil {
				t.Fatalf("after the writer: %v", err)
			}
		}
	}
}
