package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"graphitti/internal/biodata/seq"
	"graphitti/internal/interval"
	"graphitti/internal/xmldoc"
)

// The content document is the largest thing a server holds per
// annotation. These tests pin its cost — and what a store keeps and a scan
// allocates around it — as counts and sizes, which do not depend on the
// host. The shape throughout is the live benchmark's (bench/stream.go):
// creator, date, title, a one-phrase body and one interval mark.

// liveBytes returns the heap bytes still in use once a collection frees
// nothing more. A collection that frees a document's shape queues the
// cleanup that drops its intern table entry, and only a later one frees
// what the entry held: a test that left unique shapes behind must not
// have them freed inside the next test's measurement.
func liveBytes() uint64 {
	var m runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m)
	for {
		last := m.HeapAlloc
		time.Sleep(time.Millisecond)
		runtime.GC()
		runtime.ReadMemStats(&m)
		if m.HeapAlloc >= last {
			return m.HeapAlloc
		}
	}
}

// TestContentDocFootprint: a document of the benchmark's shape is a
// header and one value block, its 12 values' bytes and a 2-byte end offset
// for each; the 12 nodes and 8 attributes are a shape it shares. As a
// pointer DOM it was 42 heap objects and 1,958 bytes, 726 bytes while
// every document held its own structure, and 264 while its values were 12
// string headers, the strings they pointed to and the string of digits the
// decimal ones were cut from.
func TestContentDocFootprint(t *testing.T) {
	builder := func() *Builder {
		return NewBuilder().Creator("gupta").Date("2008-04-07").Title("w0000042").
			Body("putative protease cleavage region gene0017")
	}
	ref := &Referent{ID: 4217, Kind: IntervalReferent, ObjectType: TypeDNA, ObjectID: "seg3",
		Domain: "segment3", Interval: interval.Interval{Lo: 104211, Hi: 104290}}
	b := builder()
	shared := func(int) any {
		return buildContentDoc(10042, b, []*Referent{ref})
	}
	doc := buildContentDoc(10042, b, []*Referent{ref})
	if doc.Len() != 12 || doc.Root.Slots().Len() != 12 {
		t.Fatalf("the benchmark-shaped document has %d nodes and %d values, want 12 of each:\n%s",
			doc.Len(), doc.Root.Slots().Len(), doc)
	}
	block := 0
	for v := range doc.Root.Slots().All {
		block += len(v) + 2
	}
	// The header (40 bytes) and the block each take a size class; under
	// 256 bytes the classes are 16 bytes apart.
	want := float64(48 + (block+15)/16*16)
	if allocs := testing.AllocsPerRun(200, func() { shared(0) }); allocs > 3 && !raceEnabled {
		t.Errorf("building the document takes %.0f allocations, want at most 3 (header, value block, "+
			"and the digits the decimal values are cut from, garbage once the block holds them)", allocs)
	}
	perDoc := func(build func(i int) any) float64 {
		const copies = 20000
		keep := make([]any, copies)
		before := liveBytes()
		for i := range keep {
			keep[i] = build(i)
		}
		per := float64(liveBytes()-before) / copies
		runtime.KeepAlive(keep)
		return per
	}
	per := perDoc(shared)
	t.Logf("%.0f live bytes per document of a shared shape (a %d-byte value block)", per, block)
	if per > want*1.02 {
		t.Errorf("a document keeps %.0f bytes live, want a header and a value block, %.0f", per, want)
	}
	// A tag name no other document has makes a shape of its own, which its
	// document pays for whole: the tables, the encoding, the intern entry.
	// That stays within what a document cost before shapes were shared.
	per = perDoc(func(i int) any {
		return buildContentDoc(10042, builder().Tag(fmt.Sprintf("t%06d", i), "x"), []*Referent{ref})
	})
	t.Logf("%.0f live bytes per document of a shape of its own", per)
	if per > 960 {
		t.Errorf("a document of a unique shape keeps %.0f bytes live, want at most 960", per)
	}
}

// benchmarkStore returns a store holding the eight segments the live
// benchmark marks.
func benchmarkStore(t *testing.T) *Store {
	t.Helper()
	s := NewStore()
	for d := 1; d <= 8; d++ {
		sq, err := seq.New(fmt.Sprintf("seg%d", d), seq.DNA, strings.Repeat("ACGT", 64))
		mustNoErr(t, err)
		sq.Domain, sq.Offset = fmt.Sprintf("segment%d", d), 0
		mustNoErr(t, s.RegisterSequence(sq))
	}
	return s
}

// commitBenchmarkShaped commits n annotations of the live benchmark's
// shape to s in one batch: four creators, one date, a unique title, a
// phrase and a Zipf-drawn token for a body, and one interval mark in a
// Zipf-drawn segment.
func commitBenchmarkShaped(t *testing.T, s *Store, n int) {
	t.Helper()
	creators := []string{"gupta", "condit", "martone", "chen"}
	phrases := []string{
		"conserved motif near the polymerase binding site", "putative protease cleavage region",
		"high mutation density in this window", "binding footprint confirmed by pulldown",
		"kinase activity suspected", "glycosylation site shifts between isolates",
		"reassortment breakpoint candidate", "host adaptation marker reported in poultry",
	}
	rng := rand.New(rand.NewSource(1))
	token := rand.NewZipf(rng, 1.1, 8, 1999)
	domain := rand.NewZipf(rng, 1.2, 1, 7)
	err := s.Batch(func(tx *Tx) error {
		for i := 0; i < n; i++ {
			lo := rng.Int63n(200000 - 100)
			m := &Referent{Kind: IntervalReferent, ObjectType: TypeDNA,
				Interval: interval.Interval{Lo: lo, Hi: lo + 20 + rng.Int63n(80)}}
			m.ObjectID = fmt.Sprintf("seg%d", domain.Uint64()+1)
			m.Domain = "segment" + m.ObjectID[3:]
			b := NewBuilder().Creator(creators[rng.Intn(len(creators))]).Date("2008-04-07").
				Title(fmt.Sprintf("p%07d", i)).
				Body(fmt.Sprintf("%s gene%04d", phrases[rng.Intn(len(phrases))], token.Uint64())).Refer(m)
			if _, err := tx.Commit(b); err != nil {
				return err
			}
		}
		return nil
	})
	mustNoErr(t, err)
	if got := s.Stats().Annotations; got != n {
		t.Fatalf("store holds %d annotations, want %d", got, n)
	}
}

// TestStoreFootprint: what one annotation costs a store that holds twenty
// thousand, everything counted — document, referent, index entries,
// a-graph nodes and edges. It was 4.04 KiB with the pointer DOM, 2.90 with
// the map-and-slice a-graph, 2.42 while every document held its own
// structure, 1.97 while every annotation kept a Dublin Core record beside
// its document, 1.74 while every persistent map boxed each entry and a
// posting list of one ID had an array of its own, 1.42 while an a-graph
// node was 152 bytes and carried its key as a decimal string, and 1.20
// while a document's values were a slice of strings and an annotation and
// a stored referent were 72 and 160 bytes.
func TestStoreFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("commits 20k annotations")
	}
	const anns = 20000
	s := benchmarkStore(t)
	before := liveBytes()
	commitBenchmarkShaped(t, s, anns)
	per := float64(liveBytes()-before) / anns / 1024
	t.Logf("%.3f KiB live per annotation", per)
	if per > 0.99 {
		t.Errorf("the store keeps %.3f KiB live per annotation, want at most 0.99", per)
	}
	runtime.KeepAlive(s)
}

// TestAnnotationRecordSizes: what a committed annotation and its stored
// referent cost besides the document's value block. An annotation is its
// ID, its document and the Dublin Core view of it; the referents and
// ontology references are read from the document. Only a region mark
// pays for a rectangle.
func TestAnnotationRecordSizes(t *testing.T) {
	if size := unsafe.Sizeof(Annotation{}); size != 24 {
		t.Errorf("an annotation is %d bytes, want 24", size)
	}
	if size := unsafe.Sizeof(Referent{}); size > 112 {
		t.Errorf("a stored referent is %d bytes, want at most 112", size)
	}
	if size := unsafe.Sizeof(xmldoc.Document{}); size > 48 {
		t.Errorf("a document header is %d bytes, want at most 48", size)
	}
}

// TestDocumentsShareShape: the documents of ten thousand benchmark-shaped
// commits — every creator, title, body and mark different — hold one shape
// between them.
func TestDocumentsShareShape(t *testing.T) {
	const anns = 10000
	s := benchmarkStore(t)
	commitBenchmarkShaped(t, s, anns)
	// A memo derives once per shape, so each shape gets its own pointer.
	shape := xmldoc.NewShapeMemo(func(*xmldoc.Document) *int { return new(int) })
	all := s.View().Annotations()
	for _, ann := range all[1:] {
		if shape.Get(all[0].Content) != shape.Get(ann.Content) {
			t.Fatalf("annotation %d has a shape of its own:\n%s\nannotation %d:\n%s",
				ann.ID, ann.Content, all[0].ID, all[0].Content)
		}
	}
}

// TestScanAllocatesPerChunkNotPerDocument: a collection search walks every
// document in one evaluation scratch per worker. The pointer-DOM
// evaluator allocated six objects per document looked at.
func TestScanAllocatesPerChunkNotPerDocument(t *testing.T) {
	const docs = 5000
	s := seqStore(t, docs)
	v := s.View()
	var hits int
	allocs := testing.AllocsPerRun(5, func() {
		got, err := v.SearchContents(`contains(/annotation/body, "x")`)
		mustNoErr(t, err)
		hits = len(got)
	})
	if hits != 0 {
		t.Fatalf("%d hits: the fixture's bodies hold no x", hits)
	}
	t.Logf("%.0f allocations per scan of %d documents", allocs, docs)
	if allocs > 2*docs {
		t.Errorf("a scan of %d documents allocates %.0f objects, want at most %d", docs, allocs, 2*docs)
	}
}

// TestJoinKeys holds joinKeys to the output of the loop it replaced, which
// appended key by key with += (quadratic in the size of a block's or key
// set's mark).
func TestJoinKeys(t *testing.T) {
	concat := func(keys []string) string {
		sorted := slices.Clone(keys)
		slices.Sort(sorted)
		out := ""
		for i, k := range sorted {
			if i > 0 {
				out += ","
			}
			out += k
		}
		return out
	}
	many := make([]string, 200)
	for i := range many {
		many[i] = fmt.Sprintf("row%03d", (i*37)%200)
	}
	for _, keys := range [][]string{nil, {}, {"only"}, {"b", "a"}, {"x", "", "x"}, many} {
		given := slices.Clone(keys)
		if got, want := joinKeys(keys), concat(keys); got != want {
			t.Errorf("joinKeys(%d keys) = %q, want %q", len(keys), got, want)
		}
		if !slices.Equal(keys, given) {
			t.Errorf("joinKeys reordered its argument: %q", keys)
		}
	}
	if got := joinKeys(many); !strings.HasPrefix(got, "row000,row001,") || strings.Count(got, ",") != 199 {
		t.Errorf("joinKeys(200 keys) = %q…", got[:20])
	}
}
