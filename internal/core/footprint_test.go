package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"

	"graphitti/internal/biodata/seq"
	"graphitti/internal/dublincore"
	"graphitti/internal/interval"
)

// The content document is the largest thing a server holds per
// annotation. These tests pin its cost — and what a store keeps and a scan
// allocates around it — as counts and sizes, which do not depend on the
// host. The shape throughout is the live benchmark's (bench/stream.go):
// creator, date, title, a one-phrase body and one interval mark.

// liveBytes returns the heap bytes still in use after a collection.
func liveBytes() uint64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}

// TestContentDocFootprint: 12 nodes and 8 attributes are a document, two
// slabs and one string of digits. As a pointer DOM they were 42 heap
// objects and 1,958 bytes.
func TestContentDocFootprint(t *testing.T) {
	dc := new(dublincore.Record)
	mustNoErr(t, dc.Add(dublincore.Creator, "gupta"))
	mustNoErr(t, dc.Set(dublincore.Date, "2008-04-07"))
	mustNoErr(t, dc.Set(dublincore.Title, "w0000042"))
	ref := &Referent{ID: 4217, Kind: IntervalReferent, ObjectType: TypeDNA, ObjectID: "seg3",
		Domain: "segment3", Interval: interval.Interval{Lo: 104211, Hi: 104290}}
	const body = "putative protease cleavage region gene0017"
	build := func() any {
		return buildContentDoc(10042, dc, body, nil, []*Referent{ref}, nil)
	}
	if doc := buildContentDoc(10042, dc, body, nil, []*Referent{ref}, nil); doc.Len() != 12 {
		t.Fatalf("the benchmark-shaped document has %d nodes, want 12:\n%s", doc.Len(), doc)
	}
	if allocs := testing.AllocsPerRun(200, func() { build() }); allocs > 5 {
		t.Errorf("building the document takes %.0f allocations, want at most 5", allocs)
	}
	const copies = 20000
	keep := make([]any, copies)
	before := liveBytes()
	for i := range keep {
		keep[i] = build()
	}
	per := float64(liveBytes()-before) / copies
	runtime.KeepAlive(keep)
	t.Logf("%.0f live bytes per document", per)
	if per > 960 {
		t.Errorf("a document keeps %.0f bytes live, want at most 960", per)
	}
}

// TestStoreFootprint: what one annotation costs a store that holds twenty
// thousand, everything counted — document, record, referent, index
// entries, a-graph nodes and edges. It was 4.04 KiB with
// the pointer DOM and 2.90 with the map-and-slice a-graph.
func TestStoreFootprint(t *testing.T) {
	if testing.Short() {
		t.Skip("commits 20k annotations")
	}
	const anns = 20000
	s := NewStore()
	for d := 1; d <= 8; d++ {
		sq, err := seq.New(fmt.Sprintf("seg%d", d), seq.DNA, strings.Repeat("ACGT", 64))
		mustNoErr(t, err)
		sq.Domain, sq.Offset = fmt.Sprintf("segment%d", d), 0
		mustNoErr(t, s.RegisterSequence(sq))
	}
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
	before := liveBytes()
	err := s.Batch(func(tx *Tx) error {
		for i := 0; i < anns; i++ {
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
	per := float64(liveBytes()-before) / anns / 1024
	if got := s.Stats().Annotations; got != anns {
		t.Fatalf("store holds %d annotations, want %d", got, anns)
	}
	t.Logf("%.2f KiB live per annotation", per)
	if per > 2.6 {
		t.Errorf("the store keeps %.2f KiB live per annotation, want at most 2.6", per)
	}
}

// TestScanAllocatesPerChunkNotPerDocument: a collection search walks every
// document's slab in one evaluation scratch per worker. The pointer-DOM
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
