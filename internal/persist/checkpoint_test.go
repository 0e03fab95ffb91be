package persist_test

import (
	"bytes"
	"io"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"graphitti/internal/biodata/imaging"
	"graphitti/internal/biodata/interact"
	"graphitti/internal/biodata/msa"
	"graphitti/internal/biodata/phylo"
	"graphitti/internal/biodata/seq"
	"graphitti/internal/core"
	"graphitti/internal/dublincore"
	"graphitti/internal/durable"
	"graphitti/internal/interval"
	"graphitti/internal/persist"
	"graphitti/internal/prop"
	"graphitti/internal/relstore"
	"graphitti/internal/rtree"
	"graphitti/internal/workload"
)

// writeCheckpoint writes the checkpoint of s as a compaction does: of its
// one view and the rules read beside it.
func writeCheckpoint(s *core.Store, w io.Writer) error {
	return persist.WriteCheckpoint([]*core.View{s.View()}, prop.RulesOf(s), w)
}

// must and check build the pinned store the way its generator
// (testdata/parent-27596f6/generate.go.txt) does, call for call; a failure
// there is a broken fixture, not a finding.
func must[T any](v T, err error) T {
	check(err)
	return v
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}

// pinnedStore holds both studies' object types, region and interval marks
// among the others, a repeated Dublin Core element, a "" value, tags,
// ontology terms, an ID gap and two rules.
func pinnedStore() *core.Store {
	s := core.NewStore()
	check(s.RegisterOntology(workload.EnzymeOntology()))
	check(s.RegisterOntology(workload.BrainOntology()))
	check(s.RegisterCoordinateSystem(must(imaging.NewCoordinateSystem("atlas", rtree.Rect2D(0, 0, 10_000, 10_000)))))
	im := must(imaging.NewImage("img-0", "atlas", rtree.Rect2D(0, 0, 1000, 1000), imaging.Identity(2)))
	im.Modality, im.Subject = "confocal", "mouse-7"
	check(s.RegisterImage(im))
	for i, kind := range []seq.Kind{seq.DNA, seq.RNA, seq.Protein} {
		residues := []string{"ACGT", "ACGU", "MKVL"}[i]
		sq := must(seq.New([]string{"seg-dna", "seg-rna", "prot"}[i], kind, strings.Repeat(residues, 16)))
		sq.Description, sq.Domain, sq.Offset = "fixture "+sq.ID, []string{"chr1", "", "prot"}[i], int64(100*i)
		check(s.RegisterSequence(sq))
	}
	check(s.RegisterAlignment(must(msa.New("aln", []string{"r1", "r2"}, []string{"AC-GT", "ACGGT"}))))
	check(s.RegisterTree(must(phylo.ParseNewick("tree", "((a:1,b:2):0.5,c:3);"))))
	g := interact.NewGraph("ppi")
	must(g.AddMolecule("P1", "polymerase", interact.ProteinMol))
	must(g.AddMolecule("P2", "protease", interact.ProteinMol))
	check(g.AddInteraction("P1", "P2", "binds", 0.5))
	check(s.RegisterInteractionGraph(g))
	check(s.CreateRecordTable(must(relstore.NewSchema("findings", "id",
		relstore.Column{Name: "id", Type: relstore.String},
		relstore.Column{Name: "score", Type: relstore.Float64, NotNull: true},
		relstore.Column{Name: "note", Type: relstore.String}))))
	check(s.InsertRecord("findings", relstore.Row{relstore.S("f-1"), relstore.F(0.25), relstore.Null}))
	check(s.InsertRecord("findings", relstore.Row{relstore.S("f-2"), relstore.F(-1), relstore.S("")}))

	v := s.View()
	region := must(v.MarkImageRegion("img-0", rtree.Rect2D(10, 10, 60, 60)))
	span := must(v.MarkSequenceInterval("seg-dna", interval.Interval{Lo: 5, Hi: 25}))
	must(s.Commit(s.NewAnnotation().Creator("martone").Date("2007-10-12").Title("region").
		Body("expression in the Deep Cerebellar nuclei").Tag("status", "reviewed").
		Refer(region).OntologyRef("nif", "deep-cerebellar-nuclei")))
	must(s.Commit(s.NewAnnotation().Creator("ma").Creator("lee").Date("2007-09-01").Title("").
		DCElement(dublincore.Subject, "s2", "s1").Body("protease <b>activity</b> & more").Tag("empty", "").Tag("k", "v").
		Refer(span).Refer(must(v.MarkDomainInterval("chr1", interval.Interval{Lo: 30, Hi: 31}))).
		OntologyRef("go", "protease").OntologyRef("nif", "deep-cerebellar-nuclei")))
	must(s.Commit(s.NewAnnotation().Creator("chen").Date("2007-09-02").DCElement(dublincore.Rights, "", "cc-by").
		Body("shared mark").Refer(must(v.MarkSequenceInterval("seg-dna", interval.Interval{Lo: 5, Hi: 25})))))
	deleted := must(s.Commit(s.NewAnnotation().Creator("gone").Date("2007-09-03").Body("deleted").Refer(region)))
	must(s.Commit(s.NewAnnotation().Creator("gupta").Date("2007-11-20").Body("every other kind").
		Refer(must(v.MarkClade("tree", "a", "b"))).
		Refer(must(v.MarkSubgraph("ppi", "P1", "P2"))).
		Refer(must(v.MarkAlignmentBlock("aln", []string{"r2", "r1"}, interval.Interval{Lo: 1, Hi: 3}))).
		Refer(must(v.MarkRecords("findings", relstore.S("f-2"), relstore.S("f-1")))).
		Refer(must(v.MarkObject(core.TypeRNA, "seg-rna"))).
		Refer(must(v.MarkObject(core.TypeProtein, "prot")))))
	check(s.DeleteAnnotation(deleted.ID))
	check(s.Batch(func(x *core.Tx) error {
		return prop.AddRules(x, prop.Rule{ID: "overlap-atlas", Edge: prop.EdgeOverlap, Domain: "atlas"},
			prop.Rule{ID: "closure-go", Keyword: "protease", Edge: prop.EdgeOntologyClosure, Ontology: "go",
				Relations: []string{"is_a"}})
	}))
	return s
}

// checkpointStores are the stores the persist tests build, by name.
func checkpointStores(t testing.TB) map[string]*core.Store {
	gaps := influenzaStore(t)
	for i, id := range annotationIDs(gaps.View()) {
		if i%3 == 1 {
			if err := gaps.DeleteAnnotation(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	return map[string]*core.Store{"influenza": influenzaStore(t), "neuro": neuroStore(t),
		"influenza with ID gaps": gaps, "pinned": pinnedStore()}
}

// TestCheckpointBytesPinned: the checkpoint of the pinned store is byte for
// byte the one the last build that wrote checkpoints from an exported
// snapshot wrote. Of every store the tests build, the checkpoint decodes
// to the snapshot Write exports, and every annotation's record written
// from the view is the record written from its dump.
func TestCheckpointBytesPinned(t *testing.T) {
	want, err := os.ReadFile("testdata/parent-27596f6/checkpoint.snap")
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := writeCheckpoint(pinnedStore(), &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("the pinned store's checkpoint is %d bytes that differ from the %d its parent build wrote", got.Len(), len(want))
	}

	for name, s := range checkpointStores(t) {
		var bin, js, again bytes.Buffer
		if err := writeCheckpoint(s, &bin); err != nil {
			t.Fatal(err)
		}
		if err := persist.Write(s, &js); err != nil {
			t.Fatal(err)
		}
		snap, err := persist.Decode(&bin)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := persist.WriteSnapshot(snap, &again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), js.Bytes()) {
			t.Errorf("%s: the checkpoint decodes to a snapshot other than the export", name)
		}

		v := s.View()
		for _, ann := range v.Annotations() {
			fromView, err := persist.AppendViewAnnotation(nil, v, ann)
			if err != nil {
				t.Fatalf("%s, annotation %d: %v", name, ann.ID, err)
			}
			dump, err := persist.DumpAnnotation(v, ann)
			if err != nil {
				t.Fatal(err)
			}
			if fromDump := persist.AppendAnnotation(nil, &dump); !bytes.Equal(fromView, fromDump) {
				t.Errorf("%s, annotation %d: written from the view\n%x\nfrom its dump\n%x", name, ann.ID, fromView, fromDump)
			}
		}
	}
}

// TestDCByNamePinned: the name-ordered code table is the code table, each
// element at its code, sorted by name.
func TestDCByNamePinned(t *testing.T) {
	names, codes := persist.DCByName()
	if !slices.IsSorted(names) || len(names) != len(persist.DCElements) {
		t.Fatalf("table %v is not the %d elements in name order", names, len(persist.DCElements))
	}
	for i, name := range names {
		if codes[i] == 0 || codes[i] > uint64(len(persist.DCElements)) || persist.DCElements[codes[i]-1] != name {
			t.Errorf("%s has code %d", name, codes[i])
		}
	}
}

// benchmarkShapedStore is workload.BenchmarkShaped's store of n
// annotations.
func benchmarkShapedStore(t testing.TB, n int) *core.Store {
	t.Helper()
	s, err := workload.BenchmarkShaped(n)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestCheckpointAllocations: what writing a checkpoint allocates is a
// count that does not grow with the store — the same for a thousand
// benchmark-shaped annotations as for ten thousand, and at most 32. The
// last build that wrote checkpoints from an exported snapshot took 120,037
// allocations at ten thousand. A compaction of a durable store that holds
// ten thousand allocates under 1 MiB in all.
func TestCheckpointAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("builds stores of 10k annotations")
	}
	counts := map[int]float64{}
	for _, n := range []int{1000, 10000} {
		s := benchmarkShapedStore(t, n)
		counts[n] = testing.AllocsPerRun(3, func() {
			if err := writeCheckpoint(s, io.Discard); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d allocations to write the checkpoint of %d annotations", int(counts[n]), n)
	}
	if counts[1000] != counts[10000] || counts[10000] > 32 {
		t.Errorf("a checkpoint of 1k annotations takes %.0f allocations and one of 10k %.0f, want the same and at most 32",
			counts[1000], counts[10000])
	}

	d, err := durable.Open(t.TempDir(), durable.Options{NoSync: true, CompactThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if _, err := d.Restore(exportOf(t, benchmarkShapedStore(t, 10000))); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := d.Compact(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	total := after.TotalAlloc - before.TotalAlloc
	t.Logf("a compaction of 10k annotations allocates %d bytes", total)
	if total >= 1<<20 {
		t.Errorf("a compaction of 10k annotations allocates %d bytes, want under 1 MiB", total)
	}
}
