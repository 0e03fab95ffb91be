package persist_test

import (
	"bytes"
	"compress/flate"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
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
	return persist.WriteCheckpoint([]*core.View{s.View()}, w)
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

// update rewrites the pinned checkpoint under testdata.
var update = flag.Bool("update", false, "rewrite testdata/deflate-stream/checkpoint.snap")

// TestCheckpointBytesPinned: the checkpoint of the pinned store is byte for
// byte the one pinned under testdata/deflate-stream, and its body, the
// bytes its DEFLATE stream inflates to, is byte for byte the body of the
// one the last build that wrote checkpoints from an exported snapshot
// wrote (which deflated it with compress/flate). Of every store the tests
// build, the checkpoint decodes to the snapshot Write exports, and every
// annotation's record written from the view is the record written from
// its dump.
func TestCheckpointBytesPinned(t *testing.T) {
	var got bytes.Buffer
	if err := writeCheckpoint(pinnedStore(), &got); err != nil {
		t.Fatal(err)
	}
	const pinned = "testdata/deflate-stream/checkpoint.snap"
	if *update {
		if err := os.WriteFile(pinned, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(pinned)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("the pinned store's checkpoint is %d bytes that differ from the %d pinned", got.Len(), len(want))
	}
	parent, err := os.ReadFile("testdata/parent-27596f6/checkpoint.snap")
	if err != nil {
		t.Fatal(err)
	}
	gotBody, _ := checkpointBody(t, got.Bytes())
	if wantBody, _ := checkpointBody(t, parent); !bytes.Equal(gotBody, wantBody) {
		t.Errorf("the pinned store's checkpoint body is %d bytes that differ from the %d its parent build's inflates to",
			len(gotBody), len(wantBody))
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

// checkpointBody is the body a format-2 checkpoint's DEFLATE stream
// inflates to, and that stream.
func checkpointBody(t testing.TB, file []byte) (body, stream []byte) {
	t.Helper()
	const head = len("GSNAP\x02")
	if len(file) < head+4 || string(file[:head]) != "GSNAP\x02" {
		t.Fatalf("a checkpoint of %d bytes is no format-2 one", len(file))
	}
	stream = file[head : len(file)-4]
	body, err := io.ReadAll(flate.NewReader(bytes.NewReader(stream)))
	if err != nil {
		t.Fatal(err)
	}
	return body, stream
}

// TestCheckpointSizeParity: the checkpoint of ten thousand
// benchmark-shaped annotations takes at most 19.8 bytes per annotation,
// and its DEFLATE stream at most 0.1% more than compress/flate level 5
// writes for the same body. The last build that deflated checkpoints with
// compress/flate at BestSpeed wrote 224,904 bytes, 22.49 per annotation.
func TestCheckpointSizeParity(t *testing.T) {
	const n = 10000
	var file bytes.Buffer
	if err := writeCheckpoint(benchmarkShapedStore(t, n), &file); err != nil {
		t.Fatal(err)
	}
	body, stream := checkpointBody(t, file.Bytes())
	var oracle bytes.Buffer
	zw, _ := flate.NewWriter(&oracle, 5)
	zw.Write(body)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	perAnn := float64(file.Len()) / n
	t.Logf("a %d-byte body: a %d-byte checkpoint (%.2f B/annotation), its stream %d bytes, compress/flate level 5's %d (%+.3f%%)",
		len(body), file.Len(), perAnn, len(stream), oracle.Len(), 100*(float64(len(stream))/float64(oracle.Len())-1))
	if float64(len(stream)) > 1.001*float64(oracle.Len()) {
		t.Errorf("the checkpoint's stream is %d bytes, want at most 1.001 × compress/flate level 5's %d", len(stream), oracle.Len())
	}
	if perAnn > 19.8 {
		t.Errorf("the checkpoint takes %.2f bytes per annotation, want at most 19.8", perAnn)
	}
}

// BenchmarkWriteCheckpoint writes the checkpoint of ten thousand
// benchmark-shaped annotations, what a compaction of the benchmark's
// durable store writes under durable.Store's lock.
func BenchmarkWriteCheckpoint(b *testing.B) {
	s := benchmarkShapedStore(b, 10000)
	b.ReportAllocs()
	for b.Loop() {
		if err := writeCheckpoint(s, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// firstCheckpointEnv makes TestCheckpointAllocations, in the process it
// starts, write one checkpoint and print what it allocated.
const firstCheckpointEnv = "GRAPHITTI_FIRST_CHECKPOINT"

// checkpointAllocBytes is what write, which writes a checkpoint,
// allocates.
func checkpointAllocBytes(t *testing.T, write func() error) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := write(); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCheckpointAllocations: what writing a checkpoint allocates is a
// count that does not grow with the store — the same for a thousand
// benchmark-shaped annotations as for ten thousand, and at most 32. The
// last build that wrote checkpoints from an exported snapshot took 120,037
// allocations at ten thousand. The first checkpoint a process writes, of
// ten thousand, and a compaction of a durable store that holds ten
// thousand each allocate under 512 KiB in all: a checkpoint makes its own
// encoder and keeps nothing after it. The last build with a compress/flate
// writer allocated 1.2 MB for its first.
func TestCheckpointAllocations(t *testing.T) {
	if testing.Short() {
		t.Skip("builds stores of 10k annotations")
	}
	const limit = 512 << 10
	if os.Getenv(firstCheckpointEnv) != "" {
		s := benchmarkShapedStore(t, 10000)
		fmt.Printf("first checkpoint allocates %d bytes\n", checkpointAllocBytes(t, func() error { return writeCheckpoint(s, io.Discard) }))
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestCheckpointAllocations$")
	cmd.Env = append(os.Environ(), firstCheckpointEnv+"=1")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("the child process: %v\n%s", err, out)
	}
	var first uint64
	if _, err := fmt.Sscanf(string(out), "first checkpoint allocates %d bytes", &first); err != nil {
		t.Fatalf("the child process printed %q: %v", out, err)
	}
	t.Logf("the first checkpoint of 10k annotations in a process allocates %d bytes", first)
	if first >= limit {
		t.Errorf("the first checkpoint of 10k annotations in a process allocates %d bytes, want under 512 KiB", first)
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
	total := checkpointAllocBytes(t, d.Compact)
	t.Logf("a compaction of 10k annotations allocates %d bytes", total)
	if total >= limit {
		t.Errorf("a compaction of 10k annotations allocates %d bytes, want under 512 KiB", total)
	}
}
