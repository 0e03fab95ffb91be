package durable

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphitti/internal/biodata/imaging"
	"graphitti/internal/biodata/interact"
	"graphitti/internal/biodata/msa"
	"graphitti/internal/biodata/phylo"
	"graphitti/internal/biodata/seq"
	"graphitti/internal/core"
	"graphitti/internal/interval"
	"graphitti/internal/persist"
	"graphitti/internal/prop"
	"graphitti/internal/relstore"
	"graphitti/internal/rtree"
	"graphitti/internal/wal"
	"graphitti/internal/workload"
)

// parentFixture is a data directory (snapshot + manifest + WAL) and the
// persist.Write export of its state, written by commit ebbf488 — the
// last one whose durable.Store had a method per mutation kind and its own
// record type — through each of those thirteen methods
// (testdata/parent-ebbf488/generate.go.txt is the program). The WAL holds
// a record of every kind after one compaction.
const parentFixture = "testdata/parent-ebbf488"

// must and check fail the op list the way the generator's did, so the two
// lists read alike.
func must[T any](v T, err error) T {
	check(err)
	return v
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}

// fixtureSteps is the generator's op list, call for call, with each
// registration spelled Apply(persist.…Op(x)) where the generator called
// the Register*/CreateRecordTable/InsertRecord method of the time.
func fixtureSteps(s *Store) {
	image := func(id, system string) *imaging.Image {
		im := must(imaging.NewImage(id, system, rtree.Rect2D(0, 0, 1000, 1000), imaging.Identity(2)))
		im.Modality = "confocal"
		return im
	}
	sequence := func(id, domain string) *seq.Sequence {
		sq := must(seq.New(id, seq.DNA, strings.Repeat("ACGT", 16)))
		sq.Description = "fixture " + id
		sq.Domain = domain
		return sq
	}
	graph := func() *interact.Graph {
		g := interact.NewGraph("ppi")
		must(g.AddMolecule("P1", "polymerase", interact.ProteinMol))
		must(g.AddMolecule("P2", "protease", interact.ProteinMol))
		check(g.AddInteraction("P1", "P2", "binds", 0.5))
		return g
	}

	// Before the checkpoint.
	check(s.Apply(persist.OntologyOp(workload.BrainOntology())))
	check(s.Apply(persist.SystemOp(must(imaging.NewCoordinateSystem("atlas", rtree.Rect2D(0, 0, 10_000, 10_000))))))
	check(s.Apply(persist.ImageOp(image("img-0", "atlas"))))
	check(s.Apply(persist.SequenceOp(sequence("seq-a", "chr1"))))
	m := must(s.Core().View().MarkImageRegion("img-0", rtree.Rect2D(10, 10, 60, 60)))
	must(s.Commit(s.NewAnnotation().Creator("martone").Date("2007-10-12").Title("region").
		Body("expression in the Deep Cerebellar nuclei").Refer(m).OntologyRef("nif", "deep-cerebellar-nuclei")))
	m = must(s.MarkDomainInterval("chr1", interval.Interval{Lo: 5, Hi: 25}))
	must(s.Commit(s.NewAnnotation().Creator("chen").Date("2007-09-01").Body("conserved motif").Refer(m)))
	check(s.AddRule(prop.Rule{ID: "overlap-atlas", Edge: prop.EdgeOverlap, Domain: "atlas"}))
	check(s.Compact())

	// After it: one WAL record of each of the thirteen kinds.
	check(s.Apply(persist.OntologyOp(workload.EnzymeOntology())))
	check(s.Apply(persist.SystemOp(must(imaging.NewCoordinateSystem("scope", rtree.Rect2D(0, 0, 5_000, 5_000))))))
	check(s.Apply(persist.SequenceOp(sequence("seq-b", "")))) // empty Domain: logged resolved to the ID
	check(s.Apply(persist.AlignmentOp(must(msa.New("aln", []string{"r1", "r2"}, []string{"AC-GT", "ACGGT"})))))
	check(s.Apply(persist.TreeOp(must(phylo.ParseNewick("tree", "((a:1,b:2):0.5,c:3);")))))
	check(s.Apply(persist.GraphOp(graph())))
	check(s.Apply(persist.ImageOp(image("img-1", "scope"))))
	check(s.Apply(persist.TableOp(must(relstore.NewSchema("findings", "id",
		relstore.Column{Name: "id", Type: relstore.String},
		relstore.Column{Name: "score", Type: relstore.Float64, NotNull: true})))))
	check(s.Apply(persist.RecordOp("findings", relstore.Row{relstore.S("f-1"), relstore.F(0.25)})))
	m = must(s.Core().View().MarkImageRegion("img-1", rtree.Rect2D(100, 100, 140, 150)))
	must(s.Commit(s.NewAnnotation().Creator("gupta").Date("2007-11-20").Body("protease activity <b>here</b>").
		Tag("status", "reviewed").Refer(m).OntologyRef("go", "protease")))
	m = must(s.Core().View().MarkSequenceInterval("seq-b", interval.Interval{Lo: 3, Hi: 9}))
	must(s.Commit(s.NewAnnotation().Creator("chen").Date("2007-09-02").Body("motif in seq-b").Refer(m)))
	check(s.DeleteAnnotation(1))
	check(s.AddRule(prop.Rule{ID: "closure-go", Edge: prop.EdgeOntologyClosure, Ontology: "go"}))
	check(s.Apply(persist.Op{Kind: core.OpDeleteRule, RuleID: "overlap-atlas"}))
}

// walPayloads returns the payloads of dir's log as logged and as
// decoded, a compressed record inflated through the log's window.
func walPayloads(t testing.TB, dir string) (logged, decoded [][]byte) {
	t.Helper()
	var in inflater
	info, err := wal.Scan(filepath.Join(dir, logFile), func(p []byte) error {
		raw, err := in.decode(p)
		logged = append(logged, append([]byte(nil), p...))
		decoded = append(decoded, append([]byte(nil), raw...))
		return err
	})
	if err != nil || info.TornBytes != 0 {
		t.Fatalf("scan %s: %v, %d torn bytes", dir, err, info.TornBytes)
	}
	return logged, decoded
}

// TestParentWrittenDirectory: a directory the parent commit wrote — JSON
// records, a JSON checkpoint — opens to the export the parent took of it.
// The same op list applied here writes the same manifest, and a binary
// checkpoint and compressed WAL records that decode to what the parent
// wrote: each record, inflated through the log's window and marshalled as
// a JSON record, is the parent's payload, and the checkpoint, written as
// JSON, is the parent's file.
func TestParentWrittenDirectory(t *testing.T) {
	wantExport, err := os.ReadFile(filepath.Join(parentFixture, "export.json"))
	if err != nil {
		t.Fatal(err)
	}
	exportOf := func(s *Store) []byte {
		var buf bytes.Buffer
		if err := persist.Write(s.Core(), &buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	opts := Options{NoSync: true, CompactThreshold: -1}

	t.Run("opens", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.CopyFS(dir, os.DirFS(filepath.Join(parentFixture, "data"))); err != nil {
			t.Fatal(err)
		}
		s, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		if st := s.Stats(); st.SnapshotSeq != 7 || st.ReplayedRecords != 14 || st.TornBytes != 0 {
			t.Fatalf("recovery stats %+v, want checkpoint 7 and 14 replayed records", st)
		}
		if got := exportOf(s); !bytes.Equal(got, wantExport) {
			t.Fatalf("export after opening the parent's directory differs from the parent's own:\n got %s\nwant %s", got, wantExport)
		}
	})

	t.Run("rewrites", func(t *testing.T) {
		dir := t.TempDir()
		s, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		fixtureSteps(s)
		if got := exportOf(s); !bytes.Equal(got, wantExport) {
			t.Fatalf("export after re-applying the op list differs from the parent's:\n got %s\nwant %s", got, wantExport)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		data := filepath.Join(parentFixture, "data")
		read := func(dir, name string) []byte {
			b, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			return b
		}
		if got, want := read(dir, manifestFile), read(data, manifestFile); !bytes.Equal(got, want) {
			t.Errorf("%s differs from the parent's:\n got %s\nwant %s", manifestFile, got, want)
		}
		snap, err := persist.Decode(bytes.NewReader(read(dir, snapName(7))))
		if err != nil {
			t.Fatal(err)
		}
		var js bytes.Buffer
		if err := persist.WriteSnapshot(snap, &js); err != nil {
			t.Fatal(err)
		}
		if want := read(data, snapName(7)); !bytes.Equal(js.Bytes(), want) {
			t.Errorf("checkpoint written as JSON differs from the parent's:\n got %s\nwant %s", js.Bytes(), want)
		}
		logged, got := walPayloads(t, dir)
		want, _ := walPayloads(t, data)
		if len(got) != len(want) {
			t.Fatalf("%d WAL records, the parent wrote %d", len(got), len(want))
		}
		kinds := map[core.OpKind]bool{}
		for i := range want {
			if logged[i][0] != recordCompressed {
				t.Errorf("WAL record %d is not compressed: %q", i, logged[i])
			}
			rec, err := decodeRecord(got[i])
			if err != nil {
				t.Fatalf("WAL record %d: %v", i, err)
			}
			js, err := json.Marshal(rec)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(js, want[i]) {
				t.Errorf("WAL record %d, as JSON, differs from the parent's:\n got %s\nwant %s", i, js, want[i])
			}
			kinds[rec.Kind] = true
		}
		if len(kinds) != 13 {
			t.Errorf("fixture WAL holds %d op kinds, want all 13", len(kinds))
		}
	})
}

// binaryFixture is the same op list written by commit 55b73eb, the last
// one whose checkpoint was format 1, its body in the clear, behind binary
// WAL records (testdata/parent-55b73eb/generate.go.txt is the program).
const binaryFixture = "testdata/parent-55b73eb"

// TestParentBinaryDirectory: a directory of a format-1 checkpoint and
// binary records opens to the export its writer took of it; compacted, it
// holds a format-2 checkpoint and reopens to the same export.
func TestParentBinaryDirectory(t *testing.T) {
	wantExport, err := os.ReadFile(filepath.Join(binaryFixture, "export.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join(binaryFixture, "data"))); err != nil {
		t.Fatal(err)
	}
	if v1, err := os.ReadFile(filepath.Join(dir, snapName(7))); err != nil || !bytes.HasPrefix(v1, []byte("GSNAP\x01")) {
		t.Fatalf("the fixture's checkpoint is not format 1: %.6q, %v", v1, err)
	}
	opts := Options{NoSync: true, CompactThreshold: -1}
	open := func(what string) *Store {
		s, err := Open(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if err := persist.Write(s.Core(), &got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), wantExport) {
			t.Fatalf("export %s differs from the parent's:\n got %s\nwant %s", what, got.Bytes(), wantExport)
		}
		return s
	}

	s := open("of the parent's directory")
	if st := s.Stats(); st.SnapshotSeq != 7 || st.ReplayedRecords != 14 || st.TornBytes != 0 {
		t.Fatalf("recovery stats %+v, want checkpoint 7 and 14 replayed records", st)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	seq := s.Stats().SnapshotSeq
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if v2, err := os.ReadFile(filepath.Join(dir, snapName(seq))); err != nil || !bytes.HasPrefix(v2, []byte("GSNAP\x02")) {
		t.Fatalf("the compacted checkpoint is not format 2: %.6q, %v", v2, err)
	}
	s = open("after compacting it")
	defer s.Close()
	if st := s.Stats(); st.SnapshotSeq != seq || st.ReplayedRecords != 0 {
		t.Fatalf("recovery stats %+v, want checkpoint %d and nothing replayed", st, seq)
	}
}

// mixedTail is one op of every kind, handed to apply over the fixture's
// state (annotations 2–4 live, rule closure-go attached); its marks
// resolve against view once what they name is registered.
func mixedTail(apply func(persist.Op) error, view func() *core.View) {
	sequence := must(seq.New("seq-c", seq.DNA, strings.Repeat("GATTACA", 8)))
	graph := interact.NewGraph("ppi-2")
	must(graph.AddMolecule("Q1", "kinase", interact.ProteinMol))
	must(graph.AddMolecule("Q2", "ligase", interact.ProteinMol))
	check(graph.AddInteraction("Q1", "Q2", "binds", 0.75))
	image := must(imaging.NewImage("img-2", "stage", rtree.Rect2D(0, 0, 500, 500), imaging.Identity(2)))

	check(apply(persist.OntologyOp(workload.LayeredOntology("layers", 2, 2, 1))))
	check(apply(persist.SystemOp(must(imaging.NewCoordinateSystem("stage", rtree.Rect2D(0, 0, 2_000, 2_000))))))
	check(apply(persist.SequenceOp(sequence)))
	check(apply(persist.AlignmentOp(must(msa.New("aln-2", []string{"r1", "r2"}, []string{"GA-TC", "GATTC"})))))
	check(apply(persist.TreeOp(must(phylo.ParseNewick("tree-2", "((x:1,y:1):2,z:3);")))))
	check(apply(persist.GraphOp(graph)))
	check(apply(persist.ImageOp(image)))
	check(apply(persist.TableOp(must(relstore.NewSchema("notes", "id",
		relstore.Column{Name: "id", Type: relstore.String},
		relstore.Column{Name: "n", Type: relstore.Int64})))))
	check(apply(persist.RecordOp("findings", relstore.Row{relstore.S("f-2"), relstore.F(-1.5)})))
	m := must(view().MarkImageRegion("img-2", rtree.Rect2D(5, 5, 50, 80)))
	check(apply(must(persist.CommitOp(core.NewBuilder().Creator("ma").Creator("lee").Date("2008-04-07").Title("collaborative").
		Body("a mark shared by two annotators").Tag("round", "2").Refer(m).OntologyRef("go", "protease")))))
	m = must(view().MarkSequenceInterval("seq-c", interval.Interval{Lo: 1, Hi: 30}))
	check(apply(must(persist.CommitOp(core.NewBuilder().Creator("chen").Date("2008-04-08").Body("repeat in seq-c").Refer(m)))))
	check(apply(persist.Op{Kind: core.OpDeleteAnnotation, DeleteID: 3}))
	check(apply(persist.RuleOp(prop.Rule{ID: "overlap-stage", Edge: prop.EdgeOverlap, Domain: "stage"})))
	check(apply(persist.Op{Kind: core.OpDeleteRule, RuleID: "closure-go"}))
}

// TestMixedLog: a server upgraded over the parent's directory appends
// compressed records behind its JSON ones, and the mixed log replays as
// one.
func TestMixedLog(t *testing.T) {
	appendBehind(t, parentFixture, 7, strings.Repeat("{", 14))
}

// uncompressedFixture is the op list of fixtureSteps without its
// checkpoint, written by commit 799b2ec, the last one that logged its
// records uncompressed: 21 binary records and no checkpoint
// (testdata/parent-799b2ec/generate.go.txt is the program).
const uncompressedFixture = "testdata/parent-799b2ec"

// TestParentUncompressedLog: a log of binary records opens to the export
// its writer took of it, compressed records are appended behind them, and
// the mixed log replays as one.
func TestParentUncompressedLog(t *testing.T) {
	appendBehind(t, uncompressedFixture, 0, strings.Repeat(string(rune(recordBinary)), 21))
}

// appendBehind opens a copy of fixture's directory — a checkpoint at
// snapshotSeq and a log of the given record forms — to its export, and
// applies mixedTail through it. The log then holds the fixture's records
// and 14 compressed ones behind them; reopened, the directory holds what
// the fixture's own export, loaded into an in-memory store, holds after
// the same ops applied to it one session each (workload.Diff).
func appendBehind(t *testing.T, fixture string, snapshotSeq uint64, forms string) {
	t.Helper()
	wantExport, err := os.ReadFile(filepath.Join(fixture, "export.json"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.CopyFS(dir, os.DirFS(filepath.Join(fixture, "data"))); err != nil {
		t.Fatal(err)
	}
	opts := Options{NoSync: true, CompactThreshold: -1}
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.SnapshotSeq != snapshotSeq || st.ReplayedRecords != len(forms) || st.TornBytes != 0 {
		t.Fatalf("recovery stats %+v, want checkpoint %d and %d replayed records", st, snapshotSeq, len(forms))
	}
	var got bytes.Buffer
	if err := persist.Write(s.Core(), &got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), wantExport) {
		t.Fatalf("export of the parent's directory differs from the parent's own:\n got %s\nwant %s", got.Bytes(), wantExport)
	}
	mixedTail(s.Apply, s.Core().View)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	logged, decoded := walPayloads(t, dir)
	var gotForms []byte
	for _, p := range logged {
		gotForms = append(gotForms, p[0])
	}
	if want := forms + strings.Repeat(string(rune(recordCompressed)), 14); string(gotForms) != want {
		t.Fatalf("record forms %q, want the parent's %q and then 14 compressed ones", gotForms, forms)
	}
	for i, raw := range decoded[len(forms):] {
		if _, err := decodeRecord(raw); err != nil || raw[0] != recordBinary {
			t.Fatalf("appended record %d inflates to %q: %v", i, raw, err)
		}
	}

	serial, err := persist.Read(bytes.NewReader(wantExport))
	if err != nil {
		t.Fatal(err)
	}
	mixedTail(func(op persist.Op) error { return serial.Batch(op.Apply) }, serial.View)

	replayed, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer replayed.Close()
	if st := replayed.Stats(); st.ReplayedRecords != len(logged) {
		t.Fatalf("replayed %d of %d records", st.ReplayedRecords, len(logged))
	}
	mustEqualStores(t, replayed.Core(), serial)
}
