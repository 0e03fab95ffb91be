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
	m := must(s.MarkImageRegion("img-0", rtree.Rect2D(10, 10, 60, 60)))
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
	m = must(s.MarkImageRegion("img-1", rtree.Rect2D(100, 100, 140, 150)))
	must(s.Commit(s.NewAnnotation().Creator("gupta").Date("2007-11-20").Body("protease activity <b>here</b>").
		Tag("status", "reviewed").Refer(m).OntologyRef("go", "protease")))
	m = must(s.MarkSequenceInterval("seq-b", interval.Interval{Lo: 3, Hi: 9}))
	must(s.Commit(s.NewAnnotation().Creator("chen").Date("2007-09-02").Body("motif in seq-b").Refer(m)))
	check(s.DeleteAnnotation(1))
	check(s.AddRule(prop.Rule{ID: "closure-go", Edge: prop.EdgeOntologyClosure, Ontology: "go"}))
	check(s.DeleteRule("overlap-atlas"))
}

func walPayloads(t *testing.T, dir string) [][]byte {
	t.Helper()
	var out [][]byte
	info, err := wal.Scan(filepath.Join(dir, logFile), func(p []byte) error {
		out = append(out, append([]byte(nil), p...))
		return nil
	})
	if err != nil || info.TornBytes != 0 {
		t.Fatalf("scan %s: %v, %d torn bytes", dir, err, info.TornBytes)
	}
	return out
}

// TestParentWrittenDirectory: the op envelope moved into persist without
// changing a byte. A directory the parent commit wrote opens to the export
// the parent took of it, and the same op list applied here writes the
// same checkpoint and the same WAL payloads.
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
		for _, name := range []string{manifestFile, snapName(7)} {
			got, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join(data, name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s differs from the parent's:\n got %s\nwant %s", name, got, want)
			}
		}
		got, want := walPayloads(t, dir), walPayloads(t, data)
		if len(got) != len(want) {
			t.Fatalf("%d WAL records, the parent wrote %d", len(got), len(want))
		}
		kinds := map[core.OpKind]bool{}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("WAL record %d differs from the parent's:\n got %s\nwant %s", i, got[i], want[i])
			}
			var rec record
			if err := json.Unmarshal(want[i], &rec); err != nil {
				t.Fatal(err)
			}
			kinds[rec.Kind] = true
		}
		if len(kinds) != 13 {
			t.Errorf("fixture WAL holds %d op kinds, want all 13", len(kinds))
		}
	})
}
