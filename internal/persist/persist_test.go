package persist_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"strings"
	"testing"

	"graphitti/internal/biodata/seq"
	"graphitti/internal/core"
	"graphitti/internal/interval"
	"graphitti/internal/persist"
	"graphitti/internal/workload"
)

func influenzaStore(t testing.TB) *core.Store {
	t.Helper()
	cfg := workload.DefaultInfluenza
	cfg.Annotations = 60
	study, err := workload.Influenza(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return study.Store
}

func neuroStore(t testing.TB) *core.Store {
	t.Helper()
	study, err := workload.Neuroscience(workload.DefaultNeuro)
	if err != nil {
		t.Fatal(err)
	}
	return study.Store
}

func TestRoundTripInfluenza(t *testing.T) {
	orig := influenzaStore(t)
	var buf bytes.Buffer
	if err := persist.Write(orig, &buf); err != nil {
		t.Fatal(err)
	}
	restored, err := persist.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.Diff([]*core.View{restored.View()}, []*core.View{orig.View()}); err != nil {
		t.Fatal(err)
	}

	// Queries behave identically on the restored store.
	a := orig.View().SearchKeyword("protease")
	b := restored.View().SearchKeyword("protease")
	if len(a) != len(b) {
		t.Fatalf("keyword results differ: %d vs %d", len(a), len(b))
	}
	ra := orig.ReferentsAt("segment1", 25)
	rb := restored.ReferentsAt("segment1", 25)
	if len(ra) != len(rb) {
		t.Fatalf("stab results differ: %d vs %d", len(ra), len(rb))
	}
}

func TestRoundTripNeuro(t *testing.T) {
	orig := neuroStore(t)
	var buf bytes.Buffer
	if err := persist.Write(orig, &buf); err != nil {
		t.Fatal(err)
	}
	restored, err := persist.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := workload.Diff([]*core.View{restored.View()}, []*core.View{orig.View()}); err != nil {
		t.Fatal(err)
	}
	// The R-tree rebuilt: same region query results.
	imgs := orig.View().Images()
	if len(imgs) == 0 {
		t.Fatal("no images")
	}
}

func TestRoundTripDoubleStable(t *testing.T) {
	orig := influenzaStore(t)
	var b1 bytes.Buffer
	if err := persist.Write(orig, &b1); err != nil {
		t.Fatal(err)
	}
	restored, err := persist.Read(bytes.NewReader(b1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var b2 bytes.Buffer
	if err := persist.Write(restored, &b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("snapshot not stable under export/load/export")
	}
}

func TestSharedReferentsSurviveReplay(t *testing.T) {
	s := core.NewStore()
	d, err := graphittiDNA("NC_1")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterSequence(d); err != nil {
		t.Fatal(err)
	}
	m1, _ := s.View().MarkSequenceInterval("NC_1", span(10, 50))
	m2, _ := s.View().MarkSequenceInterval("NC_1", span(10, 50))
	a1, err := s.Commit(s.NewAnnotation().Creator("a").Date("2008-01-01").Refer(m1))
	if err != nil {
		t.Fatal(err)
	}
	a2, err := s.Commit(s.NewAnnotation().Creator("b").Date("2008-01-02").Refer(m2))
	if err != nil {
		t.Fatal(err)
	}
	if slices.Collect(a1.ReferentIDs)[0] != slices.Collect(a2.ReferentIDs)[0] {
		t.Fatal("setup: marks not shared")
	}
	var buf bytes.Buffer
	if err := persist.Write(s, &buf); err != nil {
		t.Fatal(err)
	}
	restored, err := persist.Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	ids := annotationIDs(restored.View())
	r1, _ := restored.Annotation(ids[0])
	r2, _ := restored.Annotation(ids[1])
	if slices.Collect(r1.ReferentIDs)[0] != slices.Collect(r2.ReferentIDs)[0] {
		t.Fatal("shared referent split during replay")
	}
	if restored.Stats().Referents != 1 {
		t.Fatalf("referents = %d after replay", restored.Stats().Referents)
	}
}

// TestDecodeRefusesTrailingData: the JSON form is one snapshot object and
// whitespace. Junk or a second snapshot after it is refused, not ignored.
func TestDecodeRefusesTrailingData(t *testing.T) {
	one := fmt.Sprintf(`{"version":%d}`, persist.Version)
	for _, src := range []string{one + "garbage", one + `{"version":1}`, one + " ]", one + "\n{"} {
		if snap, err := persist.Decode(strings.NewReader(src)); err == nil {
			t.Errorf("Decode(%q) = %+v, want an error", src, snap)
		}
		if _, err := persist.Read(strings.NewReader(src)); err == nil {
			t.Errorf("Read(%q) loaded a store", src)
		}
	}
	if snap, err := persist.Decode(strings.NewReader(one + " \n\t\r\n")); err != nil || snap.Version != persist.Version {
		t.Errorf("a snapshot followed by whitespace: %+v, %v", snap, err)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := persist.Read(strings.NewReader("{not json")); err == nil {
		t.Fatal("bad JSON accepted")
	}
	if _, err := persist.Load(&persist.Snapshot{Version: 99}); err == nil {
		t.Fatal("wrong version accepted")
	}
	// Annotation referencing an unknown ontology term fails cleanly.
	snap := &persist.Snapshot{
		Version: persist.Version,
		Annotations: []persist.AnnotationDump{{
			DC:    map[string][]string{"creator": {"x"}, "date": {"2008-01-01"}},
			Terms: []persist.TermRefDump{{Ontology: "ghost", Term: "t"}},
		}},
	}
	if _, err := persist.Load(snap); err == nil {
		t.Fatal("dangling term reference accepted")
	}
	// Bad value tag.
	snap2 := &persist.Snapshot{
		Version: persist.Version,
		RecordTables: []persist.TableDump{{
			Name: "t", Key: "k",
			Columns: []persist.ColumnDump{{Name: "k", Type: 2}},
			Rows:    [][]persist.ValueDump{{{T: "wat"}}},
		}},
	}
	if _, err := persist.Load(snap2); err == nil {
		t.Fatal("unknown value tag accepted")
	}
}

func graphittiDNA(id string) (*seq.Sequence, error) {
	return seq.New(id, seq.DNA, strings.Repeat("ACGT", 50))
}

func span(lo, hi int64) interval.Interval { return interval.Interval{Lo: lo, Hi: hi} }

// TestSnapshotFormsLoadAlike: WriteSnapshot now writes compact JSON and
// leaves the all-zero rect of a non-region mark out. Readers did not
// change, so the forms older writers produced — indented, a zero rect on
// every referent, with IDs (v2) or without (v1) — the new one and the
// binary checkpoint a data directory holds must load to stores whose
// exports are byte-identical.
func TestSnapshotFormsLoadAlike(t *testing.T) {
	for name, s := range map[string]*core.Store{"influenza": influenzaStore(t), "neuro": neuroStore(t)} {
		t.Run(name, func(t *testing.T) {
			var compact bytes.Buffer
			if err := persist.Write(s, &compact); err != nil {
				t.Fatal(err)
			}
			if n := bytes.Count(compact.Bytes(), []byte("\n")); n != 1 || !bytes.HasSuffix(compact.Bytes(), []byte("\n")) {
				t.Fatalf("the written snapshot has %d newlines, want one, at the end", n)
			}
			regions, marks := 0, 0
			for _, ann := range exportOf(t, s).Annotations {
				for _, r := range ann.Referents {
					marks++
					if core.ReferentKind(r.Kind) == core.RegionReferent {
						regions++
					}
				}
			}
			if got := bytes.Count(compact.Bytes(), []byte(`"rect":`)); got != regions {
				t.Fatalf("%d rects written for %d region marks among %d", got, regions, marks)
			}

			// The older forms, rebuilt from the new one: every referent
			// gets its zero rect back, the file its indentation, and for
			// v1 the IDs and counters go. The keys stay in the order every
			// writer wrote them in, the Snapshot's fields'.
			oldForm := func(v1 bool) []byte {
				var doc map[string]any
				if err := json.Unmarshal(compact.Bytes(), &doc); err != nil {
					t.Fatal(err)
				}
				if v1 {
					doc["version"] = 1
					delete(doc, "nextAnn")
					delete(doc, "nextRef")
				}
				zero := []any{[]any{0, 0, 0}, []any{0, 0, 0}}
				for _, a := range doc["annotations"].([]any) {
					ann := a.(map[string]any)
					if v1 {
						delete(ann, "id")
					}
					refs, _ := ann["referents"].([]any)
					for _, r := range refs {
						ref := r.(map[string]any)
						if _, ok := ref["rect"]; !ok {
							ref["rect"] = zero
						}
						if v1 {
							delete(ref, "id")
						}
					}
				}
				return indentInWriteOrder(t, doc)
			}
			v2, v1 := oldForm(false), oldForm(true)
			if got := bytes.Count(v2, []byte(`"rect": [`)); got != marks || len(v2) <= compact.Len() {
				t.Fatalf("the old form has %d rects for %d marks and %d bytes to the compact form's %d", got, marks, len(v2), compact.Len())
			}
			var checkpoint bytes.Buffer
			if err := writeCheckpoint(s, &checkpoint); err != nil {
				t.Fatal(err)
			}
			want := mustJSON(t, exportOf(t, s))
			for form, file := range map[string][]byte{"compact": compact.Bytes(), "indented v2 with rects": v2, "v1": v1,
				"binary checkpoint": checkpoint.Bytes()} {
				loaded, err := persist.Read(bytes.NewReader(file))
				if err != nil {
					t.Fatalf("%s: %v", form, err)
				}
				if got := mustJSON(t, exportOf(t, loaded)); !bytes.Equal(got, want) {
					t.Errorf("%s: the loaded store exports %d bytes that differ from the original's %d", form, len(got), len(want))
				}
			}
		})
	}
}

// annotationIDs returns the IDs of v's annotations, ascending.
func annotationIDs(v *core.View) []uint64 {
	var ids []uint64
	v.AnnotationsEach(func(a *core.Annotation) bool {
		ids = append(ids, a.ID)
		return true
	})
	return ids
}

// indentInWriteOrder marshals a snapshot document indented, its keys in
// the order Write writes them — the order a streamed load needs, since
// it applies each annotation as it arrives — where json.MarshalIndent of
// a map would sort them.
func indentInWriteOrder(t *testing.T, doc map[string]any) []byte {
	t.Helper()
	keys := []string{"version", "ontologies", "systems", "sequences", "alignments", "trees", "graphs",
		"images", "recordTables", "annotations", "rules", "nextAnn", "nextRef"}
	var b bytes.Buffer
	b.WriteString("{")
	n := 0
	for _, k := range keys {
		v, ok := doc[k]
		if !ok {
			continue
		}
		if n++; n > 1 {
			b.WriteString(",")
		}
		out, err := json.MarshalIndent(v, " ", " ")
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "\n %q: %s", k, out)
	}
	if n != len(doc) {
		t.Fatalf("the document has keys outside the snapshot's: %v", slices.Sorted(maps.Keys(doc)))
	}
	b.WriteString("\n}")
	return b.Bytes()
}
