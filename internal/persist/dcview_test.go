package persist_test

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

	"graphitti/internal/core"
	"graphitti/internal/dublincore"
	"graphitti/internal/ontology"
	"graphitti/internal/persist"
)

// hostileDC is text that needs every escape the XML serializer has, splits
// into keyword tokens at every separator and is not valid UTF-8: the
// hostile string of the content-document oracle's "everything at once".
const hostileDC = `<a b="c" d='e'>&amp; x.y-z_w ]]> ` + "\xffé\t"

// TestDCViewMatchesRecord: a committed annotation reads its Dublin Core
// values through a view of its content document, and the view answers as
// the builder's record does — First, Get, Elements and Len, for every one
// of the fifteen elements — on the committed annotation, on the store
// reloaded from the JSON export and on the store reopened from a binary
// checkpoint. The JSON export carries text as valid UTF-8, so on that store
// a value reads as encoding/json gives it back.
func TestDCViewMatchesRecord(t *testing.T) {
	every := func(b *core.Builder) {
		for _, e := range dublincore.Elements {
			b.DCElement(e, "v-"+string(e))
		}
	}
	cases := []struct {
		name string
		dc   func(b *core.Builder)
	}{
		{"every element once", every},
		{"every element repeated", func(b *core.Builder) {
			for i, e := range dublincore.Elements {
				b.DCElement(e, string(e)+"-2", string(e)+"-1", hostileDC[:i])
			}
		}},
		{"repeated and duplicate values", func(b *core.Builder) {
			b.Creator("zed").Creator("abe").Creator("zed").Date("2008-04-07").
				Subject("s2").Subject("s1").Subject("s1").DCElement(dublincore.Contributor, "b", "a", "b")
		}},
		{"empty values", func(b *core.Builder) {
			b.Creator("").Date("").Title("").DCElement(dublincore.Rights, "", "<r>", "")
		}},
		{"a set element cleared", func(b *core.Builder) {
			every(b)
			b.DCElement(dublincore.Title).DCElement(dublincore.Rights).DCElement(dublincore.Source)
		}},
		{"everything at once", func(b *core.Builder) {
			b.Creator("zed").Creator(hostileDC).Creator("abe").Date("2008-04-07").Title(hostileDC).
				Subject("s2").Subject("s1").Subject("s1").
				DCElement(dublincore.Rights, "", "<r>").DCElement(dublincore.Language, "en")
		}},
	}

	s := core.NewStore()
	o := ontology.New("go")
	if _, err := o.AddTerm("enzyme", "enzyme"); err != nil {
		t.Fatal(err)
	}
	if err := s.RegisterOntology(o); err != nil {
		t.Fatal(err)
	}
	records := map[uint64]*dublincore.Record{}
	names := map[uint64]string{}
	for _, c := range cases {
		b := s.NewAnnotation().Body(c.name).OntologyRef("go", "enzyme")
		c.dc(b)
		ann, err := s.Commit(b)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		records[ann.ID], names[ann.ID] = b.DC(), c.name
	}

	var exported bytes.Buffer
	if err := persist.Write(s, &exported); err != nil {
		t.Fatal(err)
	}
	fromJSON, err := persist.Read(&exported)
	if err != nil {
		t.Fatal(err)
	}
	var checkpoint bytes.Buffer
	if err := writeCheckpoint(s, &checkpoint); err != nil {
		t.Fatal(err)
	}
	fromCheckpoint, err := persist.Read(&checkpoint)
	if err != nil {
		t.Fatal(err)
	}

	same := func(v string) string { return v }
	viaJSON := func(v string) string {
		raw, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		var back string
		if err := json.Unmarshal(raw, &back); err != nil {
			t.Fatal(err)
		}
		return back
	}
	for _, st := range []struct {
		name  string
		store *core.Store
		read  func(string) string
	}{
		{"committed", s, same},
		{"reloaded from the JSON export", fromJSON, viaJSON},
		{"reopened from a binary checkpoint", fromCheckpoint, same},
	} {
		for id, r := range records {
			ann, err := st.store.View().Annotation(id)
			if err != nil {
				t.Fatalf("%s: %v", st.name, err)
			}
			where := st.name + ", " + names[id]
			for _, e := range dublincore.Elements {
				want := r.Get(e)
				if want != nil {
					want = slices.Clone(want)
					for i := range want {
						want[i] = st.read(want[i])
					}
				}
				if got := slices.Collect(ann.DC.Get(e).All); !slices.Equal(got, want) || (got == nil) != (want == nil) {
					t.Errorf("%s: Get(%s) = %q, want %q", where, e, got, want)
				}
				if got, want := ann.DC.First(e), st.read(r.First(e)); got != want {
					t.Errorf("%s: First(%s) = %q, want %q", where, e, got, want)
				}
			}
			if got, want := ann.DC.Elements(), r.Elements(); !slices.Equal(got, want) {
				t.Errorf("%s: Elements() = %v, want %v", where, got, want)
			}
			if got, want := ann.DC.Len(), r.Len(); got != want {
				t.Errorf("%s: Len() = %d, want %d", where, got, want)
			}
		}
	}
}
