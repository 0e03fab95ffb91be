package dublincore

import (
	"slices"
	"strings"
	"testing"

	"graphitti/internal/xmldoc"
)

func TestElementValidity(t *testing.T) {
	for _, e := range Elements {
		if !e.IsValid() {
			t.Errorf("%q should be valid", e)
		}
	}
	if len(Elements) != 15 {
		t.Fatalf("DCMES 1.1 has 15 elements, got %d", len(Elements))
	}
	for _, bad := range []Element{"", "author", "TITLE", "dc:title"} {
		if bad.IsValid() {
			t.Errorf("%q should be invalid", bad)
		}
	}
}

func TestRecordSetAddGet(t *testing.T) {
	var r Record
	if err := r.Set(Creator, "gupta"); err != nil {
		t.Fatal(err)
	}
	if err := r.Add(Creator, "condit"); err != nil {
		t.Fatal(err)
	}
	if got := r.Get(Creator); len(got) != 2 {
		t.Fatalf("Get(Creator) = %v", got)
	}
	if r.First(Creator) != "gupta" {
		t.Fatalf("First = %q", r.First(Creator))
	}
	if r.First(Title) != "" {
		t.Fatal("First of unset element should be empty")
	}
	if err := r.Set("author", "x"); err == nil {
		t.Fatal("Set with invalid element should fail")
	}
	if err := r.Add("author", "x"); err == nil {
		t.Fatal("Add with invalid element should fail")
	}
	if got := r.Elements(); len(got) != 1 || len(r.Get(Creator)) != 2 {
		t.Fatalf("Elements = %v, creators %v", got, r.Get(Creator))
	}
}

func TestElementsOrder(t *testing.T) {
	var r Record
	_ = r.Set(Date, "2008-01-01")
	_ = r.Set(Title, "t")
	_ = r.Set(Subject, "s")
	got := r.Elements()
	want := []Element{Title, Subject, Date}
	if len(got) != len(want) {
		t.Fatalf("Elements = %v", got)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Elements = %v, want %v", got, want)
		}
	}
}

// TestXMLRoundTrip: a record written into a document reads back through
// the document's Meta view as the record it was.
func TestXMLRoundTrip(t *testing.T) {
	var r Record
	_ = r.Set(Creator, "gupta")
	_ = r.Set(Subject, "influenza", "annotation")
	_ = r.Set(Date, "2007-11-02")

	d := xmldoc.NewDocument("annotation")
	meta := d.AddElement(d.Root, "meta")
	r.AppendXML(d, meta)
	d.AddElementText(d.Root, "body", "not metadata")
	d.Seal()

	out := d.String()
	if !strings.Contains(out, "<dc:creator>gupta</dc:creator>") {
		t.Fatalf("serialised XML missing creator: %s", out)
	}

	back := MetaOf(d)
	if back.First(Creator) != "gupta" {
		t.Fatalf("round-trip creator = %q", back.First(Creator))
	}
	if got := slices.Collect(back.Get(Subject).All); !slices.Equal(got, []string{"influenza", "annotation"}) {
		t.Fatalf("round-trip subjects = %v, want them in the order given", got)
	}
	if back.First(Date) != "2007-11-02" || back.Get(Title).Len() != 0 || back.First(Title) != "" {
		t.Fatalf("round-trip date = %q, title %v", back.First(Date), slices.Collect(back.Get(Title).All))
	}
	var got []Element
	values, want := 0, 0
	for e, vs := range back.All {
		got = append(got, e)
		values += vs.Len()
	}
	for _, e := range r.Elements() {
		want += len(r.Get(e))
	}
	if !slices.Equal(got, r.Elements()) || values != want {
		t.Fatalf("round-trip elements = %v (%d values), want %v (%d)", got, values, r.Elements(), want)
	}
	for _, e := range Elements {
		if at := back.Slot(e); at < 0 && back.First(e) != "" || at >= 0 && d.Root.Slots().At(at) != back.First(e) {
			t.Fatalf("%s: slot %d, first value %q", e, at, back.First(e))
		}
	}
	var none Meta
	if none.Get(Creator).Len() != 0 || none.Slot(Creator) != -1 {
		t.Fatal("the zero Meta has values")
	}
	for e := range none.All {
		t.Fatalf("the zero Meta has %s", e)
	}
}

func TestValidate(t *testing.T) {
	var r Record
	if err := r.Validate(); err == nil {
		t.Fatal("empty record should not validate")
	}
	_ = r.Set(Creator, "gupta")
	if err := r.Validate(); err == nil {
		t.Fatal("record without date should not validate")
	}
	_ = r.Set(Date, "2008-04-07")
	if err := r.Validate(); err != nil {
		t.Fatalf("valid record rejected: %v", err)
	}
}

// TestSetReplacesAndClears covers the slice-backed record's edit paths: a
// Set over an existing element replaces it in place (no duplicate entry,
// no aliasing of the caller's slice), and a Set with no values unsets it.
func TestSetReplacesAndClears(t *testing.T) {
	var r Record
	vals := []string{"b", "a"}
	_ = r.Set(Subject, vals...)
	vals[0] = "mutated"
	_ = r.Set(Creator, "gupta")
	_ = r.Set(Subject, "c")
	if got := r.Get(Subject); len(got) != 1 || got[0] != "c" {
		t.Fatalf("Subject after replace = %v", got)
	}
	if got := r.Elements(); len(got) != 2 || got[0] != Creator || got[1] != Subject {
		t.Fatalf("Elements = %v, want [creator subject]", got)
	}
	_ = r.Set(Subject)
	if r.Get(Subject) != nil || len(r.Get(Creator)) != 1 || len(r.Elements()) != 1 {
		t.Fatalf("Set with no values should unset: %v, elements %v", r.Get(Subject), r.Elements())
	}
	_ = r.Set(Subject, "b", "a")
	d := xmldoc.NewDocument("m")
	r.AppendXML(d, d.Root)
	if got, want := d.String(), "<m>\n  <dc:creator>gupta</dc:creator>\n  <dc:subject>b</dc:subject>\n  <dc:subject>a</dc:subject>\n</m>\n"; got != want {
		t.Fatalf("AppendXML = %q, want %q (values in the order given)", got, want)
	}
}

// First returns the first value of element e, or "".
func (r *Record) First(e Element) string {
	if vs := r.Get(e); len(vs) > 0 {
		return vs[0]
	}
	return ""
}
