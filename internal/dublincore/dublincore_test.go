package dublincore

import (
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
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
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

func TestXMLRoundTrip(t *testing.T) {
	var r Record
	_ = r.Set(Creator, "gupta")
	_ = r.Set(Subject, "influenza", "annotation")
	_ = r.Set(Date, "2007-11-02")

	d := xmldoc.NewDocument("annotation")
	meta := d.AddElement(d.Root, "meta")
	r.AppendXML(d, meta)

	out := d.String()
	if !strings.Contains(out, "<dc:creator>gupta</dc:creator>") {
		t.Fatalf("serialised XML missing creator: %s", out)
	}

	back := FromXML(meta)
	if back.First(Creator) != "gupta" {
		t.Fatalf("round-trip creator = %q", back.First(Creator))
	}
	if got := back.Get(Subject); len(got) != 2 {
		t.Fatalf("round-trip subjects = %v", got)
	}
	if back.First(Date) != "2007-11-02" {
		t.Fatalf("round-trip date = %q", back.First(Date))
	}
}

func TestFromXMLIgnoresUnknown(t *testing.T) {
	d, err := xmldoc.ParseString(`<m><dc:creator>a</dc:creator><custom>x</custom><creator>b</creator></m>`)
	if err != nil {
		t.Fatal(err)
	}
	r := FromXML(d.Root)
	if got := r.Get(Creator); len(got) != 2 {
		t.Fatalf("creators = %v (both prefixed and bare forms should parse)", got)
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
	if r.Get(Subject) != nil || r.Len() != 1 || len(r.Elements()) != 1 {
		t.Fatalf("Set with no values should unset: %v, len %d", r.Get(Subject), r.Len())
	}
	_ = r.Set(Subject, "b", "a")
	d := xmldoc.NewDocument("m")
	r.AppendXML(d, d.Root)
	if got, want := d.String(), "<m>\n  <dc:creator>gupta</dc:creator>\n  <dc:subject>a</dc:subject>\n  <dc:subject>b</dc:subject>\n</m>\n"; got != want {
		t.Fatalf("AppendXML = %q, want %q", got, want)
	}
	if got := r.Get(Subject); got[0] != "b" {
		t.Fatalf("AppendXML sorted the record's own values: %v", got)
	}
}
