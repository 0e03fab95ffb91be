// Package dublincore models the Dublin Core metadata element set used in
// Graphitti annotation contents.
//
// The paper specifies that "the annotation content produced by Graphitti is
// an XML document whose elements consist of Dublin core attributes and
// other user-defined tags". This package provides the fifteen elements of
// the Dublin Core Metadata Element Set 1.1, a Record holding repeatable
// element values, validation, and conversion to/from the xmldoc model.
package dublincore

import (
	"fmt"
	"slices"

	"graphitti/internal/xmldoc"
)

// Element is one of the fifteen Dublin Core elements.
type Element string

// The Dublin Core Metadata Element Set, version 1.1.
const (
	Title       Element = "title"
	Creator     Element = "creator"
	Subject     Element = "subject"
	Description Element = "description"
	Publisher   Element = "publisher"
	Contributor Element = "contributor"
	Date        Element = "date"
	Type        Element = "type"
	Format      Element = "format"
	Identifier  Element = "identifier"
	Source      Element = "source"
	Language    Element = "language"
	Relation    Element = "relation"
	Coverage    Element = "coverage"
	Rights      Element = "rights"
)

// Elements lists all fifteen elements in canonical order.
var Elements = []Element{
	Title, Creator, Subject, Description, Publisher, Contributor, Date,
	Type, Format, Identifier, Source, Language, Relation, Coverage, Rights,
}

// rank is an element's position in canonical order.
var rank = func() map[Element]int {
	m := make(map[Element]int, len(Elements))
	for i, e := range Elements {
		m[e] = i
	}
	return m
}()

// xmlNames holds each element's "dc:"-prefixed tag, in canonical order:
// every document's nodes share these strings.
var xmlNames = func() []string {
	names := make([]string, len(Elements))
	for i, e := range Elements {
		names[i] = "dc:" + string(e)
	}
	return names
}()

// IsValid reports whether e is one of the fifteen Dublin Core elements.
func (e Element) IsValid() bool {
	_, ok := rank[e]
	return ok
}

// field is one element of a record with its values.
type field struct {
	elem Element
	vals []string // never empty
}

// Record is a set of Dublin Core element values. All elements are optional
// and repeatable, per the DCMES specification. An annotation's record
// holds three to five elements and every committed annotation keeps one,
// so the elements sit in a small slice in canonical order, scanned, not
// in a map.
type Record struct {
	fields []field
}

// find returns the position of element e in r.fields, or where it would be
// inserted to keep canonical order.
func (r *Record) find(e Element) (int, bool) {
	for i := range r.fields {
		if r.fields[i].elem == e {
			return i, true
		}
	}
	at := rank[e]
	i := len(r.fields)
	for i > 0 && rank[r.fields[i-1].elem] > at {
		i--
	}
	return i, false
}

// Set replaces the values of element e.
func (r *Record) Set(e Element, vals ...string) error {
	if !e.IsValid() {
		return fmt.Errorf("dublincore: unknown element %q", e)
	}
	i, ok := r.find(e)
	switch {
	case len(vals) == 0:
		if ok {
			r.fields = slices.Delete(r.fields, i, i+1)
		}
	case ok:
		r.fields[i].vals = slices.Clone(vals)
	default:
		r.fields = slices.Insert(r.fields, i, field{e, slices.Clone(vals)})
	}
	return nil
}

// Add appends a value to element e.
func (r *Record) Add(e Element, val string) error {
	if !e.IsValid() {
		return fmt.Errorf("dublincore: unknown element %q", e)
	}
	if i, ok := r.find(e); ok {
		r.fields[i].vals = append(r.fields[i].vals, val)
	} else {
		r.fields = slices.Insert(r.fields, i, field{e, []string{val}})
	}
	return nil
}

// Get returns the values of element e (nil when unset).
func (r *Record) Get(e Element) []string {
	for i := range r.fields {
		if r.fields[i].elem == e {
			return r.fields[i].vals
		}
	}
	return nil
}

// First returns the first value of element e, or "".
func (r *Record) First(e Element) string {
	if vs := r.Get(e); len(vs) > 0 {
		return vs[0]
	}
	return ""
}

// Len returns the total number of element values.
func (r *Record) Len() int {
	n := 0
	for i := range r.fields {
		n += len(r.fields[i].vals)
	}
	return n
}

// Elements returns the elements that have at least one value, in canonical
// order.
func (r *Record) Elements() []Element {
	var out []Element
	for i := range r.fields {
		out = append(out, r.fields[i].elem)
	}
	return out
}

// AppendXML writes the record's elements as children of parent, one
// <dc:element> child per value, in canonical element order.
func (r *Record) AppendXML(doc *xmldoc.Document, parent xmldoc.Node) {
	for i := range r.fields {
		f := &r.fields[i]
		name, vs := xmlNames[rank[f.elem]], f.vals
		if len(vs) > 1 {
			vs = slices.Clone(vs)
			slices.Sort(vs)
		}
		for _, v := range vs {
			doc.AddElementText(parent, name, v)
		}
	}
}

// FromXML reads Dublin Core values from the children of parent. Elements
// are recognised both with and without the "dc:" prefix; non-DC children
// are ignored.
func FromXML(parent xmldoc.Node) *Record {
	r := &Record{}
	for _, c := range parent.ChildElements("") {
		name := c.Name()
		if len(name) > 3 && name[:3] == "dc:" {
			name = name[3:]
		}
		e := Element(name)
		if e.IsValid() {
			_ = r.Add(e, c.Text())
		}
	}
	return r
}

// Validate checks that a record intended for a Graphitti annotation has the
// minimal fields the system relies on: at least one creator and a date.
func (r *Record) Validate() error {
	if len(r.Get(Creator)) == 0 {
		return fmt.Errorf("dublincore: record has no %s", Creator)
	}
	if len(r.Get(Date)) == 0 {
		return fmt.Errorf("dublincore: record has no %s", Date)
	}
	return nil
}
