// Package dublincore models the Dublin Core metadata element set used in
// Graphitti annotation contents.
//
// The paper specifies that "the annotation content produced by Graphitti is
// an XML document whose elements consist of Dublin core attributes and
// other user-defined tags". This package provides the fifteen elements of
// the Dublin Core Metadata Element Set 1.1, a Record holding repeatable
// element values while an annotation is assembled, validation, the
// record's rendering into a content document (AppendXML), and Meta, the
// read-only view a committed annotation reads its values through: the
// document holds the one copy of them.
package dublincore

import (
	"fmt"
	"slices"
	"strings"

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
// holds three to five elements, so the elements sit in a small slice in
// canonical order, scanned, not in a map. A record lives only as long as
// the builder that assembles it: a committed annotation reads its values
// from its content document, through Meta.
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
// <dc:element> child holding one text node per value: elements in
// canonical order, an element's values in the order they were given (the
// order of creators is meaningful).
func (r *Record) AppendXML(doc *xmldoc.Document, parent xmldoc.Node) {
	for i := range r.fields {
		f := &r.fields[i]
		name := xmlNames[rank[f.elem]]
		for _, v := range f.vals {
			doc.AddElementText(parent, name, v)
		}
	}
}

// Meta is the read-only view of the Dublin Core values a content document
// carries in its root's <meta> element, which must hold exactly what
// Record.AppendXML wrote there. It answers as the record it
// was written from: each value is the one text node of its <dc:element>,
// so an element's values are one run of the document's value slots, and
// Get returns that run, read in place, without copying or allocating. The
// zero Meta has no values.
type Meta struct {
	doc *xmldoc.Document
}

// MetaOf returns the view of doc's Dublin Core values.
func MetaOf(doc *xmldoc.Document) Meta { return Meta{doc} }

// meta returns the <meta> element, or the zero Node.
func (m Meta) meta() xmldoc.Node {
	if m.doc == nil {
		return xmldoc.Node{}
	}
	return m.doc.Root.FirstChildElement("meta")
}

// elementOf returns the element a <dc:element> child is named for.
func elementOf(c xmldoc.Node) Element {
	name, _ := strings.CutPrefix(c.Name(), "dc:")
	return Element(name)
}

// Slot returns where First(e) sits among the document's value slots,
// Root.Slots(), or -1 when e has no value. It reads the document's layout,
// not its values, so it is the same for every document of one shape: a
// reader of many documents resolves it once per shape (xmldoc.ShapeMemo).
func (m Meta) Slot(e Element) int {
	meta := m.meta()
	if !meta.Valid() {
		return -1
	}
	k := 0
	for c := meta.FirstChild(); c.Valid(); c, k = c.NextSibling(), k+1 {
		if elementOf(c) == e {
			if k < meta.Slots().Len() {
				return meta.Slot() + k
			}
			break
		}
	}
	return -1
}

// All visits each element that has values, in canonical order, with its
// values, until yield returns false.
func (m Meta) All(yield func(Element, xmldoc.Slots) bool) {
	meta := m.meta()
	if !meta.Valid() {
		return
	}
	vals := meta.Slots()
	var cur Element
	lo, k := 0, 0
	for c := meta.FirstChild(); c.Valid(); c, k = c.NextSibling(), k+1 {
		if e := elementOf(c); k == 0 || e != cur {
			if k > 0 && !yield(cur, vals.Slice(lo, k)) {
				return
			}
			cur, lo = e, k
		}
	}
	if k > 0 {
		yield(cur, vals.Slice(lo, k))
	}
}

// Get returns the values of element e (an empty run when unset).
func (m Meta) Get(e Element) xmldoc.Slots {
	for el, vals := range m.All {
		if el == e {
			return vals
		}
	}
	return xmldoc.Slots{}
}

// First returns the first value of element e, or "".
func (m Meta) First(e Element) string {
	if vs := m.Get(e); vs.Len() > 0 {
		return vs.At(0)
	}
	return ""
}

// Len returns the total number of element values.
func (m Meta) Len() int {
	if meta := m.meta(); meta.Valid() {
		return meta.Slots().Len()
	}
	return 0
}

// Elements returns the elements that have at least one value, in canonical
// order.
func (m Meta) Elements() []Element {
	var out []Element
	for e := range m.All {
		out = append(out, e)
	}
	return out
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
