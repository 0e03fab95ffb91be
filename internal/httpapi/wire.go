// The wire form of an annotation: the one encoder behind every route that
// answers with annotations.
//
// An annotation's JSON object is
//
//	{"id":…,"creator":…,"date":…,"title":…,"terms":[…],"referents":[…],"xml":…}
//
// with title, terms and referents omitted when empty — byte for byte what
// encoding/json emits for the annotationView struct this file replaced
// (wire_test.go keeps that struct as the oracle). The encoder appends it
// straight from the *core.Annotation into a pooled buffer: creator, date
// and title are read through value slots resolved once per document
// shape, and the xml string is the content document's own JSON form
// (xmldoc.Document.AppendJSON), whose static text is escaped once per
// shape, so a read escapes only the annotation's values. Nothing is kept
// per annotation: a read leaves the store as it found it. A response is
// '[' + objects + ']' built in the buffer and written once, with its
// Content-Length.

package httpapi

import (
	"net/http"
	"strconv"
	"sync"

	"graphitti/internal/core"
	"graphitti/internal/dublincore"
	"graphitti/internal/jsonstr"
	"graphitti/internal/trace"
	"graphitti/internal/xmldoc"
)

// wireBuf is the scratch space of one response and the tally of its
// "encode" span.
type wireBuf struct {
	out  []byte // the body under construction
	sp   *trace.Span
	anns int // annotations appended
}

var wirePool = sync.Pool{New: func() any { return new(wireBuf) }}

// maxPooledWire bounds the buffers the pool keeps: one full listing of a
// large store must not pin its megabytes behind every later 300-byte get.
const maxPooledWire = 1 << 20

// startEncode takes a buffer from the pool and opens the "encode" child of
// the request's span; the caller appends annotations, calls done, uses
// wb.out and releases the buffer.
func startEncode(r *http.Request) *wireBuf {
	wb := wirePool.Get().(*wireBuf)
	*wb = wireBuf{out: wb.out[:0], sp: trace.FromContext(r.Context()).StartChild("encode")}
	return wb
}

// done closes the span with the work done: annotations in the answer and
// the bytes of them.
func (wb *wireBuf) done() {
	wb.sp.SetAttrInt("annotations", int64(wb.anns))
	wb.sp.SetAttrInt("bytes", int64(len(wb.out)))
	wb.sp.Finish()
	wb.sp = nil
}

func (wb *wireBuf) release() {
	if cap(wb.out) <= maxPooledWire {
		wirePool.Put(wb)
	}
}

// dcSlots holds, per document shape, where the first creator, date and
// title sit among a document's values (dublincore.Meta.Slot; -1: none).
var dcSlots = xmldoc.NewShapeMemo(func(d *xmldoc.Document) *[3]int {
	m := dublincore.MetaOf(d)
	return &[3]int{m.Slot(dublincore.Creator), m.Slot(dublincore.Date), m.Slot(dublincore.Title)}
})

// annotation appends ann's JSON object to wb.out.
func (wb *wireBuf) annotation(ann *core.Annotation) {
	wb.anns++
	slots, vals := dcSlots.Get(ann.Content), ann.Content.Root.Values()
	first := func(k int) string {
		if slots[k] < 0 {
			return ""
		}
		return vals[slots[k]]
	}
	dst := append(wb.out, `{"id":`...)
	dst = strconv.AppendUint(dst, ann.ID, 10)
	dst = append(dst, `,"creator":`...)
	dst = jsonstr.Append(dst, first(0))
	dst = append(dst, `,"date":`...)
	dst = jsonstr.Append(dst, first(1))
	if title := first(2); title != "" {
		dst = append(dst, `,"title":`...)
		dst = jsonstr.Append(dst, title)
	}
	if len(ann.Terms) > 0 {
		dst = append(dst, `,"terms":[`...)
		for i, t := range ann.Terms {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"Ontology":`...)
			dst = jsonstr.Append(dst, t.Ontology)
			dst = append(dst, `,"TermID":`...)
			dst = jsonstr.Append(dst, t.TermID)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if len(ann.ReferentIDs) > 0 {
		dst = append(dst, `,"referents":[`...)
		for i, id := range ann.ReferentIDs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = strconv.AppendUint(dst, id, 10)
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"xml":`...)
	dst = ann.Content.AppendJSON(dst)
	wb.out = append(dst, '}')
}

// list appends the JSON array of anns to wb.out (never null: no
// annotations is []).
func (wb *wireBuf) list(anns []*core.Annotation) {
	wb.out = append(wb.out, '[')
	for i, ann := range anns {
		if i > 0 {
			wb.out = append(wb.out, ',')
		}
		wb.annotation(ann)
	}
	wb.out = append(wb.out, ']')
}

// writeBody sends a finished JSON body in one write, with its length.
func writeBody(w http.ResponseWriter, status int, body []byte) {
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// writeAnnotations answers 200 with the JSON array of anns.
func writeAnnotations(w http.ResponseWriter, r *http.Request, anns []*core.Annotation) {
	wb := startEncode(r)
	defer wb.release()
	wb.list(anns)
	wb.out = append(wb.out, '\n')
	wb.done()
	writeBody(w, http.StatusOK, wb.out)
}

// writeAnnotation answers with one annotation.
func writeAnnotation(w http.ResponseWriter, r *http.Request, status int, ann *core.Annotation) {
	wb := startEncode(r)
	defer wb.release()
	wb.annotation(ann)
	wb.out = append(wb.out, '\n')
	wb.done()
	writeBody(w, status, wb.out)
}
