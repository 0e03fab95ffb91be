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
// shape, the referent IDs are the document's own digits, copied, and the
// xml string is the content document's own JSON form
// (xmldoc.Document.AppendJSON), whose static text is escaped once per
// shape, so a read escapes only the annotation's values. Nothing is kept
// per annotation: a read leaves the store as it found it.
//
// A list answer streams: once the buffer holds wireChunk bytes after an
// annotation, they go to the connection and the buffer is reused, so a
// read holds one chunk, not its whole answer. The first such write sends
// the status with no Content-Length, and net/http sends the rest chunked.
// An answer that fits in one chunk is written once, with its
// Content-Length. A failed write ends the encoding: the client has gone.
// The one exception is ?trace=1, whose writer (traceBuffer) keeps the
// whole payload to wrap it in the trace envelope.

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

// wireChunk is how many bytes of an answer the encoder holds before it
// writes them to the connection.
const wireChunk = 32 << 10

// wireBuf is the scratch space of one response, the writer its chunks go
// to and the tally of its "encode" span.
type wireBuf struct {
	out    []byte // the answer's bytes not yet written
	w      http.ResponseWriter
	status int
	sent   int   // bytes handed to w before out
	err    error // the first failed write: nothing more is encoded
	sp     *trace.Span
	anns   int // annotations appended
}

var wirePool = sync.Pool{New: func() any { return new(wireBuf) }}

// startEncode takes a buffer from the pool and opens the "encode" child of
// the request's span; the caller appends the answer, calls finish and
// releases the buffer.
func startEncode(w http.ResponseWriter, r *http.Request, status int) *wireBuf {
	wb := wirePool.Get().(*wireBuf)
	*wb = wireBuf{out: wb.out[:0], w: w, status: status,
		sp: trace.FromContext(r.Context()).StartChild("encode")}
	return wb
}

// spill writes the buffer to the connection once it holds a chunk; the
// first write sends the status without a Content-Length.
func (wb *wireBuf) spill() {
	if len(wb.out) < wireChunk || wb.err != nil {
		return
	}
	if wb.sent == 0 {
		wb.w.Header().Set("Content-Type", "application/json")
		wb.w.WriteHeader(wb.status)
	}
	_, wb.err = wb.w.Write(wb.out)
	wb.sent += len(wb.out)
	wb.out = wb.out[:0]
}

// finish closes the span with the work done — annotations in the answer
// and the bytes of them — and sends what is left: an answer that fits in
// one chunk in one write with its length, after the span, so that the
// span is the encoding alone; a streamed one's last chunk inside it.
func (wb *wireBuf) finish() {
	wb.sp.SetAttrInt("annotations", int64(wb.anns))
	wb.sp.SetAttrInt("bytes", int64(wb.sent+len(wb.out)))
	if wb.sent == 0 {
		wb.sp.Finish()
		writeBody(wb.w, wb.status, wb.out)
		return
	}
	if wb.err == nil {
		_, wb.err = wb.w.Write(wb.out)
	}
	wb.sp.Finish()
}

// release returns the buffer to the pool unless one huge annotation grew
// it well past a chunk.
func (wb *wireBuf) release() {
	wb.w, wb.sp = nil, nil
	if cap(wb.out) <= 2*wireChunk {
		wirePool.Put(wb)
	}
}

// wireSlots is where a document of one shape keeps what an annotation's
// object carries besides its xml, among its values: the first creator,
// date and title (dublincore.Meta.Slot; -1: none), the ontology
// references and the referents' IDs (core.ReferenceSlots).
type wireSlots struct {
	dc    [3]int
	terms [][2]int32
	refs  []int32
}

var wireLayout = xmldoc.NewShapeMemo(func(d *xmldoc.Document) *wireSlots {
	m := dublincore.MetaOf(d)
	ws := &wireSlots{dc: [3]int{m.Slot(dublincore.Creator), m.Slot(dublincore.Date), m.Slot(dublincore.Title)}}
	ws.refs, ws.terms = core.ReferenceSlots(d)
	return ws
})

// annotation appends ann's JSON object to wb.out.
func (wb *wireBuf) annotation(ann *core.Annotation) {
	wb.anns++
	ws, vals := wireLayout.Get(ann.Content), ann.Content.Root.Slots()
	first := func(k int) string {
		if ws.dc[k] < 0 {
			return ""
		}
		return vals.At(ws.dc[k])
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
	if len(ws.terms) > 0 {
		dst = append(dst, `,"terms":[`...)
		for i, t := range ws.terms {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"Ontology":`...)
			dst = jsonstr.Append(dst, vals.At(int(t[0])))
			dst = append(dst, `,"TermID":`...)
			dst = jsonstr.Append(dst, vals.At(int(t[1])))
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	if len(ws.refs) > 0 {
		dst = append(dst, `,"referents":[`...)
		for i, s := range ws.refs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, vals.At(int(s))...) // the decimal ID, as the document holds it
		}
		dst = append(dst, ']')
	}
	dst = append(dst, `,"xml":`...)
	dst = ann.Content.AppendJSON(dst)
	wb.out = append(dst, '}')
}

// list appends the JSON array of anns (never null: no annotations is
// []), writing each chunk as it fills; it stops at a failed write.
func (wb *wireBuf) list(anns []*core.Annotation) {
	wb.out = append(wb.out, '[')
	for i, ann := range anns {
		if wb.err != nil {
			return
		}
		if i > 0 {
			wb.out = append(wb.out, ',')
		}
		wb.annotation(ann)
		wb.spill()
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
	wb := startEncode(w, r, http.StatusOK)
	defer wb.release()
	wb.list(anns)
	wb.out = append(wb.out, '\n')
	wb.finish()
}

// writeAnnotation answers with one annotation.
func writeAnnotation(w http.ResponseWriter, r *http.Request, status int, ann *core.Annotation) {
	wb := startEncode(w, r, status)
	defer wb.release()
	wb.annotation(ann)
	wb.out = append(wb.out, '\n')
	wb.finish()
}
