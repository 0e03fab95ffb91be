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
// straight from the *core.Annotation into a pooled buffer, and because a
// committed annotation never changes, the finished fragment is kept on the
// annotation (core.Annotation.Encoded): the first read that encodes an
// annotation pays for walking its XML tree, every later read of it, on
// any route, copies the bytes. A response is '[' + fragments + ']' built
// in the buffer and written once, with its Content-Length.
//
// Only reads keep fragments. POST /api/annotations encodes its answer
// through the same code and throws the bytes away, so a store that is
// only written to grows by nothing.

package httpapi

import (
	"net/http"
	"strconv"
	"sync"
	"unicode/utf8"

	"graphitti/internal/core"
	"graphitti/internal/trace"
)

// wireBuf is the scratch space of one response and the tally of its
// "encode" span.
type wireBuf struct {
	out []byte // the body under construction
	xml []byte // one annotation's serialised content document

	sp           *trace.Span
	anns, misses int // annotations appended; those that had no fragment yet
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
	*wb = wireBuf{out: wb.out[:0], xml: wb.xml,
		sp: trace.FromContext(r.Context()).StartChild("encode")}
	return wb
}

// done closes the span with the work done: annotations in the answer, the
// bytes of them, and how many had to be encoded rather than copied.
func (wb *wireBuf) done() {
	wb.sp.SetAttrInt("annotations", int64(wb.anns))
	wb.sp.SetAttrInt("bytes", int64(len(wb.out)))
	wb.sp.SetAttrInt("memo_misses", int64(wb.misses))
	wb.sp.Finish()
	wb.sp = nil
}

func (wb *wireBuf) release() {
	if cap(wb.out) <= maxPooledWire && cap(wb.xml) <= maxPooledWire {
		wirePool.Put(wb)
	}
}

// annotation appends ann's fragment to wb.out: a copy of the one kept on
// the annotation, or a fresh encoding, which keep then stores there for
// the reads that follow.
func (wb *wireBuf) annotation(ann *core.Annotation, keep bool) {
	wb.anns++
	if frag := ann.Encoded(); frag != "" {
		wb.out = append(wb.out, frag...)
		return
	}
	wb.misses++
	start := len(wb.out)
	dst := append(wb.out, `{"id":`...)
	dst = strconv.AppendUint(dst, ann.ID, 10)
	dst = append(dst, `,"creator":`...)
	dst = appendJSONString(dst, ann.DC.First("creator"))
	dst = append(dst, `,"date":`...)
	dst = appendJSONString(dst, ann.DC.First("date"))
	if title := ann.DC.First("title"); title != "" {
		dst = append(dst, `,"title":`...)
		dst = appendJSONString(dst, title)
	}
	if len(ann.Terms) > 0 {
		dst = append(dst, `,"terms":[`...)
		for i, t := range ann.Terms {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"Ontology":`...)
			dst = appendJSONString(dst, t.Ontology)
			dst = append(dst, `,"TermID":`...)
			dst = appendJSONString(dst, t.TermID)
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
	wb.xml = ann.Content.AppendTo(wb.xml[:0])
	dst = appendJSONString(dst, wb.xml)
	wb.out = append(dst, '}')
	if keep {
		ann.SetEncoded(string(wb.out[start:]))
	}
}

// list appends the JSON array of anns to wb.out (never null: no
// annotations is []), keeping the fragments it has to encode.
func (wb *wireBuf) list(anns []*core.Annotation) {
	wb.out = append(wb.out, '[')
	for i, ann := range anns {
		if i > 0 {
			wb.out = append(wb.out, ',')
		}
		wb.annotation(ann, true)
	}
	wb.out = append(wb.out, ']')
}

const hexDigits = "0123456789abcdef"

// appendJSONString appends s as a JSON string exactly as encoding/json
// does with HTML escaping on, its default: the two-character escapes for
// quote, backslash, \b, \f, \n, \r and \t; \u00XX for the other control
// bytes and for <, > and &; \u2028 and \u2029 for the two separators
// JavaScript treats as line ends; \ufffd for each byte that is not part of
// a valid UTF-8 sequence. Runs of bytes needing none of it are copied
// whole.
func appendJSONString[S []byte | string](dst []byte, s S) []byte {
	dst = append(dst, '"')
	start := 0
	for i := 0; i < len(s); {
		b := s[i]
		if b < utf8.RuneSelf {
			if b >= ' ' && b != '"' && b != '\\' && b != '<' && b != '>' && b != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch b {
			case '"', '\\':
				dst = append(dst, '\\', b)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[b>>4], hexDigits[b&0xF])
			}
			i++
			start = i
			continue
		}
		// At most one rune's worth is converted, so the conversion of a
		// byte slice stays on the stack.
		r, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	dst = append(dst, s[start:]...)
	return append(dst, '"')
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

// writeAnnotation answers with one annotation. A read keeps the fragment
// it encodes; the answer to a create does not.
func writeAnnotation(w http.ResponseWriter, r *http.Request, status int, ann *core.Annotation, keep bool) {
	wb := startEncode(r)
	defer wb.release()
	wb.annotation(ann, keep)
	wb.out = append(wb.out, '\n')
	wb.done()
	writeBody(w, status, wb.out)
}
