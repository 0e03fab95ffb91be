// The retained form of a trace: a finished span tree packed once into
// one immutable string, which the rings hold and every reader renders.

package trace

import (
	"encoding/binary"
	"encoding/hex"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Trace is a span tree packed as it stood when it was recorded. It is
// immutable: the live spans it was packed from can go on changing, and
// every rendering of it (Node, Breakdown) is the same.
//
// The string is a 24-byte header — the trace ID, then the root's wall
// start in Unix nanoseconds (little-endian) — and one record per span in
// preorder:
//
//	name        string ref
//	span ID     8 bytes
//	flags       1 byte: flagOpen, flagShard
//	start       varint, wall nanoseconds from the root's start
//	duration    varint nanoseconds, absent when open
//	shard       uvarint, present with flagShard
//	attributes  uvarint count, then each: uvarint code<<1 | isInt (code 0:
//	            the key inline, as uvarint length and bytes), then the
//	            value: a varint, or a uvarint length and bytes
//	children    uvarint count; their records follow
//
// A string ref is a uvarint code into the process's name table, or 0 and
// the string inline. Start times render in time.Local, as time.Now's do.
type Trace struct{ p string }

const (
	headerLen = 16 + 8

	flagOpen  = 1 << 0
	flagShard = 1 << 1
)

// The span names and attribute keys a packed trace refers to by code: one
// table per process that only grows, to at most maxCodes strings of at
// most maxCodeLen bytes; any other string is written inline. A table is
// immutable once published, and each holds every code of the one before.
const (
	maxCodes   = 255
	maxCodeLen = 64
)

type codeTable struct {
	of   map[string]uint64 // string → code, from 1
	strs []string          // code-1 → string
}

var (
	codesMu sync.Mutex // serialises additions
	codes   atomic.Pointer[codeTable]
)

func init() { codes.Store(&codeTable{of: map[string]uint64{}}) }

// codeOf returns s's code in tab, adding it to the process table when
// there is room; 0 means s is written inline.
func codeOf(tab *codeTable, s string) uint64 {
	if c, ok := tab.of[s]; ok {
		return c
	}
	if len(s) > maxCodeLen || len(tab.strs) >= maxCodes {
		return 0
	}
	codesMu.Lock()
	defer codesMu.Unlock()
	cur := codes.Load()
	if c, ok := cur.of[s]; ok {
		return c
	}
	if len(cur.strs) >= maxCodes {
		return 0
	}
	s = strings.Clone(s) // kept for the process: hold no caller's buffer
	next := &codeTable{of: make(map[string]uint64, len(cur.of)+1),
		strs: append(cur.strs[:len(cur.strs):len(cur.strs)], s)}
	for k, c := range cur.of {
		next.of[k] = c
	}
	c := uint64(len(next.strs))
	next.of[s] = c
	codes.Store(next)
	return c
}

// Pack packs the tree under root as it stands (nil for a nil span): what
// the slow-request log renders for a request the rings did not keep.
func Pack(root *Span) *Trace {
	if root == nil {
		return nil
	}
	t, _ := pack(root)
	return t
}

// pack returns the packed tree and its highest shard tag (-1 for none):
// the ring it belongs in.
func pack(root *Span) (*Trace, int) {
	var stack [512]byte // a create trace packs in about 220 bytes
	p := packer{base: root.start.UnixNano(), tab: codes.Load(), hint: -1}
	buf := append(stack[:0], root.traceID[:]...)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(p.base))
	buf = p.span(buf, root)
	return &Trace{p: string(buf)}, p.hint
}

type packer struct {
	base int64 // the root's wall start
	tab  *codeTable
	hint int
}

func (p *packer) span(buf []byte, s *Span) []byte {
	// Spans and attributes are only appended, so the slices read under
	// the lock stay valid after it.
	s.mu.Lock()
	end, shard, attrs, kids := s.end, s.shard, s.attrs, s.children
	s.mu.Unlock()
	buf = p.ref(buf, s.name)
	buf = append(buf, s.spanID[:]...)
	var flags byte
	if end.IsZero() {
		flags |= flagOpen
	}
	if shard >= 0 {
		flags |= flagShard
		p.hint = max(p.hint, shard)
	}
	buf = append(buf, flags)
	buf = binary.AppendVarint(buf, s.start.UnixNano()-p.base)
	if !end.IsZero() {
		buf = binary.AppendVarint(buf, int64(end.Sub(s.start)))
	}
	if shard >= 0 {
		buf = binary.AppendUvarint(buf, uint64(shard))
	}
	buf = binary.AppendUvarint(buf, uint64(len(attrs)))
	for _, a := range attrs {
		c := codeOf(p.tab, a.key) << 1
		if a.isNum {
			c |= 1
		}
		buf = binary.AppendUvarint(buf, c)
		if c>>1 == 0 {
			buf = appendStr(buf, a.key)
		}
		if a.isNum {
			buf = binary.AppendVarint(buf, a.num)
		} else {
			buf = appendStr(buf, a.str)
		}
	}
	buf = binary.AppendUvarint(buf, uint64(len(kids)))
	for _, c := range kids {
		buf = p.span(buf, c)
	}
	return buf
}

func (p *packer) ref(buf []byte, s string) []byte {
	c := codeOf(p.tab, s)
	buf = binary.AppendUvarint(buf, c)
	if c == 0 {
		buf = appendStr(buf, s)
	}
	return buf
}

func appendStr(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

// reader decodes a packed trace; strings it returns share the trace's.
type reader struct {
	p   string
	i   int
	tab *codeTable
}

func (t *Trace) reader() *reader {
	return &reader{p: t.p, i: headerLen, tab: codes.Load()}
}

func (r *reader) uvarint() uint64 {
	var v uint64
	for shift := 0; ; shift += 7 {
		b := r.p[r.i]
		r.i++
		v |= uint64(b&0x7f) << shift
		if b < 0x80 {
			return v
		}
	}
}

func (r *reader) varint() int64 {
	u := r.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (r *reader) bytes(n int) string {
	s := r.p[r.i : r.i+n]
	r.i += n
	return s
}

func (r *reader) str() string { return r.bytes(int(r.uvarint())) }

func (r *reader) code(c uint64) string {
	if c == 0 {
		return r.str()
	}
	return r.tab.strs[c-1]
}

// spanHead is a span record up to its attributes.
type spanHead struct {
	name, id string
	open     bool
	off, dur int64
	shard    int // -1 when untagged
	attrs    int
}

func (r *reader) head() spanHead {
	h := spanHead{name: r.code(r.uvarint()), id: r.bytes(8), shard: -1}
	flags := r.bytes(1)[0]
	h.off = r.varint()
	if h.open = flags&flagOpen != 0; !h.open {
		h.dur = r.varint()
	}
	if flags&flagShard != 0 {
		h.shard = int(r.uvarint())
	}
	h.attrs = int(r.uvarint())
	return h
}

func (r *reader) attr() (key, value string) {
	c := r.uvarint()
	key = r.code(c >> 1)
	if c&1 != 0 {
		return key, strconv.FormatInt(r.varint(), 10)
	}
	return key, r.str()
}

// Node is the JSON projection of a span tree, what /debug/traces and
// ?trace=1 serve.
type Node struct {
	Name           string            `json:"name"`
	TraceID        string            `json:"traceId,omitempty"`
	SpanID         string            `json:"spanId"`
	Shard          *int              `json:"shard,omitempty"`
	Start          time.Time         `json:"start"`
	DurationMicros int64             `json:"durationMicros"`
	Attrs          map[string]string `json:"attrs,omitempty"`
	Children       []*Node           `json:"children,omitempty"`
}

// Node renders the trace as Nodes; the root gets the trace ID. An open
// span has DurationMicros 0, and of repeated attribute keys the first is
// kept. Returns nil on a nil trace.
func (t *Trace) Node() *Node {
	if t == nil {
		return nil
	}
	base := int64(binary.LittleEndian.Uint64([]byte(t.p[16:headerLen])))
	n := t.reader().node(base)
	n.TraceID = hex.EncodeToString([]byte(t.p[:16]))
	return n
}

func (r *reader) node(base int64) *Node {
	h := r.head()
	n := &Node{Name: h.name, SpanID: hex.EncodeToString([]byte(h.id)),
		Start: time.Unix(0, base+h.off)}
	if !h.open {
		n.DurationMicros = time.Duration(h.dur).Microseconds()
	}
	if h.shard >= 0 {
		k := h.shard
		n.Shard = &k
	}
	if h.attrs > 0 {
		n.Attrs = make(map[string]string, h.attrs)
		for range h.attrs {
			k, v := r.attr()
			if _, dup := n.Attrs[k]; !dup {
				n.Attrs[k] = v
			}
		}
	}
	if kids := int(r.uvarint()); kids > 0 {
		n.Children = make([]*Node, kids)
		for i := range n.Children {
			n.Children[i] = r.node(base)
		}
	}
	return n
}

// Breakdown renders the tree on one line — "http=1.2ms{commit=0.9ms{…}}"
// — for the slow-request log. Returns "" on a nil trace.
func (t *Trace) Breakdown() string {
	if t == nil {
		return ""
	}
	var b strings.Builder
	t.reader().breakdown(&b)
	return b.String()
}

func (r *reader) breakdown(b *strings.Builder) {
	h := r.head()
	for range h.attrs {
		r.attr()
	}
	b.WriteString(h.name)
	if h.shard >= 0 {
		b.WriteByte('[')
		b.WriteString(strconv.Itoa(h.shard))
		b.WriteByte(']')
	}
	b.WriteByte('=')
	b.WriteString(time.Duration(h.dur).Round(time.Microsecond).String())
	if kids := int(r.uvarint()); kids > 0 {
		b.WriteByte('{')
		for i := range kids {
			if i > 0 {
				b.WriteByte(' ')
			}
			r.breakdown(b)
		}
		b.WriteByte('}')
	}
}

// Duration returns the root span's duration (0 if it was open).
func (t *Trace) Duration() time.Duration {
	return time.Duration(t.reader().head().dur)
}

// Route returns the root span's first "route" attribute ("" when absent).
func (t *Trace) Route() string {
	r := t.reader()
	for range r.head().attrs {
		if k, v := r.attr(); k == "route" {
			return v
		}
	}
	return ""
}
