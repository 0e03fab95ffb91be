// Package xmldoc provides the XML document model underlying Graphitti's
// annotation contents.
//
// The paper stores each annotation content as "an XML document whose
// elements consist of Dublin core attributes and other user-defined tags",
// and the a-graph "connects nodes of the XML annotation trees" to index and
// ontology nodes. A server holds one such document per annotation, and
// nearly all of them are built from one template, so the model is built
// to be small: a document is a shape, shared with every document of the
// same structure, and its own values.
//
// # Layout
//
// The shape is everything two documents of one kind have in common: the
// node kinds, the element and attribute names, which node is whose
// parent. It is a table of 16-byte node entries in document order (a
// parent before its children, a subtree before the next sibling), one
// 4-byte entry per value slot, and the shape's canonical encoding, which
// the names are read from. A node entry carries its parent's index, the
// index one past its last descendant (its extent), where its name starts
// in the encoding, and its first value slot. There is no per-node heap
// object, child slice or back pointer: the descendants of node i are the
// entries i+1 up to its extent, its children are found by hopping from
// extent to extent, and table order is document order, so a sorted list
// of indices needs no further sort.
//
// The values are what makes each document its own: the character data of
// its text and comment nodes and the values of its attributes, one slot
// each, in document order (an element's attributes before its children).
// Node i's values are the slots from its entry's slot up to the next
// entry's, so an element's attributes need no table of their own. A sealed
// document keeps them in one immutable block: the value bytes back to
// back, then each slot's end offset, 2 bytes wide when the values total
// under 64 KiB and 4 bytes otherwise. A value is read as a substring of the
// block; no slot has a string header or an allocation of its own.
//
// # Building and sealing
//
// A document is built front to back, into a private shape held in a
// scratch buffer that is reused from one document to the next: a node can
// only be added under an element whose subtree still reaches the end of
// the table (the root, or the element added last, or one of its
// ancestors). Every document this repository builds — the commit path's
// content document, Parse — is written in that order anyway. Attributes
// may be set on any element at any time while building.
//
// Seal ends the building. It looks the shape up in one process-wide intern
// table keyed by its encoding: a document whose shape is there already
// shares that one and keeps only a 40-byte header and its value block,
// packed out of the scratch in one allocation; otherwise the shape is
// copied out of the scratch once and entered. The table holds its shapes
// weakly, and an entry is dropped once its shape has been collected: a
// shape lives exactly as long as some document uses it, so documents with
// names never seen before — hostile tag names included — cost the table
// nothing once they are gone. Every write to a sealed document panics;
// Parse returns its documents sealed.
//
// # Serialising
//
// AppendTo writes a document as indented XML. AppendJSON writes the same
// text as a JSON string without building it first: a sealed shape keeps
// a skeleton, its serialisation with the values left out and every static
// run JSON-escaped, built on first use, so AppendJSON copies the runs and
// escapes only the document's values. A skeleton costs about its escaped
// static text, once per shape, and is freed with the shape, as is
// anything a ShapeMemo derives from it.
//
// # IDs and handles
//
// A node's ID is its table index plus one. IDs are therefore dense, stable
// for the life of the document and assigned in document order, which is
// what external structures that reference individual elements (the
// a-graph's content nodes, Path) rely on.
//
// Callers reach nodes through Node, a small value handle: the document and
// an index. A handle stays valid across later additions to its document,
// across Seal, and for as long as the document lives; it keeps the whole
// document alive, not just its node. A handle must not be used with
// another document's methods. Sealed documents are read concurrently and
// never written.
package xmldoc

import (
	"encoding/binary"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"

	"strings"
	"sync"
	"sync/atomic"
	"unicode/utf8"
	"weak"

	"graphitti/internal/jsonstr"
)

// Kind discriminates node types.
type Kind uint8

const (
	// ElementNode is a tagged element; it may carry attributes and children.
	ElementNode Kind = iota
	// TextNode is character data; Value holds the text.
	TextNode
	// CommentNode is an XML comment; Value holds the comment body.
	CommentNode
)

func (k Kind) String() string {
	switch k {
	case ElementNode:
		return "element"
	case TextNode:
		return "text"
	case CommentNode:
		return "comment"
	default:
		return fmt.Sprintf("kind(%d)", k)
	}
}

// ErrNoRoot is returned when parsing input that contains no element.
var ErrNoRoot = errors.New("xmldoc: document has no root element")

// Attr is a name/value attribute pair on an element.
type Attr struct {
	Name  string
	Value string
}

// node is one entry of a shape's node table (16 bytes).
type node struct {
	// name is, for an element, the offset of its name's length prefix in
	// the shape's encoding. A text or comment node keeps its kind here
	// instead, negated.
	name   int32
	parent int32 // index of the parent; -1 for the root
	// end is the index one past the node's last descendant, or 0 while the
	// subtree still reaches the end of the table (see shape.end).
	end int32
	// slot is the node's first value slot: a text or comment node's own,
	// an element's first attribute's.
	slot int32
}

func (nd *node) kind() Kind {
	if nd.name < 0 {
		return Kind(-nd.name)
	}
	return ElementNode
}

// attrRecord is the header of an attribute's record in an encoding; a
// node's header is its kind and its parent's index plus one, as
// (parent+1)<<2 | kind.
const attrRecord = 3

// shape is the structure of a document. Its canonical encoding is, in
// document order, a record per node — the uvarint header above and, for
// an element, its length-prefixed name — with each element's record
// followed by a record per attribute: attrRecord and the length-prefixed
// name. Equal encodings mean equal tables.
type shape struct {
	// key is the encoding of a sealed shape; "" while the shape is private.
	key   string
	nodes []node
	// slots has an entry per value slot: for an attribute, the offset of
	// its name's length prefix in the encoding; for a text or comment
	// node, its kind, negated.
	slots []int32
	// b is the scratch a private shape lives in; nil once sealed.
	b *scratch
	// memos holds what ShapeMemos derived from the sealed shape, its
	// skeleton among them.
	memos atomic.Pointer[memoEntry]
}

// scratch is a private shape and the rest of what a document is built in:
// the encoding so far and the values. It is reused from one document to
// the next.
type scratch struct {
	shape
	enc  []byte
	vals []string
}

var scratches = sync.Pool{New: func() any {
	b := new(scratch)
	b.b = b
	return b
}}

// shapes is the intern table: the sealed shapes, keyed by their encodings
// and held weakly.
var shapes = struct {
	sync.Mutex
	m map[string]weak.Pointer[shape]
}{m: make(map[string]weak.Pointer[shape])}

// intern returns the sealed shape whose encoding is b's, entering a copy
// of b's private shape if there is none yet.
func intern(b *scratch) *shape {
	shapes.Lock()
	defer shapes.Unlock()
	if sh := shapes.m[string(b.enc)].Value(); sh != nil {
		return sh
	}
	sh := &shape{key: string(b.enc), nodes: slices.Clone(b.nodes), slots: slices.Clone(b.slots)}
	shapes.m[sh.key] = weak.Make(sh)
	runtime.AddCleanup(sh, forget, sh.key)
	return sh
}

// forget drops the entry of a collected shape, unless the key has been
// entered again since.
func forget(key string) {
	shapes.Lock()
	defer shapes.Unlock()
	if shapes.m[key].Value() == nil {
		delete(shapes.m, key)
	}
}

// nameAt returns the bounds of the length-prefixed name at off in an
// encoding.
func nameAt[S ~string | ~[]byte](enc S, off int32) (lo, hi int32) {
	n, shift := int32(0), 0
	for lo = off; ; shift += 7 {
		c := enc[lo]
		lo++
		n |= int32(c&0x7f) << shift
		if c < 0x80 {
			return lo, lo + n
		}
	}
}

// name returns the name whose length prefix is at off. A sealed shape's
// names are cut from its key (a private shape's key is empty), and a name
// shorter than 128 bytes has a one-byte prefix.
func (sh *shape) name(off int32) string {
	if k := sh.key; uint(off) < uint(len(k)) && k[off] < 0x80 {
		return k[off+1:][:k[off]]
	}
	return sh.longName(off)
}

// longName is name for a long name, a private shape, or an offset that
// is a node's kind ("").
func (sh *shape) longName(off int32) string {
	if off < 0 {
		return ""
	}
	if sh.b == nil {
		lo, hi := nameAt(sh.key, off)
		return sh.key[lo:hi]
	}
	lo, hi := nameAt(sh.b.enc, off)
	return string(sh.b.enc[lo:hi])
}

// end returns the index one past the last descendant of node i.
func (sh *shape) end(i int32) int32 {
	if e := sh.nodes[i].end; e != 0 {
		return e
	}
	return int32(len(sh.nodes))
}

// attrs returns the value slots of node i's attributes, lo to hi.
func (sh *shape) attrs(i int32) (lo, hi int32) {
	if sh.nodes[i].name < 0 {
		return 0, 0 // a text or comment node
	}
	lo, hi = sh.nodes[i].slot, int32(len(sh.slots))
	if next := i + 1; int(next) < len(sh.nodes) {
		hi = sh.nodes[next].slot
	}
	return lo, hi
}

// Document is one XML document: its shape and its values.
type Document struct {
	// Root is the root element.
	Root Node
	sh   *shape
	// vals is a sealed document's value block (see pack); "" while the
	// document is being built, whose values are its scratch's.
	vals string
}

// pack lays vals out as a value block: their bytes back to back, then the
// end offset of each, little-endian, 2 bytes wide when the values total
// under 64 KiB and 4 bytes otherwise. It is one allocation.
func pack(vals []string) string {
	size := 0
	for _, v := range vals {
		size += len(v)
	}
	if uint64(size) >= 1<<31 {
		panic("xmldoc: a document's values total 2 GiB or more")
	}
	w := 2
	if size >= 1<<16 {
		w = 4
	}
	var b strings.Builder
	b.Grow(size + w*len(vals))
	for _, v := range vals {
		b.WriteString(v)
	}
	end := 0
	for _, v := range vals {
		end += len(v)
		for k := range w {
			b.WriteByte(byte(end >> (8 * k)))
		}
	}
	return b.String()
}

// values is a value block opened for reading.
type values struct {
	blk  string
	ends int32 // where the end offsets start: the values' total size
	wide bool  // 4-byte end offsets
}

// values opens d's value block. The width of its end offsets follows from
// its length and the shape's slot count n: 2-byte ends leave the values
// len-2n bytes, under 64 KiB, and 4-byte ends leave them len-4n, at least
// 64 KiB, so len-2n is at least that too. A document being built packs its
// scratch's values into a block of their own on every call, so readers
// have one form to read; nothing reads a document while it is built but
// tests and diagnostics.
func (d *Document) values() values {
	blk := d.vals
	if b := d.sh.b; b != nil {
		blk = pack(b.vals)
	}
	n := len(d.sh.slots)
	ends := len(blk) - 2*n
	if ends >= 1<<16 {
		return values{blk, int32(len(blk) - 4*n), true}
	}
	return values{blk: blk, ends: int32(ends)}
}

// end returns the end offset of slot s's value: slot s's value is
// blk[end(s-1):end(s)], slot 0's starting at 0.
func (v values) end(s int) int {
	if !v.wide {
		e := v.blk[int(v.ends)+2*s:]
		return int(e[0]) | int(e[1])<<8
	}
	e := v.blk[int(v.ends)+4*s:]
	return int(e[0]) | int(e[1])<<8 | int(e[2])<<16 | int(e[3])<<24
}

// at returns slot s's value.
func (v values) at(s int) string {
	lo := 0
	if s > 0 {
		lo = v.end(s - 1)
	}
	return v.blk[lo:v.end(s)]
}

// value returns the value of d's slot s.
func (d *Document) value(s int32) string { return d.values().at(int(s)) }

// Node is a handle on one node of a document, or on one attribute of an
// element (path expressions select those). The zero Node addresses
// nothing; Valid tells the two apart. Handles are comparable: two are equal
// when they address the same thing.
//
// An attribute handle reads as a text node that is not part of the tree:
// Name and Value are the attribute's, ID and Parent are the owning
// element's, and it has no children.
type Node struct {
	d    *Document
	i    int32 // table index
	attr int32 // 0, or 1 + the value slot of the attribute addressed
}

// NewDocument returns a document holding a root element of the given name,
// to be built and then sealed.
func NewDocument(rootName string) *Document {
	d := newDocument()
	d.add(-1, ElementNode, rootName)
	return d
}

// newDocument returns an empty document in a scratch of its own.
func newDocument() *Document {
	return &Document{sh: &scratches.Get().(*scratch).shape}
}

// scratch returns what d is being built in. This is where every write to a
// sealed document panics.
func (d *Document) scratch() *scratch {
	if d.sh.b == nil {
		panic("xmldoc: write to a sealed document")
	}
	return d.sh.b
}

// add appends a node under the element at index parent (-1: as the root)
// and returns its index. The parent's subtree must still reach the end of
// the table; every element between the last node and the parent ends here.
func (d *Document) add(parent int32, kind Kind, text string) int32 {
	b := d.scratch()
	i := int32(len(b.nodes))
	if parent < 0 {
		d.Root = Node{d: d}
	} else {
		if b.nodes[parent].end != 0 {
			panic(fmt.Sprintf("xmldoc: node %d is closed: a document is built in document order", parent+1))
		}
		for a := i - 1; a != parent; a = b.nodes[a].parent {
			if b.nodes[a].end == 0 {
				b.nodes[a].end = i
			}
		}
	}
	nd := node{parent: parent, slot: int32(len(b.slots))}
	b.enc = binary.AppendUvarint(b.enc, uint64(parent+1)<<2|uint64(kind))
	if kind == ElementNode {
		nd.name = int32(len(b.enc))
		b.enc = appendName(b.enc, text)
	} else {
		nd.name, nd.end = -int32(kind), i+1
		b.slots = append(b.slots, -int32(kind))
		b.vals = append(b.vals, text)
	}
	b.nodes = append(b.nodes, nd)
	return i
}

func appendName(enc []byte, name string) []byte {
	return append(binary.AppendUvarint(enc, uint64(len(name))), name...)
}

// addAttr gives element i one more attribute, after the ones it has. Its
// record goes after theirs in the encoding and its value after theirs in
// the slots. When i is the last node, as it is whenever Parse and the
// commit path set attributes, that is the end of both; otherwise every
// later name moves by the record's length and every later node by a slot.
func (d *Document) addAttr(i int32, name, value string) {
	b := d.scratch()
	if int(i) == len(b.nodes)-1 {
		b.slots = append(b.slots, int32(len(b.enc))+1)
		b.enc = appendName(append(b.enc, attrRecord), name)
		b.vals = append(b.vals, value)
		return
	}
	lo, hi := b.attrs(i)
	last := b.nodes[i].name
	if hi > lo {
		last = b.slots[hi-1]
	}
	_, at := nameAt(b.enc, last)
	size := int32(len(b.enc))
	b.enc = appendName(append(b.enc, attrRecord), name)
	if at < size { // rotate the record into place
		slices.Reverse(b.enc[at:size])
		slices.Reverse(b.enc[size:])
		slices.Reverse(b.enc[at:])
	}
	size = int32(len(b.enc)) - size
	for j := i + 1; int(j) < len(b.nodes); j++ {
		if nd := &b.nodes[j]; nd.name >= 0 {
			nd.name += size
		}
		b.nodes[j].slot++
	}
	for s := hi; int(s) < len(b.slots); s++ {
		if b.slots[s] >= 0 {
			b.slots[s] += size
		}
	}
	b.slots = slices.Insert(b.slots, int(hi), at+1)
	b.vals = slices.Insert(b.vals, int(hi), value)
}

// Seal ends the building of d. Its shape is looked up in the intern table,
// and entered if it is not there yet; d keeps that shape and its values,
// packed out of the scratch into one block, and the scratch goes back to
// be reused. Every write to a sealed document panics. Sealing a sealed
// document does nothing.
func (d *Document) Seal() {
	b := d.sh.b
	if b == nil {
		return
	}
	d.sh = intern(b)
	d.vals = pack(b.vals)
	clear(b.vals)
	b.nodes, b.slots, b.enc, b.vals = b.nodes[:0], b.slots[:0], b.enc[:0], b.vals[:0]
	scratches.Put(b)
}

// A ShapeMemo keeps a value derived from a document's shape alone — its
// nodes, names and attributes and where each value sits, never the values
// themselves — on the shape: it is derived once per shape, on first use,
// and freed with the shape. A document still being built keeps nothing.
type ShapeMemo[T any] struct {
	derive func(*Document) T
}

// memoEntry is one ShapeMemo's value on a shape, in a list that only
// grows at its head.
type memoEntry struct {
	memo any
	val  any
	next *memoEntry
}

// NewShapeMemo returns a memo of derive, which must read only what d's
// shape fixes.
func NewShapeMemo[T any](derive func(d *Document) T) *ShapeMemo[T] {
	return &ShapeMemo[T]{derive: derive}
}

// Get returns the value derived for d's shape.
func (m *ShapeMemo[T]) Get(d *Document) T {
	if e := d.sh.memos.Load(); e != nil && e.memo == m {
		return e.val.(T)
	}
	return m.get(d)
}

// get is Get past the head of the list. Readers that derive one memo at
// once all keep what they derived: the first to enter it wins, and the
// others look again.
func (m *ShapeMemo[T]) get(d *Document) T {
	sh := d.sh
	for {
		head := sh.memos.Load()
		for e := head; e != nil; e = e.next {
			if e.memo == m {
				return e.val.(T)
			}
		}
		v := m.derive(d)
		if sh.b != nil || sh.memos.CompareAndSwap(head, &memoEntry{m, v, head}) {
			return v
		}
	}
}

// own returns the table index of a handle that must address a node of d.
func (d *Document) own(n Node) int32 {
	if n.d != d || n.attr != 0 {
		panic("xmldoc: handle is not a node of this document")
	}
	return n.i
}

// Len reports the number of nodes in the document.
func (d *Document) Len() int { return len(d.sh.nodes) }

// AddElement appends an element as the last child of parent and returns
// it.
func (d *Document) AddElement(parent Node, name string) Node {
	return Node{d: d, i: d.add(d.own(parent), ElementNode, name)}
}

// AddElementText is the common "leaf element with text content" helper: it
// creates <name>text</name> under parent and returns the element.
func (d *Document) AddElementText(parent Node, name, text string) Node {
	e := d.AddElement(parent, name)
	d.add(e.i, TextNode, text)
	return e
}

// Valid reports whether the handle addresses a node or attribute.
func (n Node) Valid() bool { return n.d != nil }

// Kind returns the node's type.
func (n Node) Kind() Kind {
	if n.attr != 0 {
		return TextNode
	}
	return n.d.sh.nodes[n.i].kind()
}

// Name returns the element name ("" for text and comment nodes).
func (n Node) Name() string {
	sh := n.d.sh
	off := sh.nodes[n.i].name
	if n.attr != 0 {
		off = sh.slots[n.attr-1]
	}
	return sh.name(off)
}

// Value returns the character data of a text or comment node ("" for
// elements).
func (n Node) Value() string {
	if n.attr != 0 {
		return n.d.value(n.attr - 1)
	}
	if nd := &n.d.sh.nodes[n.i]; nd.name < 0 {
		return n.d.value(nd.slot)
	}
	return ""
}

// Slots is a run of one document's value slots, read in place: each value
// is a substring of the document's value block, not a copy. It holds the
// block open, so reading many slots of one run opens it once. The zero
// Slots is empty.
type Slots struct {
	vals   values
	lo, hi int32
}

// Slots returns the value slots of the subtree rooted at n — its own
// attributes' and every descendant's text, comment and attribute values —
// in document order: one run of its document's slots.
func (n Node) Slots() Slots {
	if n.attr != 0 {
		return Slots{n.d.values(), n.attr - 1, n.attr}
	}
	sh := n.d.sh
	lo, hi := sh.nodes[n.i].slot, int32(len(sh.slots))
	if end := sh.end(n.i); int(end) < len(sh.nodes) {
		hi = sh.nodes[end].slot
	}
	return Slots{n.d.values(), lo, hi}
}

// Len returns the number of slots in the run.
func (r Slots) Len() int { return int(r.hi - r.lo) }

// At returns the value of the run's k-th slot.
func (r Slots) At(k int) string {
	if uint(k) >= uint(r.Len()) {
		panic(fmt.Sprintf("xmldoc: slot %d of a run of %d", k, r.Len()))
	}
	return r.vals.at(int(r.lo) + k)
}

// Slice returns the run's slots i up to j.
func (r Slots) Slice(i, j int) Slots {
	if i < 0 || i > j || j > r.Len() {
		panic(fmt.Sprintf("xmldoc: slots [%d:%d] of a run of %d", i, j, r.Len()))
	}
	return Slots{r.vals, r.lo + int32(i), r.lo + int32(j)}
}

// All visits the run's values in order until yield returns false.
func (r Slots) All(yield func(string) bool) {
	for s := int(r.lo); s < int(r.hi); s++ {
		if !yield(r.vals.at(s)) {
			return
		}
	}
}

// Slot returns where n's values start among its document's: n.Slots() is
// the run of d.Root.Slots() beginning at n.Slot(). Like the node's ID it
// depends on the shape alone.
func (n Node) Slot() int {
	if n.attr != 0 {
		return int(n.attr - 1)
	}
	return int(n.d.sh.nodes[n.i].slot)
}

// Parent returns the node's parent element; the root has none.
func (n Node) Parent() Node {
	if n.attr != 0 {
		return Node{d: n.d, i: n.i}
	}
	if p := n.d.sh.nodes[n.i].parent; p >= 0 {
		return Node{d: n.d, i: p}
	}
	return Node{}
}

// FirstChild returns the node's first child, if it has one. With
// NextSibling it walks the children in order:
//
//	for c := n.FirstChild(); c.Valid(); c = c.NextSibling() { … }
func (n Node) FirstChild() Node {
	if n.attr == 0 && n.i+1 < n.d.sh.end(n.i) {
		return Node{d: n.d, i: n.i + 1}
	}
	return Node{}
}

// NextSibling returns the node that follows n under the same parent, if
// there is one.
func (n Node) NextSibling() Node {
	if n.attr != 0 {
		return Node{}
	}
	sh := n.d.sh
	if p := sh.nodes[n.i].parent; p >= 0 {
		if next := sh.end(n.i); next < sh.end(p) {
			return Node{d: n.d, i: next}
		}
	}
	return Node{}
}

// NumAttrs returns the number of the element's attributes.
func (n Node) NumAttrs() int {
	if n.attr != 0 {
		return 0
	}
	lo, hi := n.d.sh.attrs(n.i)
	return int(hi - lo)
}

// attrSlot returns the value slot of the k-th attribute.
func (n Node) attrSlot(k int) int32 {
	lo, hi := n.d.sh.attrs(n.i)
	if n.attr != 0 || uint(k) >= uint(hi-lo) {
		panic(fmt.Sprintf("xmldoc: attribute %d of an element with %d", k, n.NumAttrs()))
	}
	return lo + int32(k)
}

// AttrAt returns the k-th of the element's attributes, in the order they
// were set.
func (n Node) AttrAt(k int) Attr {
	s := n.attrSlot(k)
	return Attr{n.d.sh.name(n.d.sh.slots[s]), n.d.value(s)}
}

// AttrNode returns a handle on the k-th attribute.
func (n Node) AttrNode(k int) Node {
	return Node{d: n.d, i: n.i, attr: n.attrSlot(k) + 1}
}

// SetAttr sets (or replaces) an attribute on an element node of a document
// still being built.
func (n Node) SetAttr(name, value string) {
	d := n.d
	i := d.own(n)
	b := d.scratch()
	if k := b.nodes[i].kind(); k != ElementNode {
		panic("xmldoc: SetAttr on a " + k.String() + " node")
	}
	lo, hi := b.attrs(i)
	for s := lo; s < hi; s++ {
		if l, h := nameAt(b.enc, b.slots[s]); string(b.enc[l:h]) == name {
			b.vals[s] = value
			return
		}
	}
	d.addAttr(i, name, value)
}

// Text returns the concatenation of all text content in the subtree rooted
// at n, in document order. The text of a subtree with a single text node
// is that node's value, read in place, not a copy.
func (n Node) Text() string {
	if n.attr != 0 {
		return n.Value()
	}
	d := n.d
	sub := d.sh.nodes[n.i:d.sh.end(n.i)]
	v := d.values()
	var first string
	pieces, size := 0, 0
	for k := range sub {
		if sub[k].name == -int32(TextNode) {
			text := v.at(int(sub[k].slot))
			if pieces == 0 {
				first = text
			}
			pieces++
			size += len(text)
		}
	}
	if pieces <= 1 {
		return first
	}
	var sb strings.Builder
	sb.Grow(size)
	for k := range sub {
		if sub[k].name == -int32(TextNode) {
			sb.WriteString(v.at(int(sub[k].slot)))
		}
	}
	return sb.String()
}

// FirstChildElement returns the first element child named name, if any.
func (n Node) FirstChildElement(name string) Node {
	for c := n.FirstChild(); c.Valid(); c = c.NextSibling() {
		if c.Kind() == ElementNode && c.Name() == name {
			return c
		}
	}
	return Node{}
}

// Descendants visits every node in the subtree rooted at n (excluding n) in
// document order until fn returns false.
func (n Node) Descendants(fn func(Node) bool) {
	if n.attr != 0 {
		return
	}
	for j, end := n.i+1, n.d.sh.end(n.i); j < end; j++ {
		if !fn(Node{d: n.d, i: j}) {
			return
		}
	}
}

// Compare orders two handles of one document by document order: negative
// when n comes before m, zero when they are equal. An attribute sorts after
// its element and before the element's first child, attributes of one
// element in the order AttrAt numbers them.
func (n Node) Compare(m Node) int {
	if n.i != m.i {
		return int(n.i) - int(m.i)
	}
	return int(n.attr) - int(m.attr)
}

// Parse reads an XML document from r and returns it sealed.
func Parse(r io.Reader) (*Document, error) {
	dec := xml.NewDecoder(r)
	d := newDocument()
	open := int32(-1) // the innermost element still open
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmldoc: parse: %w", err)
		}
		switch t := tok.(type) {
		case xml.StartElement:
			if open < 0 && d.Len() > 0 {
				return nil, errors.New("xmldoc: multiple root elements")
			}
			open = d.add(open, ElementNode, t.Name.Local)
			for _, a := range t.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				d.addAttr(open, a.Name.Local, a.Value)
			}
		case xml.EndElement:
			if open < 0 {
				return nil, errors.New("xmldoc: unbalanced end element")
			}
			open = d.sh.nodes[open].parent
		case xml.CharData:
			if open < 0 {
				continue // whitespace outside the root
			}
			text := string(t)
			if strings.TrimSpace(text) == "" {
				continue
			}
			d.add(open, TextNode, text)
		case xml.Comment:
			if open < 0 {
				continue
			}
			d.add(open, CommentNode, string(t))
		}
	}
	if d.Len() == 0 {
		return nil, ErrNoRoot
	}
	d.Seal()
	return d, nil
}

// WriteTo serialises the document to w with two-space indentation.
func (d *Document) WriteTo(w io.Writer) (int64, error) {
	n, err := w.Write(d.AppendTo(nil))
	return int64(n), err
}

// String returns the serialised document.
func (d *Document) String() string {
	return string(d.AppendTo(nil))
}

// AppendTo appends the serialised document (two-space indentation, one
// node per line except under mixed content) to dst and returns the
// extended buffer — the one serializer behind String and WriteTo, for
// callers that own a buffer.
func (d *Document) AppendTo(dst []byte) []byte {
	p := printer{sh: d.sh, vals: d.values()}
	return p.appendNode(dst, 0, 0)
}

// AppendJSON appends AppendTo's serialisation of the document as a JSON
// string, byte for byte what the jsonstr package writes for it, and
// returns the extended buffer. The static text between the values is
// the shape's: it is serialised and escaped once per shape, on first use,
// and kept on the shape (see skeleton). Only the values are escaped here,
// each in one pass: an attribute or text value XML-escaped and then
// JSON-escaped, fused, a comment JSON-escaped alone.
func (d *Document) AppendJSON(dst []byte) []byte {
	sk := skeletons.Get(d)
	vals := d.values()
	dst = slices.Grow(dst, len(sk.text)+int(vals.ends))
	slots := d.sh.slots
	cuts := sk.cuts[:len(slots)]
	at, lo := int32(0), 0
	for s := range slots {
		hi := vals.end(s)
		v := vals.blk[lo:hi]
		lo = hi
		dst = append(dst, sk.text[at:cuts[s]]...)
		at = cuts[s]
		if slots[s] == -int32(CommentNode) {
			dst = jsonstr.AppendContents(dst, v)
			continue
		}
		i := 0
		for i+4 <= len(v) && plainJSON[v[i]] && plainJSON[v[i+1]] && plainJSON[v[i+2]] && plainJSON[v[i+3]] {
			i += 4
		}
		for i < len(v) && plainJSON[v[i]] {
			i++
		}
		dst = append(dst, v[:i]...)
		if i < len(v) {
			dst = appendEscapedJSON(dst, v[i:])
		}
	}
	return append(dst, sk.text[at:]...)
}

// skeleton is a shape's serialisation as a JSON string with the values
// left out: text holds the static runs — indentation, tags, names,
// quotes and line ends — JSON-escaped, opening and closing quotes
// included, and value slot s goes at text[cuts[s]]. Escaping the runs
// apart is escaping them in place: every run begins and ends with an
// ASCII byte (a name always sits between delimiters), and an escaped
// value is valid UTF-8 or, for a comment, sits between ASCII delimiters.
type skeleton struct {
	text string
	cuts []int32
}

// skeletons keeps each shape's skeleton on the shape.
var skeletons = NewShapeMemo(func(d *Document) *skeleton {
	p := printer{sh: d.sh, cuts: make([]int32, 0, len(d.sh.slots))}
	raw := p.appendNode(nil, 0, 0)
	text := make([]byte, 0, len(raw)+len(raw)/8+2)
	text = append(text, '"')
	at := int32(0)
	for s, cut := range p.cuts {
		text = jsonstr.AppendContents(text, raw[at:cut])
		p.cuts[s], at = int32(len(text)), cut
	}
	text = append(jsonstr.AppendContents(text, raw[at:]), '"')
	return &skeleton{text: string(text), cuts: p.cuts}
})

// printer serialises a shape: with vals, a document's; with cuts (and no
// values), a skeleton, recording where each value slot goes instead of
// writing it.
type printer struct {
	sh   *shape
	vals values
	cuts []int32
}

// value appends value slot s: an attribute or text value XML-escaped, a
// comment as it is.
func (p *printer) value(dst []byte, s int32) []byte {
	switch {
	case p.cuts != nil:
		p.cuts = append(p.cuts, int32(len(dst)))
		return dst
	case p.sh.slots[s] == -int32(CommentNode):
		return append(dst, p.vals.at(int(s))...)
	default:
		return appendEscaped(dst, p.vals.at(int(s)))
	}
}

func appendIndent(dst []byte, depth int) []byte {
	const spaces = "                                                                "
	for n := 2 * depth; n > 0; n -= len(spaces) {
		dst = append(dst, spaces[:min(n, len(spaces))]...)
	}
	return dst
}

// appendNode serialises node i on lines of its own: an element with only
// element and comment children gets a line per child, anything else —
// text, a comment, an empty element, an element with a text child — is
// one line. Elements with text children are rendered inline because
// injecting indentation inside mixed content would alter the text.
func (p *printer) appendNode(dst []byte, i int32, depth int) []byte {
	dst = appendIndent(dst, depth)
	if end := p.sh.end(i); i+1 < end && !p.sh.hasTextChild(i) {
		dst = p.appendOpenTag(dst, i, false)
		dst = append(dst, '\n')
		for c := i + 1; c < end; c = p.sh.end(c) {
			dst = p.appendNode(dst, c, depth+1)
		}
		dst = appendIndent(dst, depth)
		dst = p.appendCloseTag(dst, i)
	} else {
		dst = p.appendInline(dst, i)
	}
	return append(dst, '\n')
}

func (sh *shape) hasTextChild(i int32) bool {
	for c, end := i+1, sh.end(i); c < end; c = sh.end(c) {
		if sh.nodes[c].kind() == TextNode {
			return true
		}
	}
	return false
}

func (p *printer) appendOpenTag(dst []byte, i int32, selfClose bool) []byte {
	sh := p.sh
	dst = append(dst, '<')
	dst = append(dst, sh.name(sh.nodes[i].name)...)
	lo, hi := sh.attrs(i)
	for s := lo; s < hi; s++ {
		dst = append(dst, ' ')
		dst = append(dst, sh.name(sh.slots[s])...)
		dst = append(dst, `="`...)
		dst = p.value(dst, s)
		dst = append(dst, '"')
	}
	if selfClose {
		return append(dst, "/>"...)
	}
	return append(dst, '>')
}

func (p *printer) appendCloseTag(dst []byte, i int32) []byte {
	dst = append(dst, "</"...)
	dst = append(dst, p.sh.name(p.sh.nodes[i].name)...)
	return append(dst, '>')
}

// appendInline serialises the subtree with no added whitespace.
func (p *printer) appendInline(dst []byte, i int32) []byte {
	nd := &p.sh.nodes[i]
	switch nd.kind() {
	case TextNode:
		dst = p.value(dst, nd.slot)
	case CommentNode:
		dst = append(dst, "<!--"...)
		dst = p.value(dst, nd.slot)
		dst = append(dst, "-->"...)
	case ElementNode:
		end := p.sh.end(i)
		if i+1 == end {
			return p.appendOpenTag(dst, i, true)
		}
		dst = p.appendOpenTag(dst, i, false)
		for c := i + 1; c < end; c = p.sh.end(c) {
			dst = p.appendInline(dst, c)
		}
		dst = p.appendCloseTag(dst, i)
	}
	return dst
}

// appendEscaped appends s with the five XML special characters replaced
// by their entities and every byte that is not part of a valid UTF-8
// sequence replaced by U+FFFD. Runs of bytes needing neither are copied
// whole.
func appendEscaped(dst []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); {
		var esc string
		width := 1
		switch c := s[i]; {
		case c == '<':
			esc = "&lt;"
		case c == '>':
			esc = "&gt;"
		case c == '&':
			esc = "&amp;"
		case c == '"':
			esc = "&quot;"
		case c == '\'':
			esc = "&apos;"
		case c < utf8.RuneSelf:
			i++
			continue
		default:
			var r rune
			if r, width = utf8.DecodeRuneInString(s[i:]); r != utf8.RuneError || width != 1 {
				i += width
				continue
			}
			esc = "\uFFFD"
		}
		dst = append(dst, s[start:i]...)
		dst = append(dst, esc...)
		i += width
		start = i
	}
	return append(dst, s[start:]...)
}

// escapedJSON maps each ASCII byte to the JSON-escaped contents of its XML
// escape, "" for the bytes both leave alone; invalidJSON is the same for
// a byte that is not part of a valid UTF-8 sequence. Both are derived from
// the two escapers they fuse.
var escapedJSON, invalidJSON = func() (t [utf8.RuneSelf]string, invalid string) {
	for c := range t {
		b := []byte{byte(c)}
		if esc := jsonstr.AppendContents(nil, appendEscaped(nil, string(b))); string(esc) != string(b) {
			t[c] = string(esc)
		}
	}
	return t, string(jsonstr.AppendContents(nil, appendEscaped(nil, "\xff")))
}()

// plainJSON tells the bytes both escapes leave alone.
var plainJSON = func() (t [256]bool) {
	for c, esc := range escapedJSON {
		t[c] = esc == ""
	}
	return t
}()

// appendEscapedJSON appends the JSON-escaped contents of s's XML escape in
// one pass, without the XML escape in between: a value needing neither is
// copied whole.
func appendEscapedJSON(dst []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if plainJSON[c] {
			i++
			continue
		}
		if c < utf8.RuneSelf {
			dst = append(dst, s[start:i]...)
			dst = append(dst, escapedJSON[c]...)
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			dst = append(dst, s[start:i]...)
			dst = append(dst, invalidJSON...)
		case r == '\u2028' || r == '\u2029':
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', "89"[r&1])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(dst, s[start:]...)
}

// HasToken reports whether a token of s (see AppendTokens), lower-cased,
// is token, with no allocation: the tokens are compared in place.
func HasToken(s, token string) bool {
	for lo, hi := nextToken(s, 0); lo < hi; lo, hi = nextToken(s, hi) {
		if hi-lo == len(token) && lowerIs(s[lo:hi], token) {
			return true
		}
	}
	return false
}

// lowerIs reports whether the ASCII word w, lower-cased, is lower (of
// the same length).
func lowerIs(w, lower string) bool {
	for i := 0; i < len(w); i++ {
		c := w[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != lower[i] {
			return false
		}
	}
	return true
}

// AppendTokens appends s's word tokens to dst, lower-cased. Letters,
// digits, '.', '-' and '_' are word characters (so a term like
// "protein.TP53" is one token); every other byte separates tokens. Word
// characters are ASCII, so a token is a substring of s, copied only when
// it has to be lower-cased.
func AppendTokens(dst []string, s string) []string {
	for lo, hi := nextToken(s, 0); lo < hi; lo, hi = nextToken(s, hi) {
		dst = append(dst, strings.ToLower(s[lo:hi]))
	}
	return dst
}

// nextToken returns the bounds of the first token of s at or after i;
// lo == hi when there is none.
func nextToken(s string, i int) (lo, hi int) {
	for i < len(s) && !isWordByte(s[i]) {
		i++
	}
	lo = i
	for i < len(s) && isWordByte(s[i]) {
		i++
	}
	return lo, i
}

func isWordByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
		c == '.' || c == '-' || c == '_'
}
