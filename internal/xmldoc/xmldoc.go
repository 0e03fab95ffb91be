// Package xmldoc provides the XML document model underlying Graphitti's
// annotation contents.
//
// The paper stores each annotation content as "an XML document whose
// elements consist of Dublin core attributes and other user-defined tags",
// and the a-graph "connects nodes of the XML annotation trees" to index and
// ontology nodes. A server holds one such document per annotation, so the
// model is built to be small: a document is one flat, append-only slab.
//
// # Layout
//
// Every node of a document is a value in one slice, in document order (a
// parent before its children, a subtree before the next sibling). A node
// carries its parent's index, the index one past its last descendant (its
// extent), one string that is the element name or the character data, and
// the bounds of its attributes in a second slice that all elements of the
// document share. There is no per-node heap object, child slice or back
// pointer: the descendants of node i are the slab entries i+1 up to its
// extent, its children are found by hopping from extent to extent, and
// slab order is document order, so a sorted list of indices needs no
// further sort.
//
// A document is built front to back: a node can only be added under an
// element whose subtree still reaches the end of the slab (the root, or
// the element added last, or one of its ancestors). Every document this
// repository builds — the commit path's content document, Parse — is
// written in that order anyway.
//
// # IDs and handles
//
// A node's ID is its slab index plus one. IDs are therefore dense, stable
// for the life of the document and assigned in document order, which is
// what external structures that reference individual elements (the
// a-graph's content nodes, Path) rely on.
//
// Callers reach nodes through Node, a small value handle: the document and
// an index. A handle stays valid across later additions to its document
// and for as long as the document lives; it keeps the whole document
// alive, not just its node. A handle must not be used with another
// document's methods. The slice Attrs returns is a view into the shared
// attribute slab: it is valid until the next SetAttr on the document.
// A finished document is immutable by convention — published annotation
// contents are read concurrently and never written.
package xmldoc

import (
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"
	"unicode/utf8"
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

// node is one slab entry (32 bytes).
type node struct {
	// text is the element name, or the character data of a text or
	// comment node.
	text   string
	parent int32 // slab index of the parent; -1 for the root
	// end is the index one past the node's last descendant, or 0 while the
	// subtree still reaches the end of the slab (see Document.end).
	end int32
	// An element's attributes are attrs[attrLo:attrHi] of its document.
	// Text and comment nodes have none and keep their kind here instead,
	// negated: both are -TextNode or -CommentNode.
	attrLo, attrHi int32
}

func (nd *node) kind() Kind {
	if nd.attrLo < 0 {
		return Kind(-nd.attrLo)
	}
	return ElementNode
}

// Document is one XML document: a slab of nodes in document order and the
// attributes of all its elements.
type Document struct {
	// Root is the root element.
	Root  Node
	nodes []node
	attrs []Attr
}

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
	i    int32 // slab index
	attr int32 // 0, or 1 + the index in d.attrs of the attribute addressed
}

// NewDocument returns a document holding a root element of the given name.
func NewDocument(rootName string) *Document {
	return NewDocumentCap(rootName, 0, 0)
}

// NewDocumentCap is NewDocument with room for the given number of nodes
// (the root included) and attributes, for a caller that knows what it is
// about to build.
func NewDocumentCap(rootName string, nodes, attrs int) *Document {
	d := &Document{nodes: make([]node, 0, nodes), attrs: make([]Attr, 0, attrs)}
	d.add(-1, ElementNode, rootName)
	return d
}

// add appends a node under the element at index parent (-1: as the root)
// and returns its index. The parent's subtree must still reach the end of
// the slab; every element between the last node and the parent ends here.
func (d *Document) add(parent int32, kind Kind, text string) int32 {
	i := int32(len(d.nodes))
	nd := node{text: text, parent: parent}
	if kind != ElementNode {
		nd.attrLo, nd.attrHi, nd.end = -int32(kind), -int32(kind), i+1
	}
	if parent < 0 {
		d.Root = Node{d: d}
	} else {
		if p := &d.nodes[parent]; p.end != 0 {
			panic(fmt.Sprintf("xmldoc: node %d is closed: a document is built in document order", parent+1))
		}
		for a := i - 1; a != parent; a = d.nodes[a].parent {
			if d.nodes[a].end == 0 {
				d.nodes[a].end = i
			}
		}
	}
	d.nodes = append(d.nodes, nd)
	return i
}

// end returns the index one past the last descendant of node i.
func (d *Document) end(i int32) int32 {
	if e := d.nodes[i].end; e != 0 {
		return e
	}
	return int32(len(d.nodes))
}

// attrsOf returns the attributes of a slab entry, capped so that an append
// by the caller cannot reach the next element's.
func (d *Document) attrsOf(nd *node) []Attr {
	if nd.attrLo >= nd.attrHi {
		return nil // no attributes, or a text or comment node
	}
	return d.attrs[nd.attrLo:nd.attrHi:nd.attrHi]
}

// own returns the slab index of a handle that must address a node of d.
func (d *Document) own(n Node) int32 {
	if n.d != d || n.attr != 0 {
		panic("xmldoc: handle is not a node of this document")
	}
	return n.i
}

// Len reports the number of nodes in the document.
func (d *Document) Len() int { return len(d.nodes) }

// AddElement appends an element as the last child of parent and returns
// it.
func (d *Document) AddElement(parent Node, name string) Node {
	return Node{d: d, i: d.add(d.own(parent), ElementNode, name)}
}

// AddText appends a text node as the last child of parent and returns it.
func (d *Document) AddText(parent Node, text string) Node {
	return Node{d: d, i: d.add(d.own(parent), TextNode, text)}
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

// ID returns the node's ID within its document: its slab index plus one.
func (n Node) ID() uint64 { return uint64(n.i) + 1 }

// Kind returns the node's type.
func (n Node) Kind() Kind {
	if n.attr != 0 {
		return TextNode
	}
	return n.d.nodes[n.i].kind()
}

// Name returns the element name ("" for text and comment nodes).
func (n Node) Name() string {
	if n.attr != 0 {
		return n.d.attrs[n.attr-1].Name
	}
	if nd := &n.d.nodes[n.i]; nd.kind() == ElementNode {
		return nd.text
	}
	return ""
}

// Value returns the character data of a text or comment node ("" for
// elements).
func (n Node) Value() string {
	if n.attr != 0 {
		return n.d.attrs[n.attr-1].Value
	}
	if nd := &n.d.nodes[n.i]; nd.kind() != ElementNode {
		return nd.text
	}
	return ""
}

// Parent returns the node's parent element; the root has none.
func (n Node) Parent() Node {
	if n.attr != 0 {
		return Node{d: n.d, i: n.i}
	}
	if p := n.d.nodes[n.i].parent; p >= 0 {
		return Node{d: n.d, i: p}
	}
	return Node{}
}

// FirstChild returns the node's first child, if it has one. With
// NextSibling it walks the children in order:
//
//	for c := n.FirstChild(); c.Valid(); c = c.NextSibling() { … }
func (n Node) FirstChild() Node {
	if n.attr == 0 && n.i+1 < n.d.end(n.i) {
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
	if p := n.d.nodes[n.i].parent; p >= 0 {
		if next := n.d.end(n.i); next < n.d.end(p) {
			return Node{d: n.d, i: next}
		}
	}
	return Node{}
}

// Attrs returns the element's attributes, in the order they were set. The
// slice is a view into the document; callers must not modify it.
func (n Node) Attrs() []Attr {
	if n.attr != 0 {
		return nil
	}
	return n.d.attrsOf(&n.d.nodes[n.i])
}

// AttrNode returns a handle on the k-th attribute of Attrs.
func (n Node) AttrNode(k int) Node {
	_ = n.Attrs()[k]
	return Node{d: n.d, i: n.i, attr: n.d.nodes[n.i].attrLo + int32(k) + 1}
}

// Attr returns the value of the named attribute and whether it is present.
func (n Node) Attr(name string) (string, bool) {
	for _, a := range n.Attrs() {
		if a.Name == name {
			return a.Value, true
		}
	}
	return "", false
}

// SetAttr sets (or replaces) an attribute on an element node.
func (n Node) SetAttr(name, value string) {
	d := n.d
	nd := &d.nodes[d.own(n)]
	if nd.kind() != ElementNode {
		panic("xmldoc: SetAttr on a " + nd.kind().String() + " node")
	}
	own := d.attrs[nd.attrLo:nd.attrHi]
	for k := range own {
		if own[k].Name == name {
			own[k].Value = value
			return
		}
	}
	if int(nd.attrHi) != len(d.attrs) {
		// Another element has taken attributes since: move this one's to
		// the tail, so that they stay one run of the slab.
		nd.attrLo = int32(len(d.attrs))
		d.attrs = append(d.attrs, own...)
	}
	d.attrs = append(d.attrs, Attr{name, value})
	nd.attrHi = int32(len(d.attrs))
}

// Text returns the concatenation of all text content in the subtree rooted
// at n, in document order. The text of a subtree with a single text node
// is that node's string, not a copy.
func (n Node) Text() string {
	if n.attr != 0 {
		return n.Value()
	}
	d := n.d
	sub := d.nodes[n.i:d.end(n.i)]
	var first string
	pieces, size := 0, 0
	for k := range sub {
		if sub[k].kind() == TextNode {
			if pieces == 0 {
				first = sub[k].text
			}
			pieces++
			size += len(sub[k].text)
		}
	}
	if pieces <= 1 {
		return first
	}
	var sb strings.Builder
	sb.Grow(size)
	for k := range sub {
		if sub[k].kind() == TextNode {
			sb.WriteString(sub[k].text)
		}
	}
	return sb.String()
}

// ChildElements returns the element children of n, in order. If name is
// non-empty only elements with that name are returned.
func (n Node) ChildElements(name string) []Node {
	var out []Node
	for c := n.FirstChild(); c.Valid(); c = c.NextSibling() {
		if c.Kind() == ElementNode && (name == "" || c.Name() == name) {
			out = append(out, c)
		}
	}
	return out
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
	for j, end := n.i+1, n.d.end(n.i); j < end; j++ {
		if !fn(Node{d: n.d, i: j}) {
			return
		}
	}
}

// Compare orders two handles of one document by document order: negative
// when n comes before m, zero when they are equal. An attribute sorts after
// its element and before the element's first child, attributes of one
// element in the order Attrs lists them.
func (n Node) Compare(m Node) int {
	if n.i != m.i {
		return int(n.i) - int(m.i)
	}
	return int(n.attr) - int(m.attr)
}

// Path returns a simple absolute location path for the node, e.g.
// "/annotation/content[2]". Positional predicates count same-named
// siblings.
func (n Node) Path() string {
	p := n.Parent()
	if !p.Valid() {
		return "/" + n.Name()
	}
	name := n.Name()
	idx, count := 0, 0
	for sib := p.FirstChild(); sib.Valid(); sib = sib.NextSibling() {
		if sib.Kind() == ElementNode && sib.Name() == name {
			count++
			if sib == n {
				idx = count
			}
		}
	}
	step := name
	if n.Kind() == TextNode {
		step = "text()"
	}
	if count > 1 {
		return p.Path() + "/" + step + "[" + strconv.Itoa(idx) + "]"
	}
	return p.Path() + "/" + step
}

// Parse reads an XML document from r.
func Parse(r io.Reader) (*Document, error) {
	dec := xml.NewDecoder(r)
	d := &Document{}
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
			if open < 0 && len(d.nodes) > 0 {
				return nil, errors.New("xmldoc: multiple root elements")
			}
			open = d.add(open, ElementNode, t.Name.Local)
			nd := &d.nodes[open]
			nd.attrLo = int32(len(d.attrs))
			for _, a := range t.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				d.attrs = append(d.attrs, Attr{a.Name.Local, a.Value})
			}
			nd.attrHi = int32(len(d.attrs))
		case xml.EndElement:
			if open < 0 {
				return nil, errors.New("xmldoc: unbalanced end element")
			}
			open = d.nodes[open].parent
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
	if len(d.nodes) == 0 {
		return nil, ErrNoRoot
	}
	return d, nil
}

// ParseString parses an XML document from a string.
func ParseString(s string) (*Document, error) {
	return Parse(strings.NewReader(s))
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
	return d.appendNode(dst, 0, 0)
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
func (d *Document) appendNode(dst []byte, i int32, depth int) []byte {
	dst = appendIndent(dst, depth)
	if end := d.end(i); i+1 < end && !d.hasTextChild(i) {
		dst = d.appendOpenTag(dst, i, false)
		dst = append(dst, '\n')
		for c := i + 1; c < end; c = d.end(c) {
			dst = d.appendNode(dst, c, depth+1)
		}
		dst = appendIndent(dst, depth)
		dst = d.appendCloseTag(dst, i)
	} else {
		dst = d.appendInline(dst, i)
	}
	return append(dst, '\n')
}

func (d *Document) hasTextChild(i int32) bool {
	for c, end := i+1, d.end(i); c < end; c = d.end(c) {
		if d.nodes[c].kind() == TextNode {
			return true
		}
	}
	return false
}

func (d *Document) appendOpenTag(dst []byte, i int32, selfClose bool) []byte {
	nd := &d.nodes[i]
	dst = append(dst, '<')
	dst = append(dst, nd.text...)
	for _, a := range d.attrsOf(nd) {
		dst = append(dst, ' ')
		dst = append(dst, a.Name...)
		dst = append(dst, `="`...)
		dst = appendEscaped(dst, a.Value)
		dst = append(dst, '"')
	}
	if selfClose {
		return append(dst, "/>"...)
	}
	return append(dst, '>')
}

func (d *Document) appendCloseTag(dst []byte, i int32) []byte {
	dst = append(dst, "</"...)
	dst = append(dst, d.nodes[i].text...)
	return append(dst, '>')
}

// appendInline serialises the subtree with no added whitespace.
func (d *Document) appendInline(dst []byte, i int32) []byte {
	nd := &d.nodes[i]
	switch nd.kind() {
	case TextNode:
		dst = appendEscaped(dst, nd.text)
	case CommentNode:
		dst = append(dst, "<!--"...)
		dst = append(dst, nd.text...)
		dst = append(dst, "-->"...)
	case ElementNode:
		end := d.end(i)
		if i+1 == end {
			return d.appendOpenTag(dst, i, true)
		}
		dst = d.appendOpenTag(dst, i, false)
		for c := i + 1; c < end; c = d.end(c) {
			dst = d.appendInline(dst, c)
		}
		dst = d.appendCloseTag(dst, i)
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

// Equal reports whether two documents have the same structure and content,
// ignoring node IDs.
func Equal(a, b *Document) bool {
	return nodeEqual(a.Root, b.Root)
}

func nodeEqual(a, b Node) bool {
	if a.Kind() != b.Kind() || a.Name() != b.Name() || a.Value() != b.Value() {
		return false
	}
	as, bs := slices.Clone(a.Attrs()), slices.Clone(b.Attrs())
	if len(as) != len(bs) {
		return false
	}
	sort.Slice(as, func(i, j int) bool { return as[i].Name < as[j].Name })
	sort.Slice(bs, func(i, j int) bool { return bs[i].Name < bs[j].Name })
	if !slices.Equal(as, bs) {
		return false
	}
	ca, cb := a.FirstChild(), b.FirstChild()
	for ; ca.Valid() && cb.Valid(); ca, cb = ca.NextSibling(), cb.NextSibling() {
		if !nodeEqual(ca, cb) {
			return false
		}
	}
	return !ca.Valid() && !cb.Valid()
}

// Keywords returns the distinct lower-cased word tokens appearing in the
// document's text content and attribute values, sorted. Used by the
// annotation store's keyword index (ablation A6), which calls it on every
// commit and delete: the tokens are gathered in a stack buffer and only
// the distinct ones are copied out. A token may share memory with the
// text it was cut from.
func (d *Document) Keywords() []string {
	var buf [64]string
	words := buf[:0]
	for i := range d.nodes {
		nd := &d.nodes[i]
		if nd.kind() == TextNode {
			words = appendTokens(words, nd.text)
		}
		for _, a := range d.attrsOf(nd) {
			words = appendTokens(words, a.Value)
		}
	}
	slices.Sort(words)
	return slices.Clone(slices.Compact(words))
}

// Tokenize splits s into lower-cased word tokens. Letters, digits, '.', '-'
// and '_' are word characters (so terms like "protein.TP53" survive as one
// token); everything else separates tokens.
func Tokenize(s string) []string { return appendTokens(nil, s) }

// appendTokens appends s's tokens to dst. Word characters are ASCII, so a
// token is a substring of s, copied only when it has to be lower-cased.
func appendTokens(dst []string, s string) []string {
	start := -1
	for i := 0; i <= len(s); i++ {
		if i < len(s) && isWordByte(s[i]) {
			if start < 0 {
				start = i
			}
		} else if start >= 0 {
			dst = append(dst, strings.ToLower(s[start:i]))
			start = -1
		}
	}
	return dst
}

func isWordByte(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
		c == '.' || c == '-' || c == '_'
}
